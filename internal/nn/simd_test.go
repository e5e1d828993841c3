package nn

import (
	"math"
	"math/rand"
	"testing"
)

// x86NaN is the NaN x86 makes for an invalid operation (Inf−Inf, 0·Inf).
// When two NaNs meet, the result carries the first operand's payload, and
// which operand of a Go multiplication or addition comes first is the
// compiler's choice (the race detector's instrumentation changes it). With
// x86NaN as the only NaN fed in, every NaN either side computes has the same
// bits, so the AVX2 kernels can be held to the scalar ones bit for bit.
var x86NaN = math.Float64frombits(0xfff8000000000000)

// specials are the values the kernels are fed besides ordinary numbers.
var specials = []float64{
	0, math.Copysign(0, -1), x86NaN, math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030,
	math.MaxFloat64, -math.MaxFloat64,
}

// kernelInput is a normal matrix with a share of exact zeros (half of them
// −0) and a sprinkling of special values.
func kernelInput(rng *rand.Rand, n int, zeros float64) []float64 {
	v := make([]float64, n)
	for k := range v {
		switch p := rng.Float64(); {
		case p < zeros:
			v[k] = math.Copysign(0, float64(rng.Intn(2)*2-1))
		case p < zeros+0.03:
			v[k] = specials[rng.Intn(len(specials))]
		default:
			v[k] = rng.NormFloat64()
		}
	}
	return v
}

// refForward, refGradW and refGradX state the kernels' contracts as plain
// loops.
func refForward(y, x, w, b []float64, rows, in, out int) {
	for r := 0; r < rows; r++ {
		for j := 0; j < out; j++ {
			s := b[j]
			for i := 0; i < in; i++ {
				if xi := x[r*in+i]; xi != 0 {
					s += float64(xi * w[i*out+j])
				}
			}
			y[r*out+j] = s
		}
	}
}

func refGradW(wg, x, g []float64, rows, in, out int) {
	for r := 0; r < rows; r++ {
		for i := 0; i < in; i++ {
			if xi := x[r*in+i]; xi != 0 {
				for j := 0; j < out; j++ {
					wg[i*out+j] += float64(xi * g[r*out+j])
				}
			}
		}
	}
}

func refGradX(gx, g, wt []float64, rows, in, out int) {
	for r := 0; r < rows; r++ {
		for i := 0; i < in; i++ {
			var s float64
			for j := 0; j < out; j++ {
				s += float64(wt[j*in+i] * g[r*out+j])
			}
			gx[r*in+i] = s
		}
	}
}

// sameOrBothNaN compares bit patterns, except that any two NaNs agree: off
// x86 an invalid operation makes a NaN of another sign.
func sameOrBothNaN(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

func sameBitsExactly(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// kernelCase is one shape: every width from 1 to 67 appears as both the
// output width (forward's and gradW's tiles) and the input width (gradX's
// tiles, and forward's gathers of more than one block), so every tile
// remainder is covered; rows run from 2 to 301; x is mostly zero, as behind
// a ReLU.
type kernelCase struct {
	rows, in, out      int
	wg, x, g, wt, w, b []float64
}

func kernelCases() []kernelCase {
	rng := rand.New(rand.NewSource(22))
	var cases []kernelCase
	for w := 1; w <= 67; w++ {
		for _, shape := range [][2]int{{1 + rng.Intn(67), w}, {w, 1 + rng.Intn(67)}} {
			in, out := shape[0], shape[1]
			rows := 2 + rng.Intn(300)
			cases = append(cases, kernelCase{
				rows: rows, in: in, out: out,
				wg: kernelInput(rng, in*out, 0.1),
				x:  kernelInput(rng, rows*in, 0.6),
				g:  kernelInput(rng, rows*out, 0.1),
				wt: kernelInput(rng, out*in, 0.1),
				w:  kernelInput(rng, in*out, 0.1),
				b:  kernelInput(rng, out, 0.1),
			})
		}
	}
	return cases
}

// checkKernels runs k on every case and holds it to want under same.
func checkKernels(t *testing.T, k, want denseKernels, same func(a, b float64) bool) {
	t.Helper()
	for _, c := range kernelCases() {
		gotY := make([]float64, c.rows*c.out)
		wantY := make([]float64, c.rows*c.out)
		k.forward(gotY, c.x, c.w, c.b, c.rows, c.in, c.out)
		want.forward(wantY, c.x, c.w, c.b, c.rows, c.in, c.out)
		gotW := append([]float64(nil), c.wg...)
		wantW := append([]float64(nil), c.wg...)
		k.gradW(gotW, c.x, c.g, c.rows, c.in, c.out)
		want.gradW(wantW, c.x, c.g, c.rows, c.in, c.out)
		gotX := make([]float64, c.rows*c.in)
		wantX := make([]float64, c.rows*c.in)
		k.gradX(gotX, c.g, c.wt, c.rows, c.in, c.out)
		want.gradX(wantX, c.g, c.wt, c.rows, c.in, c.out)
		for what, pair := range map[string][2][]float64{"forward": {gotY, wantY}, "gradW": {gotW, wantW}, "gradX": {gotX, wantX}} {
			checkSame(t, what, c, pair[0], pair[1], same)
		}
	}
}

func checkSame(t *testing.T, what string, c kernelCase, got, want []float64, same func(a, b float64) bool) {
	t.Helper()
	for e, v := range got {
		if w := want[e]; !same(v, w) {
			t.Fatalf("%s, %d rows, %d→%d: element %d is %v (%#x), want %v (%#x)",
				what, c.rows, c.in, c.out, e, v, math.Float64bits(v), w, math.Float64bits(w))
		}
	}
}

// TestBackwardKernels holds the portable kernels of Dense's training step
// (its forward and both halves of its backward) to the plain loops, and the
// AVX2 kernels to the portable ones bit for bit.
func TestBackwardKernels(t *testing.T) {
	t.Run("scalar", func(t *testing.T) {
		checkKernels(t, scalarKernels, denseKernels{refForward, refGradW, refGradX}, sameOrBothNaN)
	})
	t.Run("avx2", func(t *testing.T) {
		if simdKernels == nil {
			t.Skip("no AVX2 on this CPU or architecture: Dense's training step runs the scalar kernels")
		}
		checkKernels(t, *simdKernels, scalarKernels, sameBitsExactly)
	})
}

// TestMaskKernelGrid holds the AVX2 forward and weight gradient, which
// skip ±0 inputs through masks they build and walk in registers, to the
// portable loops bit for bit at every mask-word edge: input widths around
// one and two 64-input words, output widths at every tile remainder, and
// batches around one and two 64-row blocks. Each x has an all-zero row, an
// all-nonzero row, an all-zero column and an all-nonzero column, and the
// rest mixes ±0, NaN, ±Inf, subnormals and normal values.
func TestMaskKernelGrid(t *testing.T) {
	if simdKernels == nil {
		t.Skip("no AVX2 on this CPU or architecture: Dense's training step runs the scalar kernels")
	}
	rng := rand.New(rand.NewSource(49))
	edges := []float64{0, math.Copysign(0, -1), x86NaN, math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -0x1p-1030, 1.5, -2}
	rowCounts := []int{1, 2, 63, 64, 65, 129, 200}
	shape := 0
	for _, in := range []int{1, 2, 3, 4, 5, 17, 63, 64, 65, 128, 130} {
		for _, out := range []int{1, 2, 3, 4, 5, 16, 17, 33, 64} {
			rows := rowCounts[shape%len(rowCounts)]
			shape++
			x := make([]float64, rows*in)
			for k := range x {
				if rng.Intn(2) == 0 {
					x[k] = edges[rng.Intn(len(edges))]
				} else {
					x[k] = rng.NormFloat64()
				}
			}
			for r := 0; r < rows; r++ {
				x[r*in+in-1] = math.Copysign(0, float64(r%2*2-1)) // the last column is ±0
				x[r*in] = edges[2+r%(len(edges)-2)]               // the first never is
			}
			clear(x[:in]) // row 0 is all +0
			if rows > 1 {
				for i := 1; i < in-1; i++ { // row 1 is all nonzero but its last input
					x[in+i] = edges[2+i%(len(edges)-2)]
				}
			}
			c := kernelCase{
				rows: rows, in: in, out: out, x: x,
				w: kernelInput(rng, in*out, 0.1), b: kernelInput(rng, out, 0.1),
				g: kernelInput(rng, rows*out, 0.1), wg: kernelInput(rng, in*out, 0.1),
			}
			gotY, wantY := make([]float64, rows*out), make([]float64, rows*out)
			simdKernels.forward(gotY, c.x, c.w, c.b, rows, in, out)
			forwardGo(wantY, c.x, c.w, c.b, rows, in, out)
			checkSame(t, "forward", c, gotY, wantY, sameBitsExactly)
			gotW, wantW := clone(c.wg), clone(c.wg)
			simdKernels.gradW(gotW, c.x, c.g, rows, in, out)
			gradWGo(wantW, c.x, c.g, rows, in, out)
			checkSame(t, "gradW", c, gotW, wantW, sameBitsExactly)
		}
	}
}

// TestDenseForwardIsEval holds Dense's training forward, which runs on
// whichever kernels the CPU has, to its inference forward, which is always
// the portable loop: generation and training may dispatch differently only
// because they write the same bits.
func TestDenseForwardIsEval(t *testing.T) {
	for _, c := range kernelCases() {
		d := &Dense{In: c.in, Out: c.out, W: &Param{Data: c.w}, B: &Param{Data: c.b}}
		fwd := make([]float64, c.rows*c.out)
		eval := make([]float64, c.rows*c.out)
		d.forward(c.x, fwd, c.rows, nil)
		d.eval(c.x, eval, c.rows, nil)
		checkSame(t, "Dense.forward vs Dense.eval", c, fwd, eval, sameBitsExactly)
	}
}

// bnCase is one BatchNorm and ReLU shape: every width from 1 to 70, so every
// tile remainder is covered, each over 2 to 300 rows. The per-feature slices
// feed the kernels one at a time, as if an earlier pass had made them.
type bnCase struct {
	rows, dim                            int
	x, g                                 []float64
	gamma, beta, gammaG, betaG           []float64
	runMean, runVar                      []float64
	mean, std, scale, meanG, sumG, sumGX []float64
}

func bnCases() []bnCase {
	rng := rand.New(rand.NewSource(47))
	var cases []bnCase
	for dim := 1; dim <= 70; dim++ {
		rows := 2 + rng.Intn(299)
		feature := func() []float64 { return kernelInput(rng, dim, 0.1) }
		cases = append(cases, bnCase{
			rows: rows, dim: dim,
			x: kernelInput(rng, rows*dim, 0.1), g: kernelInput(rng, rows*dim, 0.1),
			gamma: feature(), beta: feature(), gammaG: feature(), betaG: feature(),
			runMean: feature(), runVar: feature(),
			mean: feature(), std: feature(), scale: feature(), meanG: feature(), sumG: feature(), sumGX: feature(),
		})
	}
	return cases
}

func clone(v []float64) []float64 { return append([]float64(nil), v...) }

// bnKernelOutputs runs each entry of k once on c's inputs, every entry on its
// own, and returns everything the entries write. A sum that must start from
// +0 is handed a slice of other values, so an entry that adds to it fails.
func bnKernelOutputs(k bnReLUKernels, c bnCase) map[string][]float64 {
	n, dim := c.rows*c.dim, c.dim
	out := map[string][]float64{}
	out["colSum sum"] = clone(c.mean)
	k.colSum(out["colSum sum"], c.x, c.rows, dim)
	out["center c"], out["center variance"] = make([]float64, n), clone(c.sumG)
	k.center(out["center c"], out["center variance"], c.x, c.mean, c.rows, dim)
	out["normalize xhat"], out["normalize y"] = clone(c.x), make([]float64, n)
	k.normalize(out["normalize xhat"], out["normalize y"], c.std, c.gamma, c.beta, c.rows, dim)
	out["gradSums betaG"], out["gradSums gammaG"] = clone(c.betaG), clone(c.gammaG)
	out["gradSums sumG"], out["gradSums sumGX"] = clone(c.sumG), clone(c.sumGX)
	k.gradSums(out["gradSums betaG"], out["gradSums gammaG"], out["gradSums sumG"], out["gradSums sumGX"], c.g, c.x, c.rows, dim)
	out["gradX gx"] = make([]float64, n)
	k.gradX(out["gradX gx"], c.g, c.x, c.scale, c.meanG, c.sumGX, c.rows, dim)
	out["mask forward"], out["mask backward"] = make([]float64, n), make([]float64, n)
	k.mask(out["mask forward"], c.x, c.x)
	k.mask(out["mask backward"], c.g, c.x)
	return out
}

// bnLayerOutputs runs a BatchNorm and a ReLU through one training step on k,
// and returns their outputs, BatchNorm's xhat and std, its running statistics
// and every gradient.
func bnLayerOutputs(k bnReLUKernels, c bnCase) map[string][]float64 {
	defer func(saved bnReLUKernels) { bnReLU = saved }(bnReLU)
	bnReLU = k
	n, dim := c.rows*c.dim, c.dim
	bn := NewBatchNorm(dim)
	copy(bn.Gamma.Data, c.gamma)
	copy(bn.Beta.Data, c.beta)
	copy(bn.Gamma.Grad, c.gammaG)
	copy(bn.Beta.Grad, c.betaG)
	copy(bn.runMean, c.runMean)
	copy(bn.runVar, c.runVar)
	aux := make([]float64, bn.auxLen(c.rows, true))
	out := map[string][]float64{"bn y": make([]float64, n), "bn gx": make([]float64, n)}
	bn.forward(c.x, out["bn y"], c.rows, aux)
	out["bn xhat"], out["bn std"] = clone(aux[:n]), clone(aux[len(aux)-3*dim:len(aux)-2*dim])
	out["bn runMean"], out["bn runVar"] = bn.runMean, bn.runVar
	bn.backward(nil, out["bn y"], c.g, out["bn gx"], c.rows, aux)
	out["bn gammaG"], out["bn betaG"] = bn.Gamma.Grad, bn.Beta.Grad
	var relu ReLU
	out["relu y"], out["relu gx"] = make([]float64, n), make([]float64, n)
	relu.forward(c.x, out["relu y"], c.rows, nil)
	relu.backward(c.x, out["relu y"], c.g, out["relu gx"], c.rows, nil)
	return out
}

// refLayerOutputs is bnLayerOutputs on the reference layers of oracle_test.go.
func refLayerOutputs(c bnCase) map[string][]float64 {
	dim := c.dim
	bn := &refBatchNorm{
		Dim: dim, Momentum: 0.9, Eps: 1e-5,
		Gamma:   &Param{Data: clone(c.gamma), Grad: clone(c.gammaG)},
		Beta:    &Param{Data: clone(c.beta), Grad: clone(c.betaG)},
		runMean: clone(c.runMean), runVar: clone(c.runVar),
	}
	flat := func(rows [][]float64) []float64 {
		var v []float64
		for _, r := range rows {
			v = append(v, r...)
		}
		return v
	}
	x := toRows(Batch{Rows: c.rows, Dim: dim, Data: c.x})
	g := toRows(Batch{Rows: c.rows, Dim: dim, Data: c.g})
	out := map[string][]float64{"bn y": flat(bn.Forward(x, true))}
	out["bn xhat"], out["bn std"] = flat(bn.xhat), clone(bn.std)
	out["bn runMean"], out["bn runVar"] = bn.runMean, bn.runVar
	out["bn gx"] = flat(bn.Backward(g))
	out["bn gammaG"], out["bn betaG"] = bn.Gamma.Grad, bn.Beta.Grad
	relu := &refReLU{}
	out["relu y"] = flat(relu.Forward(x, true))
	out["relu gx"] = flat(relu.Backward(g))
	return out
}

func checkOutputs(t *testing.T, c bnCase, got, want map[string][]float64, same func(a, b float64) bool) {
	t.Helper()
	for what, w := range want {
		g := got[what]
		if len(g) != len(w) {
			t.Fatalf("%s, %d rows × %d: %d values, want %d", what, c.rows, c.dim, len(g), len(w))
		}
		for e, v := range g {
			if !same(v, w[e]) {
				t.Fatalf("%s, %d rows × %d: element %d is %v (%#x), want %v (%#x)",
					what, c.rows, c.dim, e, v, math.Float64bits(v), w[e], math.Float64bits(w[e]))
			}
		}
	}
}

// TestBatchNormReLUKernels holds BatchNorm's and ReLU's training step on the
// portable kernels to the reference layers, and the AVX2 kernels to the
// portable ones bit for bit: each kernel on its own, and both layers through
// a forward and a backward.
func TestBatchNormReLUKernels(t *testing.T) {
	t.Run("scalar", func(t *testing.T) {
		for _, c := range bnCases() {
			checkOutputs(t, c, bnLayerOutputs(scalarBNReLU, c), refLayerOutputs(c), sameOrBothNaN)
		}
	})
	t.Run("avx2", func(t *testing.T) {
		if simdBNReLU == nil {
			t.Skip("no AVX2 on this CPU or architecture: BatchNorm and ReLU run the scalar kernels")
		}
		for _, c := range bnCases() {
			checkOutputs(t, c, bnKernelOutputs(*simdBNReLU, c), bnKernelOutputs(scalarBNReLU, c), sameBitsExactly)
			checkOutputs(t, c, bnLayerOutputs(*simdBNReLU, c), bnLayerOutputs(scalarBNReLU, c), sameBitsExactly)
		}
	})
}
