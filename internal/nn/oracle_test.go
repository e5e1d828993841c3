package nn

// The reference oracle: the [][]float64-per-layer substrate this package ran
// before its kernels went flat, kept verbatim (names prefixed ref) so the
// property tests in bits_test.go can hold the flat kernels to it bit for bit.
// Every layer allocates its output and caches per step; do not optimize it —
// its only job is to define the floating-point operation order.

import (
	"math"
)

// refLayer is one differentiable stage of a network.
type refLayer interface {
	// Forward maps a batch through the layer. train selects training
	// behaviour (batch statistics, activation caching).
	Forward(x [][]float64, train bool) [][]float64
	// Backward consumes ∂L/∂output and returns ∂L/∂input, accumulating
	// parameter gradients.
	Backward(grad [][]float64) [][]float64
	// Params returns the layer's trainable parameters.
	Params() []*Param
}

func refAlloc(batch, dim int) [][]float64 {
	flat := make([]float64, batch*dim)
	out := make([][]float64, batch)
	for i := range out {
		out[i] = flat[i*dim : (i+1)*dim]
	}
	return out
}

// refDense is a fully connected layer y = xW + b.
type refDense struct {
	In, Out int
	W, B    *Param
	lastX   [][]float64
}

// Forward implements refLayer.
func (d *refDense) Forward(x [][]float64, train bool) [][]float64 {
	if train {
		d.lastX = x
	}
	y := refAlloc(len(x), d.Out)
	for r, row := range x {
		yr := y[r]
		copy(yr, d.B.Data)
		for i, xi := range row {
			if xi == 0 {
				continue
			}
			wRow := d.W.Data[i*d.Out : (i+1)*d.Out]
			for j, w := range wRow {
				yr[j] += float64(xi * w)
			}
		}
	}
	return y
}

// Backward implements refLayer.
func (d *refDense) Backward(grad [][]float64) [][]float64 {
	if d.lastX == nil {
		panic("nn: refDense.Backward without training Forward")
	}
	gx := refAlloc(len(grad), d.In)
	for r, g := range grad {
		xr := d.lastX[r]
		gxr := gx[r]
		for j, gj := range g {
			d.B.Grad[j] += gj
		}
		for i, xi := range xr {
			wRow := d.W.Data[i*d.Out : (i+1)*d.Out]
			gRow := d.W.Grad[i*d.Out : (i+1)*d.Out]
			var s float64
			for j, gj := range g {
				gRow[j] += float64(xi * gj)
				s += float64(wRow[j] * gj)
			}
			gxr[i] = s
		}
	}
	d.lastX = nil
	return gx
}

// Params implements refLayer.
func (d *refDense) Params() []*Param { return []*Param{d.W, d.B} }

// refReLU is the rectifier activation.
type refReLU struct {
	mask [][]bool
}

// Forward implements refLayer.
func (r *refReLU) Forward(x [][]float64, train bool) [][]float64 {
	y := refAlloc(len(x), refDimOf(x))
	if train {
		r.mask = make([][]bool, len(x))
	}
	for i, row := range x {
		var m []bool
		if train {
			m = make([]bool, len(row))
			r.mask[i] = m
		}
		for j, v := range row {
			if v > 0 {
				y[i][j] = v
				if train {
					m[j] = true
				}
			}
		}
	}
	return y
}

// Backward implements refLayer.
func (r *refReLU) Backward(grad [][]float64) [][]float64 {
	if r.mask == nil {
		panic("nn: refReLU.Backward without training Forward")
	}
	gx := refAlloc(len(grad), refDimOf(grad))
	for i, g := range grad {
		for j, v := range g {
			if r.mask[i][j] {
				gx[i][j] = v
			}
		}
	}
	r.mask = nil
	return gx
}

// Params implements refLayer.
func (r *refReLU) Params() []*Param { return nil }

// refBatchNorm normalizes each feature over the batch, then applies a learned
// affine transform (the paper applies batch normalization after each layer).
type refBatchNorm struct {
	Dim         int
	Gamma, Beta *Param
	Momentum    float64
	Eps         float64

	runMean, runVar []float64
	// training caches
	xhat   [][]float64
	std    []float64
	center [][]float64
}

// Forward implements refLayer.
func (b *refBatchNorm) Forward(x [][]float64, train bool) [][]float64 {
	n := len(x)
	y := refAlloc(n, b.Dim)
	if !train || n == 1 {
		for i, row := range x {
			for j, v := range row {
				xh := (v - b.runMean[j]) / math.Sqrt(b.runVar[j]+b.Eps)
				y[i][j] = float64(b.Gamma.Data[j]*xh) + b.Beta.Data[j]
			}
		}
		return y
	}
	mean := make([]float64, b.Dim)
	for _, row := range x {
		for j, v := range row {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}
	variance := make([]float64, b.Dim)
	center := refAlloc(n, b.Dim)
	for i, row := range x {
		for j, v := range row {
			c := v - mean[j]
			center[i][j] = c
			variance[j] += float64(c * c)
		}
	}
	std := make([]float64, b.Dim)
	for j := range variance {
		variance[j] /= float64(n)
		std[j] = math.Sqrt(variance[j] + b.Eps)
		b.runMean[j] = float64(b.Momentum*b.runMean[j]) + float64((1-b.Momentum)*mean[j])
		b.runVar[j] = float64(b.Momentum*b.runVar[j]) + float64((1-b.Momentum)*variance[j])
	}
	xhat := refAlloc(n, b.Dim)
	for i := range x {
		for j := 0; j < b.Dim; j++ {
			xh := center[i][j] / std[j]
			xhat[i][j] = xh
			y[i][j] = float64(b.Gamma.Data[j]*xh) + b.Beta.Data[j]
		}
	}
	b.xhat, b.std, b.center = xhat, std, center
	return y
}

// Backward implements refLayer.
func (b *refBatchNorm) Backward(grad [][]float64) [][]float64 {
	if b.xhat == nil {
		panic("nn: refBatchNorm.Backward without training Forward")
	}
	n := len(grad)
	fn := float64(n)
	gx := refAlloc(n, b.Dim)
	sumG := make([]float64, b.Dim)
	sumGX := make([]float64, b.Dim)
	for i, g := range grad {
		for j, gj := range g {
			b.Beta.Grad[j] += gj
			b.Gamma.Grad[j] += float64(gj * b.xhat[i][j])
			sumG[j] += gj
			sumGX[j] += float64(gj * b.xhat[i][j])
		}
	}
	for i, g := range grad {
		for j, gj := range g {
			// dL/dx = gamma/std * (g - mean(g) - xhat*mean(g*xhat))
			gx[i][j] = b.Gamma.Data[j] / b.std[j] *
				(gj - sumG[j]/fn - b.xhat[i][j]*sumGX[j]/fn)
		}
	}
	b.xhat, b.std, b.center = nil, nil, nil
	return gx
}

// Params implements refLayer.
func (b *refBatchNorm) Params() []*Param { return []*Param{b.Gamma, b.Beta} }

// refSoftmaxBlocks applies softmax independently over designated column ranges
// and passes the remaining columns through unchanged. The M-SWG uses one
// block per categorical attribute ("we add a softmax layer for the
// categorical variable", Sec 5.3).
type refSoftmaxBlocks struct {
	Blocks [][2]int // [start,end) column ranges
	lastY  [][]float64
}

// Forward implements refLayer.
func (s *refSoftmaxBlocks) Forward(x [][]float64, train bool) [][]float64 {
	y := refAlloc(len(x), refDimOf(x))
	for i, row := range x {
		copy(y[i], row)
	}
	for _, blk := range s.Blocks {
		for i := range y {
			refSoftmaxInPlace(y[i][blk[0]:blk[1]])
		}
	}
	if train {
		s.lastY = y
	}
	return y
}

// Backward implements refLayer.
func (s *refSoftmaxBlocks) Backward(grad [][]float64) [][]float64 {
	if s.lastY == nil {
		panic("nn: refSoftmaxBlocks.Backward without training Forward")
	}
	gx := refAlloc(len(grad), refDimOf(grad))
	for i, g := range grad {
		copy(gx[i], g)
	}
	for _, blk := range s.Blocks {
		for i := range grad {
			y := s.lastY[i][blk[0]:blk[1]]
			g := grad[i][blk[0]:blk[1]]
			var dot float64
			for j := range y {
				dot += float64(y[j] * g[j])
			}
			out := gx[i][blk[0]:blk[1]]
			for j := range y {
				out[j] = y[j] * (g[j] - dot)
			}
		}
	}
	s.lastY = nil
	return gx
}

// Params implements refLayer.
func (s *refSoftmaxBlocks) Params() []*Param { return nil }

func refSoftmaxInPlace(v []float64) {
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

// refNetwork is a sequential stack of layers.
type refNetwork struct {
	Layers []refLayer
}

// Forward implements refLayer for the whole stack.
func (n *refNetwork) Forward(x [][]float64, train bool) [][]float64 {
	for _, l := range n.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward implements refLayer for the whole stack.
func (n *refNetwork) Backward(grad [][]float64) [][]float64 {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		grad = n.Layers[i].Backward(grad)
	}
	return grad
}

// Params implements refLayer.
func (n *refNetwork) Params() []*Param {
	var out []*Param
	for _, l := range n.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// refAdam is the reference Adam step.
type refAdam struct {
	LR    float64
	Beta1 float64
	Beta2 float64
	Eps   float64
	t     int
}

// newRefAdam creates the reference optimizer.
func newRefAdam(lr float64) *refAdam {
	return &refAdam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one Adam update to every parameter and clears gradients.
func (a *refAdam) Step(params []*Param) {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		for i, g := range p.Grad {
			p.m[i] = float64(a.Beta1*p.m[i]) + float64((1-a.Beta1)*g)
			p.v[i] = float64(a.Beta2*p.v[i]) + float64((1-a.Beta2)*g*g)
			mhat := p.m[i] / bc1
			vhat := p.v[i] / bc2
			p.Data[i] -= a.LR * mhat / (math.Sqrt(vhat) + a.Eps)
			p.Grad[i] = 0
		}
	}
}

func refDimOf(x [][]float64) int {
	if len(x) == 0 {
		return 0
	}
	return len(x[0])
}

// cloneParam deep-copies a parameter, moments included.
func cloneParam(p *Param) *Param {
	return &Param{
		Data: append([]float64(nil), p.Data...),
		Grad: append([]float64(nil), p.Grad...),
		m:    append([]float64(nil), p.m...),
		v:    append([]float64(nil), p.v...),
	}
}

// refFrom builds the reference twin of net: the same topology over deep
// copies of its parameters and BatchNorm running statistics.
func refFrom(net *Network) *refNetwork {
	ref := &refNetwork{}
	for _, l := range net.layers {
		switch l := l.(type) {
		case *Dense:
			ref.Layers = append(ref.Layers, &refDense{In: l.In, Out: l.Out, W: cloneParam(l.W), B: cloneParam(l.B)})
		case *BatchNorm:
			ref.Layers = append(ref.Layers, &refBatchNorm{
				Dim: l.Dim, Gamma: cloneParam(l.Gamma), Beta: cloneParam(l.Beta),
				Momentum: l.Momentum, Eps: l.Eps,
				runMean: append([]float64(nil), l.runMean...),
				runVar:  append([]float64(nil), l.runVar...),
			})
		case *ReLU:
			ref.Layers = append(ref.Layers, &refReLU{})
		case *SoftmaxBlocks:
			ref.Layers = append(ref.Layers, &refSoftmaxBlocks{Blocks: l.Blocks})
		}
	}
	return ref
}
