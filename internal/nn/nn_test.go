package nn

import (
	"math"
	"math/rand"
	"testing"
)

// quadLoss is L = Σ (y - target)² / batch, with gradient 2(y-target)/batch,
// used to drive gradient checks end-to-end.
func quadLoss(y, target Batch) (float64, Batch) {
	var loss float64
	grad := NewBatch(y.Rows, y.Dim)
	inv := 1 / float64(y.Rows)
	for k, v := range y.Data {
		d := v - target.Data[k]
		loss += d * d * inv
		grad.Data[k] = 2 * d * inv
	}
	return loss, grad
}

func randBatch(rng *rand.Rand, n, d int) Batch {
	out := NewBatch(n, d)
	for k := range out.Data {
		out.Data[k] = rng.NormFloat64()
	}
	return out
}

// batchOf builds a batch from literal rows.
func batchOf(rows ...[]float64) Batch {
	b := NewBatch(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(b.Row(i), r)
	}
	return b
}

// zeroGrads clears every parameter gradient of net.
func zeroGrads(net *Network) {
	for _, p := range net.Params() {
		clear(p.Grad)
	}
}

// gradCheck verifies parameter gradients of a network against central finite
// differences for a fixed input and quadratic loss.
func gradCheck(t *testing.T, net *Network, in, target Batch, tol float64) {
	t.Helper()
	ws := net.NewWorkspace(in.Rows, true)
	zeroGrads(net)
	_ = lossAndBackward(net, ws, in, target)
	// Snapshot analytic gradients.
	var analytic []float64
	for _, p := range net.Params() {
		analytic = append(analytic, p.Grad...)
	}
	// Finite differences.
	const h = 1e-5
	k := 0
	for _, p := range net.Params() {
		for i := range p.Data {
			old := p.Data[i]
			p.Data[i] = old + h
			lp := lossAndBackward(net, ws, in, target)
			p.Data[i] = old - h
			lm := lossAndBackward(net, ws, in, target)
			p.Data[i] = old
			num := (lp - lm) / (2 * h)
			if math.Abs(num-analytic[k]) > tol*math.Max(1, math.Abs(num)) {
				t.Errorf("param grad %d: analytic %g vs numeric %g", k, analytic[k], num)
			}
			k++
		}
	}
}

func lossAndBackward(net *Network, ws *Workspace, in, target Batch) float64 {
	y := net.Forward(ws, in)
	loss, grad := quadLoss(y, target)
	net.Backward(ws, grad)
	return loss
}

func TestDenseForwardShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewNetwork(3, NewDense(3, 2, rng))
	y := net.Eval(net.NewWorkspace(5, false), randBatch(rng, 5, 3))
	if y.Rows != 5 || y.Dim != 2 || len(y.Data) != 10 {
		t.Fatalf("shape = %dx%d (%d values)", y.Rows, y.Dim, len(y.Data))
	}
}

func TestDenseIsAffine(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := NewDense(2, 2, rng)
	net := NewNetwork(2, d)
	ws := net.NewWorkspace(1, false)
	b := append([]float64(nil), net.Eval(ws, batchOf([]float64{0, 0})).Data...)
	// y(e1) - y(0) gives the first weight row.
	y1 := net.Eval(ws, batchOf([]float64{1, 0})).Data
	for j := 0; j < 2; j++ {
		if math.Abs(y1[j]-b[j]-d.W.Data[0*2+j]) > 1e-12 {
			t.Errorf("column %d: affine identity broken", j)
		}
	}
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := NewNetwork(3, NewDense(3, 2, rng))
	in := randBatch(rng, 4, 3)
	target := randBatch(rng, 4, 2)
	gradCheck(t, net, in, target, 1e-4)
}

func TestReLUForwardBackward(t *testing.T) {
	// A leading Dense gives the ReLU an input gradient to fill (the first
	// layer of a network never computes one): identity weights, zero bias.
	d := NewDense(3, 3, rand.New(rand.NewSource(1)))
	for k := range d.W.Data {
		d.W.Data[k] = 0
	}
	d.W.Data[0], d.W.Data[4], d.W.Data[8] = 1, 1, 1
	net := NewNetwork(3, d, NewReLU())
	ws := net.NewWorkspace(1, true)
	y := net.Forward(ws, batchOf([]float64{-1, 2, 0}))
	if y.Data[0] != 0 || y.Data[1] != 2 || y.Data[2] != 0 {
		t.Errorf("ReLU forward = %v", y.Data)
	}
	net.Backward(ws, batchOf([]float64{5, 5, 5}))
	// Only the live unit passes gradient on to the Dense bias.
	if g := d.B.Grad; g[0] != 0 || g[1] != 5 || g[2] != 0 {
		t.Errorf("ReLU backward = %v", g)
	}
}

func TestMLPGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := NewMLP(3, []int{5}, 2, nil, rng)
	in := randBatch(rng, 6, 3)
	target := randBatch(rng, 6, 2)
	// ReLU kinks make exact finite differences noisy; nudge inputs away
	// from zero activations by using a generous tolerance.
	gradCheck(t, net, in, target, 5e-3)
}

func TestBatchNormNormalizes(t *testing.T) {
	net := NewNetwork(2, NewBatchNorm(2))
	rng := rand.New(rand.NewSource(5))
	x := randBatch(rng, 64, 2)
	for i := 0; i < x.Rows; i++ {
		x.Row(i)[0] = x.Row(i)[0]*3 + 10 // mean 10, sd 3
	}
	y := net.Forward(net.NewWorkspace(64, true), x)
	var mean, sq float64
	for i := 0; i < y.Rows; i++ {
		mean += y.Row(i)[0]
	}
	mean /= float64(y.Rows)
	for i := 0; i < y.Rows; i++ {
		d := y.Row(i)[0] - mean
		sq += d * d
	}
	sd := math.Sqrt(sq / float64(y.Rows))
	if math.Abs(mean) > 1e-9 || math.Abs(sd-1) > 1e-2 {
		t.Errorf("batchnorm output mean=%g sd=%g", mean, sd)
	}
}

func TestBatchNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := NewNetwork(2, NewDense(2, 3, rng), NewBatchNorm(3))
	in := randBatch(rng, 8, 2)
	target := randBatch(rng, 8, 3)
	gradCheck(t, net, in, target, 1e-3)
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	net := NewNetwork(1, NewBatchNorm(1))
	rng := rand.New(rand.NewSource(7))
	ws := net.NewWorkspace(32, true)
	// Train on shifted data to move the running mean.
	for step := 0; step < 200; step++ {
		x := randBatch(rng, 32, 1)
		for k := range x.Data {
			x.Data[k] += 5
		}
		y := net.Forward(ws, x)
		net.Backward(ws, y)
		zeroGrads(net)
	}
	// Eval on a single centered input: running mean ≈ 5 should subtract.
	y := net.Eval(net.NewWorkspace(1, false), batchOf([]float64{5}))
	if math.Abs(y.Data[0]) > 0.2 {
		t.Errorf("eval-mode output %g, want ≈0 (running mean)", y.Data[0])
	}
}

func TestBatchNormTrainingNeedsTwoRows(t *testing.T) {
	net := NewNetwork(1, NewBatchNorm(1))
	defer func() {
		if recover() == nil {
			t.Error("a one-row training batch has no batch statistics and must panic")
		}
	}()
	net.Forward(net.NewWorkspace(1, true), batchOf([]float64{1}))
}

func TestSoftmaxBlocks(t *testing.T) {
	net := NewNetwork(4, NewSoftmaxBlocks([][2]int{{0, 3}}))
	ws := net.NewWorkspace(1, false)
	y := net.Eval(ws, batchOf([]float64{1, 1, 1, 42})).Data
	for j := 0; j < 3; j++ {
		if math.Abs(y[j]-1.0/3) > 1e-12 {
			t.Errorf("softmax uniform = %v", y)
		}
	}
	if y[3] != 42 {
		t.Errorf("pass-through column modified: %g", y[3])
	}
	// Probabilities sum to 1 even with extreme inputs (stability shift).
	y = net.Eval(ws, batchOf([]float64{1000, -1000, 0, 0})).Data
	var sum float64
	for j := 0; j < 3; j++ {
		sum += y[j]
	}
	if math.Abs(sum-1) > 1e-9 || math.IsNaN(sum) {
		t.Errorf("softmax extreme sum = %g", sum)
	}
}

func TestSoftmaxGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := NewNetwork(2, NewDense(2, 4, rng), NewSoftmaxBlocks([][2]int{{0, 3}}))
	in := randBatch(rng, 5, 2)
	target := randBatch(rng, 5, 4)
	gradCheck(t, net, in, target, 1e-3)
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (w-3)² with Adam: w must approach 3.
	p := NewParam(1)
	adam := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		p.Grad[0] = 2 * (p.Data[0] - 3)
		adam.Step([]*Param{p})
	}
	if math.Abs(p.Data[0]-3) > 1e-2 {
		t.Errorf("Adam converged to %g, want 3", p.Data[0])
	}
}

func TestAdamStepClearsGradients(t *testing.T) {
	p := NewParam(2)
	p.Grad[0], p.Grad[1] = 1, -1
	NewAdam(0.01).Step([]*Param{p})
	if p.Grad[0] != 0 || p.Grad[1] != 0 {
		t.Error("Step must clear gradients")
	}
}

func TestNetworkTrainingReducesLoss(t *testing.T) {
	// End-to-end: a small MLP learns a fixed target mapping.
	rng := rand.New(rand.NewSource(9))
	net := NewMLP(2, []int{16}, 1, nil, rng)
	adam := NewAdam(0.01)
	in := randBatch(rng, 32, 2)
	target := NewBatch(32, 1)
	for i := 0; i < 32; i++ {
		target.Data[i] = in.Row(i)[0]*2 - in.Row(i)[1]
	}
	ws := net.NewWorkspace(32, true)
	first := -1.0
	var last float64
	for step := 0; step < 300; step++ {
		last = lossAndBackward(net, ws, in, target)
		if first < 0 {
			first = last
		}
		adam.Step(net.Params())
	}
	if last > first/10 {
		t.Errorf("loss %g -> %g; training failed to reduce by 10x", first, last)
	}
}

func TestBackwardWithoutForwardPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	net := NewNetwork(2, NewDense(2, 2, rng))
	defer func() {
		if recover() == nil {
			t.Error("Backward without Forward should panic")
		}
	}()
	net.Backward(net.NewWorkspace(1, true), batchOf([]float64{1, 1}))
}

func TestMismatchedWidthsPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	defer func() {
		if recover() == nil {
			t.Error("stacking Dense(3→2) under BatchNorm(4) should panic")
		}
	}()
	NewNetwork(3, NewDense(3, 2, rng), NewBatchNorm(4))
}

func TestXavierInitBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := NewDense(100, 100, rng)
	bound := math.Sqrt(6.0 / 200)
	for _, w := range d.W.Data {
		if math.Abs(w) > bound {
			t.Fatalf("weight %g exceeds Xavier bound %g", w, bound)
		}
	}
	for _, b := range d.B.Data {
		if b != 0 {
			t.Fatal("biases must start at zero")
		}
	}
}
