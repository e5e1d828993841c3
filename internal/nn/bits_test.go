package nn

import (
	"math"
	"math/rand"
	"testing"
)

// randomNet draws a topology the kernels have no reason to like: widths that
// are multiples of no unroll factor, optional BatchNorm and ReLU after each
// hidden Dense, and an optional softmax head over random disjoint blocks.
func randomNet(rng *rand.Rand) *Network {
	in := 1 + rng.Intn(9)
	var layers []Layer
	prev := in
	for h := rng.Intn(4); h > 0; h-- {
		w := 1 + rng.Intn(23)
		layers = append(layers, NewDense(prev, w, rng))
		if rng.Intn(4) > 0 {
			layers = append(layers, NewBatchNorm(w))
		}
		if rng.Intn(4) > 0 {
			layers = append(layers, NewReLU())
		}
		prev = w
	}
	out := 1 + rng.Intn(13)
	layers = append(layers, NewDense(prev, out, rng))
	if rng.Intn(2) == 0 {
		var blocks [][2]int
		for at := rng.Intn(2); at < out; {
			end := at + 1 + rng.Intn(out-at)
			blocks = append(blocks, [2]int{at, end})
			at = end + rng.Intn(3)
		}
		layers = append(layers, NewSoftmaxBlocks(blocks))
	}
	return NewNetwork(in, layers...)
}

// zeroedBatch is a normal batch with about a third of its entries exactly
// zero (some negative zero): the Dense kernels branch on x == 0.
func zeroedBatch(rng *rand.Rand, rows, dim int) Batch {
	b := randBatch(rng, rows, dim)
	for k := range b.Data {
		switch rng.Intn(6) {
		case 0:
			b.Data[k] = 0
		case 1:
			b.Data[k] = math.Copysign(0, -1)
		}
	}
	return b
}

func toRows(b Batch) [][]float64 {
	out := make([][]float64, b.Rows)
	for i := range out {
		out[i] = append([]float64(nil), b.Row(i)...)
	}
	return out
}

func sameBits(t *testing.T, what string, got []float64, want [][]float64) {
	t.Helper()
	k := 0
	for i, row := range want {
		for j, w := range row {
			if math.Float64bits(got[k]) != math.Float64bits(w) {
				t.Fatalf("%s[%d][%d]: %v (%#x), reference %v (%#x)", what, i, j, got[k], math.Float64bits(got[k]), w, math.Float64bits(w))
			}
			k++
		}
	}
	if k != len(got) {
		t.Fatalf("%s: %d values, reference has %d", what, len(got), k)
	}
}

func sameParams(t *testing.T, what string, net *Network, ref *refNetwork) {
	t.Helper()
	rp := ref.Params()
	for pi, p := range net.Params() {
		sameBits(t, what+" data", p.Data, [][]float64{rp[pi].Data})
		sameBits(t, what+" grad", p.Grad, [][]float64{rp[pi].Grad})
	}
	for li, l := range net.layers {
		if bn, ok := l.(*BatchNorm); ok {
			rbn := ref.Layers[li].(*refBatchNorm)
			sameBits(t, what+" runMean", bn.runMean, [][]float64{rbn.runMean})
			sameBits(t, what+" runVar", bn.runVar, [][]float64{rbn.runVar})
		}
	}
}

// TestFlatKernelsMatchReference holds the flat kernels to the [][]float64
// reference layers bit for bit: training outputs, parameter gradients,
// Adam-updated parameters and BatchNorm running statistics over several
// consecutive steps, then eval outputs on a full batch and a one-row tail.
func TestFlatKernelsMatchReference(t *testing.T) {
	for trial := int64(0); trial < 60; trial++ {
		rng := rand.New(rand.NewSource(100 + trial))
		net := randomNet(rng)
		ref := refFrom(net)
		rows := 2 + rng.Intn(40)
		ws := net.NewWorkspace(rows, true)
		adam, refAdam := NewAdam(0.01), newRefAdam(0.01)
		for step := 0; step < 4; step++ {
			x := zeroedBatch(rng, rows, net.in)
			g := zeroedBatch(rng, rows, net.Out())
			y := net.Forward(ws, x)
			sameBits(t, "train output", y.Data, ref.Forward(toRows(x), true))
			net.Backward(ws, g)
			ref.Backward(toRows(g))
			sameParams(t, "after backward", net, ref)
			adam.Step(net.Params())
			refAdam.Step(ref.Params())
			sameParams(t, "after Adam", net, ref)
		}
		ews := net.NewWorkspace(rows, false)
		for _, n := range []int{rows, 1} {
			x := zeroedBatch(rng, n, net.in)
			sameBits(t, "eval output", net.Eval(ews, x).Data, ref.Forward(toRows(x), false))
		}
		sameParams(t, "after eval", net, ref)
	}
}

// TestSteadyStateAllocatesNothing: once a workspace exists, a training step
// and an eval batch allocate nothing.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := NewMLP(6, []int{13, 11}, 9, [][2]int{{0, 4}, {5, 8}}, rng)
	adam := NewAdam(0.01)
	x, g := randBatch(rng, 31, 6), randBatch(rng, 31, 9)
	ws, ews := net.NewWorkspace(31, true), net.NewWorkspace(31, false)
	train := testing.AllocsPerRun(20, func() {
		net.Forward(ws, x)
		net.Backward(ws, g)
		adam.Step(net.Params())
	})
	eval := testing.AllocsPerRun(20, func() { net.Eval(ews, x) })
	if raceEnabled {
		t.Skipf("race detector on: allocation counts (train %v, eval %v) are not meaningful", train, eval)
	}
	if train != 0 || eval != 0 {
		t.Errorf("allocations per call: train step %v, eval batch %v; want 0", train, eval)
	}
}

// TestConcurrentEvalIsReadOnly: goroutines evaluating one network, each with
// its own workspace, agree bit for bit (and `go test -race` sees no write to
// the shared network).
func TestConcurrentEvalIsReadOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := NewMLP(4, []int{12, 12}, 7, [][2]int{{0, 3}}, rng)
	x := randBatch(rng, 17, 4)
	want := append([]float64(nil), net.Eval(net.NewWorkspace(17, false), x).Data...)
	done := make(chan []float64, 4)
	for w := 0; w < 4; w++ {
		go func() {
			ws := net.NewWorkspace(17, false)
			var last []float64
			for i := 0; i < 50; i++ {
				last = net.Eval(ws, x).Data
			}
			done <- last
		}()
	}
	for w := 0; w < 4; w++ {
		sameBits(t, "concurrent eval", <-done, [][]float64{want})
	}
}

// TestReLUSpecialValues: the branch-free ReLU selects on bit patterns; it
// must agree with `v > 0` on every class of float64, forward and backward.
func TestReLUSpecialValues(t *testing.T) {
	negZero := math.Copysign(0, -1)
	vals := []float64{
		0, negZero, 1, -1, math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
	}
	grads := []float64{3, negZero, math.NaN(), math.Inf(-1), 5, 6, 7, 8, 9, 10, 11, 12}
	var relu ReLU
	y := make([]float64, len(vals))
	gx := make([]float64, len(vals))
	relu.forward(vals, y, 1, nil)
	relu.backward(vals, y, grads, gx, 1, nil)
	ref := &refReLU{}
	sameBits(t, "forward", y, ref.Forward([][]float64{vals}, true))
	sameBits(t, "backward", gx, ref.Backward([][]float64{grads}))
}
