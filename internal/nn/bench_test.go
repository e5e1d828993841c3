package nn

import (
	"math/rand"
	"testing"
)

func benchNet(b *testing.B) (*Network, Batch, *Adam) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	// The paper's flights generator topology: 5×50 hidden, 18-dim output.
	net := NewMLP(18, []int{50, 50, 50, 50, 50}, 18, [][2]int{{0, 14}}, rng)
	in := NewBatch(500, 18)
	for k := range in.Data {
		in.Data[k] = rng.NormFloat64()
	}
	return net, in, NewAdam(0.001)
}

func BenchmarkForwardEval(b *testing.B) {
	net, in, _ := benchNet(b)
	ws := net.NewWorkspace(in.Rows, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Eval(ws, in)
	}
}

func BenchmarkTrainStep(b *testing.B) {
	net, in, adam := benchNet(b)
	ws := net.NewWorkspace(in.Rows, true)
	grad := NewBatch(in.Rows, 18)
	for k := range grad.Data {
		grad.Data[k] = 0.01
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(ws, in)
		net.Backward(ws, grad)
		adam.Step(net.Params())
	}
}
