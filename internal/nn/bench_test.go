package nn

import (
	"math/rand"
	"testing"
)

// benchShape is one generator topology at one batch size.
type benchShape struct {
	name          string
	in, out, rows int
	hidden        []int
	softmax       [][2]int
}

var benchShapes = []benchShape{
	// The paper's flights generator topology: 5×50 hidden, 18-dim output.
	{"flights-5x50", 18, 18, 500, []int{50, 50, 50, 50, 50}, [][2]int{{0, 14}}},
	// The repo benchmark's ingest_refit generator: a 2-dim latent, 3×32
	// hidden, the spiral's 2 encoded columns, 250-row batches.
	{"spiral-bench", 2, 2, 250, []int{32, 32, 32}, nil},
}

func benchNet(s benchShape) (*Network, Batch, *Adam) {
	rng := rand.New(rand.NewSource(1))
	net := NewMLP(s.in, s.hidden, s.out, s.softmax, rng)
	in := NewBatch(s.rows, s.in)
	for k := range in.Data {
		in.Data[k] = rng.NormFloat64()
	}
	return net, in, NewAdam(0.001)
}

func BenchmarkForwardEval(b *testing.B) {
	net, in, _ := benchNet(benchShapes[0])
	ws := net.NewWorkspace(in.Rows, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Eval(ws, in)
	}
}

// BenchmarkTrainStep is one training forward, backward and Adam step; B/op
// reads 0 in the steady state.
func BenchmarkTrainStep(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			net, in, adam := benchNet(s)
			ws := net.NewWorkspace(in.Rows, true)
			grad := NewBatch(in.Rows, s.out)
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
		})
	}
}
