package swg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mosaic/internal/marginal"
	"mosaic/internal/nn"
	"mosaic/internal/schema"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

// parallelWorld builds a model over a 2-D world with a 2-D marginal so the
// sliced (multi-projection) path is exercised.
func parallelWorld(t testing.TB, workers int) *Model {
	sc := schema.MustNew(
		schema.Attribute{Name: "x", Kind: value.KindFloat},
		schema.Attribute{Name: "y", Kind: value.KindFloat},
	)
	rng := rand.New(rand.NewSource(3))
	tbl := table.New("s", sc)
	for i := 0; i < 300; i++ {
		x := rng.Float64()
		_ = tbl.Append([]value.Value{value.Float(x), value.Float(x*0.5 + rng.Float64()*0.1)})
	}
	m, err := marginal.FromTableBinned("m", tbl, []string{"x", "y"},
		map[string]float64{"x": 0.1, "y": 0.1})
	if err != nil {
		t.Fatal(err)
	}
	model, err := New(tbl, []*marginal.Marginal{m}, Config{
		Hidden: []int{16, 16}, Latent: 2, BatchSize: 128,
		Projections: 24, Epochs: 2, StepsPerEpoch: 2,
		Lambda: 0.05, Workers: workers, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// evalLossAndGrad evaluates the loss and its gradient on one eval-mode batch
// drawn from the model's own RNG stream.
func evalLossAndGrad(t testing.TB, m *Model) (float64, nn.Batch) {
	t.Helper()
	ts := m.newTrainScratch()
	fillLatent(m.rng, ts.z)
	l, err := m.lossAndGrad(ts, m.Net.Eval(ts.ws, ts.z))
	if err != nil {
		t.Fatal(err)
	}
	return l, ts.grad
}

func TestParallelLossMatchesSerial(t *testing.T) {
	// The shard partition is fixed and reduced in shard order, so the loss
	// and gradient must be BIT-identical — not merely close — for every
	// worker count.
	serial := parallelWorld(t, 1)
	l1, g1 := evalLossAndGrad(t, serial)
	for _, workers := range []int{2, 4, 8} {
		parallel := parallelWorld(t, workers)
		// Same seed → identical nets and identical latent draws.
		l2, g2 := evalLossAndGrad(t, parallel)
		if l1 != l2 {
			t.Errorf("workers=%d: loss %v differs from serial %v", workers, l2, l1)
		}
		for r := 0; r < g1.Rows; r++ {
			for c := 0; c < g1.Dim; c++ {
				if g1.Row(r)[c] != g2.Row(r)[c] {
					t.Fatalf("workers=%d: grad[%d][%d] %v differs from serial %v", workers, r, c, g2.Row(r)[c], g1.Row(r)[c])
				}
			}
		}
	}
}

func TestTrainedModelIdenticalAcrossWorkerCounts(t *testing.T) {
	// Full pipeline determinism: training and seeded generation give
	// bit-identical outputs for Workers = 1, 4, 8.
	ref := parallelWorld(t, 1)
	if err := ref.Train(); err != nil {
		t.Fatal(err)
	}
	refGen := ref.GenerateEncodedSeeded(64, 99)
	for _, workers := range []int{4, 8} {
		m := parallelWorld(t, workers)
		if err := m.Train(); err != nil {
			t.Fatal(err)
		}
		for i := range ref.History {
			if ref.History[i] != m.History[i] {
				t.Fatalf("workers=%d: epoch %d loss %v differs from serial %v", workers, i, m.History[i], ref.History[i])
			}
		}
		gen := m.GenerateEncodedSeeded(64, 99)
		for r := 0; r < refGen.Rows; r++ {
			for c := 0; c < refGen.Dim; c++ {
				if refGen.Row(r)[c] != gen.Row(r)[c] {
					t.Fatalf("workers=%d: generated[%d][%d] %v differs from serial %v", workers, r, c, gen.Row(r)[c], refGen.Row(r)[c])
				}
			}
		}
	}
}

func TestGenerateSeededIndependentOfTrainingRNG(t *testing.T) {
	m := parallelWorld(t, 1)
	if err := m.Train(); err != nil {
		t.Fatal(err)
	}
	a := m.GenerateEncodedSeeded(32, 7)
	// Advancing the model's own RNG stream must not change seeded output.
	_ = m.GenerateEncoded(32)
	b := m.GenerateEncodedSeeded(32, 7)
	for k := range a.Data {
		if a.Data[k] != b.Data[k] {
			t.Fatalf("seeded generation drifted at value %d: %v vs %v", k, a.Data[k], b.Data[k])
		}
	}
	if math.IsNaN(a.Data[0]) {
		t.Fatal("NaN in generated output")
	}
}

func TestParallelTrainingIsDeterministic(t *testing.T) {
	a := parallelWorld(t, 4)
	b := parallelWorld(t, 4)
	if err := a.Train(); err != nil {
		t.Fatal(err)
	}
	if err := b.Train(); err != nil {
		t.Fatal(err)
	}
	for i := range a.History {
		if a.History[i] != b.History[i] {
			t.Fatalf("epoch %d: history %g vs %g (parallel run nondeterministic)", i, a.History[i], b.History[i])
		}
	}
}

// benchSpiral and benchFlights are the training configurations of the repo
// benchmark's ingest_refit and open_flights workloads (benchmark/models.go)
// over the pinned test worlds.
func benchSpiral(t testing.TB, workers int) *Model {
	return spiralLike(t, Config{
		Hidden: []int{32, 32, 32}, Latent: 2, Lambda: 0.04, BatchSize: 250,
		ProximitySubsample: 256, Projections: 16, Epochs: 50, StepsPerEpoch: 10,
		LR: 0.005, Workers: workers, Seed: 1,
	})
}

func benchFlights(t testing.TB, workers int) *Model {
	return flightsLike(t, Config{
		Hidden: []int{64, 64}, Latent: 18, Lambda: 1e-7, BatchSize: 250,
		ProximitySubsample: 256, Projections: 16, Epochs: 10, LR: 0.01,
		Workers: workers, Seed: 1,
	})
}

// trainStepRun is how many steps BenchmarkTrainStep times from one fresh
// model before it builds the next.
const trainStepRun = 10

// BenchmarkTrainStep is one full optimizer step (latent draw, training
// forward, loss and gradient, backward, Adam): at the repo benchmark's spiral
// and flights training shapes, at the pinned worlds' shapes, and on a sliced
// 2-D marginal; allocs/op is the steady-state figure the allocation test pins
// at zero for Workers 1. A step's cost moves as training goes on, so every
// trainStepRun timed steps start again from the same state: a freshly built,
// seeded model after one untimed warm-up step. ns/op is then the mean over
// the same trajectory whatever -benchtime is, as long as it is a multiple of
// trainStepRun.
func BenchmarkTrainStep(b *testing.B) {
	for _, bc := range []struct {
		name  string
		build func(testing.TB, int) *Model
	}{
		{"spiral-bench", benchSpiral},
		{"flights-bench", benchFlights},
		{"spiral-like", spiralLikeModel},
		{"flights-like", flightsLikeModel},
		{"sliced-2d", func(t testing.TB, workers int) *Model { return parallelWorld(t, workers) }},
	} {
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", bc.name, workers), func(b *testing.B) {
				var model *Model
				var ts *trainScratch
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if i%trainStepRun == 0 {
						b.StopTimer()
						model = bc.build(b, workers)
						ts = model.newTrainScratch()
						if _, err := model.trainStep(ts); err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
					}
					if _, err := model.trainStep(ts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkForwardEval is one seeded replicate: eval forward plus columnar
// decode of 2500 rows.
func BenchmarkForwardEval(b *testing.B) {
	model := spiralLikeModel(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.GenerateSeededWeighted("g", 2500, int64(i), 1); err != nil {
			b.Fatal(err)
		}
	}
}
