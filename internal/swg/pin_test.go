package swg

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mosaic/internal/marginal"
	"mosaic/internal/schema"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

// The pinned hashes below were computed at the last commit that ran the
// [][]float64 layer substrate (a9ce720). They cover every trained parameter,
// the per-epoch loss History, and one seeded generated table (which also pins
// the BatchNorm running statistics through the eval forward). A kernel change
// that keeps them keeps every OPEN answer; one that moves them has changed the
// floating-point accumulation order somewhere and is not a pure speed-up.
const (
	pinSpiralLike  = "95d85c897b918aee" // 1-D marginals, λ > 0, proximity subsample active
	pinFlightsLike = "92fc73f08d7c93b3" // categorical × continuous 2-D marginals, 16 projections
)

// spiralLikeModel: two continuous attributes, binned 1-D marginals, λ > 0 and
// a sample larger than ProximitySubsample so the random proximity subsample
// (which consumes the training RNG) is active.
func spiralLikeModel(t testing.TB, workers int) *Model {
	t.Helper()
	return spiralLike(t, Config{
		Hidden: []int{32, 32, 32}, Latent: 2, Lambda: 0.04, BatchSize: 250,
		ProximitySubsample: 64, Projections: 16, Epochs: 6, StepsPerEpoch: 5,
		LR: 0.005, Workers: workers, Seed: 1,
	})
}

// spiralLike builds spiralLikeModel's world under any configuration.
func spiralLike(t testing.TB, cfg Config) *Model {
	t.Helper()
	sc := schema.MustNew(
		schema.Attribute{Name: "x", Kind: value.KindFloat},
		schema.Attribute{Name: "y", Kind: value.KindFloat},
	)
	rng := rand.New(rand.NewSource(11))
	pop := table.New("pop", sc)
	smp := table.New("s", sc)
	for i := 0; i < 4000; i++ {
		th := rng.Float64() * 3 * math.Pi
		r := th / (3 * math.Pi)
		x := 0.5 + 0.45*r*math.Cos(th) + rng.NormFloat64()*0.01
		y := 0.5 + 0.45*r*math.Sin(th) + rng.NormFloat64()*0.01
		row := []value.Value{value.Float(x), value.Float(y)}
		if err := pop.Append(row); err != nil {
			t.Fatal(err)
		}
		// Biased sample: the outer arm is eight times likelier to be kept.
		if rng.Float64() < 0.05+0.4*r {
			if err := smp.Append(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	var margs []*marginal.Marginal
	for _, a := range []string{"x", "y"} {
		m, err := marginal.FromTableBinned("m"+a, pop, []string{a}, map[string]float64{a: 0.04})
		if err != nil {
			t.Fatal(err)
		}
		margs = append(margs, m)
	}
	model, err := New(smp, margs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if smp.Len() <= model.Config().ProximitySubsample {
		t.Fatalf("sample of %d rows does not exercise the proximity subsample", smp.Len())
	}
	return model
}

// flightsLikeModel: one TEXT and three INT attributes with the paper's
// categorical × continuous and continuous × continuous 2-D marginals, so every
// loss term is sliced (16 projections) and the generator ends in a softmax
// block. The odd hidden widths and batch size keep any unrolled kernel's
// remainder loops on the pinned path.
func flightsLikeModel(t testing.TB, workers int) *Model {
	t.Helper()
	return flightsLike(t, Config{
		Hidden: []int{37, 29}, Latent: 8, Lambda: 1e-7, BatchSize: 131,
		ProximitySubsample: 256, Projections: 16, Epochs: 3, StepsPerEpoch: 4,
		LR: 0.01, Workers: workers, Seed: 1,
	})
}

// flightsLike builds flightsLikeModel's world under any configuration.
func flightsLike(t testing.TB, cfg Config) *Model {
	t.Helper()
	sc := schema.MustNew(
		schema.Attribute{Name: "carrier", Kind: value.KindText},
		schema.Attribute{Name: "taxi", Kind: value.KindInt},
		schema.Attribute{Name: "dist", Kind: value.KindInt},
		schema.Attribute{Name: "elapsed", Kind: value.KindInt},
	)
	carriers := []string{"WN", "AA", "DL", "OO", "UA"}
	rng := rand.New(rand.NewSource(12))
	pop := table.New("pop", sc)
	smp := table.New("s", sc)
	for i := 0; i < 3000; i++ {
		c := carriers[rng.Intn(len(carriers))]
		dist := 100 + rng.Intn(2400)
		taxi := 5 + rng.Intn(30)
		elapsed := 30 + dist/8 + taxi + rng.Intn(20)
		row := []value.Value{value.Text(c), value.Int(int64(taxi)), value.Int(int64(dist)), value.Int(int64(elapsed))}
		if err := pop.Append(row); err != nil {
			t.Fatal(err)
		}
		keep := 0.02
		if elapsed > 200 {
			keep = 0.3
		}
		if rng.Float64() < keep {
			if err := smp.Append(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	var margs []*marginal.Marginal
	for _, spec := range []struct {
		attrs  []string
		widths map[string]float64
	}{
		{[]string{"carrier", "elapsed"}, map[string]float64{"elapsed": 10}},
		{[]string{"taxi", "elapsed"}, map[string]float64{"taxi": 2, "elapsed": 10}},
		{[]string{"dist", "elapsed"}, map[string]float64{"dist": 50, "elapsed": 10}},
	} {
		m, err := marginal.FromTableBinned("m_"+spec.attrs[0], pop, spec.attrs, spec.widths)
		if err != nil {
			t.Fatal(err)
		}
		margs = append(margs, m)
	}
	model, err := New(smp, margs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// modelHash trains m and folds every trained parameter, the loss History and
// a seeded generated table into one FNV-1a hash.
func modelHash(t testing.TB, m *Model) string {
	t.Helper()
	if err := m.Train(); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(f float64) {
		b := math.Float64bits(f)
		for i := range buf {
			buf[i] = byte(b >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, p := range m.Net.Params() {
		for _, v := range p.Data {
			put(v)
		}
	}
	for _, l := range m.History {
		put(l)
	}
	// 301 rows: with either pinned batch size the last eval batch is a short
	// tail, so the tail path is pinned too.
	gen, err := m.GenerateSeeded("g", 301, 77)
	if err != nil {
		t.Fatal(err)
	}
	gen.Scan(func(row []value.Value, w float64) bool {
		for _, v := range row {
			if v.Kind() == value.KindText {
				h.Write([]byte(v.AsText()))
				continue
			}
			f, err := v.Float64()
			if err != nil {
				t.Fatal(err)
			}
			put(f)
		}
		put(w)
		return true
	})
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestTrainedBitsPinned is the bit-identity contract of the nn/swg kernels:
// trained weights, loss history and generated tuples are exactly what the
// reference substrate produced, for serial and parallel loss evaluation.
func TestTrainedBitsPinned(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(testing.TB, int) *Model
		want  string
	}{
		{"spiral-like", spiralLikeModel, pinSpiralLike},
		{"flights-like", flightsLikeModel, pinFlightsLike},
	} {
		for _, workers := range []int{1, 4} {
			if got := modelHash(t, tc.build(t, workers)); got != tc.want {
				t.Errorf("%s workers=%d: hash %s, pinned %s", tc.name, workers, got, tc.want)
			}
		}
	}
}

// TestTrainStepAllocatesNothing: with the scratch built, a serial training
// step allocates nothing. (Workers > 1 pays for its goroutines and no more.)
func TestTrainStepAllocatesNothing(t *testing.T) {
	for _, build := range []func(testing.TB, int) *Model{spiralLikeModel, flightsLikeModel} {
		m := build(t, 1)
		ts := m.newTrainScratch()
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := m.trainStep(ts); err != nil {
				t.Fatal(err)
			}
		})
		if raceEnabled {
			t.Skipf("race detector on: allocation count %v is not meaningful", allocs)
		}
		if allocs != 0 {
			t.Errorf("a steady-state train step allocates %v times, want 0", allocs)
		}
	}
}

// TestDivergedTrainingIsRefused: a learning rate that blows the weights up
// must end training with ErrDiverged at the first non-finite loss — never a
// "trained" model whose NaN outputs decode into garbage tuples.
func TestDivergedTrainingIsRefused(t *testing.T) {
	for _, lambda := range []float64{0.04, 1e-300} {
		m := spiralLikeModel(t, 1)
		m.cfg.Lambda = lambda
		m.adam.LR = 1e200
		err := m.Train()
		if !errors.Is(err, ErrDiverged) {
			t.Fatalf("λ=%g: Train() = %v, want ErrDiverged", lambda, err)
		}
		if want := "swg: training diverged (non-finite loss at epoch 0, step "; !strings.HasPrefix(err.Error(), want) {
			t.Errorf("λ=%g: error %q does not name the epoch and step", lambda, err)
		}
		for _, l := range m.History {
			if math.IsNaN(l) || math.IsInf(l, 0) {
				t.Errorf("λ=%g: non-finite loss %v recorded in History", lambda, l)
			}
		}
	}
}
