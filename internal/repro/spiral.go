// Package repro regenerates every table and figure of the paper's
// evaluation (Sec 3.3, Sec 5.3) plus the ablations A1–A5 of ablation.go.
// Each experiment is a pure function from a config to a result struct with
// a String() rendering, so the same drivers back the direction-asserting
// tests in repro_test.go, the examples and the mosaic-repro CLI.
package repro

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"mosaic/internal/dataset"
	"mosaic/internal/marginal"
	"mosaic/internal/stats"
	"mosaic/internal/swg"
	"mosaic/internal/table"
	"mosaic/internal/wasserstein"
)

// SpiralConfig tunes the synthetic-data experiments (Fig 5 and Fig 6).
type SpiralConfig struct {
	PopN    int     // population size (default 50000)
	SampleN int     // biased sample size (paper: 10000)
	Bias    float64 // right-half overrepresentation odds (default 8)
	Bins    int     // marginal histogram bins per axis (default 40)
	SWG     swg.Config
	Seed    int64
}

func (c SpiralConfig) withDefaults() SpiralConfig {
	if c.PopN <= 0 {
		c.PopN = 50000
	}
	if c.SampleN <= 0 {
		c.SampleN = 10000
	}
	if c.Bias <= 0 {
		c.Bias = 8
	}
	if c.Bins <= 0 {
		c.Bins = 40
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.SWG.Hidden) == 0 {
		// Paper: 3 ReLU FC layers with 100 nodes each, λ=0.04, ℓ=2,
		// batch 500 (Sec 5.3 footnote 3).
		c.SWG = swg.Config{
			Hidden:      []int{100, 100, 100},
			Latent:      2,
			Lambda:      0.04,
			BatchSize:   500,
			Projections: 64,
			Epochs:      25,
			LR:          0.001,
			Seed:        c.Seed,
		}
	}
	return c
}

// SpiralSetup bundles everything the spiral experiments share.
type SpiralSetup struct {
	Cfg       SpiralConfig
	Pop       *table.Table
	Sample    *table.Table
	Marginals []*marginal.Marginal
	Model     *swg.Model
}

// BuildSpiral generates the population and biased sample, derives the
// population's 1-D histogram marginals, and trains the M-SWG.
func BuildSpiral(cfg SpiralConfig) (*SpiralSetup, error) {
	cfg = cfg.withDefaults()
	pop := dataset.Spiral(dataset.SpiralConfig{N: cfg.PopN, Seed: cfg.Seed})
	sample, err := dataset.BiasedSpiralSample(pop, cfg.SampleN, cfg.Bias, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	width := 1.6 / float64(cfg.Bins) // data spans roughly [-0.3, 1.3]
	var margs []*marginal.Marginal
	for _, attr := range []string{"x", "y"} {
		m, err := marginal.FromTableBinned("spiral_"+attr, pop, []string{attr},
			map[string]float64{attr: width})
		if err != nil {
			return nil, err
		}
		margs = append(margs, m)
	}
	model, err := swg.New(sample, margs, cfg.SWG)
	if err != nil {
		return nil, err
	}
	if err := model.Train(); err != nil {
		return nil, err
	}
	return &SpiralSetup{Cfg: cfg, Pop: pop, Sample: sample, Marginals: margs, Model: model}, nil
}

// Fig5Result compares the biased sample and the M-SWG sample against the
// population: per-axis marginal W1 (lower = marginals better matched, the
// paper's "generated data more closely matches the marginals") and the mean
// nearest-population distance (lower = spiral shape maintained).
type Fig5Result struct {
	SampleW1X, SampleW1Y float64
	GenW1X, GenW1Y       float64
	SampleShape          float64
	GenShape             float64
	GeneratedN           int
}

// String renders the result as the two panels' summary.
func (r *Fig5Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 — spiral population, biased sample vs M-SWG sample\n")
	fmt.Fprintf(&b, "%-22s %12s %12s\n", "metric", "biased", "M-SWG")
	fmt.Fprintf(&b, "%-22s %12.5f %12.5f\n", "marginal W1 (x)", r.SampleW1X, r.GenW1X)
	fmt.Fprintf(&b, "%-22s %12.5f %12.5f\n", "marginal W1 (y)", r.SampleW1Y, r.GenW1Y)
	fmt.Fprintf(&b, "%-22s %12.5f %12.5f\n", "shape dist (mean NN)", r.SampleShape, r.GenShape)
	return b.String()
}

// RunFigure5 regenerates Fig 5's comparison.
func RunFigure5(cfg SpiralConfig) (*Fig5Result, error) {
	setup, err := BuildSpiral(cfg)
	if err != nil {
		return nil, err
	}
	return Figure5From(setup)
}

// Figure5From computes the Fig 5 metrics from an existing setup.
func Figure5From(s *SpiralSetup) (*Fig5Result, error) {
	gen, err := s.Model.Generate("mswg_sample", s.Cfg.SampleN)
	if err != nil {
		return nil, err
	}
	res := &Fig5Result{GeneratedN: gen.Len()}
	for i, attr := range []string{"x", "y"} {
		popCol, err := s.Pop.FloatColumn(attr)
		if err != nil {
			return nil, err
		}
		sampCol, err := s.Sample.FloatColumn(attr)
		if err != nil {
			return nil, err
		}
		genCol, err := gen.FloatColumn(attr)
		if err != nil {
			return nil, err
		}
		ones := make([]float64, len(popCol))
		for j := range ones {
			ones[j] = 1
		}
		target, err := wasserstein.NewWeighted(popCol, ones)
		if err != nil {
			return nil, err
		}
		ws := target.Distance(sampCol)
		wg := target.Distance(genCol)
		if i == 0 {
			res.SampleW1X, res.GenW1X = ws, wg
		} else {
			res.SampleW1Y, res.GenW1Y = ws, wg
		}
	}
	rng := rand.New(rand.NewSource(s.Cfg.Seed + 7))
	res.SampleShape = meanNearestDistance(s.Sample, s.Pop, 2000, 5000, rng)
	res.GenShape = meanNearestDistance(gen, s.Pop, 2000, 5000, rng)
	return res, nil
}

// meanNearestDistance estimates E_{q∈queryTable} min_{p∈refTable} ‖q−p‖
// over random subsamples of both tables (exact nearest neighbour over the
// full 50k×10k product is unnecessary for a summary statistic).
func meanNearestDistance(query, ref *table.Table, nq, nr int, rng *rand.Rand) float64 {
	qx, _ := query.FloatColumn("x")
	qy, _ := query.FloatColumn("y")
	rx, _ := ref.FloatColumn("x")
	ry, _ := ref.FloatColumn("y")
	if len(qx) == 0 || len(rx) == 0 {
		return math.NaN()
	}
	qi := subsampleIdx(len(qx), nq, rng)
	ri := subsampleIdx(len(rx), nr, rng)
	var sum float64
	for _, i := range qi {
		best := math.Inf(1)
		for _, j := range ri {
			dx := qx[i] - rx[j]
			dy := qy[i] - ry[j]
			d := dx*dx + dy*dy
			if d < best {
				best = d
			}
		}
		sum += math.Sqrt(best)
	}
	return sum / float64(len(qi))
}

func subsampleIdx(n, limit int, rng *rand.Rand) []int {
	if n <= limit {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, limit)
	for i := range out {
		out[i] = rng.Intn(n)
	}
	return out
}

// Fig6Row is one width-coverage group of Fig 6's box plot: the distribution
// of average percent difference over the random range queries, for the
// uniformly reweighted sample and for the M-SWG.
type Fig6Row struct {
	Coverage float64
	Unif     stats.Box
	MSWG     stats.Box
}

// Fig6Config tunes the range-query experiment.
type Fig6Config struct {
	Spiral     SpiralConfig
	Coverages  []float64 // fraction of each axis's range per box side
	Queries    int       // random boxes per coverage (paper: 100)
	Replicates int       // generated samples averaged (paper: 10)
}

func (c Fig6Config) withDefaults() Fig6Config {
	c.Spiral = c.Spiral.withDefaults()
	if len(c.Coverages) == 0 {
		c.Coverages = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
	}
	if c.Queries <= 0 {
		c.Queries = 100
	}
	if c.Replicates <= 0 {
		c.Replicates = 10
	}
	return c
}

// Fig6Result is the full figure.
type Fig6Result struct {
	Rows []Fig6Row
}

// String renders the box-plot table.
func (r *Fig6Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 — avg percent diff of 2-D range queries, Unif vs M-SWG\n")
	fmt.Fprintf(&b, "%-9s  %-62s  %s\n", "coverage", "Unif", "M-SWG")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-9.2f  %-62s  %s\n", row.Coverage, row.Unif, row.MSWG)
	}
	return b.String()
}

// RunFigure6 regenerates Fig 6: for each coverage, Queries random square
// range-count queries, answered by (a) the uniformly reweighted biased
// sample and (b) Replicates M-SWG samples whose percent differences are
// averaged per query; each group is summarized as a box.
func RunFigure6(cfg Fig6Config) (*Fig6Result, error) {
	cfg = cfg.withDefaults()
	setup, err := BuildSpiral(cfg.Spiral)
	if err != nil {
		return nil, err
	}
	return Figure6From(setup, cfg)
}

// Figure6From runs the query phase against an existing setup.
func Figure6From(setup *SpiralSetup, cfg Fig6Config) (*Fig6Result, error) {
	cfg = cfg.withDefaults()
	popX, _ := setup.Pop.FloatColumn("x")
	popY, _ := setup.Pop.FloatColumn("y")
	sampX, _ := setup.Sample.FloatColumn("x")
	sampY, _ := setup.Sample.FloatColumn("y")
	minX, maxX := minMax(popX)
	minY, maxY := minMax(popY)

	// Generated replicates, each uniformly reweighted to the population
	// size (weight folded into the count scale factor below).
	genXs := make([][]float64, cfg.Replicates)
	genYs := make([][]float64, cfg.Replicates)
	for r := 0; r < cfg.Replicates; r++ {
		gen, err := setup.Model.Generate(fmt.Sprintf("gen%d", r), setup.Cfg.SampleN)
		if err != nil {
			return nil, err
		}
		genXs[r], _ = gen.FloatColumn("x")
		genYs[r], _ = gen.FloatColumn("y")
	}

	popToSample := float64(setup.Cfg.PopN) / float64(setup.Cfg.SampleN)
	rng := rand.New(rand.NewSource(setup.Cfg.Seed + 13))
	out := &Fig6Result{}
	for _, cov := range cfg.Coverages {
		wx := cov * (maxX - minX)
		wy := cov * (maxY - minY)
		unifErrs := make([]float64, 0, cfg.Queries)
		swgErrs := make([]float64, 0, cfg.Queries)
		for q := 0; q < cfg.Queries; q++ {
			x0 := minX + rng.Float64()*(maxX-minX-wx)
			y0 := minY + rng.Float64()*(maxY-minY-wy)
			truth := boxCount(popX, popY, x0, y0, wx, wy)
			unif := boxCount(sampX, sampY, x0, y0, wx, wy) * popToSample
			unifErrs = append(unifErrs, stats.PercentDiff(unif, truth))
			var acc float64
			for r := 0; r < cfg.Replicates; r++ {
				est := boxCount(genXs[r], genYs[r], x0, y0, wx, wy) * popToSample
				acc += stats.PercentDiff(est, truth)
			}
			swgErrs = append(swgErrs, acc/float64(cfg.Replicates))
		}
		out.Rows = append(out.Rows, Fig6Row{
			Coverage: cov,
			Unif:     stats.BoxOf(stats.Finite(unifErrs)),
			MSWG:     stats.BoxOf(stats.Finite(swgErrs)),
		})
	}
	return out, nil
}

func boxCount(xs, ys []float64, x0, y0, wx, wy float64) float64 {
	var n float64
	for i := range xs {
		if xs[i] >= x0 && xs[i] <= x0+wx && ys[i] >= y0 && ys[i] <= y0+wy {
			n++
		}
	}
	return n
}

func minMax(xs []float64) (float64, float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
