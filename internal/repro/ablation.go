package repro

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"mosaic/internal/bayes"
	"mosaic/internal/dataset"
	"mosaic/internal/exec"
	"mosaic/internal/expr"
	"mosaic/internal/ipf"
	"mosaic/internal/marginal"
	"mosaic/internal/mechanism"
	"mosaic/internal/sql"
	"mosaic/internal/stats"
	"mosaic/internal/swg"
	"mosaic/internal/value"
	"mosaic/internal/wasserstein"
)

// --- A1: λ sweep ---

// LambdaRow is one λ setting's outcome: marginal fit vs shape preservation
// (the trade-off Sec 5.2's loss term is designed around).
type LambdaRow struct {
	Lambda     float64
	MarginalW1 float64 // mean of per-axis W1 against the population
	Shape      float64 // mean nearest-population distance
}

// LambdaResult is the A1 ablation.
type LambdaResult struct{ Rows []LambdaRow }

// String renders the sweep.
func (r *LambdaResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation A1 — λ trades marginal fit against sample structure\n")
	fmt.Fprintf(&b, "%-12s %-14s %s\n", "lambda", "marginal W1", "shape dist")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12g %-14.5f %.5f\n", row.Lambda, row.MarginalW1, row.Shape)
	}
	return b.String()
}

// RunAblationLambda trains the spiral M-SWG at several λ values.
func RunAblationLambda(base SpiralConfig, lambdas []float64) (*LambdaResult, error) {
	base = base.withDefaults()
	if len(lambdas) == 0 {
		lambdas = []float64{0.0004, 0.004, 0.04, 0.4, 4}
	}
	out := &LambdaResult{}
	for _, l := range lambdas {
		cfg := base
		cfg.SWG.Lambda = l
		setup, err := BuildSpiral(cfg)
		if err != nil {
			return nil, err
		}
		f5, err := Figure5From(setup)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, LambdaRow{
			Lambda:     l,
			MarginalW1: (f5.GenW1X + f5.GenW1Y) / 2,
			Shape:      f5.GenShape,
		})
	}
	return out, nil
}

// --- A2: projection count sweep ---

// ProjectionRow is one p setting's 2-D marginal fit.
type ProjectionRow struct {
	Projections int
	Sliced2DW1  float64 // sliced W1 of the generated (x,y) joint vs population
}

// ProjectionResult is the A2 ablation.
type ProjectionResult struct{ Rows []ProjectionRow }

// String renders the sweep.
func (r *ProjectionResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation A2 — projection count p vs 2-D marginal fit\n")
	fmt.Fprintf(&b, "%-12s %s\n", "p", "sliced 2-D W1")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12d %.5f\n", row.Projections, row.Sliced2DW1)
	}
	return b.String()
}

// RunAblationProjections trains a spiral M-SWG on a single *2-D* (x,y)
// marginal — forcing the sliced path — at several projection counts, and
// evaluates the generated joint against the population with a fixed,
// held-out projection set.
func RunAblationProjections(base SpiralConfig, ps []int) (*ProjectionResult, error) {
	base = base.withDefaults()
	if len(ps) == 0 {
		ps = []int{4, 16, 64, 128}
	}
	pop := dataset.Spiral(dataset.SpiralConfig{N: base.PopN, Seed: base.Seed})
	sample, err := dataset.BiasedSpiralSample(pop, base.SampleN, base.Bias, base.Seed+1)
	if err != nil {
		return nil, err
	}
	width := 1.6 / float64(base.Bins)
	joint, err := marginal.FromTableBinned("spiral_xy", pop, []string{"x", "y"},
		map[string]float64{"x": width, "y": width})
	if err != nil {
		return nil, err
	}
	// Held-out evaluation projections (fixed across all p settings).
	evalRng := rand.New(rand.NewSource(base.Seed + 99))
	evalDirs := make([][]float64, 64)
	for i := range evalDirs {
		evalDirs[i] = wasserstein.RandomUnitVector(evalRng, 2)
	}
	popX, _ := pop.FloatColumn("x")
	popY, _ := pop.FloatColumn("y")

	out := &ProjectionResult{}
	for _, p := range ps {
		cfg := base.SWG
		cfg.Projections = p
		model, err := swg.New(sample, []*marginal.Marginal{joint}, cfg)
		if err != nil {
			return nil, err
		}
		if err := model.Train(); err != nil {
			return nil, err
		}
		gen, err := model.Generate("g", base.SampleN)
		if err != nil {
			return nil, err
		}
		genX, _ := gen.FloatColumn("x")
		genY, _ := gen.FloatColumn("y")
		var acc float64
		for _, dir := range evalDirs {
			pp := projectPair(popX, popY, dir)
			gp := projectPair(genX, genY, dir)
			ones := make([]float64, len(pp))
			for i := range ones {
				ones[i] = 1
			}
			w, err := wasserstein.NewWeighted(pp, ones)
			if err != nil {
				return nil, err
			}
			acc += w.Distance(gp)
		}
		out.Rows = append(out.Rows, ProjectionRow{Projections: p, Sliced2DW1: acc / float64(len(evalDirs))})
	}
	return out, nil
}

func projectPair(xs, ys []float64, dir []float64) []float64 {
	out := make([]float64, len(xs))
	for i := range xs {
		out[i] = xs[i]*dir[0] + ys[i]*dir[1]
	}
	return out
}

// --- A3: known mechanism vs IPF ---

// MechanismResult compares SEMI-OPEN's two subcases (Sec 4.1): inverse
// inclusion probability when the mechanism is known, IPF when it is not.
type MechanismResult struct {
	TruthCount  float64
	HTCount     float64 // Horvitz–Thompson (known mechanism)
	IPFCount    float64
	ClosedCount float64
	TruthAvg    float64
	HTAvg       float64
	IPFAvg      float64
	ClosedAvg   float64
}

// String renders the comparison.
func (r *MechanismResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation A3 — known mechanism (HT) vs IPF vs closed\n")
	fmt.Fprintf(&b, "%-10s %-12s %-12s %-12s %-12s\n", "metric", "truth", "HT", "IPF", "closed")
	fmt.Fprintf(&b, "%-10s %-12.1f %-12.1f %-12.1f %-12.1f\n", "COUNT(*)", r.TruthCount, r.HTCount, r.IPFCount, r.ClosedCount)
	fmt.Fprintf(&b, "%-10s %-12.3f %-12.3f %-12.3f %-12.3f\n", "AVG(E)", r.TruthAvg, r.HTAvg, r.IPFAvg, r.ClosedAvg)
	return b.String()
}

// RunAblationMechanism draws a biased flights sample with a *known*
// predicate-biased mechanism and compares the three estimators.
func RunAblationMechanism(cfg FlightsConfig) (*MechanismResult, error) {
	cfg = cfg.withDefaults()
	pop := dataset.Flights(dataset.FlightsConfig{N: cfg.PopN, Seed: cfg.Seed})
	pred, err := sql.ParseExpr("elapsed_time > 200")
	if err != nil {
		return nil, err
	}
	mech := mechanism.Biased{Pred: pred, PTrue: 0.15, PFalse: 0.01}
	rng := rand.New(rand.NewSource(cfg.Seed + 5))
	sample, err := mechanism.Sample(pop, mech, "s", rng)
	if err != nil {
		return nil, err
	}
	em, err := marginal.FromTableBinned("e", pop, []string{"elapsed_time"},
		map[string]float64{"elapsed_time": MarginalBinWidths["elapsed_time"]})
	if err != nil {
		return nil, err
	}

	res := &MechanismResult{}
	res.TruthCount = float64(pop.Len())
	if res.TruthAvg, err = flightsTruthScalar(pop, "SELECT AVG(elapsed_time) FROM Flights"); err != nil {
		return nil, err
	}
	res.ClosedCount = float64(sample.Len())
	avgOf := func(weights []float64) (float64, error) {
		es, err := sample.FloatColumn("elapsed_time")
		if err != nil {
			return 0, err
		}
		var sw, swx float64
		for i, e := range es {
			sw += weights[i]
			swx += weights[i] * e
		}
		return swx / sw, nil
	}
	ones := make([]float64, sample.Len())
	for i := range ones {
		ones[i] = 1
	}
	if res.ClosedAvg, err = avgOf(ones); err != nil {
		return nil, err
	}
	ht, err := mechanism.InverseWeights(sample, mech)
	if err != nil {
		return nil, err
	}
	for _, w := range ht {
		res.HTCount += w
	}
	if res.HTAvg, err = avgOf(ht); err != nil {
		return nil, err
	}
	ipfW, _, err := ipf.Fit(sample, []*marginal.Marginal{em}, cfg.IPF)
	if err != nil {
		return nil, err
	}
	for _, w := range ipfW {
		res.IPFCount += w
	}
	if res.IPFAvg, err = avgOf(ipfW); err != nil {
		return nil, err
	}
	return res, nil
}

// --- A4: query-population vs global-population marginal scope ---

// ScopeResult compares Fig 3's two dashed paths: fitting the view-restricted
// sample directly to query-population marginals vs fitting the whole sample
// to global marginals and answering through the view.
type ScopeResult struct {
	Truth       float64
	QueryScope  float64
	GlobalScope float64
	QueryErr    float64
	GlobalErr   float64
}

// String renders the comparison.
func (r *ScopeResult) String() string {
	return fmt.Sprintf(
		"Ablation A4 — marginal scope (AVG(distance) over long flights)\n"+
			"truth=%.2f query-scope=%.2f (err %.4f) global-scope=%.2f (err %.4f)",
		r.Truth, r.QueryScope, r.QueryErr, r.GlobalScope, r.GlobalErr)
}

// RunAblationMarginalScope builds a LongFlights query population over the
// flights GP and answers AVG(distance) with each marginal scope.
func RunAblationMarginalScope(cfg FlightsConfig) (*ScopeResult, error) {
	setup, err := BuildFlights(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := setup.Engine.ExecScript(`
		CREATE POPULATION LongFlights AS (SELECT * FROM Flights WHERE elapsed_time > 200);
	`); err != nil {
		return nil, err
	}
	truth, err := flightsTruthScalar(setup.Pop, "SELECT AVG(distance) FROM Flights WHERE elapsed_time > 200")
	if err != nil {
		return nil, err
	}
	run := func() (float64, error) {
		sel, err := sql.ParseQuery("SELECT SEMI-OPEN AVG(distance) FROM LongFlights")
		if err != nil {
			return 0, err
		}
		res, err := setup.Engine.Query(sel)
		if err != nil {
			return 0, err
		}
		return res.Rows[0][0].Float64()
	}
	// Global scope first (LongFlights has no own marginals yet).
	globalAns, err := run()
	if err != nil {
		return nil, err
	}
	// Attach query-population marginals: distance histogram of the true
	// long-flight subpopulation.
	longPop, err := exec.Materialize(setup.Pop, mustQuery("SELECT carrier, taxi_out, taxi_in, elapsed_time, distance FROM Flights WHERE elapsed_time > 200"), exec.Options{}, "longpop")
	if err != nil {
		return nil, err
	}
	dm, err := marginal.FromTableBinned("LongFlights_D", longPop, []string{"distance"},
		map[string]float64{"distance": MarginalBinWidths["distance"]})
	if err != nil {
		return nil, err
	}
	if err := setup.Engine.AddMarginal("LongFlights", dm); err != nil {
		return nil, err
	}
	queryAns, err := run()
	if err != nil {
		return nil, err
	}
	return &ScopeResult{
		Truth:       truth,
		QueryScope:  queryAns,
		GlobalScope: globalAns,
		QueryErr:    stats.PercentDiff(queryAns, truth),
		GlobalErr:   stats.PercentDiff(globalAns, truth),
	}, nil
}

func mustQuery(q string) *sql.Select {
	sel, err := sql.ParseQuery(q)
	if err != nil {
		panic(err)
	}
	return sel
}

// --- A5: Bayesian network vs M-SWG ---

// BayesRow is one COUNT query's outcome.
type BayesRow struct {
	Query    string
	Truth    float64
	BayesEst float64
	MSWGEst  float64
	BayesErr float64
	MSWGErr  float64
}

// BayesResult is the A5 ablation: the explicit-model alternative of Sec 4.2
// against the implicit M-SWG on COUNT queries.
type BayesResult struct{ Rows []BayesRow }

// String renders the comparison.
func (r *BayesResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation A5 — Bayesian network (explicit) vs M-SWG (implicit), COUNT queries\n")
	fmt.Fprintf(&b, "%-12s %-12s %-10s %-12s %-10s %s\n", "truth", "bayes", "err", "mswg", "err", "query")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12.0f %-12.0f %-10.4f %-12.0f %-10.4f %s\n",
			row.Truth, row.BayesEst, row.BayesErr, row.MSWGEst, row.MSWGErr, row.Query)
	}
	return b.String()
}

// RunAblationBayesVsSWG answers COUNT(*) range queries with (a) a Chow–Liu
// network learned on the IPF-reweighted sample and (b) the OPEN path.
func RunAblationBayesVsSWG(cfg FlightsConfig) (*BayesResult, error) {
	setup, err := BuildFlights(cfg)
	if err != nil {
		return nil, err
	}
	// IPF-calibrate the sample, then fit the tree on the weighted sample
	// (the Themis recipe: IPF reweighting feeding an explicit model).
	smp, _ := setup.Engine.Catalog().Sample("FlightsSample")
	gp, _ := setup.Engine.Catalog().Population("Flights")
	w, _, err := ipf.Fit(smp.Table, gp.MarginalList(), cfg.IPF)
	if err != nil {
		return nil, err
	}
	weighted := smp.Table.Clone("weighted")
	if err := weighted.SetWeights(w); err != nil {
		return nil, err
	}
	net, err := bayes.Learn(weighted, bayes.Options{Bins: 24})
	if err != nil {
		return nil, err
	}

	queries := []string{
		"SELECT COUNT(*) FROM Flights WHERE elapsed_time > 200",
		"SELECT COUNT(*) FROM Flights WHERE elapsed_time < 200",
		"SELECT COUNT(*) FROM Flights WHERE distance > 1000",
		"SELECT COUNT(*) FROM Flights WHERE taxi_out > 20",
	}
	rng := rand.New(rand.NewSource(setup.Cfg.Seed + 31))
	out := &BayesResult{}
	for _, q := range queries {
		truth, err := flightsTruthScalar(setup.Pop, q)
		if err != nil {
			return nil, err
		}
		sel := mustQuery(q)
		bayesEst, err := bayesCount(net, sel, rng)
		if err != nil {
			return nil, err
		}
		openSel := mustQuery(withVisibility(q, "OPEN"))
		res, err := setup.Engine.Query(openSel)
		if err != nil {
			return nil, err
		}
		mswgEst, err := res.Rows[0][0].Float64()
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, BayesRow{
			Query:    q,
			Truth:    truth,
			BayesEst: bayesEst,
			MSWGEst:  mswgEst,
			BayesErr: stats.PercentDiff(bayesEst, truth),
			MSWGErr:  stats.PercentDiff(mswgEst, truth),
		})
	}
	return out, nil
}

// bayesCount estimates COUNT(*) WHERE pred as P(pred)·Total via forward
// sampling from the network.
func bayesCount(net *bayes.Network, sel *sql.Select, rng *rand.Rand) (float64, error) {
	if sel.Where == nil {
		return net.Total(), nil
	}
	sc := dataset.FlightsSchema
	p, err := net.EstimateProb(func(row []value.Value) (bool, error) {
		return expr.Truthy(sel.Where, &expr.Binding{Schema: sc, Row: row})
	}, 30000, rng)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(p) {
		return 0, fmt.Errorf("repro: NaN probability")
	}
	return p * net.Total(), nil
}
