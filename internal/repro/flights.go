package repro

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"mosaic/internal/core"
	"mosaic/internal/dataset"
	"mosaic/internal/exec"
	"mosaic/internal/ipf"
	"mosaic/internal/marginal"
	"mosaic/internal/sql"
	"mosaic/internal/stats"
	"mosaic/internal/swg"
	"mosaic/internal/table"
)

// FlightsConfig tunes the flights experiments (Fig 7, the 200-query sweep,
// and several ablations).
type FlightsConfig struct {
	PopN        int     // population rows (paper: 426,411; default 50,000, sized for a CPU-only laptop)
	SampleFrac  float64 // sample fraction (paper: 0.05)
	BiasFrac    float64 // fraction of sample tuples with elapsed_time > 200 (paper: 0.95)
	OpenSamples int     // generated replicates per OPEN query (paper: 10)
	Workers     int     // engine intra-query parallelism (OPEN fan-out, training)
	SWG         swg.Config
	IPF         ipf.Options
	Seed        int64
}

func (c FlightsConfig) withDefaults() FlightsConfig {
	if c.PopN <= 0 {
		c.PopN = 50000
	}
	if c.SampleFrac <= 0 {
		c.SampleFrac = 0.05
	}
	if c.BiasFrac <= 0 {
		c.BiasFrac = 0.95
	}
	if c.OpenSamples <= 0 {
		c.OpenSamples = 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.SWG.Hidden) == 0 {
		// Paper final flights parameters: 5 layers × 50 nodes, λ=1e-7,
		// p=1000, batch 500, ℓ = input dimensionality (18), 80 epochs.
		// Projections and epochs are reduced for CPU budget; the ablation
		// A2 sweeps p.
		c.SWG = swg.Config{
			Hidden:      []int{50, 50, 50, 50, 50},
			Latent:      18,
			Lambda:      1e-7,
			BatchSize:   500,
			Projections: 48,
			Epochs:      15,
			LR:          0.001,
			Seed:        c.Seed,
		}
	}
	return c
}

// MarginalBinWidths are the histogram bin widths used when deriving the
// population marginals (C,E), (O,E), (I,E), (D,E). The paper's whole-number
// "projections of the population data" are well-populated at 426k rows; at
// 50k rows the same cell occupancy needs coarser bins.
var MarginalBinWidths = map[string]float64{
	"elapsed_time": 10,
	"taxi_out":     2,
	"taxi_in":      2,
	"distance":     50,
}

// FlightsSetup bundles the engine-loaded flights world.
type FlightsSetup struct {
	Cfg     FlightsConfig
	Pop     *table.Table
	Sample  *table.Table
	Engine  *core.Engine
	SampleN int
}

// BuildFlights generates the population, draws the biased sample, loads
// both into a Mosaic engine (population metadata + sample), and returns the
// setup. The M-SWG trains lazily on the first OPEN query.
func BuildFlights(cfg FlightsConfig) (*FlightsSetup, error) {
	cfg = cfg.withDefaults()
	pop := dataset.Flights(dataset.FlightsConfig{N: cfg.PopN, Seed: cfg.Seed})
	pred, err := sql.ParseExpr("elapsed_time > 200")
	if err != nil {
		return nil, err
	}
	n := int(math.Round(float64(cfg.PopN) * cfg.SampleFrac))
	sample, err := dataset.BiasedSampleExact(pop, pred, n, cfg.BiasFrac, "flights_sample", cfg.Seed+2)
	if err != nil {
		return nil, err
	}
	eng := core.NewEngine(core.Options{
		Seed:        cfg.Seed,
		OpenSamples: cfg.OpenSamples,
		Workers:     cfg.Workers,
		SWG:         cfg.SWG,
		IPF:         cfg.IPF,
	})
	if _, err := eng.ExecScript(`
		CREATE GLOBAL POPULATION Flights
			(carrier TEXT, taxi_out INT, taxi_in INT, elapsed_time INT, distance INT);
		CREATE SAMPLE FlightsSample AS (SELECT * FROM Flights);
	`); err != nil {
		return nil, err
	}
	if err := eng.IngestTable("FlightsSample", sample); err != nil {
		return nil, err
	}
	// Population marginals: the four attribute pairs of Sec 5.3.
	for _, pair := range [][2]string{
		{"carrier", "elapsed_time"},
		{"taxi_out", "elapsed_time"},
		{"taxi_in", "elapsed_time"},
		{"distance", "elapsed_time"},
	} {
		widths := map[string]float64{}
		for _, a := range pair {
			if w, ok := MarginalBinWidths[a]; ok {
				widths[a] = w
			}
		}
		m, err := marginal.FromTableBinned(
			"Flights_"+pair[0]+"_"+pair[1], pop, []string{pair[0], pair[1]}, widths)
		if err != nil {
			return nil, err
		}
		if err := eng.AddMarginal("Flights", m); err != nil {
			return nil, err
		}
	}
	return &FlightsSetup{Cfg: cfg, Pop: pop, Sample: sample, Engine: eng, SampleN: n}, nil
}

// FlightQuery is one Table 2 query.
type FlightQuery struct {
	ID      int
	SQL     string // without visibility keyword, FROM Flights
	GroupBy bool
}

// FlightQueries are the paper's Table 2 queries (1–4 continuous, 5–8
// categorical GROUP BY).
var FlightQueries = []FlightQuery{
	{1, "SELECT AVG(distance) FROM Flights WHERE elapsed_time > 200", false},
	{2, "SELECT AVG(taxi_in) FROM Flights WHERE elapsed_time < 200", false},
	{3, "SELECT AVG(elapsed_time) FROM Flights WHERE distance > 1000", false},
	{4, "SELECT AVG(taxi_out) FROM Flights WHERE distance < 1000", false},
	{5, "SELECT carrier, AVG(distance) FROM Flights WHERE elapsed_time > 200 AND carrier IN ('WN', 'AA') GROUP BY carrier", true},
	{6, "SELECT carrier, AVG(taxi_in) FROM Flights WHERE elapsed_time < 200 AND carrier IN ('WN', 'AA') GROUP BY carrier", true},
	{7, "SELECT carrier, AVG(elapsed_time) FROM Flights WHERE distance > 1000 AND carrier IN ('WN', 'AA') GROUP BY carrier", true},
	{8, "SELECT carrier, AVG(taxi_out) FROM Flights WHERE distance < 1000 AND carrier IN ('US', 'F9') GROUP BY carrier", true},
}

func withVisibility(q, vis string) string {
	return strings.Replace(q, "SELECT ", "SELECT "+vis+" ", 1)
}

// answerMap flattens a result into group-key → aggregate value (scalar
// queries use the empty key).
func answerMap(res *exec.Result, grouped bool) map[string]float64 {
	out := map[string]float64{}
	for _, row := range res.Rows {
		key := ""
		vi := 0
		if grouped {
			key = row[0].HashKey() + "|" + row[0].String()
			vi = 1
		}
		if row[vi].IsNull() {
			continue
		}
		f, err := row[vi].Float64()
		if err != nil {
			continue
		}
		out[key] = f
	}
	return out
}

// queryError is the mean percent difference over the truth's groups; a
// group missing from the estimate counts as 100 % error (the estimate of
// that group is "it does not exist"). Empty truth gives NaN.
func queryError(est, truth map[string]float64) float64 {
	if len(truth) == 0 {
		return math.NaN()
	}
	var sum float64
	for k, tv := range truth {
		ev, ok := est[k]
		if !ok {
			sum += 1
			continue
		}
		sum += stats.PercentDiff(ev, tv)
	}
	return sum / float64(len(truth))
}

// Fig7Row is one query's percent difference per method.
type Fig7Row struct {
	ID               int
	SQL              string
	Unif, IPF, MSWG  float64
	TruthGroups      int
	EstMissingGroups int // truth groups absent from the M-SWG answer
}

// Fig7Result is the full figure (left panel: queries 1–4, right: 5–8).
type Fig7Result struct {
	Rows []Fig7Row
}

// String renders both panels.
func (r *Fig7Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7 — percent difference per query (Unif vs IPF vs M-SWG)\n")
	fmt.Fprintf(&b, "%-3s %-10s %-10s %-10s %s\n", "id", "Unif", "IPF", "M-SWG", "query")
	for _, row := range r.Rows {
		if row.ID == 5 {
			fmt.Fprintf(&b, "--- categorical GROUP BY queries ---\n")
		}
		fmt.Fprintf(&b, "%-3d %-10.4f %-10.4f %-10.4f %s\n", row.ID, row.Unif, row.IPF, row.MSWG, row.SQL)
	}
	return b.String()
}

// RunFigure7 regenerates Fig 7: Unif answers from the raw biased sample
// (CLOSED), IPF answers via SEMI-OPEN, and M-SWG answers via OPEN, each
// compared against the true population answer.
func RunFigure7(cfg FlightsConfig) (*Fig7Result, error) {
	setup, err := BuildFlights(cfg)
	if err != nil {
		return nil, err
	}
	return Figure7From(setup, FlightQueries)
}

// Figure7From answers the given queries against an existing setup.
func Figure7From(setup *FlightsSetup, queries []FlightQuery) (*Fig7Result, error) {
	out := &Fig7Result{}
	for _, fq := range queries {
		row, err := runFlightQuery(setup, fq)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, *row)
	}
	return out, nil
}

func runFlightQuery(setup *FlightsSetup, fq FlightQuery) (*Fig7Row, error) {
	truthSel, err := sql.ParseQuery(fq.SQL)
	if err != nil {
		return nil, fmt.Errorf("query %d: %v", fq.ID, err)
	}
	truthRes, err := exec.Run(setup.Pop, truthSel, exec.Options{Weighted: false})
	if err != nil {
		return nil, fmt.Errorf("query %d truth: %v", fq.ID, err)
	}
	truth := answerMap(truthRes, fq.GroupBy)

	answers := map[string]map[string]float64{}
	for vis, label := range map[string]string{
		"CLOSED": "unif", "SEMI-OPEN": "ipf", "OPEN": "mswg",
	} {
		sel, err := sql.ParseQuery(withVisibility(fq.SQL, vis))
		if err != nil {
			return nil, err
		}
		res, err := setup.Engine.Query(sel)
		if err != nil {
			return nil, fmt.Errorf("query %d %s: %v", fq.ID, vis, err)
		}
		answers[label] = answerMap(res, fq.GroupBy)
	}
	missing := 0
	for k := range truth {
		if _, ok := answers["mswg"][k]; !ok {
			missing++
		}
	}
	return &Fig7Row{
		ID:               fq.ID,
		SQL:              fq.SQL,
		Unif:             queryError(answers["unif"], truth),
		IPF:              queryError(answers["ipf"], truth),
		MSWG:             queryError(answers["mswg"], truth),
		TruthGroups:      len(truth),
		EstMissingGroups: missing,
	}, nil
}

// SweepConfig tunes the 200-random-query model-selection sweep (Sec 5.3:
// "200 random queries over the continuous attributes with the same template
// as queries 1–4 where the attributes and predicates are randomly
// generated").
type SweepConfig struct {
	Flights FlightsConfig
	Queries int
}

// SweepResult summarizes the sweep.
type SweepResult struct {
	Queries       int
	NonEmpty      int // queries where both truth and M-SWG answers exist
	MSWGBeatsUnif int
	IPFBeatsUnif  int
	MeanErrUnif   float64
	MeanErrIPF    float64
	MeanErrMSWG   float64
}

// String renders the sweep summary.
func (r *SweepResult) String() string {
	return fmt.Sprintf(
		"Random-query sweep — %d queries, %d non-empty\n"+
			"M-SWG beats Unif on %d/%d; IPF beats Unif on %d/%d\n"+
			"mean %% diff: Unif=%.4f IPF=%.4f M-SWG=%.4f",
		r.Queries, r.NonEmpty,
		r.MSWGBeatsUnif, r.NonEmpty, r.IPFBeatsUnif, r.NonEmpty,
		r.MeanErrUnif, r.MeanErrIPF, r.MeanErrMSWG)
}

// RunSweep regenerates the sweep.
func RunSweep(cfg SweepConfig) (*SweepResult, error) {
	if cfg.Queries <= 0 {
		cfg.Queries = 200
	}
	setup, err := BuildFlights(cfg.Flights)
	if err != nil {
		return nil, err
	}
	return SweepFrom(setup, cfg.Queries)
}

// SweepFrom runs the sweep against an existing setup.
func SweepFrom(setup *FlightsSetup, queries int) (*SweepResult, error) {
	attrs := []string{"taxi_out", "taxi_in", "elapsed_time", "distance"}
	ranges := map[string][2]float64{}
	for _, a := range attrs {
		col, err := setup.Pop.FloatColumn(a)
		if err != nil {
			return nil, err
		}
		lo, hi := minMax(col)
		ranges[a] = [2]float64{lo, hi}
	}
	rng := rand.New(rand.NewSource(setup.Cfg.Seed + 21))
	res := &SweepResult{Queries: queries}
	var eU, eI, eM []float64
	for q := 0; q < queries; q++ {
		agg := attrs[rng.Intn(len(attrs))]
		pv := attrs[rng.Intn(len(attrs))]
		r := ranges[pv]
		// Threshold in the central 60 % of the predicate attribute's range.
		thr := r[0] + (0.2+0.6*rng.Float64())*(r[1]-r[0])
		op := ">"
		if rng.Intn(2) == 0 {
			op = "<"
		}
		base := fmt.Sprintf("SELECT AVG(%s) FROM Flights WHERE %s %s %d", agg, pv, op, int(thr))
		row, err := runFlightQuery(setup, FlightQuery{ID: 100 + q, SQL: base})
		if err != nil {
			return nil, err
		}
		// Non-empty filter: NaN means empty truth; a missing scalar answer
		// shows up as error 1 from queryError's missing-group rule only for
		// grouped queries — for scalars an empty estimate map gives err 1.
		if math.IsNaN(row.Unif) || math.IsNaN(row.MSWG) || math.IsNaN(row.IPF) {
			continue
		}
		res.NonEmpty++
		if row.MSWG < row.Unif {
			res.MSWGBeatsUnif++
		}
		if row.IPF < row.Unif {
			res.IPFBeatsUnif++
		}
		eU = append(eU, row.Unif)
		eI = append(eI, row.IPF)
		eM = append(eM, row.MSWG)
	}
	res.MeanErrUnif = stats.Mean(eU)
	res.MeanErrIPF = stats.Mean(eI)
	res.MeanErrMSWG = stats.Mean(eM)
	return res, nil
}

// flightsTruthScalar answers a scalar query over the population directly.
func flightsTruthScalar(pop *table.Table, q string) (float64, error) {
	sel, err := sql.ParseQuery(q)
	if err != nil {
		return 0, err
	}
	res, err := exec.Run(pop, sel, exec.Options{})
	if err != nil {
		return 0, err
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return 0, fmt.Errorf("repro: %q is not scalar", q)
	}
	if res.Rows[0][0].IsNull() {
		return math.NaN(), nil
	}
	return res.Rows[0][0].Float64()
}
