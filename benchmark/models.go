package main

// open_flights and ingest_refit: the two in-process workloads where the
// model layers (swg, ipf, marginal, core's replicate fan-out and combine) do
// the work and exec only ever sees tables of a few thousand rows. They
// share one implementation and differ in data, queries and what a write is.
//
// Their datasets come from a fixed data seed, not from --seed: estimate
// accuracy is checked against per-query ceilings pinned below, and an error
// ceiling can only be pinned for data that does not change. --seed drives
// the order of the reads. CLOSED answers are checked byte for byte against a
// RowExec oracle holding the same sample.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"

	"mosaic"
	"mosaic/internal/core"
	"mosaic/internal/exec"
	"mosaic/internal/ipf"
	"mosaic/internal/marginal"
	"mosaic/internal/sql"
	"mosaic/internal/swg"
	"mosaic/internal/table"
)

const modelDataSeed = 20200112 // CIDR 2020

// modelQuery is one aggregate query shape, asked in all three visibilities.
// text has no visibility keyword and reads FROM the population.
type modelQuery struct {
	id      string
	text    string
	grouped bool
}

// binSpec is one population marginal: its attributes and their bin widths
// (0 = exact values).
type binSpec struct {
	attrs  []string
	widths []float64
}

type modelWorkload struct {
	name      string
	pop       string // population name; sample is pop+"Sample", aux table pop+"Pop"
	schema    string
	popRows   [][]any
	sample    [][]any  // initial sample
	ingest    []string // [block*writesPB+i] INSERT statement of write i of a block (ingest_refit)
	openPB    int      // OPEN reads per block in the serial phase
	lightPB   int      // SEMI-OPEN reads per block in the serial phase, and as many CLOSED
	margs     []binSpec
	queries   []modelQuery
	ceilings  map[string]float64 // "SEMI-OPEN/q1" → percent
	opts      mosaic.Options
	redeclare bool // a write re-declares one marginal (open_flights) instead of ingesting

	sz       sizing
	order    [][]string   // [block] serial reads as "VIS/id"
	conc     [][][]string // [block][client]
	truth    map[string]estimate
	closed   []map[string]*mosaic.Result // [state] CLOSED oracle answers: state 0 is set-up, state b+1 follows block b's writes
	state    int                         // the state the system under test is in
	writesPB int

	db *mosaic.DB

	mu      sync.Mutex
	maxErr  map[string]float64 // largest error seen per "VIS/id", for the report
	semiErr float64            // mean SEMI-OPEN error of the warm-up pass
	openErr float64
}

var visibilities = []string{"CLOSED", "SEMI-OPEN", "OPEN"}

func (w *modelWorkload) sampleName() string { return w.pop + "Sample" }
func (w *modelWorkload) popTable() string   { return w.pop + "Pop" }

func (q modelQuery) vis(v string) string {
	return strings.Replace(q.text, "SELECT ", "SELECT "+v+" ", 1)
}

func (w *modelWorkload) query(id string) modelQuery {
	for _, q := range w.queries {
		if q.id == id {
			return q
		}
	}
	panic("unknown query " + id)
}

// metadataSQL declares marginal i from the population table.
func (w *modelWorkload) metadataSQL(i int) string {
	m := w.margs[i]
	name := fmt.Sprintf("%s_M%d", w.pop, i+1)
	var bins []string
	for j, a := range m.attrs {
		if m.widths[j] > 0 {
			bins = append(bins, fmt.Sprintf("%s %g", a, m.widths[j]))
		}
	}
	with := ""
	if len(bins) > 0 {
		with = " WITH BINS (" + strings.Join(bins, ", ") + ")"
	}
	cols := strings.Join(m.attrs, ", ")
	return fmt.Sprintf("CREATE METADATA %s FOR %s%s AS (SELECT %s, COUNT(*) FROM %s GROUP BY %s)",
		name, w.pop, with, cols, w.popTable(), cols)
}

func (w *modelWorkload) generate(seed int64, sz sizing) error {
	w.sz = sz
	rng := rand.New(rand.NewSource(seed))
	for b := 0; b < sz.blocks; b++ {
		w.order = append(w.order, w.readMix(rng, b, w.openPB, w.lightPB))
		var per [][]string
		for c := 0; c < clients(); c++ {
			per = append(per, w.readMix(rng, b+c+1, w.openPB/2, w.lightPB/2))
		}
		w.conc = append(w.conc, per)
	}

	// Ground truth: every query over the whole population, unweighted.
	truthDB := mosaic.Open(nil)
	if err := truthDB.Exec("CREATE TABLE " + w.popTable() + " " + w.schema); err != nil {
		return err
	}
	if err := truthDB.Ingest(w.popTable(), w.popRows); err != nil {
		return err
	}
	w.truth = make(map[string]estimate)
	for _, q := range w.queries {
		res, err := truthDB.Query(strings.Replace(q.text, "FROM "+w.pop, "FROM "+w.popTable(), 1))
		if err != nil {
			return fmt.Errorf("truth %s: %w", q.id, err)
		}
		w.truth[q.id] = flatten(res)
	}

	// The CLOSED oracle: a row-at-a-time engine holding the same sample. It
	// plays every block's writes ahead of time and is dropped afterwards.
	oracle := mosaic.Open(&mosaic.Options{Seed: 1, RowExec: true})
	if err := oracle.Exec(fmt.Sprintf("CREATE GLOBAL POPULATION %s %s; CREATE SAMPLE %s AS (SELECT * FROM %s);",
		w.pop, w.schema, w.sampleName(), w.pop)); err != nil {
		return err
	}
	if err := oracle.Ingest(w.sampleName(), w.sample); err != nil {
		return err
	}
	for b := -1; b < sz.blocks; b++ {
		if b >= 0 && !w.redeclare {
			for i := 0; i < w.writesPB; i++ {
				if err := oracle.Exec(w.ingest[b*w.writesPB+i]); err != nil {
					return err
				}
			}
		}
		if b >= 0 && w.redeclare {
			w.closed = append(w.closed, w.closed[0]) // re-declaring metadata leaves the sample as it was
			continue
		}
		answers := make(map[string]*mosaic.Result)
		for _, q := range w.queries {
			res, err := oracle.Query(q.vis("CLOSED"))
			if err != nil {
				return fmt.Errorf("oracle %s: %w", q.id, err)
			}
			answers[q.id] = res
		}
		w.closed = append(w.closed, answers)
	}
	return nil
}

// readMix returns nOpen OPEN reads (cycling through the queries) plus nLight
// SEMI-OPEN and nLight CLOSED reads, shuffled. Warm CLOSED and SEMI-OPEN
// reads over a few thousand rows take well under a millisecond, far below
// the 5 ms floor for a latency median, so more than four in five reads are
// OPEN: the median read and the 90th percentile both sit inside the OPEN
// reads, whose cost does not depend on the query.
func (w *modelWorkload) readMix(rng *rand.Rand, rot, nOpen, nLight int) []string {
	var mix []string
	for i := 0; i < nOpen; i++ {
		mix = append(mix, "OPEN/"+w.queries[(rot+i)%len(w.queries)].id)
	}
	for i := 0; i < nLight; i++ {
		mix = append(mix, "SEMI-OPEN/"+w.queries[(rot+2*i)%len(w.queries)].id)
		mix = append(mix, "CLOSED/"+w.queries[(rot+2*i+1)%len(w.queries)].id)
	}
	return shuffled(rng, mix)
}

func (w *modelWorkload) setup(tr *tracer) error {
	opts := w.opts
	w.db, w.state = mosaic.Open(&opts), 0
	ddl := fmt.Sprintf(`CREATE GLOBAL POPULATION %s %s;
CREATE SAMPLE %s AS (SELECT * FROM %s);
CREATE TABLE %s %s;`, w.pop, w.schema, w.sampleName(), w.pop, w.popTable(), w.schema)
	if err := w.db.Exec(ddl); err != nil {
		return err
	}
	if err := w.db.Ingest(w.popTable(), w.popRows); err != nil {
		return err
	}
	if err := w.db.Ingest(w.sampleName(), w.sample); err != nil {
		return err
	}
	for i := range w.margs {
		if err := w.db.Exec(w.metadataSQL(i)); err != nil {
			return err
		}
	}
	// Warm-up: every query in every visibility, verified. The first
	// SEMI-OPEN read fits IPF and the first OPEN read trains the M-SWG.
	w.maxErr = make(map[string]float64)
	var semi, open float64
	var misses []string
	for _, v := range visibilities {
		for _, q := range w.queries {
			if err := w.read(v + "/" + q.id); err != nil {
				misses = append(misses, fmt.Sprintf("%s %s: %v", v, q.id, err))
			}
		}
	}
	if len(misses) > 0 { // all of them, so that ceilings can be re-pinned from one run
		return fmt.Errorf("warm-up: %s", strings.Join(misses, "; "))
	}
	for _, q := range w.queries {
		semi += w.maxErr["SEMI-OPEN/"+q.id]
		open += w.maxErr["OPEN/"+q.id]
	}
	w.semiErr, w.openErr = semi/float64(len(w.queries)), open/float64(len(w.queries))
	return nil
}

// read runs one "VIS/id" read and verifies it: CLOSED against the oracle,
// SEMI-OPEN and OPEN against the population truth under the pinned ceiling.
func (w *modelWorkload) read(key string) error {
	v, id, _ := strings.Cut(key, "/")
	q := w.query(id)
	res, err := w.db.Query(q.vis(v))
	if err != nil {
		return err
	}
	if v == "CLOSED" {
		return sameResult(res, w.closed[w.state][id])
	}
	est := flatten(res)
	e := relErrPct(est, w.truth[id])
	w.mu.Lock()
	if e > w.maxErr[key] {
		w.maxErr[key] = e
	}
	w.mu.Unlock()
	ceiling, pinned := w.ceilings[key]
	switch {
	case math.IsNaN(e):
		return fmt.Errorf("estimate is not a number")
	case w.sz.smoke:
		return nil // smoke sizes train too little for the pinned ceilings
	case len(est) < len(w.truth[id]):
		return fmt.Errorf("answer has %d of the truth's %d groups", len(est), len(w.truth[id]))
	case !pinned:
		return fmt.Errorf("no error ceiling pinned for %s", key)
	case e > ceiling:
		return fmt.Errorf("estimate is %.3f %% off the population truth, ceiling %.3f %%", e, ceiling)
	}
	return nil
}

func (w *modelWorkload) readOps(keys []string) []op {
	ops := make([]op, len(keys))
	for i, k := range keys {
		k := k
		ops[i] = op{shape: k, run: func(int) error { return w.read(k) }}
	}
	return ops
}

func (w *modelWorkload) block(b int, _ *tracer) block {
	blk := block{
		colds:  []op{{shape: "OPEN_after_write", run: func(int) error { return w.read("OPEN/" + w.queries[0].id) }}},
		serial: w.readOps(w.order[b]),
	}
	for i := 0; i < w.writesPB; i++ {
		i := i
		if w.redeclare {
			// The numeric marginals only: they cost the same to build, the
			// categorical one (the first) a quarter less, and a median over
			// unlike writes hops between them.
			m := 1 + i%(len(w.margs)-1)
			script := fmt.Sprintf("DROP METADATA %s_M%d; %s", w.pop, m+1, w.metadataSQL(m))
			blk.writes = append(blk.writes, op{shape: "redeclare_metadata", run: func(int) error {
				return w.db.ExecContext(context.Background(), script)
			}})
		} else {
			stmt := w.ingest[b*w.writesPB+i]
			blk.writes = append(blk.writes, op{shape: "insert_batch", run: func(int) error {
				return w.db.ExecContext(context.Background(), stmt)
			}})
		}
	}
	// Reads that follow the burst are checked against the state it leaves.
	last := blk.writes[len(blk.writes)-1].run
	blk.writes[len(blk.writes)-1].run = func(c int) error {
		w.state = b + 1
		return last(c)
	}
	for _, keys := range w.conc[b] {
		blk.conc = append(blk.conc, w.readOps(keys))
	}
	return blk
}

func (w *modelWorkload) dataSizes() map[string]int {
	sizes := map[string]int{
		"population_rows":    len(w.popRows),
		"sample_rows":        len(w.sample),
		"writes_per_block":   w.writesPB,
		"serial_reads_block": len(w.order[0]),
		"open_samples":       w.opts.OpenSamples,
		"swg_epochs":         w.opts.SWG.Epochs,
	}
	if !w.redeclare {
		sizes["insert_batch_rows"] = strings.Count(w.ingest[0], "(")
	}
	return sizes
}

func (w *modelWorkload) close() {}

// observedErrors reports the largest error seen per read, beside its
// ceiling, for the report.
func (w *modelWorkload) observedErrors() map[string][2]float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make(map[string][2]float64, len(w.maxErr))
	for k, e := range w.maxErr {
		out[k] = [2]float64{e, w.ceilings[k]}
	}
	return out
}

// layers replays the reads through sql, core, exec, ipf and swg, and probes
// marginal construction, fitting and training directly.
func (w *modelWorkload) layers(tr *tracer) (map[string]float64, error) {
	ctx := context.Background()
	eng := w.db.Engine()
	eo := eng.Options()
	sample, err := w.db.Table(w.sampleName())
	if err != nil {
		return nil, err
	}
	popT, err := w.db.Table(w.popTable())
	if err != nil {
		return nil, err
	}

	// marginal: the population marginals, built the way set-up builds them.
	var margs []*marginal.Marginal
	for i, spec := range w.margs {
		widths := map[string]float64{}
		for j, a := range spec.attrs {
			if spec.widths[j] > 0 {
				widths[a] = spec.widths[j]
			}
		}
		var m *marginal.Marginal
		tr.do("marginal.from_table", -1, -1, false, func() {
			m, err = marginal.FromTableBinned(fmt.Sprintf("m%d", i), popT, spec.attrs, widths)
		})
		if err != nil {
			return nil, err
		}
		margs = append(margs, m)
	}

	// ipf: one fit of the current sample against them.
	var weights []float64
	var fit ipf.Result
	for r := 0; r < 3; r++ {
		tr.do("ipf.fit", -1, -1, false, func() { weights, fit, err = ipf.FitContext(ctx, sample, margs, eo.IPF) })
		if err != nil {
			return nil, err
		}
	}

	// swg: compile and train the generator the engine would train.
	full, err := core.AugmentMarginals(sample, margs)
	if err != nil {
		return nil, err
	}
	cfg := eo.SWG
	if cfg.Seed == 0 {
		cfg.Seed = eo.Seed
	}
	if cfg.Workers == 0 {
		cfg.Workers = eo.Workers
	}
	var model *swg.Model
	tr.do("swg.train", -1, -1, false, func() {
		if model, err = swg.New(sample, full, cfg); err == nil {
			err = model.TrainContext(ctx)
		}
	})
	if err != nil {
		return nil, err
	}
	for r := 0; r < 3; r++ {
		tr.do("swg.encode_table", -1, -1, false, func() { _, err = model.Enc.EncodeTable(sample) })
		if err != nil {
			return nil, err
		}
	}

	genRows := eo.GeneratedRows
	if genRows <= 0 {
		genRows = sample.Len()
	}
	popTotal := margs[0].Total()
	for i, q := range w.queries {
		shape := "exec.filter"
		if q.grouped {
			shape = "exec.groupby_lowcard"
		}
		for _, v := range visibilities {
			text := q.vis(v)
			root := tr.start("replay.read", -1, i, false)
			var sel *sql.Select
			tr.do("sql.parse", root, i, false, func() { sel, err = sql.ParseQuery(text) })
			if err != nil {
				return nil, err
			}
			var pq *core.PreparedQuery
			tr.do("core.prepare", root, i, false, func() { pq = eng.Prepare(sel) })
			qs := tr.do("core.query_prepared", root, i, false, func() { _, err = eng.QueryPrepared(ctx, pq, sel) })
			if err != nil {
				return nil, err
			}
			tr.end(root)
			// The calls the engine made inside QueryPrepared, replayed.
			switch v {
			case "CLOSED", "SEMI-OPEN":
				o := exec.Options{Weighted: true, Workers: eo.Workers}
				if v == "SEMI-OPEN" {
					o.WeightOverride = weights
				}
				var snap *table.Snapshot
				tr.do("table.snapshot", qs, i, true, func() { snap = sample.Snapshot() })
				tr.do(shape, qs, i, true, func() { _, err = exec.RunSnapshotContext(ctx, snap, sel, o) })
			case "OPEN":
				workers := min(eo.Workers, eo.OpenSamples)
				errs := make([]error, workers)
				var wg sync.WaitGroup
				for wk := 0; wk < workers; wk++ {
					wg.Add(1)
					go func(wk int) {
						defer wg.Done()
						for r := wk; r < eo.OpenSamples; r += workers {
							var gen *table.Table
							tr.do("swg.generate", qs, i, true, func() {
								gen, errs[wk] = model.GenerateSeededWeightedContext(ctx, "gen", genRows, int64(r+1), popTotal/float64(genRows))
							})
							if errs[wk] != nil {
								return
							}
							tr.do(shape, qs, i, true, func() {
								_, errs[wk] = exec.RunContext(ctx, gen, sel, exec.Options{Weighted: true, Workers: eo.Workers})
							})
						}
					}(wk)
				}
				wg.Wait()
				for _, e := range errs {
					if e != nil {
						err = e
					}
				}
			}
			if err != nil {
				return nil, err
			}
		}
	}

	mcfg := model.Config()
	m := map[string]float64{
		"sql.parse_us":            tr.median("sql.parse") * 1e6,
		"core.prepare_us":         tr.median("core.prepare") * 1e6,
		"core.query_prepared_ms":  tr.median("core.query_prepared") * 1e3,
		"exec.filter_ms":          tr.median("exec.filter") * 1e3,
		"exec.groupby_lowcard_ms": tr.median("exec.groupby_lowcard") * 1e3,
		"exec.rows_per_s":         float64(genRows) / tr.median("exec.filter"),
		"table.snapshot_us":       tr.median("table.snapshot") * 1e6,
		"marginal.from_table_ms":  tr.median("marginal.from_table") * 1e3,
		"ipf.fit_ms":              tr.median("ipf.fit") * 1e3,
		"ipf.sweeps":              float64(fit.Iterations),
		"ipf.semi_rel_err_pct":    w.semiErr,
		"swg.train_s":             tr.median("swg.train"),
		"swg.train_steps":         float64(len(model.History) * mcfg.StepsPerEpoch),
		"swg.final_loss":          model.History[len(model.History)-1],
		"swg.encode_table_ms":     tr.median("swg.encode_table") * 1e3,
		"swg.generate_ms":         tr.median("swg.generate") * 1e3,
		"swg.open_rel_err_pct":    w.openErr,
	}
	if w.redeclare {
		m["core.exec_stmt_ms"] = tr.median("op.write.redeclare_metadata") * 1e3
	} else {
		m["core.exec_stmt_ms"] = tr.median("op.write.insert_batch") * 1e3
		rate, bytesPerRow, err := tableProbe(tr, sample)
		if err != nil {
			return nil, err
		}
		m["table.append_rows_per_s"], m["table.bytes_per_row"] = rate, bytesPerRow
	}
	return m, nil
}

// newOpenFlights is the paper's flights set-up: a 50k-row population, a 5 %
// sample of which 95 % has elapsed_time > 200, the four 2-D marginals of
// Sec 5.3, and the eight queries of Table 2 / Fig. 7.
func newOpenFlights(smoke bool) *modelWorkload {
	rng := rand.New(rand.NewSource(modelDataSeed))
	popN, sampleN, epochs, genRows := 50_000, 2_500, 10, 1_500
	if smoke {
		popN, sampleN, epochs, genRows = 3_000, 300, 1, 300
	}
	pop := flightsRows(rng, popN)
	return &modelWorkload{
		name: "open_flights", pop: "Flights", schema: flightsSchema,
		popRows: pop,
		sample:  biasedFlightsSample(rng, pop, sampleN, 0.95),
		margs: []binSpec{
			{[]string{"carrier", "elapsed_time"}, []float64{0, 10}},
			{[]string{"taxi_out", "elapsed_time"}, []float64{2, 10}},
			{[]string{"taxi_in", "elapsed_time"}, []float64{2, 10}},
			{[]string{"distance", "elapsed_time"}, []float64{50, 10}},
		},
		queries: []modelQuery{
			{"q1", "SELECT AVG(distance) FROM Flights WHERE elapsed_time > 200", false},
			{"q2", "SELECT AVG(taxi_in) FROM Flights WHERE elapsed_time < 200", false},
			{"q3", "SELECT AVG(elapsed_time) FROM Flights WHERE distance > 1000", false},
			{"q4", "SELECT AVG(taxi_out) FROM Flights WHERE distance < 1000", false},
			{"q5", "SELECT carrier, AVG(distance) FROM Flights WHERE elapsed_time > 200 AND carrier IN ('WN', 'AA') GROUP BY carrier", true},
			{"q6", "SELECT carrier, AVG(taxi_in) FROM Flights WHERE elapsed_time < 200 AND carrier IN ('WN', 'AA') GROUP BY carrier", true},
			{"q7", "SELECT carrier, AVG(elapsed_time) FROM Flights WHERE distance > 1000 AND carrier IN ('WN', 'AA') GROUP BY carrier", true},
			{"q8", "SELECT carrier, AVG(taxi_out) FROM Flights WHERE distance < 1000 AND carrier IN ('DL', 'OO') GROUP BY carrier", true},
		},
		ceilings: flightsCeilings,
		opts: mosaic.Options{Seed: 1, Workers: 1, OpenSamples: 3, GeneratedRows: genRows, SWG: swg.Config{
			Hidden: []int{64, 64}, Latent: 18, Lambda: 1e-7, BatchSize: 250, ProximitySubsample: 256,
			Projections: 16, Epochs: epochs, LR: 0.01,
		}},
		redeclare: true,
		writesPB:  6,
		openPB:    30,
		lightPB:   3,
	}
}

// newIngestRefit is the paper's spiral set-up (continuous 2-D attributes,
// 1-D histogram marginals) used the other way round: every block ingests
// into the sample, so its first SEMI-OPEN read refits IPF and its first OPEN
// read retrains the M-SWG.
func newIngestRefit(smoke bool, blocks int) *modelWorkload {
	rng := rand.New(rand.NewSource(modelDataSeed))
	popN, sampleN, batchRows, epochs, genRows := 150_000, 6_000, 6_500, 50, 2_500
	if smoke {
		popN, sampleN, batchRows, epochs, genRows = 3_000, 400, 100, 1, 200
	}
	const writesPB = 4
	pop := spiralRows(rng, popN)
	w := &modelWorkload{
		name: "ingest_refit", pop: "Spiral", schema: spiralSchema,
		popRows: pop,
		sample:  biasedSpiralSample(rng, pop, sampleN, 8),
		margs: []binSpec{
			{[]string{"x"}, []float64{0.04}},
			{[]string{"y"}, []float64{0.04}},
		},
		queries: []modelQuery{
			{"s1", "SELECT AVG(y) FROM Spiral WHERE x > 0.5", false},
			{"s2", "SELECT AVG(x) FROM Spiral WHERE y < 0.4", false},
			{"s3", "SELECT COUNT(*) FROM Spiral WHERE x < 0.5", false},
			{"s4", "SELECT COUNT(*) FROM Spiral WHERE x > 0.3 AND y < 0.6", false},
			{"s5", "SELECT SUM(y) FROM Spiral WHERE y > 0.6", false},
			{"s6", "SELECT AVG(x) FROM Spiral WHERE x < 0.5", false},
		},
		ceilings: spiralCeilings,
		opts: mosaic.Options{Seed: 1, Workers: 1, OpenSamples: 3, GeneratedRows: genRows, SWG: swg.Config{
			Hidden: []int{32, 32, 32}, Latent: 2, Lambda: 0.04, BatchSize: 250, ProximitySubsample: 256,
			Projections: 16, Epochs: epochs, StepsPerEpoch: 10, LR: 0.005,
		}},
		writesPB: writesPB,
		openPB:   30,
		lightPB:  2,
	}
	// The ingest stream: more biased draws from the same population, with
	// replacement, so any number of blocks can be fed.
	for i := 0; i < blocks*writesPB; i++ {
		batch := make([][]any, 0, batchRows)
		for len(batch) < batchRows {
			r := pop[rng.Intn(len(pop))]
			if r[0].(float64) > 0.5 || rng.Intn(8) == 0 {
				batch = append(batch, r)
			}
		}
		w.ingest = append(w.ingest, insertSQL(w.sampleName(), batch))
	}
	return w
}

// Error ceilings, in percent of the population truth: the largest error each
// read shows over the 9-block run BENCHMARK.json asks for, at the commit that
// added the benchmark, times 1.25, and at least one point above it. The data
// and the engine seed are fixed, so the errors repeat exactly. The training
// budgets and the queries are chosen so that every error is well under
// 100 %: a ceiling that an empty or zero answer would pass guards nothing
// (bench_test.go holds them to that). To re-pin after a deliberate accuracy
// change, take the observed errors from a run's report: a failed read still
// records its error, and a failed warm-up lists every miss.
var flightsCeilings = map[string]float64{
	"OPEN/q1":      4.464,  // observed 3.464
	"OPEN/q2":      15.564, // observed 12.451
	"OPEN/q3":      9.105,  // observed 7.284
	"OPEN/q4":      4.521,  // observed 3.521
	"OPEN/q5":      17.311, // observed 13.849
	"OPEN/q6":      2.162,  // observed 1.162
	"OPEN/q7":      9.559,  // observed 7.647
	"OPEN/q8":      13.418, // observed 10.734
	"SEMI-OPEN/q1": 1.490,  // observed 0.490
	"SEMI-OPEN/q2": 6.626,  // observed 5.301
	"SEMI-OPEN/q3": 9.918,  // observed 7.935
	"SEMI-OPEN/q4": 2.682,  // observed 1.682
	"SEMI-OPEN/q5": 1.556,  // observed 0.556
	"SEMI-OPEN/q6": 4.126,  // observed 3.126
	"SEMI-OPEN/q7": 7.521,  // observed 6.017
	"SEMI-OPEN/q8": 7.736,  // observed 6.189
}

var spiralCeilings = map[string]float64{
	"OPEN/s1":      32.043, // observed 25.635
	"OPEN/s2":      25.288, // observed 20.230
	"OPEN/s3":      5.798,  // observed 4.638
	"OPEN/s4":      7.752,  // observed 6.201
	"OPEN/s5":      17.135, // observed 13.708
	"OPEN/s6":      4.142,  // observed 3.142
	"SEMI-OPEN/s1": 1.589,  // observed 0.589
	"SEMI-OPEN/s2": 1.994,  // observed 0.995
	"SEMI-OPEN/s3": 6.001,  // observed 4.801
	"SEMI-OPEN/s4": 1.157,  // observed 0.157
	"SEMI-OPEN/s5": 1.162,  // observed 0.162
	"SEMI-OPEN/s6": 3.660,  // observed 2.660
}
