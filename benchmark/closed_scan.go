package main

// closed_scan: an in-process mosaic.DB holding the 5-column synthetic table
// of BENCH_exec.json. exec and table do nearly all the work; swg, ipf, wire,
// server, coord and repl do none.
//
// Reads go to V, a population defined as the view x < 1000 of the global
// population P, and every inserted row has x >= 1000. The engine must scan
// and store the new rows, but V's answers never change, so one RowExec
// oracle computed before the measured phase verifies every read of every
// block byte for byte. The cold read after each write burst asks P for the
// rows with x >= 1000, which are exactly the inserted ones: a second RowExec
// oracle that holds nothing else plays every block's writes ahead of time
// and records the answer the cold read must give in each block, without
// scanning the initial table row by row nine times over.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"

	"mosaic"
	"mosaic/internal/core"
	"mosaic/internal/exec"
	"mosaic/internal/sql"
	"mosaic/internal/table"
)

// scanShape is one read shape. prepared carries ? placeholders bound with
// args; adhoc is the same query with the literals inlined; direct is the
// equivalent query against the sample with V's predicate inlined — what the
// engine hands to exec, used by the layer replay.
type scanShape struct {
	name     string
	prepared string
	args     []any
	adhoc    string
	direct   string
	perBlock int // serial reads of this shape per block
}

type closedScan struct {
	sz      sizing
	nRows   int
	rows    [][]any
	batches [][]string // [block][i] write statements: INSERT batches, then the re-weighting
	shapes  []scanShape
	order   [][]int   // [block] serial read order, as shape indices
	conc    [][][]int // [block][client] concurrent read order
	want    map[string]*mosaic.Result

	coldWant []*mosaic.Result // [block]

	db    *mosaic.DB
	stmts []*mosaic.Stmt
}

const (
	closedSetupDDL = `CREATE GLOBAL POPULATION P ` + synthSchema + `;
CREATE POPULATION V AS (SELECT * FROM P WHERE x < 1000);
CREATE SAMPLE S AS (SELECT * FROM P);`
	closedWeights = `UPDATE SAMPLE S SET WEIGHT = 0.5 + (x % 100) / 100.0`
	closedColdSQL = `SELECT CLOSED c1k, COUNT(*), SUM(x), AVG(y) FROM P WHERE x >= 1000 GROUP BY c1k`
)

func (w *closedScan) generate(seed int64, sz sizing) error {
	w.sz = sz
	rng := rand.New(rand.NewSource(seed))
	nRows, batchRows, batchesPerBlock := 400_000, 2400, 4
	if sz.smoke {
		nRows, batchRows = 4000, 50
	}
	w.nRows = nRows
	w.rows = synthRows(rng, nRows, 0)
	for b := 0; b < sz.blocks; b++ {
		var stmts []string
		for i := 0; i < batchesPerBlock; i++ {
			stmts = append(stmts, insertSQL("S", synthRows(rng, batchRows, 1000)))
		}
		// An INSERT resets the sample's weights to 1; the burst ends by
		// re-initialising them, so reads keep running on non-unit weights.
		w.batches = append(w.batches, append(stmts, closedWeights))
	}

	xMin := 300 + rng.Intn(400)
	g := fmt.Sprintf("g%d", rng.Intn(10))
	yMax := 60 + rng.Intn(30)
	off := 400 + rng.Intn(200)
	w.shapes = []scanShape{
		{name: "filter", perBlock: 3,
			prepared: "SELECT CLOSED COUNT(*) FROM V WHERE x > ?", args: []any{xMin},
			adhoc:  fmt.Sprintf("SELECT CLOSED COUNT(*) FROM V WHERE x > %d", xMin),
			direct: fmt.Sprintf("SELECT COUNT(*) FROM S WHERE x > %d AND x < 1000", xMin)},
		{name: "filter_text", perBlock: 6,
			prepared: "SELECT CLOSED COUNT(*) FROM V WHERE c10 != ? AND y < ?", args: []any{g, yMax},
			adhoc:  fmt.Sprintf("SELECT CLOSED COUNT(*) FROM V WHERE c10 != '%s' AND y < %d", g, yMax),
			direct: fmt.Sprintf("SELECT COUNT(*) FROM S WHERE c10 != '%s' AND y < %d AND x < 1000", g, yMax)},
		{name: "arith", perBlock: 6,
			prepared: "SELECT CLOSED COUNT(*) FROM V WHERE x * 2 > y + ?", args: []any{off},
			adhoc:  fmt.Sprintf("SELECT CLOSED COUNT(*) FROM V WHERE x * 2 > y + %d", off),
			direct: fmt.Sprintf("SELECT COUNT(*) FROM S WHERE x * 2 > y + %d AND x < 1000", off)},
		{name: "groupby_10", perBlock: 6,
			prepared: "SELECT CLOSED c10, COUNT(*), AVG(y) FROM V GROUP BY c10",
			direct:   "SELECT c10, COUNT(*), AVG(y) FROM S WHERE x < 1000 GROUP BY c10"},
		{name: "groupby_1k", perBlock: 8,
			prepared: "SELECT CLOSED c1k, COUNT(*), SUM(x), AVG(y) FROM V GROUP BY c1k",
			direct:   "SELECT c1k, COUNT(*), SUM(x), AVG(y) FROM S WHERE x < 1000 GROUP BY c1k"},
		{name: "groupby_100k", perBlock: 6,
			prepared: "SELECT CLOSED c100k, COUNT(*), AVG(y) FROM V GROUP BY c100k",
			direct:   "SELECT c100k, COUNT(*), AVG(y) FROM S WHERE x < 1000 GROUP BY c100k"},
		{name: "distinct", perBlock: 3,
			prepared: "SELECT CLOSED DISTINCT c1k FROM V",
			direct:   "SELECT DISTINCT c1k FROM S WHERE x < 1000"},
		{name: "topk", perBlock: 1,
			prepared: "SELECT CLOSED c1k, x, y FROM V WHERE x < 250 ORDER BY y DESC, x LIMIT 10",
			direct:   "SELECT c1k, x, y FROM S WHERE x < 250 ORDER BY y DESC, x LIMIT 10"},
		{name: "sort_full", perBlock: 1,
			prepared: "SELECT CLOSED y FROM V WHERE x < 250 ORDER BY y",
			direct:   "SELECT y FROM S WHERE x < 250 ORDER BY y"},
	}
	var mix []int
	for i := range w.shapes {
		if w.shapes[i].adhoc == "" {
			w.shapes[i].adhoc = w.shapes[i].prepared
		}
		for k := 0; k < w.shapes[i].perBlock; k++ {
			mix = append(mix, i)
		}
	}
	for b := 0; b < sz.blocks; b++ {
		w.order = append(w.order, shuffled(rng, mix))
		// Concurrent phase: every client runs each shape once — the same work
		// in every block, in a fresh order.
		var per [][]int
		for c := 0; c < clients(); c++ {
			var list []int
			for i := range w.shapes {
				list = append(list, i)
			}
			per = append(per, shuffled(rng, list))
		}
		w.conc = append(w.conc, per)
	}
	return w.buildOracle()
}

// load creates the schema and ingests the initial table into db.
func (w *closedScan) load(db *mosaic.DB) error {
	if err := db.Exec(closedSetupDDL); err != nil {
		return err
	}
	const chunk = 50_000
	for lo := 0; lo < len(w.rows); lo += chunk {
		hi := min(lo+chunk, len(w.rows))
		if err := db.Ingest("S", w.rows[lo:hi]); err != nil {
			return err
		}
	}
	return db.Exec(closedWeights)
}

// buildOracle loads the same data into a row-at-a-time engine and records
// its answer to every read shape; a second one, holding only the inserted
// rows, plays every block's writes and records the cold read's answer after
// each. Both are dropped afterwards: they do no work and hold no memory in
// the measured phase.
func (w *closedScan) buildOracle() error {
	opts := &mosaic.Options{Seed: 1, RowExec: true}
	oracle := mosaic.Open(opts)
	if err := w.load(oracle); err != nil {
		return fmt.Errorf("oracle load: %w", err)
	}
	w.want = make(map[string]*mosaic.Result)
	for _, s := range w.shapes {
		res, err := oracle.Query(s.adhoc)
		if err != nil {
			return fmt.Errorf("oracle %s: %w", s.name, err)
		}
		w.want[s.name] = res
	}
	inserted := mosaic.Open(opts)
	if err := inserted.Exec(closedSetupDDL); err != nil {
		return err
	}
	for _, stmts := range w.batches {
		for _, stmt := range stmts {
			if err := inserted.Exec(stmt); err != nil {
				return fmt.Errorf("oracle write: %w", err)
			}
		}
		res, err := inserted.Query(closedColdSQL)
		if err != nil {
			return fmt.Errorf("oracle cold read: %w", err)
		}
		w.coldWant = append(w.coldWant, res)
	}
	return nil
}

func (w *closedScan) setup(tr *tracer) error {
	w.db = mosaic.Open(&mosaic.Options{Seed: 1, Workers: 1})
	if err := w.load(w.db); err != nil {
		return err
	}
	w.stmts = w.stmts[:0]
	for _, s := range w.shapes {
		st, err := w.db.Prepare(s.prepared)
		if err != nil {
			return err
		}
		w.stmts = append(w.stmts, st)
	}
	// Warm-up: every distinct read once, both ways, verified.
	for i := range w.shapes {
		for _, prepared := range []bool{true, false} {
			if err := w.read(i, prepared); err != nil {
				return fmt.Errorf("warm-up %s: %w", w.shapes[i].name, err)
			}
		}
	}
	return nil
}

// read runs shape i once, through its prepared statement or as ad-hoc text,
// and verifies the answer against the oracle.
func (w *closedScan) read(i int, prepared bool) error {
	s := w.shapes[i]
	var res *mosaic.Result
	var err error
	if prepared {
		res, err = w.stmts[i].Query(s.args...)
	} else {
		res, err = w.db.Query(s.adhoc)
	}
	if err != nil {
		return err
	}
	return sameResult(res, w.want[s.name])
}

func (w *closedScan) shapeIndex(name string) int {
	for i, s := range w.shapes {
		if s.name == name {
			return i
		}
	}
	panic("unknown shape " + name)
}

func (w *closedScan) readOps(order []int) []op {
	ops := make([]op, len(order))
	for k, i := range order {
		i, prepared := i, k%2 == 0 // half prepared, half ad-hoc text
		ops[k] = op{shape: w.shapes[i].name, run: func(int) error { return w.read(i, prepared) }}
	}
	return ops
}

func (w *closedScan) block(b int, _ *tracer) block {
	blk := block{
		// The cold cycle: the first group-bys after the burst. The one over P
		// must see the new rows (its answer is the oracle's for this block);
		// the high-cardinality one over V must extend its derived column
		// state over them although its answer does not change.
		colds: []op{{shape: "groupbys_after_insert", run: func(int) error {
			res, err := w.db.Query(closedColdSQL)
			if err != nil {
				return err
			}
			if err := sameResult(res, w.coldWant[b]); err != nil {
				return err
			}
			return w.read(w.shapeIndex("groupby_100k"), false)
		}}},
		serial: w.readOps(w.order[b]),
	}
	for _, stmt := range w.batches[b] {
		stmt := stmt
		shape := "insert_batch"
		if stmt == closedWeights {
			shape = "reweight"
		}
		blk.writes = append(blk.writes, op{shape: shape, run: func(int) error {
			return w.db.ExecContext(context.Background(), stmt)
		}})
	}
	for _, order := range w.conc[b] {
		blk.conc = append(blk.conc, w.readOps(order))
	}
	return blk
}

func (w *closedScan) dataSizes() map[string]int {
	return map[string]int{
		"table_rows":         w.nRows,
		"insert_batch_rows":  strings.Count(w.batches[0][0], "("),
		"writes_per_block":   len(w.batches[0]),
		"serial_reads_block": len(w.order[0]),
	}
}

func (w *closedScan) release() { w.rows = nil }

func (w *closedScan) close() {}

// layers replays each read shape through sql, core, table and exec.
func (w *closedScan) layers(tr *tracer) (map[string]float64, error) {
	ctx := context.Background()
	eng := w.db.Engine()
	tbl, err := w.db.Table("S")
	if err != nil {
		return nil, err
	}
	opts := exec.Options{Weighted: true, Workers: eng.Options().Workers}
	const reps = 5
	for i, s := range w.shapes {
		direct, err := sql.ParseQuery(s.direct)
		if err != nil {
			return nil, err
		}
		for r := 0; r < reps; r++ {
			root := tr.start("replay.read", -1, i, false)
			var sel *sql.Select
			tr.do("sql.parse", root, i, false, func() { sel, err = sql.ParseQuery(s.adhoc) })
			if err != nil {
				return nil, err
			}
			var pq *core.PreparedQuery
			tr.do("core.prepare", root, i, false, func() { pq = eng.Prepare(sel) })
			q := tr.do("core.query_prepared", root, i, false, func() { _, err = eng.QueryPrepared(ctx, pq, sel) })
			if err != nil {
				return nil, err
			}
			tr.end(root)
			// What the engine did inside QueryPrepared, replayed on the
			// same table: one snapshot, one executor run.
			var snap *table.Snapshot
			tr.do("table.snapshot", q, i, true, func() { snap = tbl.Snapshot() })
			tr.do("exec."+s.name, q, i, true, func() { _, err = exec.RunSnapshotContext(ctx, snap, direct, opts) })
			if err != nil {
				return nil, err
			}
		}
	}
	m := map[string]float64{
		"sql.parse_us":              tr.median("sql.parse") * 1e6,
		"core.prepare_us":           tr.median("core.prepare") * 1e6,
		"core.query_prepared_ms":    tr.median("core.query_prepared") * 1e3,
		"core.exec_stmt_ms":         tr.median("op.write.insert_batch") * 1e3,
		"exec.filter_ms":            tr.median("exec.filter") * 1e3,
		"exec.arith_ms":             tr.median("exec.arith") * 1e3,
		"exec.groupby_lowcard_ms":   tr.median("exec.groupby_10") * 1e3,
		"exec.groupby_highcard_ms":  tr.median("exec.groupby_100k") * 1e3,
		"exec.distinct_ms":          tr.median("exec.distinct") * 1e3,
		"exec.topk_ms":              tr.median("exec.topk") * 1e3,
		"exec.sort_full_ms":         tr.median("exec.sort_full") * 1e3,
		"exec.rows_per_s":           float64(tbl.Len()) / tr.median("exec.filter"),
		"table.snapshot_us":         tr.median("table.snapshot") * 1e6,
		"table.append_rows_per_s":   0,
		"table.bytes_per_row":       0,
		"exec.par_speedup":          0,
		"core.plan_cache_hit_ratio": 0,
	}

	// Workers 1 ÷ Workers GOMAXPROCS on the mid-cardinality group-by.
	gb, err := sql.ParseQuery(w.shapes[w.shapeIndex("groupby_1k")].direct)
	if err != nil {
		return nil, err
	}
	snap := tbl.Snapshot()
	for r := 0; r < reps; r++ {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			o := opts
			o.Workers = workers
			tr.do(fmt.Sprintf("exec.groupby_1k.w%d", workers), -1, -1, false, func() {
				_, err = exec.RunSnapshotContext(ctx, snap, gb, o)
			})
			if err != nil {
				return nil, err
			}
		}
	}
	m["exec.par_speedup"] = tr.median("exec.groupby_1k.w1") / tr.median(fmt.Sprintf("exec.groupby_1k.w%d", runtime.GOMAXPROCS(0)))

	rate, bytesPerRow, err := tableProbe(tr, tbl)
	if err != nil {
		return nil, err
	}
	m["table.append_rows_per_s"], m["table.bytes_per_row"] = rate, bytesPerRow
	return m, nil
}
