package main

// fleet_mix: real loopback HTTP inside the one process. A coordinator fronts
// two primary servers and one follower of shard 0; every engine runs with
// Workers: 1 so that runnable work never exceeds the cores. wire, server,
// client, coord and repl do most of the work here and none on the three
// in-process workloads.
//
// Every answer is checked byte for byte against an in-process reference
// engine opened with Options.Shards: 2 and restored from the same script.
// The reference plays every block's writes ahead of time, records the
// answers each block's reads must give, and is dropped before set-up.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"mosaic"
	"mosaic/client"
	"mosaic/internal/coord"
	"mosaic/internal/core"
	"mosaic/internal/exec"
	"mosaic/internal/repl"
	"mosaic/internal/server"
	"mosaic/internal/sql"
	"mosaic/internal/wire"
)

// fleetText is one read text and whether the coordinator scatters it
// (CLOSED / SEMI-OPEN aggregates) or passes it whole to shard 0.
type fleetText struct {
	text    string
	scatter bool
}

// httpNode is one listening HTTP server of the fleet.
type httpNode struct {
	url string
	srv *http.Server
}

func listen(h http.Handler) (*httpNode, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &httpNode{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}}
	go func() { _ = n.srv.Serve(ln) }() // returns when close shuts the server down
	return n, nil
}

func (n *httpNode) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = n.srv.Shutdown(ctx) // waits for in-flight requests and the Serve goroutine's listener
}

type fleetMix struct {
	sz      sizing
	nRows   int
	rows    [][]any
	batches [][]string      // [block][batch] INSERT statements
	hot     []fleetText     // 16 repeated texts: fits every 256-entry plan cache
	unique  [][]fleetText   // [block] unique-literal texts: > 256 per run, does not fit
	order   [][]fleetText   // [block] serial reads
	conc    [][][]fleetText // [block][client]
	cold    fleetText

	want     []map[string]*mosaic.Result // [state] reference answers: state 0 is set-up, state b+1 follows block b's writes
	coldWant [][]*mosaic.Result          // [block][i] the cold read's answer after write i of the block
	state    int

	// The system under test.
	dbs      []*mosaic.DB // primary 0, primary 1, follower
	servers  []*server.Server
	nodes    []*httpNode // the same three, then the coordinator
	follower *repl.Follower
	coord    *coord.Coordinator
	cls      []*client.Client // one per client goroutine

}

const fleetDDL = `CREATE GLOBAL POPULATION P ` + synthSchema + `;
CREATE SAMPLE S AS (SELECT * FROM P USING MECHANISM UNIFORM PERCENT 10);`

var fleetOpts = mosaic.Options{Seed: 1, Workers: 1}

func (w *fleetMix) generate(seed int64, sz sizing) error {
	w.sz = sz
	rng := rand.New(rand.NewSource(seed))
	nRows, batchRows, batchesPerBlock, uniquePerBlock := 80_000, 1600, 4, 27
	if sz.smoke {
		nRows, batchRows, uniquePerBlock = 3000, 40, 6
	}
	w.nRows = nRows
	w.rows = synthRows(rng, nRows, 0)
	for b := 0; b < sz.blocks; b++ {
		var stmts []string
		for i := 0; i < batchesPerBlock; i++ {
			stmts = append(stmts, insertSQL("S", synthRows(rng, batchRows, 0)))
		}
		w.batches = append(w.batches, stmts)
	}

	w.cold = fleetText{"SELECT SEMI-OPEN c1k, COUNT(*), SUM(x), AVG(y) FROM P GROUP BY c1k", true}
	w.hot = []fleetText{
		w.cold,
		{"SELECT CLOSED COUNT(*), SUM(x), AVG(y), MIN(x), MAX(y) FROM P", true},
		{"SELECT SEMI-OPEN COUNT(*), SUM(x), AVG(y), MIN(x), MAX(y) FROM P", true},
		{"SELECT CLOSED c10, COUNT(*), AVG(y) FROM P GROUP BY c10 ORDER BY c10", true},
		{"SELECT SEMI-OPEN c10, COUNT(*), SUM(x), AVG(y) FROM P GROUP BY c10 ORDER BY c10", true},
		{"SELECT CLOSED c1k, COUNT(*), SUM(x), AVG(y) FROM P GROUP BY c1k", true},
		{"SELECT CLOSED DISTINCT c10 FROM P", false},
	}
	for i := 0; len(w.hot) < 16; i++ {
		w.hot = append(w.hot, uniqueText(rng, i))
	}
	for b := 0; b < sz.blocks; b++ {
		// Every block gets the same number of each unique-text template, so
		// blocks are identical work.
		var us []fleetText
		for i := 0; i < uniquePerBlock; i++ {
			us = append(us, uniqueText(rng, i))
		}
		w.unique = append(w.unique, us)
		w.order = append(w.order, shuffled(rng, append(append([]fleetText(nil), w.hot...), us...)))
		// Concurrent phase: each client reads the hot set twice and its own
		// share of the block's unique texts.
		var per [][]fleetText
		for c := 0; c < clients(); c++ {
			list := append(append([]fleetText(nil), w.hot...), w.hot...)
			for i := c; i < len(us); i += clients() {
				list = append(list, us[i])
			}
			per = append(per, shuffled(rng, list))
		}
		w.conc = append(w.conc, per)
	}

	// The reference engine: the same script, in-process scatter-gather at
	// the fleet's shard count.
	src := mosaic.Open(&fleetOpts)
	script, err := w.buildScript(src, nil)
	if err != nil {
		return err
	}
	refOpts := fleetOpts
	refOpts.Shards = 2
	ref := mosaic.Open(&refOpts)
	if err := ref.Restore(script); err != nil {
		return err
	}
	for b := -1; b < sz.blocks; b++ {
		texts := w.hot
		if b >= 0 {
			var colds []*mosaic.Result
			for _, stmt := range w.batches[b] {
				if err := ref.Exec(stmt); err != nil {
					return err
				}
				res, err := ref.Query(w.cold.text)
				if err != nil {
					return err
				}
				colds = append(colds, res)
			}
			w.coldWant = append(w.coldWant, colds)
			texts = append(append([]fleetText(nil), w.hot...), w.unique[b]...)
		}
		answers := make(map[string]*mosaic.Result)
		for _, t := range texts {
			res, err := ref.Query(t.text)
			if err != nil {
				return fmt.Errorf("reference %q: %w", t.text, err)
			}
			answers[t.text] = res
		}
		w.want = append(w.want, answers)
	}
	return nil
}

// uniqueText returns a read text whose literals make it unlike any other:
// the stream of these is what overflows the plan caches. The literals move
// in a narrow range (the float makes the text unique), so every text of a
// template selects about the same rows and costs about the same. The
// templates cycle with i: two in three are scatter aggregates, one in three
// passes through.
func uniqueText(rng *rand.Rand, i int) fleetText {
	x, y := 500+rng.Intn(40), 90+10*rng.Float64()
	switch i % 3 {
	case 0:
		return fleetText{fmt.Sprintf("SELECT SEMI-OPEN c10, COUNT(*), SUM(x), AVG(y) FROM P WHERE x > %d AND y < %.6f GROUP BY c10 ORDER BY c10", x, y), true}
	case 1:
		return fleetText{fmt.Sprintf("SELECT CLOSED c1k, COUNT(*), AVG(y) FROM P WHERE x > %d AND y < %.6f GROUP BY c1k ORDER BY c1k LIMIT 25", x, y), true}
	default:
		return fleetText{fmt.Sprintf("SELECT CLOSED c1k, x, y FROM P WHERE x > %d AND y < %.6f ORDER BY y DESC, x LIMIT 25", x, y), false}
	}
}

// buildScript loads the initial table into src and returns its dump: the
// script every fleet member is restored from, so that their generations
// agree.
func (w *fleetMix) buildScript(src *mosaic.DB, tr *tracer) (string, error) {
	if err := src.Exec(fleetDDL); err != nil {
		return "", err
	}
	if err := src.Ingest("S", w.rows); err != nil {
		return "", err
	}
	var script string
	var err error
	tr.do("core.dump", -1, -1, false, func() { script, err = src.Dump() })
	return script, err
}

func (w *fleetMix) setup(tr *tracer) error {
	w.state = 0
	ctx := context.Background()
	script, err := w.buildScript(mosaic.Open(&fleetOpts), tr)
	if err != nil {
		return err
	}
	var urls []string
	for i := 0; i < 2; i++ {
		db := mosaic.Open(&fleetOpts)
		tr.do("core.restore", -1, -1, false, func() { err = db.Restore(script) })
		if err != nil {
			return err
		}
		if err := w.serve(db, nil); err != nil {
			return err
		}
		urls = append(urls, w.nodes[i].url)
	}
	fdb := mosaic.Open(&fleetOpts)
	w.follower, err = repl.NewFollower(repl.Config{Primary: urls[0], DB: fdb})
	if err != nil {
		return err
	}
	tr.do("repl.bootstrap", -1, -1, false, func() { err = w.follower.Bootstrap(ctx) })
	if err != nil {
		return err
	}
	if err := w.serve(fdb, w.follower); err != nil {
		return err
	}
	w.coord, err = coord.New(coord.Config{Shards: urls, Replicas: map[int][]string{0: {w.nodes[2].url}}})
	if err != nil {
		return err
	}
	if err := w.coord.Sync(ctx); err != nil {
		return err
	}
	front, err := listen(w.coord.Handler())
	if err != nil {
		return err
	}
	w.nodes = append(w.nodes, front)
	w.cls = w.cls[:0]
	for c := 0; c < clients(); c++ {
		w.cls = append(w.cls, client.New(front.url))
	}
	// Warm-up: the hot set once, verified (fills the plan caches).
	for _, t := range w.hot {
		if err := w.read(0, t); err != nil {
			return fmt.Errorf("warm-up %q: %w", t.text, err)
		}
	}
	return nil
}

// serve puts db behind a server on a loopback listener.
func (w *fleetMix) serve(db *mosaic.DB, f *repl.Follower) error {
	cfg := server.Config{DB: db}
	if f != nil {
		cfg.Follower = f
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	node, err := listen(srv.Handler())
	if err != nil {
		return err
	}
	w.dbs, w.servers, w.nodes = append(w.dbs, db), append(w.servers, srv), append(w.nodes, node)
	return nil
}

func (w *fleetMix) read(c int, t fleetText) error {
	res, err := w.cls[c].Query(t.text)
	if err != nil {
		return err
	}
	want, ok := w.want[w.state][t.text]
	if !ok {
		return fmt.Errorf("no reference answer for %q", t.text)
	}
	return sameResult(res, want)
}

func (w *fleetMix) readOps(texts []fleetText) []op {
	ops := make([]op, len(texts))
	for i, t := range texts {
		t := t
		shape := "passthrough"
		if t.scatter {
			shape = "scatter"
		}
		ops[i] = op{shape: shape, run: func(c int) error { return w.read(c, t) }}
	}
	return ops
}

func (w *fleetMix) block(b int, tr *tracer) block {
	blk := block{serial: w.readOps(w.order[b])}
	for i, stmt := range w.batches[b] {
		i, stmt := i, stmt
		blk.writes = append(blk.writes, op{shape: "exec_fanout", run: func(int) error {
			w.state = b + 1 // reads that follow the burst are checked against the state it leaves
			return w.cls[0].Exec(stmt)
		}})
		// The cold cycle after each write batch: the follower catches up,
		// then the first scatter at the new generation re-plans on every
		// shard.
		blk.colds = append(blk.colds, op{shape: "scatter_after_exec", run: func(int) error {
			var err error
			tr.do("repl.sync", -1, -1, false, func() { err = w.follower.SyncOnce(context.Background()) })
			if err != nil {
				return err
			}
			res, err := w.cls[0].Query(w.cold.text)
			if err != nil {
				return err
			}
			return sameResult(res, w.coldWant[b][i])
		}})
	}
	for _, texts := range w.conc[b] {
		blk.conc = append(blk.conc, w.readOps(texts))
	}
	return blk
}

func (w *fleetMix) dataSizes() map[string]int {
	return map[string]int{
		"table_rows":          w.nRows,
		"primaries":           2,
		"followers":           1,
		"exec_batch_rows":     bytes.Count([]byte(w.batches[0][0]), []byte("(")),
		"batches_per_block":   len(w.batches[0]),
		"hot_texts":           len(w.hot),
		"unique_texts_block":  len(w.unique[0]),
		"serial_reads_block":  len(w.order[0]),
		"plan_cache_capacity": 256,
	}
}

func (w *fleetMix) release() { w.rows = nil }

func (w *fleetMix) close() {
	if w.coord != nil {
		w.coord.Close()
	}
	if w.follower != nil {
		w.follower.Close()
	}
	for _, n := range w.nodes {
		n.close()
	}
	for _, s := range w.servers {
		_ = s.Close() // no snapshot path configured: nothing to flush
	}
	w.coord, w.follower, w.nodes, w.servers, w.dbs = nil, nil, nil, nil, nil
}

// handle calls an HTTP handler directly, with no socket in between.
func handle(h http.Handler, method, path string, body any) (*httptest.ResponseRecorder, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(raw)))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %d: %s", method, path, rec.Code, rec.Body.String())
	}
	return rec, nil
}

// layers takes each hot read apart: the client hop to the coordinator, the
// coordinator's handler, each shard's client hop, handler and engine call,
// the codecs and the gather.
func (w *fleetMix) layers(tr *tracer) (map[string]float64, error) {
	ctx := context.Background()
	gen := w.coord.Generation()
	shardCls := []*client.Client{client.New(w.nodes[0].url), client.New(w.nodes[1].url)}
	// Overheads are differences of paired calls: the same request through
	// one more layer, minus without it.
	var coordOverheadS, clientOverheadS, serverOverheadS, answerBytes []float64
	secs := func(id int) float64 { return float64(tr.spans[id].End-tr.spans[id].Start) / 1e9 }
	const reps = 3
	for i, t := range w.hot {
		for r := 0; r < reps; r++ {
			var err error
			root := tr.start("replay.read", -1, i, false)
			cq := tr.do("client.query", root, i, false, func() { err = w.read(0, t) })
			tr.end(root)
			if err != nil {
				return nil, err
			}
			var sel *sql.Select
			tr.do("sql.parse", cq, i, true, func() { sel, err = sql.ParseQuery(t.text) })
			if err != nil {
				return nil, err
			}
			name := "coord.passthrough"
			if t.scatter {
				name = "coord.scatter"
			}
			var rec *httptest.ResponseRecorder
			start := time.Now()
			ch := tr.do(name, cq, i, true, func() {
				rec, err = handle(w.coord.Handler(), "POST", "/v1/query", wire.QueryRequest{Query: t.text})
			})
			if err != nil {
				return nil, err
			}
			handlerS := time.Since(start).Seconds()
			answerBytes = append(answerBytes, float64(rec.Body.Len()))
			if !t.scatter {
				// Pass-through: one whole query on shard 0.
				call := tr.do("client.shard_call", ch, i, true, func() { _, err = shardCls[0].Query(t.text) })
				if err != nil {
					return nil, err
				}
				sh := tr.do("server.handler", call, i, true, func() {
					_, err = handle(w.servers[0].Handler(), "POST", "/v1/query", wire.QueryRequest{Query: t.text})
				})
				if err != nil {
					return nil, err
				}
				eng := w.dbs[0].Engine()
				var pq *core.PreparedQuery
				tr.do("core.prepare", sh, i, true, func() { pq = eng.Prepare(sel) })
				q := tr.do("core.query_prepared", sh, i, true, func() { _, err = eng.QueryPrepared(ctx, pq, sel) })
				if err != nil {
					return nil, err
				}
				clientOverheadS = append(clientOverheadS, secs(call)-secs(sh))
				serverOverheadS = append(serverOverheadS, secs(sh)-secs(q))
				continue
			}
			// Scatter: one partial per shard, then the gather.
			partials := make([]*exec.ShardPartial, 2)
			var slowest float64
			for s := 0; s < 2; s++ {
				preq := wire.PartialRequest{Query: t.text, Shard: s, Shards: 2, Generation: gen, CheckGeneration: true}
				start = time.Now()
				call := tr.do("client.shard_call", ch, i, true, func() { _, err = shardCls[s].PartialContext(ctx, &preq) })
				if err != nil {
					return nil, err
				}
				slowest = max(slowest, time.Since(start).Seconds())
				sh := tr.do("server.handler", call, i, true, func() {
					_, err = handle(w.servers[s].Handler(), "POST", "/v1/partial", preq)
				})
				if err != nil {
					return nil, err
				}
				ep := tr.do("exec.partial", sh, i, true, func() {
					partials[s], _, _, err = w.dbs[s].Engine().PartialContext(ctx, sel, s, 2)
				})
				if err != nil {
					return nil, err
				}
				clientOverheadS = append(clientOverheadS, secs(call)-secs(sh))
				serverOverheadS = append(serverOverheadS, secs(sh)-secs(ep))
				var raw []byte
				tr.do("wire.encode_partial", sh, i, true, func() {
					var resp *wire.PartialResponse
					if resp, err = wire.EncodePartial(partials[s], gen); err == nil {
						raw, err = json.Marshal(resp)
					}
				})
				if err != nil {
					return nil, err
				}
				tr.do("wire.decode_partial", ch, i, true, func() {
					var resp wire.PartialResponse
					if err = json.Unmarshal(raw, &resp); err == nil {
						_, err = wire.DecodePartial(&resp)
					}
				})
				if err != nil {
					return nil, err
				}
			}
			var res *mosaic.Result
			start = time.Now()
			tr.do("exec.gather", ch, i, true, func() { res, err = exec.GatherPartials(ctx, sel, partials) })
			if err != nil {
				return nil, err
			}
			gather := time.Since(start).Seconds()
			var raw []byte
			tr.do("wire.encode_result", ch, i, true, func() { raw, err = json.Marshal(wire.EncodeResult(res)) })
			if err != nil {
				return nil, err
			}
			tr.do("wire.decode_result", cq, i, true, func() {
				var wres wire.Result
				if err = json.Unmarshal(raw, &wres); err == nil {
					_, err = wire.DecodeResult(&wres)
				}
			})
			if err != nil {
				return nil, err
			}
			coordOverheadS = append(coordOverheadS, handlerS-slowest-gather)
		}
	}

	// The engine's share of a write: the same statement on a scratch engine
	// (a fleet member that took it twice would diverge).
	scratch := mosaic.Open(&fleetOpts)
	if err := scratch.Exec(fleetDDL); err != nil {
		return nil, err
	}
	for _, stmt := range w.batches[0] {
		var err error
		tr.do("core.exec_stmt", -1, -1, false, func() { err = scratch.ExecContext(ctx, stmt) })
		if err != nil {
			return nil, err
		}
	}

	tbl, err := w.dbs[0].Table("S")
	if err != nil {
		return nil, err
	}
	for r := 0; r < reps; r++ {
		tr.do("table.snapshot", -1, -1, false, func() { tbl.Snapshot() })
	}
	_, bytesPerRow, err := tableProbe(tr, tbl)
	if err != nil {
		return nil, err
	}

	var cst wire.CoordStatsResponse
	if err := getJSON(w.nodes[3].url+"/statsz", &cst); err != nil {
		return nil, err
	}
	var hits, misses, shed, rejected int64
	for _, n := range w.nodes[:3] {
		st, err := client.New(n.url).StatsContext(ctx)
		if err != nil {
			return nil, err
		}
		if st.PlanCache != nil {
			hits, misses = hits+st.PlanCache.Hits, misses+st.PlanCache.Misses
		}
		shed, rejected = shed+st.Shed, rejected+st.Rejected
	}
	fst := w.follower.Stats()
	return map[string]float64{
		"sql.parse_us":                 tr.median("sql.parse") * 1e6,
		"core.prepare_us":              tr.median("core.prepare") * 1e6,
		"core.plan_cache_hit_ratio":    ratio(hits, hits+misses),
		"core.query_prepared_ms":       tr.median("core.query_prepared") * 1e3,
		"core.exec_stmt_ms":            tr.median("core.exec_stmt") * 1e3,
		"core.restore_s":               tr.median("core.restore"),
		"core.dump_ms":                 tr.median("core.dump") * 1e3,
		"exec.partial_ms":              tr.median("exec.partial") * 1e3,
		"exec.gather_ms":               tr.median("exec.gather") * 1e3,
		"table.snapshot_us":            tr.median("table.snapshot") * 1e6,
		"table.bytes_per_row":          bytesPerRow,
		"wire.encode_result_us":        tr.median("wire.encode_result") * 1e6,
		"wire.decode_result_us":        tr.median("wire.decode_result") * 1e6,
		"wire.bytes_per_answer":        mean(answerBytes),
		"wire.encode_partial_us":       tr.median("wire.encode_partial") * 1e6,
		"wire.decode_partial_us":       tr.median("wire.decode_partial") * 1e6,
		"server.handler_ms":            tr.median("server.handler") * 1e3,
		"server.overhead_us":           quantile(serverOverheadS, 0.5) * 1e6,
		"server.shed":                  float64(shed),
		"server.rejected":              float64(rejected),
		"client.roundtrip_overhead_us": quantile(clientOverheadS, 0.5) * 1e6,
		"coord.scatter_ms":             tr.median("coord.scatter") * 1e3,
		"coord.passthrough_ms":         tr.median("coord.passthrough") * 1e3,
		"coord.overhead_us":            quantile(coordOverheadS, 0.5) * 1e6,
		"coord.write_fanout_ms":        tr.median("op.write.exec_fanout") * 1e3,
		"coord.scatter_share":          ratio(cst.Scattered, cst.Scattered+cst.PassThrough),
		"coord.replica_read_share":     ratio(cst.ReplicaReads, cst.ReplicaReads+cst.PrimaryReads),
		"coord.failovers":              float64(cst.Failovers),
		"repl.bootstrap_s":             tr.median("repl.bootstrap"),
		"repl.sync_ms":                 tr.median("repl.sync") * 1e3,
		"repl.lag_generations":         float64(w.coord.Generation() - fst.Generation),
	}, nil
}

func getJSON(url string, into any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(into)
}

func ratio(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
