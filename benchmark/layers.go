package main

// Per-layer metric names and the one probe several workloads share.

import (
	"runtime"
	"time"

	"mosaic"
	"mosaic/internal/table"
)

// metricDef names one metric and its unit. better is "lower" or "higher".
type metricDef struct {
	name, unit, better string
}

// endToEnd are the seven metrics a user of the system would see. Every
// workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"read_ms_p50", "ms", "lower"},
	{"read_ms_p90", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"cold_read_s", "s", "lower"},
	{"write_ms_p50", "ms", "lower"},
	{"live_heap_mb", "MiB", "lower"},
}

// perLayer are the single-layer metrics of the traced pass. A workload
// reports 0 for a layer it does not exercise. README.md maps each to the
// end-to-end metric it should move.
var perLayer = []metricDef{
	{"sql.parse_us", "us", "lower"},
	{"core.prepare_us", "us", "lower"},
	{"core.plan_cache_hit_ratio", "ratio", "higher"},
	{"core.query_prepared_ms", "ms", "lower"},
	{"core.exec_stmt_ms", "ms", "lower"},
	{"core.restore_s", "s", "lower"},
	{"core.dump_ms", "ms", "lower"},
	{"exec.filter_ms", "ms", "lower"},
	{"exec.arith_ms", "ms", "lower"},
	{"exec.groupby_lowcard_ms", "ms", "lower"},
	{"exec.groupby_highcard_ms", "ms", "lower"},
	{"exec.distinct_ms", "ms", "lower"},
	{"exec.topk_ms", "ms", "lower"},
	{"exec.sort_full_ms", "ms", "lower"},
	{"exec.rows_per_s", "1/s", "higher"},
	{"exec.par_speedup", "ratio", "higher"},
	{"exec.partial_ms", "ms", "lower"},
	{"exec.gather_ms", "ms", "lower"},
	{"table.append_rows_per_s", "1/s", "higher"},
	{"table.snapshot_us", "us", "lower"},
	{"table.bytes_per_row", "B", "lower"},
	{"marginal.from_table_ms", "ms", "lower"},
	{"ipf.fit_ms", "ms", "lower"},
	{"ipf.sweeps", "count", "lower"},
	{"ipf.semi_rel_err_pct", "%", "lower"},
	{"swg.train_s", "s", "lower"},
	{"swg.train_steps", "count", "lower"},
	{"swg.final_loss", "loss", "lower"},
	{"swg.encode_table_ms", "ms", "lower"},
	{"swg.generate_ms", "ms", "lower"},
	{"swg.open_rel_err_pct", "%", "lower"},
	{"wire.encode_result_us", "us", "lower"},
	{"wire.decode_result_us", "us", "lower"},
	{"wire.bytes_per_answer", "B", "lower"},
	{"wire.encode_partial_us", "us", "lower"},
	{"wire.decode_partial_us", "us", "lower"},
	{"server.handler_ms", "ms", "lower"},
	{"server.overhead_us", "us", "lower"},
	{"server.shed", "count", "lower"},
	{"server.rejected", "count", "lower"},
	{"client.roundtrip_overhead_us", "us", "lower"},
	{"coord.scatter_ms", "ms", "lower"},
	{"coord.passthrough_ms", "ms", "lower"},
	{"coord.overhead_us", "us", "lower"},
	{"coord.write_fanout_ms", "ms", "lower"},
	{"coord.scatter_share", "ratio", "higher"},
	{"coord.replica_read_share", "ratio", "higher"},
	{"coord.failovers", "count", "lower"},
	{"repl.bootstrap_s", "s", "lower"},
	{"repl.sync_ms", "ms", "lower"},
	{"repl.lag_generations", "count", "lower"},
	{"trace_overhead_pct", "%", "lower"},
}

// tableProbe copies up to 50k rows of tbl into a fresh table and reports
// the append rate and the live heap the copy holds per row (row view, typed
// columns and dictionary together).
func tableProbe(tr *tracer, tbl *table.Table) (rowsPerS, bytesPerRow float64, err error) {
	snap := tbl.Snapshot()
	n := min(snap.Len(), 50_000)
	rows := make([][]mosaic.Value, n)
	for i := range rows {
		rows[i] = snap.Row(i)
	}
	scratch := table.New("scratch", tbl.Schema())
	before := liveHeap()
	start := time.Now()
	tr.do("table.bulk_append", -1, -1, false, func() { err = scratch.BulkAppend(rows) })
	secs := time.Since(start).Seconds()
	if err != nil {
		return 0, 0, err
	}
	after := liveHeap()
	runtime.KeepAlive(scratch)
	return float64(n) / secs, float64(after-before) / float64(n), nil
}

func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
