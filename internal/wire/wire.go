// Package wire defines the JSON protocol shared by the Mosaic HTTP server
// (internal/server) and the Go client (mosaic/client).
//
// Result cells travel as tagged strings rather than raw JSON scalars so that
// every value round-trips bit-exactly: floats use Go's shortest
// re-parseable formatting (a JSON number would survive too, but tagging
// keeps INT vs FLOAT vs BOOL distinguishable without schema context, and
// int64 values beyond 2^53 would lose precision in any JSON number).
package wire

import (
	"fmt"
	"strconv"

	"mosaic/internal/exec"
	"mosaic/internal/value"
)

// QueryRequest is the body of POST /v1/query and GET /v1/explain. Params
// bind the query's `?` placeholders in order; values travel as tagged cells
// (the same codec results use), so a bound query answers byte-identically to
// the same query with the literals inlined.
type QueryRequest struct {
	Query  string `json:"query"`
	Params []Cell `json:"params,omitempty"`
	// Generation, when CheckGeneration is set, pins the request to one fleet
	// state: the serving process refuses with 409 when its own (for a
	// follower: replicated) generation differs before or after execution.
	// The coordinator sets this on reads routed to replicas, so a follower
	// that lags — or catches up mid-query — can never contribute an answer
	// from a different generation than the primary's.
	Generation      uint64 `json:"generation,omitempty"`
	CheckGeneration bool   `json:"check_generation,omitempty"`
}

// MaxBodyBytes is the request-body cap of every Mosaic front door, shard
// and coordinator alike (413 beyond it), so the coordinator accepts every
// request it relays to a shard.
const MaxBodyBytes = 8 << 20

// The protocol's headers.
const (
	// PriorityHeader carries a request's explicit admission class,
	// "interactive" or "batch". Absent, the server derives one: queries by
	// visibility (OPEN is batch, everything else interactive), exec
	// scripts batch, explain interactive.
	PriorityHeader = "X-Mosaic-Priority"
	// DeadlineHeader carries the caller's remaining budget in integer
	// milliseconds. The server intersects it with its request timeout and
	// sheds the request before any work when the budget is spent or below
	// the class's latency estimate.
	DeadlineHeader = "X-Mosaic-Deadline-Ms"
	// GenerationHeader carries, on a GET /v1/snapshot answer, the DDL/DML
	// generation the body's script captures. The body is the script
	// itself, text/plain, with a Content-Length the reader checks: a short
	// body is a failed fetch, never a shorter script.
	GenerationHeader = "X-Mosaic-Generation"
	// SnapshotFormatHeader carries, on every GET /v1/snapshot and
	// /v1/snapshot/delta answer, the format of the replication surface,
	// SnapshotFormat. A follower refuses an answer in any other format, or
	// in none, rather than replay text it may misread.
	SnapshotFormatHeader = "X-Mosaic-Snapshot-Format"
)

// SnapshotFormat is the format the replication surface speaks: 3, whose
// dumps and deltas write every sample mechanism as SQL (USING MECHANISM
// UNIFORM, STRATIFIED with its probabilities, BIASED; ALTER SAMPLE) and carry
// Go-API writes as statements, rows as COPY blocks. Format 2 carried rows as
// COPY blocks too, but wrote mechanisms other than UNIFORM as comments, and a
// format-2 follower cannot parse a format-3 delta. Answers before format 2
// carried no SnapshotFormatHeader.
const SnapshotFormat = "3"

// ExecRequest is the body of POST /v1/exec: a semicolon-separated Mosaic
// script. Statements execute in order; SELECTs inside the script return
// their results in order (null for DDL/DML), mirroring mosaic.DB.Run.
type ExecRequest struct {
	Script string `json:"script"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// Cell is one result value: K is the kind tag ("null", "int", "float",
// "text", "bool"); V is the payload (absent for null).
type Cell struct {
	K string `json:"k"`
	V string `json:"v,omitempty"`
}

// Result is the wire form of an exec.Result.
type Result struct {
	Columns []string `json:"columns"`
	Rows    [][]Cell `json:"rows"`
}

// ExecResponse is the body of a successful POST /v1/exec. Generation is the
// engine's DDL/DML generation counter after the script ran — the fleet
// coordinator's handshake for confirming every shard landed on the same
// state.
type ExecResponse struct {
	Results    []*Result `json:"results"`
	Generation uint64    `json:"generation"`
}

// HistogramSnapshot is the JSON form of one latency histogram in /statsz.
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	MeanMs  float64          `json:"mean_ms"`
	Buckets map[string]int64 `json:"buckets"` // upper-bound label → count
}

// VisibilityStats is one visibility's counters in /statsz.
type VisibilityStats struct {
	Queries int64             `json:"queries"`
	Latency HistogramSnapshot `json:"latency"`
}

// ClassStats is one priority class's admission accounting in /statsz. The
// serving layer splits every counter by class (interactive vs batch) so
// overload behavior is observable per class: how much was admitted, shed up
// front (deadline unmeetable → 503 + Retry-After), rejected at the gate,
// timed out mid-execution, and how the latency distribution looks.
type ClassStats struct {
	Admitted   int64             `json:"admitted"`
	Shed       int64             `json:"shed"`
	Rejected   int64             `json:"rejected"`
	Timeouts   int64             `json:"timeouts"`
	Inflight   int64             `json:"inflight"`
	QueueDepth int64             `json:"queue_depth"`
	EWMAMs     float64           `json:"ewma_ms"` // the shedder's latency estimate
	Latency    HistogramSnapshot `json:"latency"`
}

// PlanCacheStats reports the server-side prepared-plan cache: hits mean a
// request skipped parse + plan entirely (plans self-invalidate on DDL/DML
// via the engine generation counter, so a hit is never stale).
type PlanCacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Size      int   `json:"size"`
	Capacity  int   `json:"capacity"`
}

// ModelCacheStats reports the engine's derived-state cache (trained M-SWG
// models, IPF fits, inverse-probability weights): Hits are lookups answered
// by state whose inputs still stood, Revalidated the hits that had to
// compare a re-declared marginal's content to establish that, Trained and
// Fitted the models and SEMI-OPEN weight vectors computed because no valid
// state existed. Present once an OPEN or SEMI-OPEN read has run.
type ModelCacheStats struct {
	Hits        int64 `json:"hits"`
	Revalidated int64 `json:"revalidated"`
	Trained     int64 `json:"trained"`
	Fitted      int64 `json:"fitted"`
}

// ShardStats reports the engine's sharded-execution counters: how many
// partial aggregate plans each range shard has served and how many rows each
// scanned. Present only when the engine runs with Shards > 1.
type ShardStats struct {
	Shards int     `json:"shards"`
	Scans  []int64 `json:"scans"` // per-shard partial-plan executions
	Rows   []int64 `json:"rows"`  // per-shard rows scanned
}

// AdmissionStats is the serving kernel's block of /statsz, the same on a
// shard and on the coordinator: requests holding a slot, the refusals by
// kind across classes, and the per-class split.
type AdmissionStats struct {
	Inflight int64                 `json:"inflight"`
	Rejected int64                 `json:"rejected"`
	Shed     int64                 `json:"shed"`
	Timeouts int64                 `json:"timeouts"`
	Classes  map[string]ClassStats `json:"classes,omitempty"`
}

// StatsResponse is the body of GET /statsz.
type StatsResponse struct {
	AdmissionStats
	UptimeSecs       float64                    `json:"uptime_secs"`
	Execs            int64                      `json:"execs"`
	Explains         int64                      `json:"explains"`
	QueryErrors      int64                      `json:"query_errors"`
	Cancelled        int64                      `json:"cancelled"`
	Visibilities     map[string]VisibilityStats `json:"visibilities"`
	PlanCache        *PlanCacheStats            `json:"plan_cache,omitempty"`
	ModelCache       *ModelCacheStats           `json:"model_cache,omitempty"`
	Snapshots        int64                      `json:"snapshots"`
	LastSnapshotUnix int64                      `json:"last_snapshot_unix,omitempty"`
	LastSnapshotSize int64                      `json:"last_snapshot_bytes,omitempty"`
	Sharding         *ShardStats                `json:"sharding,omitempty"`
	// Generation is the engine's DDL/DML generation counter — the fleet
	// coordinator probes it to (re)synchronize with a shard's state. On a
	// follower it is the replicated primary generation (the value reads are
	// gated on), not the local engine's counter.
	Generation uint64 `json:"generation"`
	// Partials counts /v1/partial plans served (fleet shard duty).
	Partials int64 `json:"partials,omitempty"`
	// Follower reports replication state when the process runs in follower
	// mode (mosaic-serve -follow).
	Follower *FollowerStats `json:"follower,omitempty"`
}

// EncodeValue converts a value.Value to its wire cell.
func EncodeValue(v value.Value) Cell {
	switch v.Kind() {
	case value.KindInt:
		return Cell{K: "int", V: strconv.FormatInt(v.AsInt(), 10)}
	case value.KindFloat:
		return Cell{K: "float", V: strconv.FormatFloat(v.AsFloat(), 'g', -1, 64)}
	case value.KindText:
		return Cell{K: "text", V: v.AsText()}
	case value.KindBool:
		return Cell{K: "bool", V: strconv.FormatBool(v.AsBool())}
	default:
		return Cell{K: "null"}
	}
}

// DecodeValue converts a wire cell back to the identical value.Value.
func DecodeValue(c Cell) (value.Value, error) {
	switch c.K {
	case "null":
		return value.Null(), nil
	case "int":
		i, err := strconv.ParseInt(c.V, 10, 64)
		if err != nil {
			return value.Null(), fmt.Errorf("wire: bad int cell %q: %v", c.V, err)
		}
		return value.Int(i), nil
	case "float":
		f, err := strconv.ParseFloat(c.V, 64)
		if err != nil {
			return value.Null(), fmt.Errorf("wire: bad float cell %q: %v", c.V, err)
		}
		return value.Float(f), nil
	case "text":
		return value.Text(c.V), nil
	case "bool":
		b, err := strconv.ParseBool(c.V)
		if err != nil {
			return value.Null(), fmt.Errorf("wire: bad bool cell %q: %v", c.V, err)
		}
		return value.Bool(b), nil
	default:
		return value.Null(), fmt.Errorf("wire: unknown cell kind %q", c.K)
	}
}

// EncodeValues converts a value slice to wire cells (parameter encoding).
func EncodeValues(vals []value.Value) []Cell {
	if len(vals) == 0 {
		return nil
	}
	out := make([]Cell, len(vals))
	for i, v := range vals {
		out[i] = EncodeValue(v)
	}
	return out
}

// DecodeValues converts wire cells back to identical values (parameter
// decoding).
func DecodeValues(cells []Cell) ([]value.Value, error) {
	if len(cells) == 0 {
		return nil, nil
	}
	out := make([]value.Value, len(cells))
	for i, c := range cells {
		v, err := DecodeValue(c)
		if err != nil {
			return nil, fmt.Errorf("wire: param %d: %v", i+1, err)
		}
		out[i] = v
	}
	return out, nil
}

// EncodeResult converts an engine result to its wire form. A nil result
// (DDL/DML slot in a script) encodes as nil.
func EncodeResult(res *exec.Result) *Result {
	if res == nil {
		return nil
	}
	out := &Result{Columns: append([]string(nil), res.Columns...), Rows: make([][]Cell, len(res.Rows))}
	for ri, row := range res.Rows {
		cells := make([]Cell, len(row))
		for ci, v := range row {
			cells[ci] = EncodeValue(v)
		}
		out.Rows[ri] = cells
	}
	return out
}

// DecodeResult converts a wire result back to an exec.Result that is
// value-identical to the encoded one. A nil wire result decodes to nil.
func DecodeResult(w *Result) (*exec.Result, error) {
	if w == nil {
		return nil, nil
	}
	out := &exec.Result{Columns: append([]string(nil), w.Columns...), Rows: make([][]value.Value, len(w.Rows))}
	for ri, cells := range w.Rows {
		row := make([]value.Value, len(cells))
		for ci, c := range cells {
			v, err := DecodeValue(c)
			if err != nil {
				return nil, fmt.Errorf("wire: row %d column %d: %v", ri, ci, err)
			}
			row[ci] = v
		}
		out.Rows[ri] = row
	}
	return out, nil
}
