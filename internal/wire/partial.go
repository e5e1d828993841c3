// Wire codec for the fleet's scatter-gather protocol: POST /v1/partial asks
// one shard process for its PartialAggregate half, and the coordinator
// gathers the decoded ShardPartials in fixed shard order through the same
// exec.GatherPartials the in-process engine uses.
//
// Floats travel as Go's shortest re-parseable decimal form (FormatFloat
// 'g'/-1), which round-trips every finite float64 bit-exactly, plus "NaN",
// "+Inf", and "-Inf"; NaN payload bits are not preserved, but no aggregate
// ever observes them (NaN compares and formats identically regardless of
// payload). Bit-exact partial states are what make fleet answers
// bit-identical to in-process Options.Shards: N.
package wire

import (
	"fmt"
	"strconv"

	"mosaic/internal/exec"
	"mosaic/internal/sql"
	"mosaic/internal/value"
)

// PartialRequest is the body of POST /v1/partial: run the per-shard partial
// aggregate plan for shard `shard` of `shards` over the serving process's
// full data copy.
type PartialRequest struct {
	Query  string `json:"query"`
	Params []Cell `json:"params,omitempty"`
	Shard  int    `json:"shard"`
	Shards int    `json:"shards"`
	// Generation, when CheckGeneration is set, is the coordinator's view of
	// the fleet's DDL/DML generation counter; the shard refuses with 409
	// when its own counter differs (its data diverged from the fleet's).
	Generation      uint64 `json:"generation,omitempty"`
	CheckGeneration bool   `json:"check_generation,omitempty"`
}

// PartialStatesWire is the wire form of one exec.PartialStates: the
// kind-relevant arrays, floats in bit-exact string form, extrema as tagged
// cells. Array lengths must equal the partial's group count.
type PartialStatesWire struct {
	Kind   string   `json:"kind"` // "count" | "sum" | "avg" | "min" | "max"
	Count  []string `json:"count,omitempty"`
	SumW   []string `json:"sum_w,omitempty"`
	SumWX  []string `json:"sum_wx,omitempty"`
	MinMax []Cell   `json:"min_max,omitempty"`
	Seen   []bool   `json:"seen,omitempty"`
}

// PartialResponse is the body of a successful POST /v1/partial: one
// shard's partial states for a CLOSED or SEMI-OPEN aggregate query, the
// only shape /v1/partial serves.
type PartialResponse struct {
	Generation uint64              `json:"generation"`
	Rows       int                 `json:"rows,omitempty"`   // rows the shard slice scanned
	Groups     [][]Cell            `json:"groups,omitempty"` // per local group: its key values
	States     []PartialStatesWire `json:"states,omitempty"`
}

// CoordStatsResponse is the body of the fleet coordinator's GET /statsz.
// Its admission block is the shard server's, filled by the same kernel.
type CoordStatsResponse struct {
	AdmissionStats
	UptimeSecs  float64  `json:"uptime_secs"`
	Shards      []string `json:"shards"`     // primary base URLs, fixed fan-out order
	Generation  uint64   `json:"generation"` // fleet DDL/DML generation
	Queries     int64    `json:"queries"`
	Scattered   int64    `json:"scattered"`    // queries answered by partial fan-out
	PassThrough int64    `json:"pass_through"` // queries relayed whole to shard 0's backends
	Execs       int64    `json:"execs"`
	Explains    int64    `json:"explains"`
	Unavailable int64    `json:"unavailable"`  // 503s served (shard failures, divergence)
	ShardErrors int64    `json:"shard_errors"` // backend calls that failed after retries
	// ReplicaReads/PrimaryReads split successful read routing by role, and
	// Failovers counts reads rerouted after a backend failed — the
	// fleet-wide view of the per-backend counters in Backends.
	PrimaryReads int64 `json:"primary_reads,omitempty"`
	ReplicaReads int64 `json:"replica_reads,omitempty"`
	Failovers    int64 `json:"failovers,omitempty"`
	// Backends reports every read backend (primaries and replicas) with its
	// routing counters, observed generation, and lag behind the fleet.
	Backends []BackendStats `json:"backends,omitempty"`
}

// CoordHealthResponse is the body of the coordinator's GET /healthz: the
// coordinator itself is alive; per-shard and per-replica liveness is
// reported alongside (replica keys are "shard/URL").
type CoordHealthResponse struct {
	Status     string          `json:"status"` // "ok" | "degraded"
	UptimeSecs float64         `json:"uptime_secs"`
	Shards     map[string]bool `json:"shards"`
	Replicas   map[string]bool `json:"replicas,omitempty"`
}

// encodeFloat is the bit-exact float64 → string encoding shared with Cell's
// float kind.
func encodeFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func encodeFloats(fs []float64) []string {
	if fs == nil {
		return nil
	}
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = encodeFloat(f)
	}
	return out
}

func decodeFloats(ss []string, n int, field string) ([]float64, error) {
	if ss == nil {
		return nil, nil
	}
	if len(ss) != n {
		return nil, fmt.Errorf("wire: partial %s has %d entries for %d groups", field, len(ss), n)
	}
	out := make([]float64, len(ss))
	for i, s := range ss {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("wire: partial %s[%d] %q: %v", field, i, s, err)
		}
		out[i] = f
	}
	return out, nil
}

// aggKindName maps an exec aggregate kind to its wire tag.
func aggKindName(k sql.AggKind) (string, error) {
	switch k {
	case sql.AggCount:
		return "count", nil
	case sql.AggSum:
		return "sum", nil
	case sql.AggAvg:
		return "avg", nil
	case sql.AggMin:
		return "min", nil
	case sql.AggMax:
		return "max", nil
	default:
		return "", fmt.Errorf("wire: aggregate kind %v has no wire form", k)
	}
}

func aggKindFromName(s string) (sql.AggKind, error) {
	switch s {
	case "count":
		return sql.AggCount, nil
	case "sum":
		return sql.AggSum, nil
	case "avg":
		return sql.AggAvg, nil
	case "min":
		return sql.AggMin, nil
	case "max":
		return sql.AggMax, nil
	default:
		return sql.AggNone, fmt.Errorf("wire: unknown aggregate kind %q", s)
	}
}

// EncodePartialStates converts one aggregate's group-indexed states to wire
// form. n is the partial's group count; every kind-relevant array must cover
// exactly n groups.
func EncodePartialStates(st *exec.PartialStates, n int) (PartialStatesWire, error) {
	name, err := aggKindName(st.Kind)
	if err != nil {
		return PartialStatesWire{}, err
	}
	w := PartialStatesWire{Kind: name}
	check := func(l int, field string) error {
		if l != n {
			return fmt.Errorf("wire: partial %s has %d entries for %d groups", field, l, n)
		}
		return nil
	}
	switch st.Kind {
	case sql.AggCount:
		if err := check(len(st.Count), "count"); err != nil {
			return PartialStatesWire{}, err
		}
		w.Count = encodeFloats(st.Count)
	case sql.AggSum, sql.AggAvg:
		if err := check(len(st.SumW), "sum_w"); err != nil {
			return PartialStatesWire{}, err
		}
		if err := check(len(st.SumWX), "sum_wx"); err != nil {
			return PartialStatesWire{}, err
		}
		if err := check(len(st.Seen), "seen"); err != nil {
			return PartialStatesWire{}, err
		}
		w.SumW = encodeFloats(st.SumW)
		w.SumWX = encodeFloats(st.SumWX)
		w.Seen = append([]bool(nil), st.Seen...)
	case sql.AggMin, sql.AggMax:
		if err := check(len(st.MinMax), "min_max"); err != nil {
			return PartialStatesWire{}, err
		}
		if err := check(len(st.Seen), "seen"); err != nil {
			return PartialStatesWire{}, err
		}
		w.MinMax = make([]Cell, n)
		for i, v := range st.MinMax {
			w.MinMax[i] = EncodeValue(v)
		}
		w.Seen = append([]bool(nil), st.Seen...)
	}
	return w, nil
}

// DecodePartialStates converts a wire states block back to the identical
// exec.PartialStates for n groups.
func DecodePartialStates(w PartialStatesWire, n int) (*exec.PartialStates, error) {
	kind, err := aggKindFromName(w.Kind)
	if err != nil {
		return nil, err
	}
	st := &exec.PartialStates{Kind: kind}
	switch kind {
	case sql.AggCount:
		if st.Count, err = decodeFloats(w.Count, n, "count"); err != nil {
			return nil, err
		}
		if st.Count == nil {
			st.Count = make([]float64, n)
		}
	case sql.AggSum, sql.AggAvg:
		if st.SumW, err = decodeFloats(w.SumW, n, "sum_w"); err != nil {
			return nil, err
		}
		if st.SumWX, err = decodeFloats(w.SumWX, n, "sum_wx"); err != nil {
			return nil, err
		}
		if len(w.Seen) != n {
			return nil, fmt.Errorf("wire: partial seen has %d entries for %d groups", len(w.Seen), n)
		}
		st.Seen = append([]bool(nil), w.Seen...)
		if st.SumW == nil {
			st.SumW = make([]float64, n)
		}
		if st.SumWX == nil {
			st.SumWX = make([]float64, n)
		}
	case sql.AggMin, sql.AggMax:
		if len(w.MinMax) != n {
			return nil, fmt.Errorf("wire: partial min_max has %d entries for %d groups", len(w.MinMax), n)
		}
		if len(w.Seen) != n {
			return nil, fmt.Errorf("wire: partial seen has %d entries for %d groups", len(w.Seen), n)
		}
		st.MinMax = make([]value.Value, n)
		for i, c := range w.MinMax {
			v, err := DecodeValue(c)
			if err != nil {
				return nil, fmt.Errorf("wire: partial min_max[%d]: %v", i, err)
			}
			st.MinMax[i] = v
		}
		st.Seen = append([]bool(nil), w.Seen...)
	}
	return st, nil
}

// EncodePartial converts a shard's scatter output to its wire response.
// Group keys are not sent — they are a pure function of the key values and
// DecodePartial rebuilds them, so the gather key space cannot diverge from
// the values on the wire.
func EncodePartial(p *exec.ShardPartial, generation uint64) (*PartialResponse, error) {
	out := &PartialResponse{Generation: generation, Rows: p.Rows}
	n := len(p.KeyVals)
	if n > 0 {
		out.Groups = make([][]Cell, n)
		for g, kv := range p.KeyVals {
			out.Groups[g] = EncodeValues(kv)
			if out.Groups[g] == nil {
				out.Groups[g] = []Cell{}
			}
		}
	}
	out.States = make([]PartialStatesWire, len(p.States))
	for ai, st := range p.States {
		w, err := EncodePartialStates(st, n)
		if err != nil {
			return nil, err
		}
		out.States[ai] = w
	}
	return out, nil
}

// DecodePartial converts a wire response back to a ShardPartial that is
// value-identical to the encoded one, rebuilding the gather keys from the
// decoded key values.
func DecodePartial(w *PartialResponse) (*exec.ShardPartial, error) {
	n := len(w.Groups)
	p := &exec.ShardPartial{
		Keys:    make([]string, n),
		KeyVals: make([][]value.Value, n),
		States:  make([]*exec.PartialStates, len(w.States)),
		Rows:    w.Rows,
	}
	for g, cells := range w.Groups {
		kv, err := DecodeValues(cells)
		if err != nil {
			return nil, fmt.Errorf("wire: partial group %d: %v", g, err)
		}
		if kv == nil {
			kv = []value.Value{}
		}
		p.KeyVals[g] = kv
		p.Keys[g] = exec.GroupKey(kv)
	}
	for ai, sw := range w.States {
		st, err := DecodePartialStates(sw, n)
		if err != nil {
			return nil, err
		}
		p.States[ai] = st
	}
	return p, nil
}
