// The partial-aggregate state algebra: the one definition of how
// SUM/COUNT/AVG/MIN/MAX (weighted or not) accumulate inputs, merge partial
// results, and finalize into output values. Three drivers consume it — the
// row interpreter (runAggregate), the vectorized executor's group-indexed
// loops (aggregate.go's scan and finalize), and the OPEN replicate
// combine (core.combineOpenResults) — so the accumulation semantics exist
// exactly once and every combine layer (morsel, shard, replicate) speaks the
// same algebra.
//
// Merge is order-sensitive: IEEE 754 addition does not reassociate, so
// partial states must always be merged in a fixed partition order (shard
// order, replicate order). For a fixed partition count the merged answer is
// then bit-identical across runs and worker counts; different partition
// counts may legitimately differ in low-order float bits, which is why
// Shards is part of the answer contract for float aggregates.
package exec

import (
	"mosaic/internal/sql"
	"mosaic/internal/value"
)

// AggState is the mergeable partial state of one aggregate over one group.
// Only the fields the aggregate kind touches are meaningful; the zero value
// is the empty state for every kind.
type AggState struct {
	Count  float64     // COUNT: Σ w over contributing rows
	SumW   float64     // SUM/AVG: Σ w
	SumWX  float64     // SUM/AVG: Σ w·x
	MinMax value.Value // MIN/MAX: running extremum, valid when Seen
	Seen   bool        // a non-null input reached this state
}

// AccumulateStar folds a COUNT(*) contribution: no input value, never null.
func (s *AggState) AccumulateStar(w float64) { s.Count += w }

// Accumulate folds one evaluated, non-null input value with weight w into
// the state. The operation sequence here is the determinism contract: every
// driver (and the columnar loops that mirror it) must perform exactly these
// additions in scan order so float results are bit-identical across paths.
// The returned error is value.Float64's (SUM/AVG over a non-numeric value);
// callers wrap it with their own message.
func (s *AggState) Accumulate(kind sql.AggKind, v value.Value, w float64) error {
	switch kind {
	case sql.AggCount:
		s.Count += w
	case sql.AggSum, sql.AggAvg:
		f, err := v.Float64()
		if err != nil {
			return err
		}
		s.SumW += w
		s.SumWX += w * f
	case sql.AggMin:
		if !s.Seen || value.Compare(v, s.MinMax) < 0 {
			s.MinMax = v
		}
	case sql.AggMax:
		if !s.Seen || value.Compare(v, s.MinMax) > 0 {
			s.MinMax = v
		}
	}
	s.Seen = true
	return nil
}

// Merge folds other into s, with s logically ordered before other: s becomes
// the state of the concatenation (s's rows, then other's rows). Callers must
// merge partitions in their fixed order — sums do not reassociate.
func (s *AggState) Merge(kind sql.AggKind, other AggState) {
	switch kind {
	case sql.AggCount:
		s.Count += other.Count
	case sql.AggSum, sql.AggAvg:
		s.SumW += other.SumW
		s.SumWX += other.SumWX
	case sql.AggMin:
		if other.Seen && (!s.Seen || value.Compare(other.MinMax, s.MinMax) < 0) {
			s.MinMax = other.MinMax
		}
	case sql.AggMax:
		if other.Seen && (!s.Seen || value.Compare(other.MinMax, s.MinMax) > 0) {
			s.MinMax = other.MinMax
		}
	}
	s.Seen = s.Seen || other.Seen
}

// Finalize produces the aggregate's output value: COUNT of nothing is 0,
// SUM/MIN/MAX of nothing are NULL, AVG is NULL when no input or all weights
// were zero.
func (s *AggState) Finalize(kind sql.AggKind) value.Value {
	switch kind {
	case sql.AggCount:
		return value.Float(s.Count)
	case sql.AggSum:
		if !s.Seen {
			return value.Null()
		}
		return value.Float(s.SumWX)
	case sql.AggAvg:
		if !s.Seen || s.SumW == 0 {
			return value.Null()
		}
		return value.Float(s.SumWX / s.SumW)
	case sql.AggMin, sql.AggMax:
		if !s.Seen {
			return value.Null()
		}
		return s.MinMax
	default:
		return value.Null()
	}
}

// PartialStates is the columnar (group-indexed) form of AggState: one
// aggregate's states for every group as struct-of-arrays, so the vectorized
// accumulation loops index flat slices instead of chasing per-group
// pointers. Only the slices the kind needs are allocated. Semantics are
// defined by AggState: position g of these arrays is AggState's fields for
// group g, and Finalize/MergeGroup mirror AggState.Finalize/Merge exactly.
type PartialStates struct {
	Kind   sql.AggKind
	Count  []float64
	SumW   []float64
	SumWX  []float64
	MinMax []value.Value
	Seen   []bool
}

// NewPartialStates allocates empty states for n groups.
func NewPartialStates(kind sql.AggKind, n int) *PartialStates {
	st := &PartialStates{Kind: kind}
	st.Grow(n)
	return st
}

// Grow extends the state arrays to cover n groups; new groups start empty.
// A no-op when the states already cover n.
func (st *PartialStates) Grow(n int) {
	switch st.Kind {
	case sql.AggCount:
		st.Count = grown(st.Count, n)
	case sql.AggSum, sql.AggAvg:
		st.SumW = grown(st.SumW, n)
		st.SumWX = grown(st.SumWX, n)
		st.Seen = grown(st.Seen, n)
	case sql.AggMin, sql.AggMax:
		st.MinMax = grown(st.MinMax, n)
		st.Seen = grown(st.Seen, n)
	}
}

// grown is append-style growth to exactly n elements (zero-filled), with
// capacity doubling so incremental gather loops stay linear.
func grown[T any](s []T, n int) []T {
	if len(s) >= n {
		return s
	}
	if cap(s) >= n {
		return s[:n]
	}
	c := 2 * cap(s)
	if c < n {
		c = n
	}
	out := make([]T, n, c)
	copy(out, s)
	return out
}

// MergeGroup folds group og of other into group g of st, st-before-other —
// the columnar mirror of AggState.Merge. Callers merge partitions in their
// fixed order.
func (st *PartialStates) MergeGroup(g int, other *PartialStates, og int) {
	switch st.Kind {
	case sql.AggCount:
		st.Count[g] += other.Count[og]
	case sql.AggSum, sql.AggAvg:
		st.SumW[g] += other.SumW[og]
		st.SumWX[g] += other.SumWX[og]
		st.Seen[g] = st.Seen[g] || other.Seen[og]
	case sql.AggMin:
		if other.Seen[og] && (!st.Seen[g] || value.Compare(other.MinMax[og], st.MinMax[g]) < 0) {
			st.MinMax[g] = other.MinMax[og]
		}
		st.Seen[g] = st.Seen[g] || other.Seen[og]
	case sql.AggMax:
		if other.Seen[og] && (!st.Seen[g] || value.Compare(other.MinMax[og], st.MinMax[g]) > 0) {
			st.MinMax[g] = other.MinMax[og]
		}
		st.Seen[g] = st.Seen[g] || other.Seen[og]
	}
}

// Finalize produces group g's output value — AggState.Finalize over the
// columnar form.
func (st *PartialStates) Finalize(g int) value.Value {
	switch st.Kind {
	case sql.AggCount:
		return value.Float(st.Count[g])
	case sql.AggSum:
		if !st.Seen[g] {
			return value.Null()
		}
		return value.Float(st.SumWX[g])
	case sql.AggAvg:
		if !st.Seen[g] || st.SumW[g] == 0 {
			return value.Null()
		}
		return value.Float(st.SumWX[g] / st.SumW[g])
	case sql.AggMin, sql.AggMax:
		if !st.Seen[g] {
			return value.Null()
		}
		return st.MinMax[g]
	default:
		return value.Null()
	}
}
