// The partial-aggregate state algebra: the one definition of how
// SUM/COUNT/AVG/MIN/MAX (weighted or not) accumulate inputs, merge partial
// results, and finalize into output values. Every aggregate answer is built
// from it and handed to the one finalize (aggregate.go): the row interpreter
// (runAggregate, one scalar Accumulate per input), the vectorized executor's
// group-indexed loops (aggregate.go's scan), the shard and fleet gather
// (MergeGroup), and the OPEN replicate combine (replicate.go) — so the
// accumulation semantics exist exactly once and every combine layer (morsel,
// shard, replicate) speaks the same algebra.
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

// PartialStates is one aggregate's mergeable states for every group, as
// struct-of-arrays so the vectorized accumulation loops index flat slices
// instead of chasing per-group pointers. Only the slices the kind needs are
// allocated: position g holds group g's Σ w (COUNT), Σ w and Σ w·x
// (SUM/AVG), or running extremum (MIN/MAX), and Seen[g] records that a
// non-null input reached it.
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

// Accumulate folds one evaluated, non-null input value with weight w into
// group g; COUNT ignores v. The operation sequence here is the determinism
// contract: the kernels' loops in vector.go must perform exactly these
// additions in scan order so float results are bit-identical across paths.
// Converting w*f to float64 rounds the product, which keeps arm64, ppc64le,
// riscv64 and s390x from fusing the update into one multiply-add, so the bits
// match amd64's too. The returned error is value.Float64's (SUM/AVG over a
// non-numeric value); callers wrap it with their own message.
func (st *PartialStates) Accumulate(g int, v value.Value, w float64) error {
	switch st.Kind {
	case sql.AggCount:
		st.Count[g] += w
		return nil
	case sql.AggSum, sql.AggAvg:
		f, err := v.Float64()
		if err != nil {
			return err
		}
		st.SumW[g] += w
		st.SumWX[g] += float64(w * f)
	case sql.AggMin:
		if !st.Seen[g] || value.Compare(v, st.MinMax[g]) < 0 {
			st.MinMax[g] = v
		}
	case sql.AggMax:
		if !st.Seen[g] || value.Compare(v, st.MinMax[g]) > 0 {
			st.MinMax[g] = v
		}
	}
	st.Seen[g] = true
	return nil
}

// MergeGroup folds group og of other into group g of st, st-before-other:
// st's group becomes the state of the concatenation (its rows, then
// other's). Callers merge partitions in their fixed order — sums do not
// reassociate.
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

// FinalizeInto writes group g's output value to dst[g*stride] for every
// group g with g*stride < len(dst): one output column of a row-major slab,
// filled with the kind decided once for the whole column. COUNT of nothing
// is 0, SUM/MIN/MAX of nothing are NULL, AVG is NULL when no input or all
// weights were zero. The tests hold it to a per-group Finalize.
func (st *PartialStates) FinalizeInto(dst []value.Value, stride int) {
	switch st.Kind {
	case sql.AggCount:
		for g, k := 0, 0; k < len(dst); g, k = g+1, k+stride {
			dst[k] = value.Float(st.Count[g])
		}
	case sql.AggSum:
		for g, k := 0, 0; k < len(dst); g, k = g+1, k+stride {
			if st.Seen[g] {
				dst[k] = value.Float(st.SumWX[g])
			} else {
				dst[k] = value.Null()
			}
		}
	case sql.AggAvg:
		for g, k := 0, 0; k < len(dst); g, k = g+1, k+stride {
			if st.Seen[g] && st.SumW[g] != 0 {
				dst[k] = value.Float(st.SumWX[g] / st.SumW[g])
			} else {
				dst[k] = value.Null()
			}
		}
	case sql.AggMin, sql.AggMax:
		for g, k := 0, 0; k < len(dst); g, k = g+1, k+stride {
			if st.Seen[g] {
				dst[k] = st.MinMax[g]
			} else {
				dst[k] = value.Null()
			}
		}
	default:
		for k := 0; k < len(dst); k += stride {
			dst[k] = value.Null()
		}
	}
}
