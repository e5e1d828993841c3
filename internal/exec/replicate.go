// The OPEN replicate combine (paper Sec 5.3): answer an aggregate query on
// each of K generated samples, keep the groups present in every answer, and
// average their aggregate cells. It is one more driver of the aggregate
// pipeline: replicates fan out like shards (forEachTask), the average is
// AVG-kind PartialStates accumulated at weight 1 in replicate order, and the
// answer comes out of the same finalize as every other aggregate.
package exec

import (
	"context"
	"fmt"
	"slices"

	"mosaic/internal/expr"
	"mosaic/internal/sql"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

// RunReplicates answers sel over reps generated samples; gen(ctx, r) builds
// replicate r. A replicate must depend on r alone: replicates then fan out
// across opts.Workers with answers bit-identical for any worker count. A
// non-aggregate query answers from replicate 0's qualifying tuples. An
// aggregate query runs on every replicate without HAVING / ORDER BY / LIMIT
// — a per-replicate LIMIT k (or HAVING) would drop groups before the
// intersect sees them — and finalize applies them once to the combined
// answer.
func RunReplicates(ctx context.Context, sel *sql.Select, reps int, opts Options, gen func(ctx context.Context, r int) (*table.Table, error)) (*Result, error) {
	if !sel.IsAggregate() {
		t, err := gen(ctx, 0)
		if err != nil {
			return nil, err
		}
		return RunContext(ctx, t, sel, opts)
	}
	if reps < 1 {
		return nil, fmt.Errorf("exec: OPEN combine of %d replicates", reps)
	}
	q := replicateQuery(sel)
	results := make([]*Result, reps)
	err := forEachTask(ctx, reps, opts.workers(), func(r int) error {
		// Per-replicate checkpoint: generate nothing once the context expires.
		if err := checkCtx(ctx); err != nil {
			return err
		}
		t, err := gen(ctx, r)
		if err != nil {
			return err
		}
		results[r], err = RunContext(ctx, t, q, opts)
		return err
	})
	// Cancellation first: a cancelled run surfaces ctx.Err() itself, not
	// whichever replicate happened to observe the cancellation.
	if cerr := checkCtx(ctx); cerr != nil {
		return nil, cerr
	}
	if err != nil {
		return nil, err
	}
	return combineReplicates(ctx, sel, results)
}

// replicateQuery is sel as every replicate runs it: no HAVING / ORDER BY /
// LIMIT, and sel's GROUP BY columns appended as trailing items, so each
// answer row carries its group's identity whether or not sel projects it.
func replicateQuery(sel *sql.Select) *sql.Select {
	q := *sel
	q.Having, q.OrderBy, q.Limit = nil, nil, -1
	q.Items = slices.Clip(sel.Items)
	for _, g := range sel.GroupBy {
		q.Items = append(q.Items, sql.SelectItem{Expr: &expr.Column{Name: g}})
	}
	return &q
}

// combineReplicates is the intersect-and-average gather over replicate
// answers of replicateQuery(sel). Groups are keyed by GroupKey over each
// answer row's trailing GROUP BY values, in replicate-0 first-appearance
// order, and only groups present in every replicate survive. Each aggregate
// cell is AVG-accumulated at weight 1 in replicate order; a NULL cell in any
// replicate makes that cell NULL (unlike AVG's skip-null semantics over
// rows).
func combineReplicates(ctx context.Context, sel *sql.Select, results []*Result) (*Result, error) {
	width := len(sel.Items) // the trailing GROUP BY values start here
	var aggCols []int
	for i, it := range sel.Items {
		if it.Agg != sql.AggNone {
			aggCols = append(aggCols, i)
		}
	}
	states := make([]*PartialStates, len(aggCols))
	for ai := range states {
		states[ai] = NewPartialStates(sql.AggAvg, 0)
	}
	ids := map[string]int{}
	var keys [][]value.Value // replicate 0's GROUP BY values per group
	var seen []int           // seen[g]: group g is in replicates 0..seen[g]-1
	var nulls []bool         // nulls[g*len(aggCols)+ai]: a replicate had a NULL cell
	for r, res := range results {
		for _, row := range res.Rows {
			k := GroupKey(row[width:])
			g, ok := ids[k]
			if !ok {
				if r > 0 {
					continue // absent from replicate 0: cannot appear in all
				}
				g = len(keys)
				ids[k] = g
				keys = append(keys, row[width:])
				seen = append(seen, 0)
				nulls = append(nulls, make([]bool, len(aggCols))...)
				for _, st := range states {
					st.Grow(g + 1)
				}
			}
			if seen[g] != r {
				continue // missed an earlier replicate
			}
			for ai, ci := range aggCols {
				if row[ci].IsNull() {
					nulls[g*len(aggCols)+ai] = true
					continue
				}
				if err := states[ai].Accumulate(g, row[ci], 1); err != nil {
					return nil, fmt.Errorf("core: non-numeric aggregate in OPEN combine: %v", err)
				}
			}
			seen[g] = r + 1
		}
	}
	// Keep the groups every replicate produced, in place; a NULL-poisoned
	// cell drops its Seen bit, so its AVG state finalizes to NULL.
	n := 0
	for g := range keys {
		if seen[g] != len(results) {
			continue
		}
		for ai, st := range states {
			st.SumW[n], st.SumWX[n] = st.SumW[g], st.SumWX[g]
			st.Seen[n] = st.Seen[g] && !nulls[g*len(aggCols)+ai]
		}
		keys[n] = keys[g]
		n++
	}
	return finalize(ctx, sel, states, n, keyRows(keys[:n]))
}
