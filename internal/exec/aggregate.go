// The columnar aggregate pipeline: plan → scan → finalize. It answers every
// aggregate query. Unsharded queries, in-process Options.Shards
// scatter-gather, and the fleet's PartialAggregate / GatherPartials are
// drivers of the same three pieces; the row interpreter (runAggregate) and
// the OPEN replicate combine (RunReplicates) build their own states and
// share finalize:
//
//   - planAggregate resolves the group keys and weights and compiles the
//     aggregate inputs against the full snapshot, so every shard of every
//     process holding the same data runs the same plan;
//   - aggPlan.scan runs selection → group ids → accumulation over the plan's
//     rows (aggPlan.slice narrows a plan to one shard's range), and fails
//     with the interpreter's first error over those rows;
//   - finalize turns merged states into output rows, then HAVING, then
//     ORDER BY / LIMIT.
//
// The unsharded path scans and finalizes with no merge step in between, so
// Shards: 1 stays byte-identical to the row engine.
package exec

import (
	"context"
	"fmt"

	"mosaic/internal/expr"
	"mosaic/internal/sql"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

// aggPlan is an aggregate query planned over one snapshot (or a shard's
// slice of it).
type aggPlan struct {
	snap     *table.Snapshot
	sel      *sql.Select
	keyIdx   []int     // schema positions of the GROUP BY columns
	rawW     []float64 // the weights the scan reads: stored, or the override
	vaggs    []vecAgg
	weighted bool
	workers  int
}

// planAggregate plans sel over snap. Its errors are the eager validation
// errors the row interpreter raises too, and ctx's once it stops the
// compile-time fills.
func planAggregate(ctx context.Context, snap *table.Snapshot, sel *sql.Select, opts Options) (*aggPlan, error) {
	keyIdx, err := resolveGroupKeys(snap, sel)
	if err != nil {
		return nil, err
	}
	rawW := snap.Weights()
	if opts.WeightOverride != nil {
		rawW = opts.WeightOverride
	}
	workers := opts.workers()
	comp := &kernelCompiler{ctx: ctx, snap: snap, weights: rawW, n: snap.Len(), workers: workers}
	vaggs := planVectorAggs(comp, sel)
	if comp.err != nil {
		return nil, comp.err
	}
	return &aggPlan{snap: snap, sel: sel, keyIdx: keyIdx, rawW: rawW, vaggs: vaggs, weighted: opts.Weighted, workers: workers}, nil
}

// slice narrows the plan to rows [lo, hi), one shard's contiguous range.
// Every input is compiled per row over the full snapshot, so its slice
// equals compiling the slice: a numVec re-slices, and any other input is
// read lo rows on. lo is 64-aligned (shardBounds), so bitmaps re-slice on
// word boundaries.
func (p *aggPlan) slice(lo, hi int) *aggPlan {
	s := *p
	s.snap = p.snap.SliceRange(lo, hi)
	s.rawW = p.rawW[lo:hi]
	s.vaggs = make([]vecAgg, len(p.vaggs))
	for i, a := range p.vaggs {
		if a.vec != nil {
			a.vec = a.vec.slice(lo, hi)
		}
		if at := a.at; at != nil {
			a.at = func(i int) value.Value { return at(lo + i) }
		}
		a.errs = sliceBits(a.errs, lo)
		s.vaggs[i] = a
	}
	return &s
}

// aggScan is one scan's grouped partial states: ngroups groups in
// first-appearance scan order, group g first seen at scan row firstRow[g].
type aggScan struct {
	states   []*PartialStates
	ngroups  int
	firstRow []int32
}

// scan runs selection → weights → group ids → accumulation over the
// plan's rows. An aggregate input's failure at a kept row comes before the
// selection's, which SelectRows found at a later row; the interpreter
// accumulates a row's items in select-list order, so at the first failing
// kept row its accumulateRow names the first failing item.
func (p *aggPlan) scan(ctx context.Context) (*aggScan, error) {
	selRows, selErr := SelectRows(ctx, p.snap, p.sel.Where, p.rawW, p.workers)
	errs := make([][]uint64, len(p.vaggs))
	for i, a := range p.vaggs {
		errs[i] = a.errs
	}
	if k := firstFailing(selRows, errs...); k >= 0 {
		r := int(selRows[k])
		return nil, rowError(p.snap, r, p.rawW[r], func(b *expr.Binding) error {
			for _, it := range p.sel.Items {
				if it.Agg == sql.AggNone {
					continue
				}
				if err := accumulateRow(NewPartialStates(it.Agg, 1), 0, it, b, 1); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if selErr != nil {
		return nil, selErr
	}
	selW := make([]float64, len(selRows))
	if p.weighted {
		for k, ri := range selRows {
			selW[k] = p.rawW[ri]
		}
	} else {
		for k := range selW {
			selW[k] = 1
		}
	}
	gids, firstRow := p.snap.GroupIDs(p.keyIdx, nil, selRows)
	ngroups := len(firstRow)
	states, err := accumulateStates(ctx, p.vaggs, selRows, gids, selW, ngroups, p.workers)
	if err != nil {
		return nil, err
	}
	return &aggScan{states: states, ngroups: ngroups, firstRow: firstRow}, nil
}

// partial scans rows [lo, hi) into a ShardPartial keyed by group identity.
func (p *aggPlan) partial(ctx context.Context, lo, hi int) (*ShardPartial, error) {
	sub := p.slice(lo, hi)
	s, err := sub.scan(ctx)
	if err != nil {
		return nil, err
	}
	out := &ShardPartial{
		Keys:    make([]string, s.ngroups),
		KeyVals: make([][]value.Value, s.ngroups),
		States:  s.states,
		Rows:    hi - lo,
	}
	nk := len(p.keyIdx)
	slab := make([]value.Value, s.ngroups*nk)
	if s.ngroups > 0 {
		for k, col := range p.keyIdx {
			sub.snap.FillValues(col, s.firstRow, slab[k:], nk)
		}
	}
	for g := range out.Keys {
		kv := slab[g*nk : (g+1)*nk : (g+1)*nk]
		out.Keys[g], out.KeyVals[g] = GroupKey(kv), kv
	}
	return out, nil
}

// runAggregateVector answers an aggregate query on the columnar path:
// unsharded it scans and finalizes; with Shards > 1 it scatters the plan over
// contiguous range shards and gathers their partials in shard order.
func runAggregateVector(ctx context.Context, snap *table.Snapshot, sel *sql.Select, opts Options) (*Result, error) {
	p, err := planAggregate(ctx, snap, sel, opts)
	if err != nil {
		return nil, err
	}
	if opts.Shards <= 1 {
		s, err := p.scan(ctx)
		if err != nil {
			return nil, err
		}
		return finalize(ctx, sel, s.states, s.ngroups, func(k int, dst []value.Value, stride int) {
			p.snap.FillValues(p.keyIdx[k], s.firstRow, dst, stride)
		})
	}
	// Scatter: shards fan out across the worker pool, and a shard's own
	// morsel scans use the same pool size. Errors surface in shard order
	// (forEachTask), and within a shard in scan order — together, the first
	// erroring selected row in global scan order, exactly like the
	// unsharded scan.
	bounds := shardBounds(snap.Len(), opts.Shards)
	partials := make([]*ShardPartial, len(bounds))
	err = forEachTask(ctx, len(bounds), p.workers, func(i int) error {
		part, err := p.partial(ctx, bounds[i][0], bounds[i][1])
		if err != nil {
			return err
		}
		if opts.ShardScan != nil {
			opts.ShardScan(i, part.Rows)
		}
		partials[i] = part
		return nil
	})
	if err != nil {
		return nil, err
	}
	return gather(ctx, sel, partials)
}

// keyFiller writes GROUP BY column k of every group g into dst[g*stride]:
// one column of finalize's row-major slab.
type keyFiller func(k int, dst []value.Value, stride int)

// keyRows is the keyFiller of the paths that hold each group's GROUP BY
// values as a row: keys[g][k].
func keyRows(keys [][]value.Value) keyFiller {
	return func(k int, dst []value.Value, stride int) {
		for g, kv := range keys {
			dst[g*stride] = kv[k]
		}
	}
}

// finalize builds the answer from merged states: one output row per group,
// all cut from one slab that is filled a column at a time — GROUP BY items
// through keys, aggregates through FinalizeInto — then HAVING, then ORDER BY
// / LIMIT against the output columns, in group order.
func finalize(ctx context.Context, sel *sql.Select, states []*PartialStates, ngroups int, keys keyFiller) (*Result, error) {
	total := ngroups
	if total == 0 && len(sel.GroupBy) == 0 {
		// A global aggregate over zero selected rows still yields one row of
		// empty aggregates.
		total = 1
		for _, st := range states {
			st.Grow(1)
		}
	}
	res := &Result{}
	for _, it := range sel.Items {
		res.Columns = append(res.Columns, it.Name())
	}
	// Every output row is cut from one allocation, capacity-capped so a
	// caller's append cannot run into the next row.
	nc := len(sel.Items)
	slab := make([]value.Value, total*nc)
	if total > 0 {
		keyPos := itemKeyPositions(sel)
		ai := 0
		for ii, it := range sel.Items {
			if it.Agg == sql.AggNone {
				keys(keyPos[ii], slab[ii:], nc)
			} else {
				states[ai].FinalizeInto(slab[ii:], nc)
				ai++
			}
		}
	}
	res.Rows = make([][]value.Value, 0, total)
	outSchema := outputSchema(res.Columns)
	if sel.Having != nil {
		// HAVING's names resolve against the output columns, before any
		// group is read (see CheckNames).
		for _, name := range sel.Having.Columns(nil) {
			if _, ok := outSchema.Index(name); !ok {
				return nil, fmt.Errorf("expr: unknown column %q", name)
			}
		}
	}
	for g := 0; g < total; g++ {
		row := slab[g*nc : (g+1)*nc : (g+1)*nc]
		if sel.Having != nil {
			ok, err := expr.Truthy(sel.Having, &expr.Binding{Schema: outSchema, Row: row})
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		res.Rows = append(res.Rows, row)
	}
	if err := orderAndLimit(ctx, res, sel); err != nil {
		return nil, err
	}
	if n := len(res.Rows); n < total {
		// The groups HAVING or LIMIT dropped still fill the slab: copy the
		// survivors out, so a kept answer holds only its own cells.
		kept := make([]value.Value, n*nc)
		for i, row := range res.Rows {
			res.Rows[i] = append(kept[i*nc:i*nc:(i+1)*nc], row...)
		}
	}
	return res, nil
}
