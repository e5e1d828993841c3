// Sharded scatter-gather execution for aggregate queries.
//
// Options.Shards range-partitions the snapshot into S contiguous slices
// (shard boundaries are a pure function of the row count and S, and always
// multiples of 64 so null bitmaps re-slice on word boundaries). Each shard
// runs the ordinary vectorized aggregate pipeline over its slice and emits
// mergeable partial states; the gather step then merges partials **in shard
// order** through the shared partial-state algebra before HAVING / ORDER BY
// / LIMIT apply. Because shards are contiguous in scan order, a group's
// global id is assigned at its earliest scan-order appearance — exactly the
// unsharded first-appearance order — so group sets and output order are
// identical to the single-shard engine; float aggregate cells may differ in
// low-order bits (the shard merge reassociates IEEE 754 addition), which is
// why Shards is part of the answer contract. For a fixed Shards value,
// answers are bit-identical across runs and across Workers values.
//
// The same scatter and gather halves are exported (PartialAggregate,
// GatherPartials) for the multi-process fleet: a coordinator asks each shard
// process for PartialAggregate(shard i of N) over its own full copy of the
// data and gathers the serialized ShardPartials in shard order — the merge
// is the identical code path, so fleet answers are bit-identical to
// in-process Options.Shards: N.
package exec

import (
	"context"
	"fmt"
	"strings"

	"mosaic/internal/expr"
	"mosaic/internal/sql"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

// shardBounds returns the row ranges of the S contiguous shards of an n-row
// scan. Every boundary is a multiple of 64 (null-bitmap word alignment);
// trailing shards may be empty when n is small or not divisible. The bounds
// are a pure function of (n, S) — never of Workers or scheduling — which is
// what makes sharded answers reproducible.
func shardBounds(n, s int) [][2]int {
	if s < 1 {
		s = 1
	}
	chunk := (n + s - 1) / s
	chunk = (chunk + 63) / 64 * 64
	if chunk == 0 {
		chunk = 64
	}
	out := make([][2]int, s)
	for i := 0; i < s; i++ {
		lo, hi := i*chunk, (i+1)*chunk
		if lo > n {
			lo = n
		}
		if hi > n {
			hi = n
		}
		out[i] = [2]int{lo, hi}
	}
	return out
}

// ShardPartial is one shard's scatter output: its locally-grouped partial
// states plus the group identities the gather step merges on. Local group
// order is the shard's first-appearance scan order. Keys are derived from
// KeyVals (HashKey concatenation), so a deserialized partial can rebuild
// them from the values alone.
type ShardPartial struct {
	Keys    []string        // HashKey-concat group identity per local group
	KeyVals [][]value.Value // materialized key values per local group
	States  []*PartialStates
	Rows    int // rows the shard slice scanned (observability)
}

// GroupKey builds the canonical gather key for one group's key values — the
// same encoding shardPartialAggregate produces, so remote partials merge into
// the identical group identity space.
func GroupKey(kv []value.Value) string {
	var kb strings.Builder
	for _, v := range kv {
		kb.WriteString(v.HashKey())
		kb.WriteByte('\x1f')
	}
	return kb.String()
}

// PartialAggregate runs the scatter half of sharded execution for shard
// `shard` of `shards` over the full snapshot: it plans against the full
// table (so the engage/decline decision is identical on every shard), slices
// out the shard's contiguous range, and returns its partial states.
// handled=false means the shape is not kernel-coverable (or needs the row
// path's interleaved error ordering) — the caller must answer the query
// through the ordinary unsharded path instead. This is the entry point the
// fleet's /v1/partial endpoint serves; opts.Shards is ignored in favor of
// the explicit shard/shards pair.
func PartialAggregate(ctx context.Context, snap *table.Snapshot, sel *sql.Select, opts Options, shard, shards int) (*ShardPartial, bool, error) {
	if shards < 1 || shard < 0 || shard >= shards {
		return nil, true, fmt.Errorf("exec: shard %d of %d out of range", shard, shards)
	}
	if opts.WeightOverride != nil && len(opts.WeightOverride) != snap.Len() {
		return nil, true, fmt.Errorf("exec: weight override has %d entries for %d rows", len(opts.WeightOverride), snap.Len())
	}
	if err := checkCtx(ctx); err != nil {
		return nil, true, err
	}
	sel = foldSelect(sel)
	if !sel.HasAggregates() && len(sel.GroupBy) == 0 {
		return nil, false, nil
	}
	keyIdx, err := resolveGroupKeys(snap, sel)
	if err != nil {
		return nil, true, err
	}
	rawW := snap.Weights()
	if opts.WeightOverride != nil {
		rawW = opts.WeightOverride
	}
	workers := opts.workers()
	// The engage/decline decision runs against the FULL snapshot, exactly as
	// runAggregateSharded's does: plannability depends only on schema and
	// expression shape, and the error-ordering guard (aggsCanErr without a
	// compilable filter) on the full row count — so every shard process
	// holding the same data reaches the same decision.
	comp := &kernelCompiler{snap: snap, weights: rawW, n: snap.Len(), workers: workers}
	vaggs, ok := planVectorAggs(comp, sel)
	if !ok {
		return nil, false, nil
	}
	if sel.Where != nil && aggsCanErr(vaggs, snap.Len()) && compileFilter(sel.Where, snap, rawW, 1) == nil {
		return nil, false, nil
	}
	bounds := shardBounds(snap.Len(), shards)
	lo, hi := bounds[shard][0], bounds[shard][1]
	sub := snap.SliceRange(lo, hi)
	var wo []float64
	if opts.WeightOverride != nil {
		wo = opts.WeightOverride[lo:hi]
	}
	p, err := shardPartialAggregate(ctx, sub, sel, keyIdx, wo, opts, workers)
	if err != nil {
		return nil, true, err
	}
	p.Rows = hi - lo
	if opts.ShardScan != nil {
		opts.ShardScan(shard, hi-lo)
	}
	return p, true, nil
}

// GatherPartials merges per-shard partials **in slice order** through the
// shared partial-state algebra and finalizes the result: group global ids by
// first appearance across the shard sequence, then HAVING / ORDER BY /
// LIMIT. It is the gather half of both in-process sharding and the
// multi-process fleet (where partials arrive deserialized off the wire); for
// identical inputs in identical order the output is bit-identical to
// runAggregateSharded's.
func GatherPartials(ctx context.Context, sel *sql.Select, partials []*ShardPartial) (*Result, error) {
	if len(partials) == 0 {
		return nil, fmt.Errorf("exec: gather of zero partials")
	}
	sel = foldSelect(sel)
	naggs := 0
	for _, it := range sel.Items {
		if it.Agg != sql.AggNone {
			naggs++
		}
	}
	for i, p := range partials {
		if p == nil {
			return nil, fmt.Errorf("exec: gather: partial %d is nil", i)
		}
		if len(p.States) != naggs {
			return nil, fmt.Errorf("exec: gather: partial %d carries %d aggregate states, query has %d", i, len(p.States), naggs)
		}
		if len(p.Keys) != len(p.KeyVals) {
			return nil, fmt.Errorf("exec: gather: partial %d has %d keys for %d key-value rows", i, len(p.Keys), len(p.KeyVals))
		}
		for ai, st := range p.States {
			if st.Kind != partials[0].States[ai].Kind {
				return nil, fmt.Errorf("exec: gather: partial %d aggregate %d is %v, partial 0 has %v", i, ai, st.Kind, partials[0].States[ai].Kind)
			}
		}
	}
	return gatherShardPartials(ctx, sel, partials)
}

// runAggregateSharded answers an aggregate query by scattering it over
// opts.Shards contiguous range partitions and gathering the partial states
// in shard order. handled=false means the shape is not kernel-coverable (or
// needs the row path's interleaved error ordering); the caller falls through
// to the unsharded paths.
func runAggregateSharded(ctx context.Context, snap *table.Snapshot, sel *sql.Select, opts Options) (*Result, bool, error) {
	keyIdx, err := resolveGroupKeys(snap, sel)
	if err != nil {
		return nil, true, err
	}
	rawW := snap.Weights()
	if opts.WeightOverride != nil {
		rawW = opts.WeightOverride
	}
	workers := opts.workers()
	// Engagement mirrors runAggregateVector exactly: a query the vectorized
	// path would decline must take the (unsharded) row path, with the same
	// error-ordering reasoning.
	comp := &kernelCompiler{snap: snap, weights: rawW, n: snap.Len(), workers: workers}
	vaggs, ok := planVectorAggs(comp, sel)
	if !ok {
		return nil, false, nil
	}
	if sel.Where != nil && aggsCanErr(vaggs, snap.Len()) && compileFilter(sel.Where, snap, rawW, 1) == nil {
		return nil, false, nil
	}

	// Scatter: each shard runs the full selection → group-id → accumulate
	// pipeline over its slice. Shards fan out across the existing worker
	// pool; a shard's internal morsel scans use the same pool size. Errors
	// surface in shard order (forEachTask), and within a shard in scan
	// order — together, the first erroring selected row in global scan order,
	// exactly like the unsharded scan.
	bounds := shardBounds(snap.Len(), opts.Shards)
	partials := make([]*ShardPartial, len(bounds))
	err = forEachTask(ctx, len(bounds), workers, func(s int) error {
		lo, hi := bounds[s][0], bounds[s][1]
		sub := snap.SliceRange(lo, hi)
		var wo []float64
		if opts.WeightOverride != nil {
			wo = opts.WeightOverride[lo:hi]
		}
		p, err := shardPartialAggregate(ctx, sub, sel, keyIdx, wo, opts, workers)
		if err != nil {
			return err
		}
		p.Rows = hi - lo
		if opts.ShardScan != nil {
			opts.ShardScan(s, hi-lo)
		}
		partials[s] = p
		return nil
	})
	if err != nil {
		return nil, true, err
	}
	res, err := gatherShardPartials(ctx, sel, partials)
	if err != nil {
		return nil, true, err
	}
	return res, true, nil
}

// gatherShardPartials is the shared gather: merge partials in slice order,
// assign group global ids at first appearance (shards being contiguous scan
// ranges, that is scan order), finalize every aggregate, and apply HAVING /
// ORDER BY / LIMIT. Aggregate kinds come from the partials themselves.
func gatherShardPartials(ctx context.Context, sel *sql.Select, partials []*ShardPartial) (*Result, error) {
	globalIdx := make(map[string]int)
	var keyVals [][]value.Value
	gStates := make([]*PartialStates, len(partials[0].States))
	for ai, st := range partials[0].States {
		gStates[ai] = NewPartialStates(st.Kind, 0)
	}
	for _, p := range partials {
		for lg, k := range p.Keys {
			gi, ok := globalIdx[k]
			if !ok {
				gi = len(keyVals)
				globalIdx[k] = gi
				keyVals = append(keyVals, p.KeyVals[lg])
				for _, st := range gStates {
					st.Grow(gi + 1)
				}
			}
			for ai, st := range gStates {
				st.MergeGroup(gi, p.States[ai], lg)
			}
		}
	}

	res := &Result{}
	for _, it := range sel.Items {
		res.Columns = append(res.Columns, it.Name())
	}
	outSchema := outputSchema(res.Columns)
	keyPos := itemKeyPositions(sel)
	total := len(keyVals)
	// A global aggregate over zero selected rows still yields one row of
	// empty aggregates.
	if total == 0 && len(sel.GroupBy) == 0 {
		total = 1
		for _, st := range gStates {
			st.Grow(1)
		}
	}
	for g := 0; g < total; g++ {
		row := make([]value.Value, 0, len(sel.Items))
		ai := 0
		for ii, it := range sel.Items {
			if it.Agg == sql.AggNone {
				row = append(row, keyVals[g][keyPos[ii]])
			} else {
				row = append(row, gStates[ai].Finalize(g))
				ai++
			}
		}
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
	if err := orderAndLimit(ctx, res, sel, outSchema); err != nil {
		return nil, err
	}
	return res, nil
}

// shardPartialAggregate runs the vectorized aggregate pipeline over one
// shard slice and returns its partial states keyed by group identity.
func shardPartialAggregate(ctx context.Context, sub *table.Snapshot, sel *sql.Select, keyIdx []int, weightOverride []float64, opts Options, workers int) (*ShardPartial, error) {
	rawW := sub.Weights()
	if weightOverride != nil {
		rawW = weightOverride
	}
	comp := &kernelCompiler{snap: sub, weights: rawW, n: sub.Len(), workers: workers}
	vaggs, ok := planVectorAggs(comp, sel)
	if !ok {
		// Plannability depends only on schema and expression shape, which
		// every slice shares with the full snapshot the caller planned.
		return nil, fmt.Errorf("exec: internal: shard plan diverged from table plan")
	}
	selRows, err := selectRows(ctx, sub, sel.Where, rawW, workers)
	if err != nil {
		return nil, err
	}
	if err := checkAggErrs(vaggs, selRows); err != nil {
		return nil, err
	}
	selW := make([]float64, len(selRows))
	if opts.Weighted {
		for k, ri := range selRows {
			selW[k] = rawW[ri]
		}
	} else {
		for k := range selW {
			selW[k] = 1
		}
	}
	gids, ngroups, firstRow := groupIDs(sub, keyIdx, selRows, workers)
	states, err := accumulateStates(ctx, vaggs, sub, selRows, gids, selW, rawW, ngroups, workers)
	if err != nil {
		return nil, err
	}
	p := &ShardPartial{
		Keys:    make([]string, ngroups),
		KeyVals: make([][]value.Value, ngroups),
		States:  states,
	}
	for g := 0; g < ngroups; g++ {
		kv := make([]value.Value, len(keyIdx))
		for ki, j := range keyIdx {
			kv[ki] = sub.Value(int(firstRow[g]), j)
		}
		p.Keys[g] = GroupKey(kv)
		p.KeyVals[g] = kv
	}
	return p, nil
}
