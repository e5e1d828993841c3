// Sharded scatter-gather execution for aggregate queries.
//
// Options.Shards range-partitions the snapshot into S contiguous slices
// (shard boundaries are a pure function of the row count and S, and always
// multiples of 64 so null bitmaps re-slice on word boundaries). Each shard
// runs the ordinary vectorized aggregate scan (aggregate.go) over its slice
// and emits
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
// same encoding every local partial carries, so remote partials merge into
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
// table (so every shard runs the same plan), then scans only the shard's
// contiguous range and returns its partial states. sel must be an aggregate
// query; any other is refused by planAggregate's item check. This is the
// entry point the fleet's /v1/partial endpoint serves; opts.Shards is
// ignored in favor of the explicit shard/shards pair, and opts.ShardScan is
// never called (fleet shard indices are the coordinator's, not this
// process's).
func PartialAggregate(ctx context.Context, snap *table.Snapshot, sel *sql.Select, opts Options, shard, shards int) (*ShardPartial, error) {
	if shards < 1 || shard < 0 || shard >= shards {
		return nil, fmt.Errorf("exec: shard %d of %d out of range", shard, shards)
	}
	if err := begin(ctx, snap, sel, opts); err != nil {
		return nil, err
	}
	p, err := planAggregate(ctx, snap, sel, opts)
	if err != nil {
		return nil, err
	}
	b := shardBounds(snap.Len(), shards)[shard]
	return p.partial(ctx, b[0], b[1])
}

// GatherPartials merges per-shard partials **in slice order** through the
// shared partial-state algebra and finalizes the result: group global ids by
// first appearance across the shard sequence, then HAVING / ORDER BY /
// LIMIT. It is the gather half of both in-process sharding and the
// multi-process fleet (where partials arrive deserialized off the wire); for
// identical inputs in identical order the output is bit-identical to the
// in-process Options.Shards answer.
func GatherPartials(ctx context.Context, sel *sql.Select, partials []*ShardPartial) (*Result, error) {
	if len(partials) == 0 {
		return nil, fmt.Errorf("exec: gather of zero partials")
	}
	if err := checkGroupItems(sel); err != nil {
		return nil, err
	}
	var kinds []sql.AggKind
	for _, it := range sel.Items {
		if it.Agg != sql.AggNone {
			kinds = append(kinds, it.Agg)
		}
	}
	for i, p := range partials {
		if p == nil {
			return nil, fmt.Errorf("exec: gather: partial %d is nil", i)
		}
		if len(p.States) != len(kinds) {
			return nil, fmt.Errorf("exec: gather: partial %d carries %d aggregate states, query has %d", i, len(p.States), len(kinds))
		}
		if len(p.Keys) != len(p.KeyVals) {
			return nil, fmt.Errorf("exec: gather: partial %d has %d keys for %d key-value rows", i, len(p.Keys), len(p.KeyVals))
		}
		for g, kv := range p.KeyVals {
			if len(kv) != len(sel.GroupBy) {
				return nil, fmt.Errorf("exec: gather: partial %d group %d carries %d key values, query groups by %d columns", i, g, len(kv), len(sel.GroupBy))
			}
		}
		for ai, st := range p.States {
			if st.Kind != kinds[ai] {
				return nil, fmt.Errorf("exec: gather: partial %d aggregate %d is %v, query has %v", i, ai, st.Kind, kinds[ai])
			}
		}
	}
	return gather(ctx, sel, partials)
}

// gather merges partials in slice order — a group's global id is its first
// appearance across the shard sequence, which for contiguous scan ranges is
// scan order — and finalizes. Aggregate kinds come from the partials.
func gather(ctx context.Context, sel *sql.Select, partials []*ShardPartial) (*Result, error) {
	globalIdx := make(map[string]int)
	var keyVals [][]value.Value
	states := make([]*PartialStates, len(partials[0].States))
	for ai, st := range partials[0].States {
		states[ai] = NewPartialStates(st.Kind, 0)
	}
	for _, p := range partials {
		for lg, k := range p.Keys {
			gi, ok := globalIdx[k]
			if !ok {
				gi = len(keyVals)
				globalIdx[k] = gi
				keyVals = append(keyVals, p.KeyVals[lg])
				for _, st := range states {
					st.Grow(gi + 1)
				}
			}
			for ai, st := range states {
				st.MergeGroup(gi, p.States[ai], lg)
			}
		}
	}
	return finalize(ctx, sel, states, len(keyVals), keyRows(keyVals))
}
