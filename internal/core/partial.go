package core

import (
	"context"
	"fmt"

	"mosaic/internal/exec"
	"mosaic/internal/sql"
)

// PartialContext executes the scatter half of fleet execution: the per-shard
// partial aggregate plan for shard `shard` of `shards`, over this engine's
// full copy of the data (every fleet member holds the whole dataset; the
// shard index selects which contiguous slice this process scans). The weight
// resolution mirrors query() exactly — stored weights for CLOSED, mechanism /
// IPF weights for SEMI-OPEN — and every weight source is deterministic in
// the engine options and data, so identical fleet members produce
// bit-identical partials.
//
// It returns the generation counter observed under the engine read lock
// (mutations hold the write lock, so the partial is guaranteed to have
// executed at exactly that generation). handled=false means the query is not
// partial-executable — OPEN visibility, a non-aggregate query, or a shape
// only the row engine serves — and must be answered as one unified query
// instead; the fleet coordinator passes those through to shard 0.
func (e *Engine) PartialContext(ctx context.Context, sel *sql.Select, shard, shards int) (*exec.ShardPartial, uint64, bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	gen := e.gen.Load()
	p, handled, err := e.partial(ctx, sel, shard, shards)
	return p, gen, handled, err
}

func (e *Engine) partial(ctx context.Context, sel *sql.Select, shard, shards int) (*exec.ShardPartial, bool, error) {
	if sel.NumParams > 0 {
		return nil, true, fmt.Errorf("core: statement has %d unbound parameter(s); bind them with a prepared statement", sel.NumParams)
	}
	// partialOpts strips the ShardScan hook: fleet shard indices live in the
	// coordinator's space, not this engine's Options.Shards space, so they
	// must not feed the local per-shard scan counters.
	partialOpts := func(weighted bool, override []float64) exec.Options {
		o := e.execOpts(weighted, override)
		o.ShardScan = nil
		return o
	}
	switch e.cat.Resolve(sel.From) {
	case "table":
		if sel.Visibility == sql.VisibilitySemiOpen || sel.Visibility == sql.VisibilityOpen {
			return nil, true, fmt.Errorf("core: %s queries apply to populations; %q is an auxiliary table", sel.Visibility, sel.From)
		}
		t, _ := e.cat.Table(sel.From)
		return exec.PartialAggregate(ctx, t.Snapshot(), sel, partialOpts(false, nil), shard, shards)
	case "sample":
		if sel.Visibility == sql.VisibilitySemiOpen || sel.Visibility == sql.VisibilityOpen {
			return nil, true, fmt.Errorf("core: %s queries apply to populations; query the population %q was sampled from", sel.Visibility, sel.From)
		}
		s, _ := e.cat.Sample(sel.From)
		return exec.PartialAggregate(ctx, s.Table.Snapshot(), sel, partialOpts(true, nil), shard, shards)
	case "population":
		pop, _ := e.cat.Population(sel.From)
		sel = expandStars(sel, pop)
		vis := sel.Visibility
		if vis == sql.VisibilityDefault {
			vis = sql.VisibilitySemiOpen
		}
		if vis == sql.VisibilityOpen {
			// OPEN answers come from generated replicates of the unified
			// model — never sharded, in process or across the fleet.
			return nil, false, nil
		}
		pc, err := e.plan(pop, sel)
		if err != nil {
			return nil, true, err
		}
		switch vis {
		case sql.VisibilityClosed:
			q := *sel
			q.Where = andExpr(sel.Where, pc.viewPred)
			return exec.PartialAggregate(ctx, pc.sample.Table.Snapshot(), &q, partialOpts(true, nil), shard, shards)
		case sql.VisibilitySemiOpen:
			if w, ok, err := e.knownMechanismWeights(ctx, pc); err != nil {
				return nil, true, err
			} else if ok {
				q := *sel
				q.Where = andExpr(sel.Where, pc.viewPred)
				return exec.PartialAggregate(ctx, pc.sample.Table.Snapshot(), &q, partialOpts(true, w), shard, shards)
			}
			if len(pc.margs) == 0 {
				return nil, true, fmt.Errorf("core: SEMI-OPEN query on %q needs a known mechanism or population marginals", pc.pop.Name)
			}
			if pc.scope == "query" && pc.viewPred != nil {
				sub, err := e.ipfViewFit(ctx, pc)
				if err != nil {
					return nil, true, err
				}
				q := *sel
				return exec.PartialAggregate(ctx, sub.Snapshot(), &q, partialOpts(true, nil), shard, shards)
			}
			w, err := e.ipfGlobalFit(ctx, pc)
			if err != nil {
				return nil, true, err
			}
			q := *sel
			q.Where = andExpr(sel.Where, pc.viewPred)
			return exec.PartialAggregate(ctx, pc.sample.Table.Snapshot(), &q, partialOpts(true, w), shard, shards)
		default:
			return nil, true, fmt.Errorf("core: unsupported visibility %v", vis)
		}
	default:
		return nil, true, fmt.Errorf("core: unknown relation %q", sel.From)
	}
}
