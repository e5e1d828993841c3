package core

import (
	"context"

	"mosaic/internal/exec"
	"mosaic/internal/sql"
)

// PartialContext executes the scatter half of fleet execution: the per-shard
// partial aggregate plan for shard `shard` of `shards`, over this engine's
// full copy of the data (every fleet member holds the whole dataset; the
// shard index selects which contiguous slice this process scans). It reads
// through the same route and scan decision as Query, and every weight source
// is deterministic in the engine options and data, so identical fleet
// members produce bit-identical partials.
//
// It returns the generation counter observed under the engine read lock
// (mutations hold the write lock, so the partial is guaranteed to have
// executed at exactly that generation). handled=false means the query is not
// partial-executable — OPEN visibility or a non-aggregate query — and must be
// answered as one unified query instead; the fleet coordinator passes those
// through to shard 0 without asking for partials. Every CLOSED and SEMI-OPEN
// aggregate is handled, and so is a refusal. A route refusal is the answer
// on every shard; a refusal the scan meets at a row's value (SUM over TEXT)
// comes only from the shards whose slice holds such a row, and the first of
// them in shard order carries Query's words.
func (e *Engine) PartialContext(ctx context.Context, sel *sql.Select, shard, shards int) (*exec.ShardPartial, uint64, bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	gen := e.gen.Load()
	s, err := e.Prepare(sel).scanFor(sel)
	if err != nil {
		return nil, gen, true, err
	}
	if s.src == wOpen || !s.q.IsAggregate() {
		return nil, gen, false, nil
	}
	t, opts, err := e.bind(ctx, s)
	if err != nil {
		return nil, gen, true, err
	}
	p, err := exec.PartialAggregate(ctx, t.Snapshot(), s.q, opts, shard, shards)
	return p, gen, true, err
}
