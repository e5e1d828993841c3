package core

import (
	"context"
	"fmt"
	"strings"

	"mosaic/internal/catalog"
	"mosaic/internal/exec"
	"mosaic/internal/expr"
	"mosaic/internal/ipf"
	"mosaic/internal/marginal"
	"mosaic/internal/mechanism"
	"mosaic/internal/sql"
	"mosaic/internal/swg"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

// Query answers a SELECT. Auxiliary tables and samples answer directly;
// population queries route through the visibility machinery (paper Sec 4).
// It holds the engine read lock for its whole duration, so any number of
// Query calls run concurrently while DDL/DML waits.
func (e *Engine) Query(sel *sql.Select) (*exec.Result, error) {
	return e.QueryContext(context.Background(), sel)
}

// QueryContext is Query with a cancellation context. The engine checks the
// context at every expensive boundary — M-SWG training steps, per-replicate
// OPEN generation, IPF raking sweeps, and executor kernel/sort/row-batch
// boundaries — so a cancelled query returns ctx.Err() promptly. Cancellation
// never corrupts state: caches only ever store completed work (a cancelled
// training or fit leaves its slot empty for the next caller), so a re-run of
// the same query returns the byte-identical uncancelled answer. An ad-hoc
// query is a prepared statement used once.
func (e *Engine) QueryContext(ctx context.Context, sel *sql.Select) (*exec.Result, error) {
	return e.QueryPrepared(ctx, e.Prepare(sel), sel)
}

// planContext is everything resolved before executing a population query.
type planContext struct {
	pop      *catalog.Population
	gp       *catalog.Population
	sample   *catalog.Sample
	viewPred expr.Expr            // non-nil for non-global populations
	margs    []*marginal.Marginal // chosen marginal set
	scope    string               // "query" or "global" (Fig 3's two paths)
}

// inputs captures what state derived from this plan's sample for pop is
// computed from, as of now.
func (pc *planContext) inputs(pop *catalog.Population, margs []*marginal.Marginal) inputs {
	return inputs{
		pop:     pop,
		sample:  pc.sample,
		mechVer: pc.sample.MechanismVersion(),
		tables:  []tableState{stateOf(pc.sample.Table)},
		margs:   margs,
	}
}

// expandStars rewrites each bare * select item into the population's own
// attributes, so the answer shape is a function of the queried population,
// never of whichever sample the planner happens to pick (a global-population
// star query used to return whatever columns the largest sample stored).
// COUNT(*) and other aggregate stars are left alone.
func expandStars(sel *sql.Select, pop *catalog.Population) *sql.Select {
	hasStar := false
	for _, it := range sel.Items {
		if it.Star && it.Agg == sql.AggNone {
			hasStar = true
			break
		}
	}
	if !hasStar {
		return sel
	}
	q := *sel
	q.Items = make([]sql.SelectItem, 0, len(sel.Items)+pop.Schema.Len())
	for _, it := range sel.Items {
		if !it.Star || it.Agg != sql.AggNone {
			q.Items = append(q.Items, it)
			continue
		}
		for _, n := range pop.Schema.Names() {
			q.Items = append(q.Items, sql.SelectItem{Expr: &expr.Column{Name: n}})
		}
	}
	return &q
}

// plan resolves the GP, picks the sample (paper Sec 4 assumption 2: "the
// query engine receives a single, optimal sample"; the engine picks the
// largest schema-compatible one), and selects the marginal scope: the query
// population's own marginals when present, otherwise the global
// population's (Fig 3's bottom vs. left dashed paths).
func (e *Engine) plan(pop *catalog.Population, sel *sql.Select) (*planContext, error) {
	pc := &planContext{pop: pop}
	if pop.Global {
		pc.gp = pop
	} else {
		gp, ok := e.cat.Population(pop.From)
		if !ok {
			return nil, fmt.Errorf("core: population %q references missing global population %q", pop.Name, pop.From)
		}
		pc.gp = gp
		pc.viewPred = pop.Where
	}

	// Required attributes: everything the query and the view predicate
	// reference (assumption 1: population attrs ⊆ sample attrs).
	need := map[string]bool{}
	collect := func(ex expr.Expr) {
		if ex == nil {
			return
		}
		for _, c := range ex.Columns(nil) {
			need[strings.ToLower(c)] = true
		}
	}
	for _, it := range sel.Items {
		if it.Expr != nil {
			collect(it.Expr)
		}
		if it.Star && it.Agg == sql.AggNone {
			// A bare * projects the population's schema (global included), so
			// the sample must store every population attribute.
			for _, n := range pop.Schema.Names() {
				need[strings.ToLower(n)] = true
			}
		}
	}
	collect(sel.Where)
	collect(pc.viewPred)
	for _, g := range sel.GroupBy {
		need[strings.ToLower(g)] = true
	}
	// ORDER BY and HAVING columns constrain the sample too — except names
	// that are output columns (aliases, aggregate display names), which
	// resolve against the result rather than the sample.
	outNames := map[string]bool{}
	for _, it := range sel.Items {
		if !it.Star || it.Agg != sql.AggNone {
			outNames[strings.ToLower(it.Name())] = true
		}
	}
	collectNonOutput := func(ex expr.Expr) {
		if ex == nil {
			return
		}
		for _, c := range ex.Columns(nil) {
			if !outNames[strings.ToLower(c)] {
				need[strings.ToLower(c)] = true
			}
		}
	}
	for _, o := range sel.OrderBy {
		collectNonOutput(o.Expr)
	}
	collectNonOutput(sel.Having)
	delete(need, "weight") // pseudo-column

	if e.opts.UnionSamples {
		union, err := e.unionCoveringSamples(pc.gp, need)
		if err != nil {
			return nil, err
		}
		pc.sample = union
	} else {
		var best *catalog.Sample
		for _, s := range e.cat.SamplesOf(pc.gp.Name) {
			ok := true
			for a := range need {
				if _, has := s.Table.Schema().Index(a); !has {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			if best == nil || s.Table.Len() > best.Table.Len() {
				best = s
			}
		}
		if best == nil {
			return nil, fmt.Errorf("core: no sample of population %q covers the query attributes", pc.gp.Name)
		}
		pc.sample = best
	}

	switch {
	case len(pop.Marginals) > 0:
		pc.margs = pop.MarginalList()
		pc.scope = "query"
	case len(pc.gp.Marginals) > 0:
		pc.margs = pc.gp.MarginalList()
		pc.scope = "global"
	}
	// Keep only marginals whose attributes the sample stores.
	kept := pc.margs[:0:0]
	for _, m := range pc.margs {
		ok := true
		for _, a := range m.Attrs {
			if _, has := pc.sample.Table.Schema().Index(a); !has {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, m)
		}
	}
	pc.margs = kept
	return pc, nil
}

// ipfViewFit returns the view-restricted sub-sample fitted to the query
// population's marginals, cached per (sample, population) so repeated
// SEMI-OPEN queries skip refitting. The cached table is served read-only.
func (e *Engine) ipfViewFit(ctx context.Context, pc *planContext) (*table.Table, error) {
	key := "view|" + modelKey(pc.sample.Name, pc.pop.Name)
	fit, err := derive(ctx, e, e.ipfFits, key, pc.inputs(pc.pop, pc.margs), &e.cacheStats.fitted, func() (ipfFit, error) {
		sub, err := filterTable(ctx, pc.sample.Table, pc.viewPred, e.opts.Workers)
		if err != nil {
			return ipfFit{}, err
		}
		if sub.Len() == 0 {
			return ipfFit{}, fmt.Errorf("core: sample %q has no tuples in population %q", pc.sample.Name, pc.pop.Name)
		}
		if _, err := ipf.ApplyContext(ctx, sub, pc.margs, e.opts.IPF); err != nil {
			return ipfFit{}, err
		}
		return ipfFit{sub: sub}, nil
	})
	return fit.sub, err
}

// ipfGlobalFit returns the whole-sample IPF weight vector against the scope
// marginals, cached per (sample, scope population): global-scope fits are
// independent of the view (the predicate applies afterwards), so every
// derived population over one GP shares a single fit. The slice is shared by
// concurrent queries; exec treats weight overrides as read-only.
func (e *Engine) ipfGlobalFit(ctx context.Context, pc *planContext) ([]float64, error) {
	scopePop := pc.modelPop()
	key := "global|" + modelKey(pc.sample.Name, scopePop.Name)
	fit, err := derive(ctx, e, e.ipfFits, key, pc.inputs(scopePop, pc.margs), &e.cacheStats.fitted, func() (ipfFit, error) {
		w, _, err := ipf.FitContext(ctx, pc.sample.Table, pc.margs, e.opts.IPF)
		return ipfFit{weights: w}, err
	})
	return fit.weights, err
}

// mechanismKnown reports whether the sample's mechanism yields inclusion
// probabilities (a stratified design without computed probabilities is
// treated as unknown).
func mechanismKnown(s *catalog.Sample) bool {
	if st, ok := s.Mechanism.(mechanism.Stratified); ok && st.Probs == nil {
		return false
	}
	return s.Mechanism != nil
}

// inverseWeights returns the 1/Pr weights of the sample's known mechanism.
// The vector depends on the sample and its mechanism alone, so every
// SEMI-OPEN query on the sample shares one, read-only like an IPF fit —
// unless the design is uniform: that vector is one constant, refilling it per
// query costs about a nanosecond a row where a mechanism that reads the tuple
// costs ~75, and keeping it would hold 8 B a row live for nothing.
func (e *Engine) inverseWeights(ctx context.Context, pc *planContext) ([]float64, error) {
	s := pc.sample
	if _, uniform := s.Mechanism.(mechanism.Uniform); uniform {
		return mechanism.InverseWeights(s.Table, s.Mechanism)
	}
	fit, err := derive(ctx, e, e.ipfFits, "mechanism|"+strings.ToLower(s.Name), pc.inputs(nil, nil), &e.cacheStats.fitted, func() (ipfFit, error) {
		w, err := mechanism.InverseWeights(s.Table, s.Mechanism)
		return ipfFit{weights: w}, err
	})
	return fit.weights, err
}

// runOpen trains (or reuses) the M-SWG for the scan's sample/population
// pair and hands exec.RunReplicates a generator of OpenSamples replicates,
// each uniformly reweighted to the population size; RunReplicates answers
// the query on each and combines per the paper's protocol: groups appearing
// in all answers are returned with averaged aggregates (Sec 5.3).
func (e *Engine) runOpen(ctx context.Context, s scan) (*exec.Result, error) {
	pc := s.pc
	model, err := e.openModel(ctx, pc)
	if err != nil {
		return nil, err
	}
	popTotal := pc.margs[0].Total()
	n := e.opts.GeneratedRows
	if n <= 0 {
		n = pc.sample.Table.Len()
	}
	if n <= 0 {
		return nil, fmt.Errorf("core: sample %q is empty", pc.sample.Name)
	}
	// Replicate r is generated on a stream that depends on (Seed, r) alone,
	// and eval-mode generation is read-only on the model, so replicates run
	// concurrently with bit-identical answers for any Workers. Generation is
	// column-native: sampled tuples decode straight into typed column
	// builders at their final uniform weight popTotal/n ("uniformly reweight
	// the generated sample to match the size of the population").
	gen := func(ctx context.Context, r int) (*table.Table, error) {
		return model.GenerateSeededWeightedContext(ctx, fmt.Sprintf("%s_gen%d", pc.sample.Name, r), n, replicateSeed(e.opts.Seed, r), popTotal/float64(n))
	}
	// OPEN scans are deliberately unsharded (no Shards in these options): the
	// generative model trains on the unified sample and each replicate is
	// already a partition of the OPEN combine, so sharding replicate scans is
	// future work — the engine must never silently shard an OPEN answer.
	opts := exec.Options{Weighted: true, ForceRow: e.opts.RowExec, Workers: e.opts.Workers}
	return exec.RunReplicates(ctx, s.q, e.opts.OpenSamples, opts, gen)
}

// replicateSeed derives the RNG seed of OPEN replicate r from the engine
// seed with a splitmix64 finalizer, decorrelating adjacent streams.
func replicateSeed(base int64, r int) int64 {
	x := uint64(base) + 0x9E3779B97F4A7C15*(uint64(r)+1)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}

// modelPop is the population whose marginals the OPEN generator trains and
// the global-scope IPF fit rakes against — the global population on the
// global-scope path — and so the population half of their cache keys.
func (pc *planContext) modelPop() *catalog.Population {
	if pc.scope == "global" {
		return pc.gp
	}
	return pc.pop
}

// openModelState describes the model-cache slot an OPEN read of this plan
// would use, for EXPLAIN: never trained, trained from inputs that have since
// changed (and which one), or usable. The text depends only on the statement
// stream and the options (steps and losses are deterministic; no wall time),
// so two engines that saw the same statements and reads print the same row.
func (e *Engine) openModelState(pc *planContext) string {
	s, pop := pc.sample, pc.modelPop()
	cur := pc.inputs(pop, pc.margs)
	e.cacheMu.Lock()
	ent := e.models[modelKey(s.Name, pop.Name)]
	trained := ent != nil && ent.done
	var model *swg.Model
	var err error
	var stale string
	if trained {
		model, err = ent.val, ent.err
		stale, _ = ent.in.diff(&cur)
	}
	e.cacheMu.Unlock()
	cfg := e.opts.SWG.Resolved(s.Table.Len())
	next := fmt.Sprintf("next OPEN read trains %d epochs × %d steps", cfg.Epochs, cfg.StepsPerEpoch)
	switch {
	case !trained:
		return "untrained (" + next + ")"
	case stale != "":
		return "stale: " + stale + " (" + next + ")"
	case err != nil:
		return "failed: " + err.Error()
	}
	return fmt.Sprintf("cached: %d steps, final loss %.6g",
		len(model.History)*model.Config().StepsPerEpoch, model.History[len(model.History)-1])
}

// openModel returns a cached or freshly trained M-SWG for the plan's
// sample/population pair, training at most once per input state even under
// concurrent first queries. A cancelled training is never cached: the slot
// stays empty, the canceller gets ctx.Err(), and the next query retrains from
// scratch — bit-identically, since training is deterministic in (sample,
// marginals, seed), which is also why a model kept across a write answers
// exactly as one retrained after it would.
func (e *Engine) openModel(ctx context.Context, pc *planContext) (*swg.Model, error) {
	pop := pc.modelPop()
	return derive(ctx, e, e.models, modelKey(pc.sample.Name, pop.Name), pc.inputs(pop, pc.margs), &e.cacheStats.trained, func() (*swg.Model, error) {
		return e.trainOpenModel(ctx, pc.sample, pc.margs)
	})
}

// trainOpenModel compiles and trains the M-SWG for a sample against the
// augmented marginal set.
func (e *Engine) trainOpenModel(ctx context.Context, s *catalog.Sample, margs []*marginal.Marginal) (*swg.Model, error) {
	full, err := AugmentMarginals(s.Table, margs)
	if err != nil {
		return nil, err
	}
	cfg := e.opts.SWG
	if cfg.Seed == 0 {
		cfg.Seed = e.opts.Seed
	}
	if cfg.Workers == 0 {
		cfg.Workers = e.opts.Workers
	}
	model, err := swg.New(s.Table, full, cfg)
	if err != nil {
		return nil, err
	}
	if err := model.TrainContext(ctx); err != nil {
		return nil, err
	}
	return model, nil
}

// AugmentMarginals implements Sec 5.2's coverage rule: "if the population
// marginals do not cover all d attributes … we add marginals from the sample
// into the set of population marginals for those uncovered attributes",
// scaled to the population total so the marginal set stays consistent.
func AugmentMarginals(sample *table.Table, margs []*marginal.Marginal) ([]*marginal.Marginal, error) {
	covered := map[string]bool{}
	for _, a := range marginal.CoveredAttrs(margs) {
		covered[strings.ToLower(a)] = true
	}
	out := append([]*marginal.Marginal(nil), margs...)
	if len(margs) == 0 {
		return nil, fmt.Errorf("core: cannot augment an empty marginal set")
	}
	popTotal := margs[0].Total()
	sc := sample.Schema()
	for i := 0; i < sc.Len(); i++ {
		name := sc.At(i).Name
		if covered[strings.ToLower(name)] {
			continue
		}
		m, err := marginal.FromTable(sample.Name()+"_sample_"+name, sample, []string{name})
		if err != nil {
			return nil, err
		}
		tot := m.Total()
		if tot <= 0 {
			return nil, fmt.Errorf("core: sample marginal over %q has zero mass", name)
		}
		if err := m.Scale(popTotal / tot); err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// filterTable copies the rows pred keeps (exec.SelectRows), with their
// weights, into a new table: one snapshot, one selection, then the kept rows
// appended ingestChunk at a time from one reused slab, filled a column at a
// time, so the copy holds at most one chunk of rows beside the new table.
func filterTable(ctx context.Context, t *table.Table, pred expr.Expr, workers int) (*table.Table, error) {
	snap := t.Snapshot()
	rows, err := exec.SelectRows(ctx, snap, pred, snap.Weights(), workers)
	if err != nil {
		return nil, err
	}
	nc := snap.Schema().Len()
	slab := make([]value.Value, min(len(rows), ingestChunk)*nc)
	kept := make([][]value.Value, 0, ingestChunk)
	wts := make([]float64, 0, ingestChunk)
	out := table.New(t.Name()+"_view", t.Schema())
	_, err = appendRows(out, len(rows), false, func(lo, hi int) ([][]value.Value, []float64, error) {
		chunk := rows[lo:hi]
		for j := 0; j < nc; j++ {
			snap.FillValues(j, chunk, slab[j:], nc)
		}
		kept, wts = kept[:0], wts[:0]
		for k, r := range chunk {
			kept = append(kept, slab[k*nc:(k+1)*nc:(k+1)*nc])
			wts = append(wts, snap.Weight(int(r)))
		}
		return kept, wts, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
