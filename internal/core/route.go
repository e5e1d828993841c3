package core

import (
	"context"
	"fmt"

	"mosaic/internal/exec"
	"mosaic/internal/sql"
	"mosaic/internal/table"
)

// The read path. Every SELECT entry point — QueryPrepared (and Query, which
// is a statement prepared once), PartialContext and Explain — answers two
// questions through the same two functions, so the entry points cannot
// drift apart:
//
//   - resolve: which relation does the statement read — an auxiliary table,
//     a sample, or a population and its plan — or why is it refused;
//   - scanOf: given that route and the visibility, which relation is
//     scanned, what joins its WHERE, and where the weights come from (Sec 4,
//     Fig 3's two paths).
//
// scanOf is a decision, not work: EXPLAIN prints it, and bind does the work
// it names (an IPF fit, inverse weights) for the read paths.

// route is a statement's resolved relation — what PreparedQuery caches per
// engine generation.
type route struct {
	kind string       // "table", "sample" or "population"
	tbl  *table.Table // table and sample routes
	pc   *planContext // population routes
}

// resolve maps sel to its route, refusing what no visibility path answers:
// an unknown relation, an OPEN or SEMI-OPEN read of a table or sample, a
// population no sample covers.
func (e *Engine) resolve(sel *sql.Select) (*route, error) {
	open := sel.Visibility == sql.VisibilitySemiOpen || sel.Visibility == sql.VisibilityOpen
	switch kind := e.cat.Resolve(sel.From); kind {
	case "table":
		if open {
			return nil, fmt.Errorf("core: %s queries apply to populations; %q is an auxiliary table", sel.Visibility, sel.From)
		}
		t, _ := e.cat.Table(sel.From)
		return &route{kind: kind, tbl: t}, nil
	case "sample":
		if open {
			return nil, fmt.Errorf("core: %s queries apply to populations; query the population %q was sampled from", sel.Visibility, sel.From)
		}
		s, _ := e.cat.Sample(sel.From)
		return &route{kind: kind, tbl: s.Table}, nil
	case "population":
		pop, _ := e.cat.Population(sel.From)
		pc, err := e.plan(pop, expandStars(sel, pop))
		if err != nil {
			return nil, err
		}
		return &route{kind: kind, pc: pc}, nil
	}
	return nil, fmt.Errorf("core: unknown relation %q", sel.From)
}

// weightSource is where a scan's per-row weights come from.
type weightSource int

const (
	wUnweighted weightSource = iota // auxiliary table: every tuple counts once
	wStored                         // the relation's stored weights (samples, CLOSED)
	wInverse                        // 1/Pr of the sample's known mechanism
	wIPFView                        // the view's sub-sample raked to its own marginals (Fig 3, bottom path)
	wIPFGlobal                      // the whole sample raked to the scope marginals, then the view (Fig 3, left path)
	wOpen                           // M-SWG replicates (Sec 5)
	wRefused                        // unanswerable; scan.err says why
)

// scan is how a routed statement reads.
type scan struct {
	src weightSource
	tbl *table.Table // the relation scanned; a view-scope fit scans its sub-sample instead
	pc  *planContext // population routes
	q   *sql.Select  // the statement as executed: stars expanded, view predicate ANDed onto WHERE
	err error        // the refusal when src is wRefused
}

// scanOf decides how sel, routed by rt, reads.
func (e *Engine) scanOf(rt *route, sel *sql.Select) scan {
	switch rt.kind {
	case "table":
		return scan{src: wUnweighted, tbl: rt.tbl, q: sel}
	case "sample":
		return scan{src: wStored, tbl: rt.tbl, q: sel}
	}
	pc := rt.pc
	s := scan{tbl: pc.sample.Table, pc: pc, q: expandStars(sel, pc.pop)}
	view := pc.viewPred
	switch sel.Visibility {
	case sql.VisibilityClosed:
		s.src = wStored
	case sql.VisibilityDefault, sql.VisibilitySemiOpen:
		switch {
		case mechanismKnown(pc.sample):
			s.src = wInverse
		case len(pc.margs) == 0:
			s.src, s.err = wRefused, fmt.Errorf("core: SEMI-OPEN query on %q needs a known mechanism or population marginals", pc.pop.Name)
		case pc.scope == "query" && view != nil:
			s.src, view = wIPFView, nil // the fitted sub-sample is the view
		default:
			s.src = wIPFGlobal
		}
	case sql.VisibilityOpen:
		s.src = wOpen
		if len(pc.margs) == 0 {
			s.src, s.err = wRefused, fmt.Errorf("core: OPEN query on %q needs population marginals to train a generator", pc.pop.Name)
		}
		if pc.scope != "global" {
			view = nil // the generator learns the query population itself
		}
	default:
		s.src, s.err = wRefused, fmt.Errorf("core: unsupported visibility %v", sel.Visibility)
	}
	if view != nil {
		q := *s.q
		q.Where = andExpr(q.Where, view)
		s.q = &q
	}
	return s
}

// bind does the work s names — the inverse weights or IPF fit it reads —
// and returns the relation to scan with executor options carrying those
// weights. A refused scan returns its refusal. The options carry the
// engine's shard count and per-shard scan counters; OPEN replicate scans use
// their own unsharded options (see runOpen).
func (e *Engine) bind(ctx context.Context, s scan) (*table.Table, exec.Options, error) {
	t, w, err := s.tbl, []float64(nil), s.err
	switch s.src {
	case wInverse:
		w, err = e.inverseWeights(ctx, s.pc)
	case wIPFView:
		t, err = e.ipfViewFit(ctx, s.pc)
	case wIPFGlobal:
		w, err = e.ipfGlobalFit(ctx, s.pc)
	}
	return t, exec.Options{
		Weighted:       s.src != wUnweighted,
		WeightOverride: w,
		ForceRow:       e.opts.RowExec,
		Workers:        e.opts.Workers,
		Shards:         e.opts.Shards,
		ShardScan:      e.recordShardScan,
	}, err
}
