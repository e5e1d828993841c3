package core

import (
	"context"
	"fmt"
	"sync"

	"mosaic/internal/exec"
	"mosaic/internal/sql"
)

// PreparedQuery caches everything about one SELECT that does not depend on
// bound parameter values: its route (resolve) — the relation and, for
// population queries, the resolved plan (chosen sample, marginal scope, view
// predicate). Routes are keyed by the engine's DDL/DML generation counter —
// any mutation invalidates them, and the next execution transparently
// re-resolves. A PreparedQuery is safe for concurrent use and belongs to one
// Engine.
//
// Parameter placeholders never reach the plan: binding replaces them with
// literals before execution, and the plan depends only on which columns a
// query references — identical for every binding — so one plan serves every
// parameterization.
type PreparedQuery struct {
	eng      *Engine
	skeleton *sql.Select // the statement as parsed, placeholders intact

	mu     sync.Mutex
	gen    uint64 // engine generation the cached resolution belongs to
	valid  bool
	rt     *route
	resErr error // cached resolution error (also generation-keyed)
}

// Prepare readies sel for repeated execution against the engine. Resolution
// is lazy: the first execution (per DDL/DML generation) resolves the route
// and plan, later executions reuse them.
func (e *Engine) Prepare(sel *sql.Select) *PreparedQuery {
	return &PreparedQuery{eng: e, skeleton: sel}
}

// QueryPrepared executes the prepared query with bound already substituted
// for the skeleton's placeholders (see sql.BindParams); pass the skeleton
// itself for parameterless statements. It holds the engine read lock for the
// whole execution, exactly like Query, and returns byte-identical answers —
// the only difference is that parsing and planning are amortized across
// executions.
func (e *Engine) QueryPrepared(ctx context.Context, pq *PreparedQuery, bound *sql.Select) (*exec.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if pq.eng != e {
		return nil, fmt.Errorf("core: prepared query belongs to a different engine")
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	s, err := pq.scanFor(bound)
	if err != nil {
		return nil, err
	}
	if s.src == wOpen {
		return e.runOpen(ctx, s)
	}
	t, opts, err := e.bind(ctx, s)
	if err != nil {
		return nil, err
	}
	return exec.RunContext(ctx, t, s.q, opts)
}

// scanFor decides how bound reads; a refusal — unbound parameters, a route
// refusal, an unanswerable visibility — is the error. Callers hold the
// engine read lock.
func (pq *PreparedQuery) scanFor(bound *sql.Select) (scan, error) {
	if bound.NumParams > 0 {
		return scan{}, fmt.Errorf("core: statement has %d unbound parameter(s); bind them with a prepared statement", bound.NumParams)
	}
	rt, err := pq.resolve()
	if err != nil {
		return scan{}, err
	}
	s := pq.eng.scanOf(rt, bound)
	return s, s.err
}

// resolve returns the cached route, re-resolving it when it is missing or
// from an older engine generation. Callers hold the engine read lock, so the
// catalog cannot change mid-resolution and the generation read is stable.
func (pq *PreparedQuery) resolve() (*route, error) {
	gen := pq.eng.gen.Load()
	pq.mu.Lock()
	defer pq.mu.Unlock()
	if !pq.valid || pq.gen != gen {
		pq.gen, pq.valid = gen, true
		pq.rt, pq.resErr = pq.eng.resolve(pq.skeleton)
	}
	return pq.rt, pq.resErr
}
