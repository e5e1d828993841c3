package core

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"mosaic/internal/catalog"
	"mosaic/internal/marginal"
	"mosaic/internal/table"
)

// Derived state — trained M-SWG models, IPF fits, inverse-probability weight
// vectors, unioned samples — is a pure function of what it was computed
// from, so no write ever evicts it. Each slot records its inputs, every
// lookup recomputes the current ones, and the slot answers exactly while the
// two are equal. A write that changes an input makes the next lookup miss; a
// write that does not (another sample, a failed DROP, a marginal re-declared
// with the same cells) costs nothing.

// tableState is one table at one mutation version. rows only feeds EXPLAIN's
// stale text.
type tableState struct {
	t    *table.Table
	ver  uint64
	rows int
}

func stateOf(t *table.Table) tableState {
	return tableState{t: t, ver: t.Version(), rows: t.Len()}
}

// inputs is everything one piece of derived state was computed from.
// Populations, samples and tables compare by identity (a relation dropped
// and re-created is a different relation), tables and mechanisms also by
// their mutation counters, and marginals by pointer and then by content.
// Fields a kind of state does not read stay zero on both sides.
type inputs struct {
	pop     *catalog.Population
	sample  *catalog.Sample
	mechVer uint64
	// tables holds the sample's table, or for a unioned sample its members'
	// tables in member order.
	tables []tableState
	// margs is an ordered list: registration order and cell order both feed
	// the generator's RNG draws and IPF's sweep order.
	margs []*marginal.Marginal
}

// diff compares recorded inputs with current ones. why is "" when they are
// equal and otherwise names the first difference, in text that depends only
// on the two states (EXPLAIN prints it). moved reports that they are equal
// although some marginal is a different object with the same content.
func (in *inputs) diff(cur *inputs) (why string, moved bool) {
	switch {
	case in.pop != cur.pop:
		return fmt.Sprintf("population %s was re-created", cur.pop.Name), false
	case in.sample != cur.sample || len(in.tables) != len(cur.tables):
		return fmt.Sprintf("sample %s was re-created", cur.tables[0].t.Name()), false
	case in.mechVer != cur.mechVer:
		return fmt.Sprintf("sample %s mechanism changed", cur.sample.Name), false
	}
	for i, was := range in.tables {
		now := cur.tables[i]
		switch {
		case was.t != now.t:
			return fmt.Sprintf("sample %s was re-created", now.t.Name()), false
		case was.ver == now.ver:
		case was.rows < now.rows:
			return fmt.Sprintf("sample %s grew %d → %d rows", now.t.Name(), was.rows, now.rows), false
		case was.rows > now.rows:
			return fmt.Sprintf("sample %s shrank %d → %d rows", now.t.Name(), was.rows, now.rows), false
		default:
			return fmt.Sprintf("sample %s changed in place", now.t.Name()), false
		}
	}
	listChanged := len(in.margs) != len(cur.margs)
	for i := 0; !listChanged && i < len(in.margs); i++ {
		listChanged = in.margs[i].Name != cur.margs[i].Name
	}
	if listChanged {
		return fmt.Sprintf("marginal list changed [%s] → [%s]", marginalNames(in.margs), marginalNames(cur.margs)), false
	}
	for i, m := range in.margs {
		if m == cur.margs[i] {
			continue
		}
		if !m.Equal(cur.margs[i]) {
			return fmt.Sprintf("marginal %s changed", m.Name), false
		}
		moved = true
	}
	return "", moved
}

func marginalNames(ms []*marginal.Marginal) string {
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name
	}
	return strings.Join(names, ", ")
}

// slot is one piece of derived state with the inputs it answers for.
type slot[T any] struct {
	sfEntry[T]
	in inputs
}

// modelCacheCounters count what the derived-state lookups of OPEN and
// SEMI-OPEN reads did.
type modelCacheCounters struct {
	hits        atomic.Int64
	revalidated atomic.Int64
	trained     atomic.Int64
	fitted      atomic.Int64
}

// ModelCacheStats is a point-in-time copy of the model-cache counters: Hits
// are lookups a valid slot answered, Revalidated the hits that had to compare
// a re-declared marginal's content to know it, Trained the M-SWG trainings
// and Fitted the SEMI-OPEN weight vectors (IPF fits, cached
// inverse-probability weights) computed because no valid slot existed.
type ModelCacheStats struct {
	Hits, Revalidated, Trained, Fitted int64
}

// ModelCacheStats snapshots the counters.
func (e *Engine) ModelCacheStats() ModelCacheStats {
	c := &e.cacheStats
	return ModelCacheStats{
		Hits:        c.hits.Load(),
		Revalidated: c.revalidated.Load(),
		Trained:     c.trained.Load(),
		Fitted:      c.fitted.Load(),
	}
}

// derive returns the state cached in slots[key] when it was computed from
// cur, and otherwise replaces the slot and computes it — at most once under
// concurrent first lookups (sfDo). computed is the counter a computation
// advances; nil keeps the lookup out of the model-cache statistics.
func derive[T any](ctx context.Context, e *Engine, slots map[string]*slot[T], key string, cur inputs, computed *atomic.Int64, compute func() (T, error)) (T, error) {
	ran := false
	lookup := func() *sfEntry[T] {
		if s, ok := slots[key]; ok {
			if why, moved := s.in.diff(&cur); why == "" {
				if moved {
					// Adopt the new objects: the next lookup is pointer-equal.
					s.in.margs = cur.margs
					e.cacheStats.revalidated.Add(1)
				}
				return &s.sfEntry
			}
		}
		s := &slot[T]{in: cur}
		slots[key] = s
		return &s.sfEntry
	}
	v, err := sfDo(ctx, &e.cacheMu, lookup, func() (T, error) {
		ran = true
		return compute()
	})
	switch {
	case computed == nil || isCtxErr(err):
	case ran:
		computed.Add(1)
	default:
		e.cacheStats.hits.Add(1)
	}
	return v, err
}

// releaseDropped deletes the slots of relations the catalog no longer holds,
// so a dropped sample or population does not pin its models. It frees
// memory and decides nothing: a slot it left behind could never answer,
// because a re-created relation is a different object. Callers hold the
// engine write lock.
func (e *Engine) releaseDropped() {
	tables := make(map[*table.Table]bool)
	for _, s := range e.cat.AllSamples() {
		tables[s.Table] = true
	}
	live := func(in *inputs) bool {
		if in.pop != nil {
			if p, _ := e.cat.Population(in.pop.Name); p != in.pop {
				return false
			}
		}
		for _, ts := range in.tables {
			if !tables[ts.t] {
				return false
			}
		}
		return true
	}
	e.cacheMu.Lock()
	defer e.cacheMu.Unlock()
	// Unions first: a live union's table keeps the state derived from it.
	for k, s := range e.unions {
		if !live(&s.in) {
			delete(e.unions, k)
		} else if s.val != nil {
			tables[s.val.Table] = true
		}
	}
	sweep(e.models, live)
	sweep(e.ipfFits, live)
}

func sweep[T any](slots map[string]*slot[T], live func(*inputs) bool) {
	for k, s := range slots {
		if !live(&s.in) {
			delete(slots, k)
		}
	}
}
