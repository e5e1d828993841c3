package core

import (
	"context"
	"fmt"
	"testing"
)

func TestPlanCacheHitMissEvict(t *testing.T) {
	e := NewEngine(Options{Seed: 1})
	exec1(t, e, "CREATE TABLE T (a INT); INSERT INTO T VALUES (1), (2)")
	pc := NewPlanCache(2)

	q1 := "SELECT COUNT(*) FROM T"
	if _, _, ok := pc.Lookup(e, q1); ok {
		t.Fatal("empty cache reported a hit")
	}
	pc.Store(e, q1, mustParse(t, q1))
	sel, pq, ok := pc.Lookup(e, q1)
	if !ok || sel == nil || pq == nil {
		t.Fatal("stored entry not found")
	}

	// Fill past capacity: the least recently used entry (q2) evicts.
	q2, q3 := "SELECT SUM(a) FROM T", "SELECT MIN(a) FROM T"
	pc.Store(e, q2, mustParse(t, q2))
	if _, _, ok := pc.Lookup(e, q1); !ok { // touch q1 → q2 becomes LRU
		t.Fatal("q1 missing before eviction")
	}
	pc.Store(e, q3, mustParse(t, q3))
	if _, _, ok := pc.Lookup(e, q2); ok {
		t.Error("LRU entry survived past capacity")
	}
	if _, _, ok := pc.Lookup(e, q1); !ok {
		t.Error("recently used entry evicted")
	}
	st := pc.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if st.Size != 2 || st.Capacity != 2 {
		t.Errorf("size/capacity = %d/%d, want 2/2", st.Size, st.Capacity)
	}
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("hits=%d misses=%d, want both > 0", st.Hits, st.Misses)
	}
}

// TestPlanCacheEngineSwapMisses: entries are keyed by engine identity, so a
// lookup against a different engine (e.g. after Restore swapped it) misses
// instead of returning another engine's PreparedQuery.
func TestPlanCacheEngineSwapMisses(t *testing.T) {
	e1 := NewEngine(Options{Seed: 1})
	e2 := NewEngine(Options{Seed: 1})
	exec1(t, e1, "CREATE TABLE T (a INT)")
	exec1(t, e2, "CREATE TABLE T (a INT)")
	pc := NewPlanCache(4)
	const q = "SELECT COUNT(*) FROM T"
	pc.Store(e1, q, mustParse(t, q))
	if _, _, ok := pc.Lookup(e2, q); ok {
		t.Fatal("lookup against a different engine hit a foreign PreparedQuery")
	}
	// The stale-engine entry was dropped; re-storing against e2 works.
	pq := pc.Store(e2, q, mustParse(t, q))
	if _, err := e2.QueryPrepared(context.Background(), pq, pq.skeleton); err != nil {
		t.Fatalf("re-stored plan: %v", err)
	}
}

// TestPlanCachedAnswersTrackMutations: executing through cached plans across
// interleaved DML must always reflect the current data — the generation
// counter forces re-resolution, never a stale answer.
func TestPlanCachedAnswersTrackMutations(t *testing.T) {
	e := NewEngine(Options{Seed: 1})
	exec1(t, e, "CREATE TABLE T (a INT)")
	pc := NewPlanCache(4)
	const q = "SELECT COUNT(*) FROM T"
	pc.Store(e, q, mustParse(t, q))
	for i := 1; i <= 5; i++ {
		exec1(t, e, fmt.Sprintf("INSERT INTO T VALUES (%d)", i))
		_, pq, ok := pc.Lookup(e, q)
		if !ok {
			t.Fatal("cached plan vanished")
		}
		res, err := e.QueryPrepared(context.Background(), pq, pq.skeleton)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := res.Rows[0][0].Float64(); got != float64(i) {
			t.Fatalf("after %d inserts cached COUNT(*) = %g", i, got)
		}
	}
}

func TestPlanCacheConcurrentStoreSingleEntry(t *testing.T) {
	e := NewEngine(Options{Seed: 1})
	exec1(t, e, "CREATE TABLE T (a INT)")
	pc := NewPlanCache(8)
	const q = "SELECT COUNT(*) FROM T"
	done := make(chan *PreparedQuery, 8)
	for i := 0; i < 8; i++ {
		go func() { done <- pc.Store(e, q, mustParse(t, q)) }()
	}
	for i := 0; i < 8; i++ {
		if pq := <-done; pq == nil {
			t.Fatal("Store returned nil")
		}
	}
	if st := pc.Stats(); st.Size != 1 {
		t.Errorf("8 concurrent stores of one text left %d entries", st.Size)
	}
}
