package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mosaic"
	"mosaic/internal/wire"
)

// newRawServer is newTestServer without the client wrapper, for tests that
// need to craft raw HTTP requests (headers, oversized bodies).
func newRawServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DB == nil {
		cfg.DB = mosaic.Open(testOpts())
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// blockIn occupies one admission slot of cl with a request parked inside fn
// until the returned release func is called. It waits for the slot to be
// held before returning.
func blockIn(t *testing.T, s *Server, cl Class) (release func(), done chan struct{}) {
	t.Helper()
	gate := make(chan struct{})
	done = make(chan struct{})
	before := s.adm.inflightCount(cl)
	go func() {
		defer close(done)
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/x", nil)
		s.run(rec, req, cl, func(ctx context.Context) (any, error) {
			<-gate
			return "ok", nil
		})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.inflightCount(cl) <= before {
		if time.Now().After(deadline) {
			t.Fatalf("%s request never occupied a slot", cl)
		}
		time.Sleep(time.Millisecond)
	}
	var once sync.Once
	return func() { once.Do(func() { close(gate) }) }, done
}

// TestBatchCannotStarveInteractive is the deterministic half of the overload
// experiment: with every batch slot occupied AND batch work queued, an
// interactive query still completes within its deadline — the batch cap
// leaves interactive headroom by construction.
func TestBatchCannotStarveInteractive(t *testing.T) {
	s, c := newTestServer(t, Config{QoS: QoSConfig{MaxConcurrent: 2, BatchMaxConcurrent: 1}, RequestTimeout: 5 * time.Second})
	if err := c.Exec("CREATE TABLE T (a INT); INSERT INTO T VALUES (1), (2)"); err != nil {
		t.Fatal(err)
	}

	// Saturate the batch class: one holder, one waiter.
	release1, done1 := blockIn(t, s, Batch)
	defer release1()
	waiterDone := make(chan bool, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		waiterDone <- s.adm.acquire(ctx, Batch)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.queueDepth(Batch) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second batch request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Interactive work sails through the remaining slot.
	start := time.Now()
	res, err := c.Query("SELECT COUNT(*) FROM T")
	if err != nil {
		t.Fatalf("interactive query under batch saturation: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("interactive query took %s under batch saturation", elapsed)
	}
	if got, _ := res.Rows[0][0].Float64(); got != 2 {
		t.Errorf("interactive answer = %g, want 2", got)
	}

	// Nothing was dropped: releasing the holder admits the queued waiter.
	release1()
	<-done1
	if granted := <-waiterDone; !granted {
		t.Error("queued batch waiter was not granted after the holder released")
	}
	s.adm.release(Batch)
}

// TestDoomedDeadlineShedsBeforeEngine pins the shed contract: a request whose
// propagated deadline is already spent answers 503 with a Retry-After hint
// and ZERO engine work — no query counter moves.
func TestDoomedDeadlineShedsBeforeEngine(t *testing.T) {
	s, ts := newRawServer(t, Config{})
	body, _ := json.Marshal(wire.QueryRequest{Query: "SELECT COUNT(*) FROM T"})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(wire.DeadlineHeader, "0")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("doomed request answered %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed 503 lacks a Retry-After hint")
	}
	if got := s.stats.shed.Load(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}
	if got := s.stats.classes[Interactive].shed.Load(); got != 1 {
		t.Errorf("interactive shed counter = %d, want 1", got)
	}
	for vis := range s.stats.queries {
		if n := s.stats.queries[vis].Load(); n != 0 {
			t.Errorf("doomed request reached the engine: queries[%d] = %d", vis, n)
		}
	}
	if got := s.stats.classes[Interactive].admitted.Load(); got != 0 {
		t.Errorf("doomed request was admitted (%d), want shed before admission", got)
	}
}

// TestEstimateSheddingRefusesUnmeetableDeadlines: once the class EWMA says a
// deadline cannot be met, the request sheds up front; disabling the margin
// via ApplyQoS admits it again.
func TestEstimateSheddingRefusesUnmeetableDeadlines(t *testing.T) {
	s, ts := newRawServer(t, Config{})
	// Prime the interactive estimate at ~10s.
	for i := 0; i < 8; i++ {
		s.stats.classes[Interactive].observe(10 * time.Second)
	}
	doomed := func() *http.Response {
		body, _ := json.Marshal(wire.QueryRequest{Query: "SELECT COUNT(*) FROM Nowhere"})
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(wire.DeadlineHeader, "50") // 50ms budget vs ~10s estimate
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := doomed(); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unmeetable deadline answered %d, want 503", resp.StatusCode)
	} else if resp.Header.Get("Retry-After") == "" {
		t.Error("estimate shed lacks Retry-After")
	}
	if s.stats.shed.Load() == 0 {
		t.Error("estimate shed not counted")
	}

	// A negative margin disables estimate-based shedding: the same request
	// is admitted (and fails on the missing relation instead — the engine
	// DID see it).
	s.ApplyQoS(QoSConfig{ShedMargin: -1})
	if resp := doomed(); resp.StatusCode == http.StatusServiceUnavailable {
		t.Errorf("margin<0 still shed (status %d)", resp.StatusCode)
	}
}

// TestApplyQoSMidFlightDropsNothing reloads the limits while a request is
// executing and another is queued: the in-flight request completes, the
// queued one is granted by the raised limit — nothing is dropped.
func TestApplyQoSMidFlightDropsNothing(t *testing.T) {
	s, _ := newTestServer(t, Config{QoS: QoSConfig{MaxConcurrent: 1}, RequestTimeout: 5 * time.Second})
	release, done := blockIn(t, s, Interactive)
	defer release()

	waiterDone := make(chan bool, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		waiterDone <- s.adm.acquire(ctx, Interactive)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.queueDepth(Interactive) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Reload mid-flight: the raised limit must admit the waiter immediately,
	// without the in-flight request releasing first.
	s.ApplyQoS(QoSConfig{MaxConcurrent: 4, BatchMaxConcurrent: 2})
	select {
	case granted := <-waiterDone:
		if !granted {
			t.Fatal("queued waiter dropped across the reload")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued waiter not granted after the limit was raised")
	}
	s.adm.release(Interactive)

	// The request admitted under the old limit completes untouched.
	release()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request did not complete after the reload")
	}
	if got := s.QoS().MaxConcurrent; got != 4 {
		t.Errorf("QoS().MaxConcurrent = %d, want 4", got)
	}

	// Shrinking below the current in-flight count must not panic or drop:
	// admissions throttle, drains proceed.
	s.ApplyQoS(QoSConfig{MaxConcurrent: 1})
	if got := s.QoS().MaxConcurrent; got != 1 {
		t.Errorf("QoS().MaxConcurrent = %d, want 1", got)
	}
}

// TestClientCancelCountsCancelledNotTimeout pins the counter taxonomy: a
// client abandoning /v1/query mid-execution lands in "cancelled", never in
// "timeouts" (which is reserved for server-side deadline expiry).
func TestClientCancelCountsCancelledNotTimeout(t *testing.T) {
	db := mosaic.Open(slowOpts())
	if err := db.Exec(worldScript); err != nil {
		t.Fatal(err)
	}
	s, c := newTestServer(t, Config{DB: db, RequestTimeout: time.Minute})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	if _, err := c.QueryContext(ctx, "SELECT OPEN grp, COUNT(*) FROM World GROUP BY grp"); err == nil {
		t.Fatal("cancelled query should fail")
	}
	// The engine unwinds asynchronously; the cancellation is counted when it
	// does.
	deadline := time.Now().Add(10 * time.Second)
	for s.stats.cancelled.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("cancelled counter never moved")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := s.stats.timeouts.Load(); got != 0 {
		t.Errorf("client cancellation counted as %d timeout(s)", got)
	}
}

// TestInvalidPriorityHeaderIs400: a malformed class is the client's bug and
// must not be silently coerced.
func TestInvalidPriorityHeaderIs400(t *testing.T) {
	_, ts := newRawServer(t, Config{})
	body, _ := json.Marshal(wire.QueryRequest{Query: "SELECT COUNT(*) FROM T"})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(wire.PriorityHeader, "urgent")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad priority answered %d, want 400", resp.StatusCode)
	}
}

// TestPlanCacheHitsAndDDLInvalidation: repeated identical query texts hit the
// server-side plan cache (visible in /statsz), and a DML between executions
// yields a fresh, correct answer — the generation counter invalidates the
// cached resolution, never the correctness.
func TestPlanCacheHitsAndDDLInvalidation(t *testing.T) {
	_, c := newTestServer(t, Config{})
	if err := c.Exec("CREATE TABLE T (a INT); INSERT INTO T VALUES (1), (2), (3)"); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT COUNT(*) FROM T"
	for i := 0; i < 3; i++ {
		res, err := c.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := res.Rows[0][0].Float64(); got != 3 {
			t.Fatalf("run %d: COUNT(*) = %g, want 3", i, got)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.PlanCache == nil {
		t.Fatal("/statsz lacks the plan_cache block")
	}
	if st.PlanCache.Hits < 2 {
		t.Errorf("plan cache hits = %d after 3 identical queries, want ≥ 2", st.PlanCache.Hits)
	}
	if st.PlanCache.Size == 0 {
		t.Error("plan cache reports size 0 after caching a query")
	}

	// Mutate between cached executions: the answer must track the data.
	if err := c.Exec("INSERT INTO T VALUES (4), (5)"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res.Rows[0][0].Float64(); got != 5 {
		t.Errorf("post-DML cached query = %g, want 5 (stale plan served?)", got)
	}

	// DDL between cached executions (generation bump): still fresh.
	if err := c.Exec("CREATE TABLE U (b INT); INSERT INTO U VALUES (9)"); err != nil {
		t.Fatal(err)
	}
	res, err = c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res.Rows[0][0].Float64(); got != 5 {
		t.Errorf("query after unrelated DDL = %g, want 5", got)
	}
}

// TestCancelStormDoesNotPolluteEWMA pins the shedder's blind spot fix: a
// storm of fast client cancellations must NOT be recorded as completions.
// Each abandoned request unwinds in milliseconds, so feeding those into the
// class EWMA drags the estimate toward zero and disarms estimate-based
// shedding exactly when real completions are slow. Before the fix, run()'s
// ctx.Done branch observed every cancellation; this test fails there.
func TestCancelStormDoesNotPolluteEWMA(t *testing.T) {
	s, _ := newRawServer(t, Config{RequestTimeout: time.Minute})
	cl := Interactive

	// Seed the estimate with healthy-but-slow completions at ~80ms.
	const seed = 80 * time.Millisecond
	for i := 0; i < 16; i++ {
		s.stats.classes[cl].observe(seed)
	}
	before := s.stats.classes[cl].estimate()
	if before < seed/2 {
		t.Fatalf("seeded estimate = %s, want ≈%s", before, seed)
	}

	// Storm: 32 requests admitted, then cancelled by the client within
	// milliseconds while the handler is still parked.
	for i := 0; i < 32; i++ {
		gate := make(chan struct{})
		cctx, cancel := context.WithCancel(context.Background())
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/query", nil).WithContext(cctx)
		go func() {
			deadline := time.Now().Add(5 * time.Second)
			for s.adm.inflightCount(cl) == 0 {
				if time.Now().After(deadline) {
					return
				}
				time.Sleep(100 * time.Microsecond)
			}
			cancel()
		}()
		s.run(rec, req, cl, func(ctx context.Context) (any, error) {
			<-gate
			return "ok", nil
		})
		close(gate)
		cancel()
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("storm request %d answered %d, want 503 (client cancelled)", i, rec.Code)
		}
		// Let the parked handler goroutine release its slot before the next
		// iteration's watcher polls inflight.
		deadline := time.Now().Add(5 * time.Second)
		for s.adm.inflightCount(cl) != 0 {
			if time.Now().After(deadline) {
				t.Fatal("storm slot never released")
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	after := s.stats.classes[cl].estimate()
	if after < before/2 {
		t.Fatalf("cancel storm dragged the EWMA from %s to %s — the shedder is disarmed", before, after)
	}
	if got := s.stats.classes[cl].timeouts.Load(); got != 0 {
		t.Errorf("client cancellations counted as %d timeout(s)", got)
	}
}

// TestQoSConfigDefaults pins the clamping rules the reload path relies on.
func TestQoSConfigDefaults(t *testing.T) {
	q := QoSConfig{}.withDefaults()
	if q.MaxConcurrent != 64 || q.BatchMaxConcurrent != 32 || q.ShedMargin != 1.0 {
		t.Errorf("zero config defaults = %+v", q)
	}
	q = QoSConfig{MaxConcurrent: 4, BatchMaxConcurrent: 9}.withDefaults()
	if q.BatchMaxConcurrent != 3 {
		t.Errorf("batch limit not clamped below total: %+v", q)
	}
	q = QoSConfig{MaxConcurrent: 1}.withDefaults()
	if q.BatchMaxConcurrent != 1 {
		t.Errorf("single-slot config = %+v, want batch 1", q)
	}
	q = QoSConfig{ShedMargin: -1}.withDefaults()
	if q.ShedMargin >= 0 {
		t.Errorf("negative margin must survive defaults: %+v", q)
	}
}
