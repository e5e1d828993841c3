// Replication-surface tests: the snapshot endpoints a follower bootstraps
// and catches up from, and the follower-mode serving contract (read-only,
// generation-gated reads against the replicated counter).
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mosaic"
	"mosaic/client"
	"mosaic/internal/wire"
)

// TestSnapshotEndpointBootstrapsIdenticalState: GET /v1/snapshot returns a
// script + generation pair; restoring the script into a fresh same-Options
// DB answers byte-identically, and the generation matches /statsz. On the
// wire the script is the text/plain body itself, with its Content-Length,
// and the generation is a header.
func TestSnapshotEndpointBootstrapsIdenticalState(t *testing.T) {
	s, c := newTestServer(t, Config{})
	if err := c.Exec(worldScript); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/snapshot", nil))
	h := rec.Header()
	if want, _, _ := s.db.Engine().DumpWithGeneration(); rec.Code != http.StatusOK ||
		!strings.HasPrefix(h.Get("Content-Type"), "text/plain") ||
		h.Get("Content-Length") != strconv.Itoa(len(want)) || rec.Body.String() != want ||
		h.Get(wire.GenerationHeader) != strconv.FormatUint(s.db.Engine().Generation(), 10) {
		t.Errorf("GET /v1/snapshot: %d, headers %v, %d-byte body; want 200, a text/plain %d-byte script, its generation",
			rec.Code, h, rec.Body.Len(), len(want))
	}
	snap, err := c.SnapshotContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Generation != st.Generation {
		t.Errorf("snapshot generation %d != statsz generation %d", snap.Generation, st.Generation)
	}
	replica := mosaic.Open(testOpts())
	if err := replica.Restore(snap.Script); err != nil {
		t.Fatalf("restore snapshot: %v", err)
	}
	for _, q := range worldQueries {
		want, err := c.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := replica.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if render(got) != render(want) {
			t.Errorf("%s: bootstrapped replica diverged from primary", q)
		}
	}
}

// TestSnapshotDeltaTruncationIs410 is the satellite regression: a follower
// asking for a generation the bounded log no longer retains gets 410 Gone
// (the re-bootstrap signal), never a wrong or empty suffix — while a range
// inside the window serves the exact statement suffix.
func TestSnapshotDeltaTruncationIs410(t *testing.T) {
	opts := testOpts()
	opts.StmtLogSize = 3
	_, c := newTestServer(t, Config{DB: mosaic.Open(opts)})
	if err := c.Exec("CREATE TABLE T (v INT)"); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	base := st.Generation
	for i := 0; i < 6; i++ {
		if err := c.Exec(fmt.Sprintf("INSERT INTO T VALUES (%d)", i)); err != nil {
			t.Fatal(err)
		}
	}
	_, err = c.SnapshotDeltaContext(context.Background(), base)
	var re *client.RemoteError
	if !errors.As(err, &re) || re.StatusCode != http.StatusGone {
		t.Fatalf("delta past the window: err = %v, want 410 Gone", err)
	}
	delta, err := c.SnapshotDeltaContext(context.Background(), base+3)
	if err != nil {
		t.Fatal(err)
	}
	if len(delta.Stmts) != 3 || delta.Generation != base+6 {
		t.Errorf("in-window delta = %d stmts to gen %d, want 3 to %d", len(delta.Stmts), delta.Generation, base+6)
	}
	for i, s := range delta.Stmts {
		want := fmt.Sprintf("INSERT INTO T VALUES (%d)", i+3)
		if s.Src != want || s.Failed {
			t.Errorf("delta[%d] = %+v, want Src %q", i, s, want)
		}
	}
}

// TestSnapshotNowRacesExecAndSnapshotFetch hammers one server with
// concurrent /v1/exec mutations, persistence snapshots (SnapshotNow), and
// replication snapshot fetches under -race: the engine write lock plus the
// dump read lock must keep every observed (script, generation) pair
// consistent — a fetched script restored elsewhere must replay cleanly.
func TestSnapshotNowRacesExecAndSnapshotFetch(t *testing.T) {
	dir := t.TempDir()
	s, c := newTestServer(t, Config{
		SnapshotPath:     filepath.Join(dir, "state.sql"),
		SnapshotInterval: time.Hour, // only explicit SnapshotNow calls
	})
	if err := c.Exec("CREATE TABLE R (v INT)"); err != nil {
		t.Fatal(err)
	}
	const rounds = 25
	var wg sync.WaitGroup
	errs := make([]error, 3)
	wg.Add(3)
	go func() { // writer
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if err := c.Exec(fmt.Sprintf("INSERT INTO R VALUES (%d)", i)); err != nil {
				errs[0] = err
				return
			}
		}
	}()
	go func() { // persistence snapshots
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if err := s.SnapshotNow(); err != nil {
				errs[1] = err
				return
			}
		}
	}()
	go func() { // replication bootstraps
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			snap, err := c.SnapshotContext(context.Background())
			if err != nil {
				errs[2] = err
				return
			}
			replica := mosaic.Open(testOpts())
			if err := replica.Restore(snap.Script); err != nil {
				errs[2] = fmt.Errorf("snapshot at generation %d does not replay: %v", snap.Generation, err)
				return
			}
		}
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
}

// stubFollower is a canned server.FollowerState for serving-layer tests.
type stubFollower struct {
	gen   uint64
	ok    bool
	stats wire.FollowerStats
}

func (f *stubFollower) ReplicatedGeneration() (uint64, bool) { return f.gen, f.ok }
func (f *stubFollower) Stats() wire.FollowerStats            { return f.stats }

// TestFollowerModeRefusesWritesAndSnapshotServing: a follower-mode server
// answers 403 to /v1/exec (read-only) and to the snapshot endpoints (not a
// replication source), reports the replicated generation in /statsz, and
// refuses generation-checked reads at the wrong generation with 409.
func TestFollowerModeRefusesWritesAndSnapshotServing(t *testing.T) {
	db := mosaic.Open(testOpts())
	if err := db.Exec(worldScript); err != nil {
		t.Fatal(err)
	}
	fs := &stubFollower{gen: 42, ok: true, stats: wire.FollowerStats{Primary: "http://primary:7171", Generation: 42}}
	_, c := newTestServer(t, Config{DB: db, Follower: fs})

	var re *client.RemoteError
	if err := c.Exec("CREATE TABLE W (v INT)"); !errors.As(err, &re) || re.StatusCode != http.StatusForbidden {
		t.Errorf("exec on a follower: err = %v, want 403", err)
	}
	if _, err := c.SnapshotContext(context.Background()); !errors.As(err, &re) || re.StatusCode != http.StatusForbidden {
		t.Errorf("snapshot from a follower: err = %v, want 403", err)
	}
	if _, err := c.SnapshotDeltaContext(context.Background(), 0); !errors.As(err, &re) || re.StatusCode != http.StatusForbidden {
		t.Errorf("delta from a follower: err = %v, want 403", err)
	}

	// Plain reads still serve.
	if _, err := c.Query("SELECT CLOSED COUNT(*) FROM World"); err != nil {
		t.Errorf("read on a follower: %v", err)
	}
	// /statsz reports the REPLICATED generation, not the local counter.
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Generation != 42 || st.Follower == nil || st.Follower.Primary != "http://primary:7171" {
		t.Errorf("follower statsz = gen %d, follower %+v; want replicated gen 42", st.Generation, st.Follower)
	}

	// Generation-checked reads: right generation answers, wrong answers 409,
	// and mid-apply (not-ok) answers 409 regardless.
	q := &wire.QueryRequest{Query: "SELECT CLOSED COUNT(*) FROM World", Generation: 42, CheckGeneration: true}
	if _, err := c.QueryRawContext(context.Background(), q); err != nil {
		t.Errorf("generation-checked read at the replicated generation: %v", err)
	}
	q.Generation = 41
	if _, err := c.QueryRawContext(context.Background(), q); !errors.As(err, &re) || re.StatusCode != http.StatusConflict {
		t.Errorf("read at a stale generation: err = %v, want 409", err)
	}
	fs.ok = false
	q.Generation = 42
	if _, err := c.QueryRawContext(context.Background(), q); !errors.As(err, &re) || re.StatusCode != http.StatusConflict {
		t.Errorf("read while a delta is mid-apply: err = %v, want 409", err)
	}
}

// TestFollowerHealthReportsStaleness: /healthz on a follower carries the
// replication stats and flips to degraded when the follower is stale.
func TestFollowerHealthReportsStaleness(t *testing.T) {
	fs := &stubFollower{gen: 7, ok: true, stats: wire.FollowerStats{Primary: "http://p", Generation: 7}}
	_, c := newTestServer(t, Config{Follower: fs})
	h, err := c.HealthContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Degraded() || h.Follower == nil || h.Follower.Generation != 7 {
		t.Errorf("healthy follower health = %+v", h)
	}
	fs.stats.Stale = true
	h, err = c.HealthContext(context.Background())
	if err != nil {
		t.Fatalf("a stale follower must still answer health: %v", err)
	}
	if !h.Degraded() {
		t.Errorf("stale follower not reported degraded: %+v", h)
	}
}
