package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mosaic"
	"mosaic/client"
	"mosaic/internal/value"
	"mosaic/internal/wire"
)

func testOpts() *mosaic.Options {
	return &mosaic.Options{
		Seed:        3,
		OpenSamples: 3,
		SWG: mosaic.SWGConfig{
			Hidden: []int{16, 16}, Latent: 2, Epochs: 8,
			BatchSize: 128, Projections: 12, StepsPerEpoch: 4,
		},
	}
}

const worldScript = `
	CREATE GLOBAL POPULATION World (grp TEXT, v INT);
	CREATE SAMPLE S AS (SELECT * FROM World WHERE grp = 'a');
	CREATE TABLE Truth (grp TEXT, v INT, n INT);
	INSERT INTO Truth VALUES ('a', 1, 40), ('b', 2, 60);
	CREATE METADATA World_M1 AS (SELECT grp, n FROM Truth);
	CREATE METADATA World_M2 AS (SELECT v, n FROM Truth);
	INSERT INTO S VALUES ('a', 1), ('a', 1), ('a', 1), ('a', 1), ('a', 1),
	                     ('a', 1), ('a', 1), ('a', 1), ('a', 1), ('a', 1);
`

var worldQueries = []string{
	"SELECT CLOSED COUNT(*) FROM World",
	"SELECT SEMI-OPEN grp, COUNT(*) FROM World GROUP BY grp ORDER BY grp",
	"SELECT OPEN grp, COUNT(*) FROM World GROUP BY grp ORDER BY grp",
}

func render(res *mosaic.Result) string {
	var b strings.Builder
	b.WriteString(strings.Join(res.Columns, ","))
	for _, row := range res.Rows {
		b.WriteByte('\n')
		for _, v := range row {
			b.WriteString(v.HashKey())
			b.WriteByte('\x1f')
		}
	}
	return b.String()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *client.Client) {
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
	return s, client.New(ts.URL)
}

func TestNetworkAnswersMatchInProcess(t *testing.T) {
	_, c := newTestServer(t, Config{})
	if err := c.Exec(worldScript); err != nil {
		t.Fatal(err)
	}
	// The reference engine: identical options, identical statement stream.
	ref := mosaic.Open(testOpts())
	if err := ref.Exec(worldScript); err != nil {
		t.Fatal(err)
	}
	for _, q := range worldQueries {
		got, err := c.Query(q)
		if err != nil {
			t.Fatalf("network %q: %v", q, err)
		}
		want, err := ref.Query(q)
		if err != nil {
			t.Fatalf("in-process %q: %v", q, err)
		}
		if render(got) != render(want) {
			t.Errorf("%q over HTTP diverged:\n got %q\nwant %q", q, render(got), render(want))
		}
	}
}

func TestRunReturnsPerStatementResults(t *testing.T) {
	_, c := newTestServer(t, Config{})
	results, err := c.Run(`
		CREATE TABLE T (a INT);
		INSERT INTO T VALUES (1), (2), (3);
		SELECT COUNT(*) FROM T;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 || results[0] != nil || results[1] != nil || results[2] == nil {
		t.Fatalf("results = %v, want [nil nil result]", results)
	}
	if results[2].Rows[0][0].HashKey() != value.Float(3).HashKey() {
		t.Errorf("COUNT(*) over exec = %s, want 3", results[2].Rows[0][0])
	}
}

func TestExplainHealthStats(t *testing.T) {
	_, c := newTestServer(t, Config{})
	if err := c.Health(); err != nil {
		t.Fatalf("health: %v", err)
	}
	if err := c.Exec(worldScript); err != nil {
		t.Fatal(err)
	}
	plan, err := c.Explain("SELECT OPEN COUNT(*) FROM World")
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	var found bool
	for _, row := range plan.Rows {
		if row[0].AsText() == "technique" && strings.Contains(row[1].AsText(), "M-SWG") {
			found = true
		}
	}
	if !found {
		t.Errorf("explain plan lacks M-SWG technique row: %v", plan.Rows)
	}

	for _, q := range worldQueries {
		if _, err := c.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Query("SELECT nope FROM Nowhere"); err == nil {
		t.Error("query on missing relation should fail")
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, vis := range []string{"closed", "semi-open", "open"} {
		v := st.Visibilities[vis]
		if v.Queries != 1 {
			t.Errorf("stats[%s].Queries = %d, want 1", vis, v.Queries)
		}
		if v.Latency.Count != 1 {
			t.Errorf("stats[%s].Latency.Count = %d, want 1", vis, v.Latency.Count)
		}
	}
	if st.QueryErrors != 1 {
		t.Errorf("QueryErrors = %d, want 1", st.QueryErrors)
	}
	if st.Execs != 1 {
		t.Errorf("Execs = %d, want 1", st.Execs)
	}
	if st.Explains != 1 {
		t.Errorf("Explains = %d, want 1", st.Explains)
	}
}

// TestStatsModelCache pins the /statsz model_cache block: absent until an
// OPEN or SEMI-OPEN read has run, then counting trainings, fits and hits —
// and a write that changes none of a model's inputs shows up as hits, not as
// another training.
func TestStatsModelCache(t *testing.T) {
	_, c := newTestServer(t, Config{})
	if err := c.Exec(worldScript); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(worldQueries[0]); err != nil { // CLOSED
		t.Fatal(err)
	}
	if st, err := c.Stats(); err != nil {
		t.Fatal(err)
	} else if st.ModelCache != nil {
		t.Errorf("/statsz reports model_cache %+v before any OPEN or SEMI-OPEN read", st.ModelCache)
	}
	for round := 0; round < 2; round++ {
		for _, q := range worldQueries {
			if _, err := c.Query(q); err != nil {
				t.Fatal(err)
			}
		}
		// Re-declaring a marginal with the cells it had changes no input.
		if err := c.Exec("DROP METADATA World_M2; CREATE METADATA World_M2 AS (SELECT v, n FROM Truth)"); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ModelCache == nil {
		t.Fatal("/statsz lacks the model_cache block")
	}
	if mc := *st.ModelCache; mc.Trained != 1 || mc.Fitted != 1 || mc.Hits != 2 || mc.Revalidated != 2 {
		t.Errorf("model_cache = %+v, want 1 trained, 1 fitted, 2 hits, 2 revalidated", mc)
	}
}

// TestStatsShardCounters pins the /statsz sharding block: absent on an
// unsharded engine, and populated with per-shard scan counters once a
// sharded engine has served a CLOSED aggregate.
func TestStatsShardCounters(t *testing.T) {
	_, c := newTestServer(t, Config{})
	if st, err := c.Stats(); err != nil {
		t.Fatal(err)
	} else if st.Sharding != nil {
		t.Errorf("unsharded /statsz reports sharding block %+v", st.Sharding)
	}

	opts := testOpts()
	opts.Shards = 2
	_, c = newTestServer(t, Config{DB: mosaic.Open(opts)})
	if err := c.Exec(`
		CREATE TABLE T (a INT);
		INSERT INTO T VALUES (1), (2), (3);
	`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("SELECT COUNT(*), SUM(a) FROM T"); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Sharding == nil {
		t.Fatal("sharded /statsz lacks the sharding block")
	}
	if st.Sharding.Shards != 2 || len(st.Sharding.Scans) != 2 || len(st.Sharding.Rows) != 2 {
		t.Fatalf("sharding block = %+v, want 2 shards with 2 counter slots each", st.Sharding)
	}
	var scans, rows int64
	for i := range st.Sharding.Scans {
		scans += st.Sharding.Scans[i]
		rows += st.Sharding.Rows[i]
	}
	if scans == 0 || rows != 3 {
		t.Errorf("sharding counters scans=%d rows=%d, want scans>0 rows=3", scans, rows)
	}
}

func TestBadRequests(t *testing.T) {
	_, c := newTestServer(t, Config{})
	// Parse errors arrive as 400s before touching the engine.
	if _, err := c.Query("SELEKT banana"); err == nil {
		t.Error("parse error should fail")
	} else if re, ok := err.(*client.RemoteError); !ok || re.StatusCode != http.StatusBadRequest {
		t.Errorf("parse error = %v, want 400 RemoteError", err)
	}
	if err := c.Exec("CREATE NONSENSE"); err == nil {
		t.Error("bad script should fail")
	}
	if _, err := c.Explain(""); err == nil {
		t.Error("empty explain should fail")
	}
}

func TestAdmissionGateRejectsWhenSaturated(t *testing.T) {
	s, c := newTestServer(t, Config{QoS: QoSConfig{MaxConcurrent: 1}, RequestTimeout: 100 * time.Millisecond})
	if err := c.Exec(`CREATE TABLE T (a INT)`); err != nil {
		t.Fatal(err)
	}
	// Saturate the single slot out-of-band.
	if !s.adm.acquire(context.Background(), Interactive) {
		t.Fatal("could not take the only slot")
	}
	defer s.adm.release(Interactive)
	_, err := c.Query("SELECT COUNT(*) FROM T")
	re, ok := err.(*client.RemoteError)
	if !ok || re.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated query = %v, want 503 RemoteError", err)
	}
	if re.RetryAfter <= 0 {
		t.Errorf("503 without Retry-After hint: %+v", re)
	}
	st, _ := c.Stats()
	if st.Rejected == 0 {
		t.Error("Rejected counter did not move")
	}
	if st.Classes["interactive"].Rejected == 0 {
		t.Error("per-class Rejected counter did not move")
	}
}

func TestRequestTimeoutAnswers504(t *testing.T) {
	s, _ := newTestServer(t, Config{RequestTimeout: 30 * time.Millisecond})
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/x", nil)
	s.run(rec, req, Interactive, func(context.Context) (any, error) {
		time.Sleep(300 * time.Millisecond)
		return "late", nil
	})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("slow request code = %d, want 504", rec.Code)
	}
	if s.stats.timeouts.Load() != 1 {
		t.Errorf("timeouts = %d, want 1", s.stats.timeouts.Load())
	}
}

func TestSnapshotLoopAndBootRestore(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.sql")

	db := mosaic.Open(testOpts())
	s, err := New(Config{DB: db, SnapshotPath: path, SnapshotInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(worldScript); err != nil {
		t.Fatal(err)
	}
	ref, err := db.Query(worldQueries[1])
	if err != nil {
		t.Fatal(err)
	}
	// The background loop must write without being asked.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no snapshot appeared")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A new server over an empty DB boots from the snapshot.
	db2 := mosaic.Open(testOpts())
	s2, err := New(Config{DB: db2, SnapshotPath: path, SnapshotInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := db2.Query(worldQueries[1])
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != render(ref) {
		t.Errorf("boot-restored answer diverged:\n got %q\nwant %q", render(got), render(ref))
	}
}

// TestPartialServesOnlyAggregates: /v1/partial answers CLOSED and SEMI-OPEN
// aggregates with their partial states. Any other query has none, and the
// coordinator never asks for one, so the shard answers 400 instead of a
// "not handled" body the coordinator would have to route around.
func TestPartialServesOnlyAggregates(t *testing.T) {
	_, c := newTestServer(t, Config{})
	if err := c.Exec(worldScript); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"SELECT OPEN grp, COUNT(*) FROM World GROUP BY grp", "SELECT CLOSED grp, v FROM World"} {
		_, err := c.PartialContext(t.Context(), &wire.PartialRequest{Query: q, Shard: 0, Shards: 2})
		if re, ok := err.(*client.RemoteError); !ok || re.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %v, want a 400", q, err)
		}
	}
	for _, q := range []string{"SELECT CLOSED grp, COUNT(v > 0) FROM World GROUP BY grp", "SELECT SEMI-OPEN MAX(grp = 'a') FROM World"} {
		resp, err := c.PartialContext(t.Context(), &wire.PartialRequest{Query: q, Shard: 1, Shards: 2})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if _, err := wire.DecodePartial(resp); err != nil || len(resp.States) == 0 {
			t.Errorf("%s: partial %+v: %v", q, resp, err)
		}
	}
}
