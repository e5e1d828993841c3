// Follower replication tests against a real primary serving process: full
// bootstrap, delta catch-up (failed statements included), truncation
// fallback, and divergence recovery — each ending in a byte-identical dump.
package repl_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"mosaic"
	"mosaic/client"
	"mosaic/internal/mechanism"
	"mosaic/internal/repl"
	"mosaic/internal/server"
	"mosaic/internal/sql"
	"mosaic/internal/wire"
)

func testOpts() *mosaic.Options { return &mosaic.Options{Seed: 3, OpenSamples: 3} }

// startPrimary boots a primary DB behind a real HTTP serving layer.
func startPrimary(t *testing.T, opts *mosaic.Options) (*mosaic.DB, string) {
	t.Helper()
	db := mosaic.Open(opts)
	srv, err := server.New(server.Config{DB: db, RequestTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return db, ts.URL
}

// newFollower creates a follower DB + Follower over the primary URL.
func newFollower(t *testing.T, primary string, opts *mosaic.Options) (*mosaic.DB, *repl.Follower) {
	t.Helper()
	db := mosaic.Open(opts)
	f, err := repl.NewFollower(repl.Config{
		Primary:      primary,
		DB:           db,
		PollInterval: 10 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return db, f
}

// dumpsEqual requires byte-identical dumps — the replication contract.
func dumpsEqual(t *testing.T, stage string, primary, follower *mosaic.DB) {
	t.Helper()
	want, err := primary.Dump()
	if err != nil {
		t.Fatal(err)
	}
	got, err := follower.Dump()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("%s: follower dump diverged from primary\nfollower:\n%s\nprimary:\n%s", stage, got, want)
	}
}

func TestFollowerBootstrapAndDeltaCatchUp(t *testing.T) {
	opts := testOpts()
	pdb, url := startPrimary(t, opts)
	if err := pdb.Exec("CREATE TABLE T (k TEXT, v INT); INSERT INTO T VALUES ('a', 1), ('b', 2)"); err != nil {
		t.Fatal(err)
	}
	fdb, f := newFollower(t, url, opts)
	if err := f.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	dumpsEqual(t, "bootstrap", pdb, fdb)
	if g, ok := f.ReplicatedGeneration(); !ok || g != pdb.Engine().Generation() {
		t.Fatalf("after bootstrap: replicated generation (%d, %v), primary at %d", g, ok, pdb.Engine().Generation())
	}

	// Primary moves on — including a FAILING statement, which the follower
	// must replay (it bumps the generation and may leave deterministic
	// partial effects) and agree on the outcome.
	if err := pdb.Exec("INSERT INTO T VALUES ('c', 3)"); err != nil {
		t.Fatal(err)
	}
	if err := pdb.Exec("INSERT INTO Missing VALUES (1)"); err == nil {
		t.Fatal("insert into a missing table succeeded on the primary")
	}
	if err := pdb.Exec("CREATE TABLE U (x INT); INSERT INTO U VALUES (7), (8)"); err != nil {
		t.Fatal(err)
	}
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	dumpsEqual(t, "delta catch-up", pdb, fdb)
	st := f.Stats()
	if st.Generation != pdb.Engine().Generation() {
		t.Errorf("follower at generation %d, primary at %d", st.Generation, pdb.Engine().Generation())
	}
	if st.FullSyncs != 1 || st.DeltaSyncs != 1 || st.AppliedStmts != 4 {
		t.Errorf("stats = full %d / delta %d / applied %d, want 1/1/4", st.FullSyncs, st.DeltaSyncs, st.AppliedStmts)
	}
	// Caught up: another round is a cheap no-op, not a re-sync.
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.DeltaSyncs != 1 {
		t.Errorf("caught-up round re-synced: delta_syncs = %d", st.DeltaSyncs)
	}
}

// TestFollowerTruncationFallsBackToFullBootstrap is the satellite
// regression: a follower that lags past the primary's bounded statement log
// gets 410, re-bootstraps from the full snapshot, and converges anyway.
func TestFollowerTruncationFallsBackToFullBootstrap(t *testing.T) {
	opts := testOpts()
	opts.StmtLogSize = 2
	pdb, url := startPrimary(t, opts)
	if err := pdb.Exec("CREATE TABLE T (v INT)"); err != nil {
		t.Fatal(err)
	}
	fopts := testOpts() // follower keeps the default log size; only engine answers must match
	fdb, f := newFollower(t, url, fopts)
	if err := f.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Far more mutations than the primary retains.
	for i := 0; i < 6; i++ {
		if err := pdb.Exec(fmt.Sprintf("INSERT INTO T VALUES (%d)", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	dumpsEqual(t, "post-truncation", pdb, fdb)
	st := f.Stats()
	if st.Truncations != 1 || st.FullSyncs != 2 {
		t.Errorf("stats = truncations %d / full %d, want 1 / 2 (bootstrap + fallback)", st.Truncations, st.FullSyncs)
	}
	if g, ok := f.ReplicatedGeneration(); !ok || g != pdb.Engine().Generation() {
		t.Errorf("replicated generation (%d, %v), primary at %d", g, ok, pdb.Engine().Generation())
	}
}

// TestFollowerCrossesGoAPIWritesByDelta: primary mutations made through the
// Go API — Ingest, IngestTable, SetMechanism and AddMarginal, each once
// succeeding and once failing — reach the follower as a delta. It neither
// re-bootstraps nor counts a truncation, and it answers as the primary does.
func TestFollowerCrossesGoAPIWritesByDelta(t *testing.T) {
	opts := testOpts()
	pdb, url := startPrimary(t, opts)
	if err := pdb.Exec(`
		CREATE GLOBAL POPULATION P (g TEXT, v INT);
		CREATE SAMPLE S AS (SELECT * FROM P);
		CREATE TABLE T (g TEXT, v INT);
		INSERT INTO T VALUES ('a', 1), ('b', 2);
	`); err != nil {
		t.Fatal(err)
	}
	fdb, f := newFollower(t, url, opts)
	if err := f.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	src, err := pdb.Table("T")
	if err != nil {
		t.Fatal(err)
	}
	m, err := mosaic.NewMarginal("P_g", []string{"g"}, [][]any{{"a", 40}, {"b", 60}})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := sql.ParseExpr("g = 'a'")
	if err != nil {
		t.Fatal(err)
	}
	biased := mechanism.Biased{Pred: pred, PTrue: 0.5, PFalse: 0.25}
	for i, w := range []struct {
		fail bool
		do   func() error
	}{
		{false, func() error { return pdb.Ingest("S", [][]any{{"a", 1}, {"b", 2}, {"a", 3}}) }},
		{true, func() error { return pdb.Ingest("S", [][]any{{"b", 4}, {"b", "x"}}) }},
		{false, func() error { return pdb.Engine().IngestTable("S", src) }},
		{true, func() error { return pdb.Engine().IngestTable("Nope", src) }},
		{false, func() error { return pdb.SetMechanism("S", biased) }},
		{true, func() error { return pdb.SetMechanism("Nope", biased) }},
		{false, func() error { return pdb.AddMarginal("P", m) }},
		{true, func() error { return pdb.AddMarginal("P", m) }},
	} {
		if err := w.do(); (err != nil) != w.fail {
			t.Fatalf("write %d: err = %v, want failure %v", i, err, w.fail)
		}
	}
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	dumpsEqual(t, "post-Go-API", pdb, fdb)
	st := f.Stats()
	if st.Truncations != 0 || st.FullSyncs != 1 || st.DeltaSyncs != 1 {
		t.Errorf("stats = truncations %d / full %d / delta %d, want 0 / 1 / 1", st.Truncations, st.FullSyncs, st.DeltaSyncs)
	}
	if g, ok := f.ReplicatedGeneration(); !ok || g != pdb.Engine().Generation() {
		t.Errorf("replicated generation (%d, %v), primary at %d", g, ok, pdb.Engine().Generation())
	}
	for _, q := range []string{
		"SELECT SEMI-OPEN COUNT(*) FROM P",
		"SELECT SEMI-OPEN g, COUNT(*) FROM P GROUP BY g ORDER BY g",
		"EXPLAIN SELECT SEMI-OPEN COUNT(*) FROM P",
	} {
		want, errP := pdb.Run(q)
		got, errF := fdb.Run(q)
		if errP != nil || errF != nil || got[0].String() != want[0].String() {
			t.Errorf("%s: follower %v (%v), primary %v (%v)", q, got, errF, want, errP)
		}
	}
}

// TestFollowerDivergenceRebootstraps: when replay disagrees with the
// primary's recorded outcome (here: the follower's state was corrupted out
// of band), the follower refuses to limp along and rebuilds from a full
// snapshot.
func TestFollowerDivergenceRebootstraps(t *testing.T) {
	opts := testOpts()
	pdb, url := startPrimary(t, opts)
	if err := pdb.Exec("CREATE TABLE T (v INT)"); err != nil {
		t.Fatal(err)
	}
	fdb, f := newFollower(t, url, opts)
	if err := f.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Corrupt the follower out of band: it now holds a table the primary
	// will create next, so replaying that CREATE fails locally while the
	// primary recorded success.
	if err := fdb.Exec("CREATE TABLE D (x INT)"); err != nil {
		t.Fatal(err)
	}
	if err := pdb.Exec("CREATE TABLE D (x INT); INSERT INTO D VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	dumpsEqual(t, "post-divergence", pdb, fdb)
	if st := f.Stats(); st.FullSyncs != 2 {
		t.Errorf("full_syncs = %d, want 2 (divergence forces a re-bootstrap)", st.FullSyncs)
	}
}

// TestFollowerPollLoopTracksPrimary: Start's background loop converges on
// primary mutations without explicit SyncOnce calls, and staleness flips
// health (not correctness) once syncs stop succeeding.
func TestFollowerPollLoopTracksPrimary(t *testing.T) {
	opts := testOpts()
	pdb, url := startPrimary(t, opts)
	if err := pdb.Exec("CREATE TABLE T (v INT)"); err != nil {
		t.Fatal(err)
	}
	db := mosaic.Open(opts)
	f, err := repl.NewFollower(repl.Config{
		Primary:      url,
		DB:           db,
		PollInterval: 5 * time.Millisecond,
		StalenessMax: 50 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := pdb.Exec("INSERT INTO T VALUES (1), (2), (3)"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g, ok := f.ReplicatedGeneration(); ok && g == pdb.Engine().Generation() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("poll loop never caught up: follower at %d, primary at %d", f.Generation(), pdb.Engine().Generation())
		}
		time.Sleep(2 * time.Millisecond)
	}
	dumpsEqual(t, "poll catch-up", pdb, db)
	if f.Stats().Stale {
		t.Error("an actively syncing follower reports stale")
	}
	f.Close()
	// With the loop stopped, staleness must set in.
	time.Sleep(80 * time.Millisecond)
	if !f.Stats().Stale {
		t.Error("follower not stale after syncs stopped for > StalenessMax")
	}
}

// TestShortSnapshotBootstrapsNothing: a primary whose snapshot body ends
// before its Content-Length leaves the follower as it was — no restored
// state, no adopted generation, no full sync counted.
func TestShortSnapshotBootstrapsNothing(t *testing.T) {
	src := mosaic.Open(testOpts())
	if err := src.Exec("CREATE TABLE T (v INT); INSERT INTO T VALUES (1), (2), (3)"); err != nil {
		t.Fatal(err)
	}
	script, err := src.Dump()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(script)))
		w.Header().Set(wire.GenerationHeader, "2")
		w.Header().Set(wire.SnapshotFormatHeader, wire.SnapshotFormat)
		w.WriteHeader(http.StatusOK)
		// Cut after the first statement: the rest would parse as a
		// shorter, valid script.
		w.Write([]byte(script[:strings.Index(script, ";")+1]))
	}))
	defer ts.Close()
	db, f := newFollower(t, ts.URL, testOpts())
	if err := f.Bootstrap(context.Background()); err == nil {
		t.Fatal("Bootstrap from a short snapshot body succeeded")
	}
	if st := f.Stats(); st.Generation != 0 || st.FullSyncs != 0 || st.SyncErrors != 1 {
		t.Errorf("follower after a failed bootstrap: %+v", st)
	}
	if g := db.Engine().Generation(); g != 0 {
		t.Errorf("follower DB at generation %d after a failed bootstrap, want 0", g)
	}
}

// TestFollowerCopyReplaysTheRowsNotTheFileSnapshot: a COPY replicates as
// the rows the primary stored, not as its path. The follower holds the
// primary's rows after the primary's file is rewritten, after a COPY that
// failed part-way too, and crosses both by delta, with no re-bootstrap.
func TestFollowerCopyReplaysTheRowsNotTheFileSnapshot(t *testing.T) {
	opts := testOpts()
	pdb, url := startPrimary(t, opts)
	path := filepath.Join(t.TempDir(), "rows.csv")
	write := func(rows string) {
		if err := os.WriteFile(path, []byte(rows), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := pdb.Exec("CREATE TABLE T (v INT)"); err != nil {
		t.Fatal(err)
	}
	fdb, f := newFollower(t, url, opts)
	if err := f.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	write("1\n2\n")
	if err := pdb.Exec("COPY T FROM '" + path + "'"); err != nil {
		t.Fatal(err)
	}
	write("7\n8\n9\n")
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	dumpsEqual(t, "after COPY", pdb, fdb)
	write("3\nx\n4\n")
	if err := pdb.Exec("COPY T FROM '" + path + "'"); err == nil {
		t.Fatal("COPY of a bad row succeeded")
	}
	write("")
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	dumpsEqual(t, "after a failed COPY", pdb, fdb)
	if n, err := pdb.Scalar("SELECT COUNT(*) FROM T"); err != nil || n != 3 {
		t.Errorf("primary holds %g rows (%v), want 1, 2 and 3", n, err)
	}
	if st := f.Stats(); st.FullSyncs != 1 || st.DeltaSyncs != 2 || st.Generation != pdb.Engine().Generation() {
		t.Errorf("follower stats %+v: want one bootstrap, two deltas, at the primary's generation", st)
	}
}

// TestFollowerRefusesOtherSnapshotFormats: a primary whose snapshot or
// delta answer names no snapshot format, or another one, is refused with a
// *client.FormatError and counted; nothing of the answer is replayed.
func TestFollowerRefusesOtherSnapshotFormats(t *testing.T) {
	src := mosaic.Open(testOpts())
	if err := src.Exec("CREATE TABLE T (v INT); INSERT INTO T VALUES (1), (2)"); err != nil {
		t.Fatal(err)
	}
	script, err := src.Dump()
	if err != nil {
		t.Fatal(err)
	}
	var snapFormat, deltaFormat string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/snapshot/delta" {
			if deltaFormat != "" {
				w.Header().Set(wire.SnapshotFormatHeader, deltaFormat)
			}
			server.WriteJSON(w, http.StatusOK, wire.DeltaResponse{From: 2, Generation: 3,
				Stmts: []wire.DeltaStmt{{Src: "INSERT INTO T VALUES (3)"}}})
			return
		}
		w.Header().Set(wire.GenerationHeader, "2")
		if snapFormat != "" {
			w.Header().Set(wire.SnapshotFormatHeader, snapFormat)
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(script)))
		w.Write([]byte(script))
	}))
	defer ts.Close()
	db, f := newFollower(t, ts.URL, testOpts())
	refused := func(what string, err error, want int64) {
		t.Helper()
		var fe *client.FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("%s: err = %v, want a *client.FormatError", what, err)
		}
		if st := f.Stats(); st.FormatRefusals != want || st.SyncErrors != want {
			t.Errorf("%s: stats %+v, want %d format refusals and sync errors", what, st, want)
		}
	}
	for i, format := range []string{"", "1", "2", "4"} {
		snapFormat = format
		refused(fmt.Sprintf("snapshot format %q", format), f.Bootstrap(context.Background()), int64(i+1))
		if g := db.Engine().Generation(); g != 0 {
			t.Fatalf("snapshot format %q: follower replayed it, generation %d", format, g)
		}
	}
	snapFormat = wire.SnapshotFormat
	if err := f.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	deltaFormat = "2"
	refused("delta format \"2\"", f.SyncOnce(context.Background()), 5)
	if n, err := db.Scalar("SELECT COUNT(*) FROM T"); err != nil || n != 2 || f.Generation() != 2 {
		t.Errorf("follower holds %g rows at generation %d (%v) after a refused delta, want 2 at 2", n, f.Generation(), err)
	}
	deltaFormat = wire.SnapshotFormat
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.Scalar("SELECT COUNT(*) FROM T"); n != 3 || f.Generation() != 3 {
		t.Errorf("follower holds %g rows at generation %d, want 3 at 3", n, f.Generation())
	}
}
