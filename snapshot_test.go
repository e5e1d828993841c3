package mosaic_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mosaic"
)

// buildSnapshotWorld assembles a database exercising every dump feature at
// once: a derived population, a binned marginal, non-unit sample weights,
// and text values with embedded quotes.
func buildSnapshotWorld(t *testing.T) *mosaic.DB {
	t.Helper()
	db := mosaic.Open(snapshotOpts())
	if err := db.Exec(`
		CREATE GLOBAL POPULATION People (name TEXT, region TEXT, age INT);
		CREATE POPULATION North AS (SELECT name, region, age FROM People WHERE region = 'north');
		CREATE SAMPLE S AS (SELECT * FROM People);
		CREATE TABLE Census (region TEXT, n INT);
		CREATE TABLE Ages (age INT, n INT);
	`); err != nil {
		t.Fatal(err)
	}
	if err := db.Ingest("Census", [][]any{{"north", 60}, {"south", 40}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Ingest("Ages", [][]any{
		{10, 25}, {20, 25}, {30, 25}, {40, 25},
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(`
		CREATE METADATA People_M1 AS (SELECT region, n FROM Census);
		CREATE METADATA People_M2 WITH BINS (age 10) AS (SELECT age, n FROM Ages);
	`); err != nil {
		t.Fatal(err)
	}
	rows := [][]any{
		{"Anna", "north", 12}, {"O'Brien", "north", 23}, {"D'Arcy ''quoted''", "south", 34},
		{"Bob", "south", 41}, {"Cleo", "north", 18}, {"Miguel", "north", 29},
		{"Ines", "south", 37}, {"Lee", "north", 44},
	}
	if err := db.Ingest("S", rows); err != nil {
		t.Fatal(err)
	}
	// Non-unit weights on part of the sample.
	if err := db.Exec(`UPDATE SAMPLE S SET WEIGHT = 2.5 WHERE region = 'north'`); err != nil {
		t.Fatal(err)
	}
	return db
}

func snapshotOpts() *mosaic.Options {
	return &mosaic.Options{
		Seed:        5,
		OpenSamples: 3,
		SWG: mosaic.SWGConfig{
			Hidden: []int{16, 16}, Latent: 2, Epochs: 6,
			BatchSize: 64, Projections: 8, StepsPerEpoch: 4,
		},
	}
}

// snapshotQueries covers all three visibilities over both the GP and the
// derived population, plus an auxiliary-table query.
var snapshotQueries = []string{
	"SELECT CLOSED region, COUNT(*) FROM People GROUP BY region ORDER BY region",
	"SELECT CLOSED name FROM People ORDER BY name",
	"SELECT SEMI-OPEN region, COUNT(*) FROM People GROUP BY region ORDER BY region",
	"SELECT SEMI-OPEN COUNT(*) FROM North",
	"SELECT OPEN region, COUNT(*) FROM People GROUP BY region ORDER BY region",
	"SELECT region, n FROM Census ORDER BY region",
}

func renderExact(t *testing.T, db *mosaic.DB, q string) string {
	t.Helper()
	res, err := db.Query(q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
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

func TestSnapshotRestoreAnswerFidelity(t *testing.T) {
	db := buildSnapshotWorld(t)
	before := make(map[string]string, len(snapshotQueries))
	for _, q := range snapshotQueries {
		before[q] = renderExact(t, db, q)
	}

	script, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Restore into the same DB: answers must be byte-identical.
	if err := db.Restore(script); err != nil {
		t.Fatalf("restore: %v\nscript:\n%s", err, script)
	}
	for _, q := range snapshotQueries {
		if got := renderExact(t, db, q); got != before[q] {
			t.Errorf("after in-place restore, %q diverged:\n got %q\nwant %q", q, got, before[q])
		}
	}

	// Restore into a brand-new DB with the same options: same guarantee.
	fresh := mosaic.Open(snapshotOpts())
	if err := fresh.Restore(script); err != nil {
		t.Fatalf("restore into fresh DB: %v", err)
	}
	for _, q := range snapshotQueries {
		if got := renderExact(t, fresh, q); got != before[q] {
			t.Errorf("after fresh restore, %q diverged:\n got %q\nwant %q", q, got, before[q])
		}
	}

	// A second snapshot of the restored state reproduces the script exactly:
	// the dump is a fixpoint.
	again, err := fresh.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if again != script {
		t.Errorf("snapshot of restored DB differs from original snapshot:\n%s\n---\n%s", again, script)
	}
}

func TestSnapshotPreservesWeightsQuotesAndBins(t *testing.T) {
	db := buildSnapshotWorld(t)
	script, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"COPY S (name, region, age, WEIGHT) FROM STDIN;\n'Anna'\t'north'\t12\t2.5\n", // non-unit weights survive, per row
		"'O''Brien'",               // embedded quote doubled
		"'D''Arcy ''''quoted'''''", // doubled quotes re-doubled
		"WITH BINS (age 10)",       // binned marginal
		"CREATE POPULATION North",  // derived population
	} {
		if !strings.Contains(script, want) {
			t.Errorf("snapshot script missing %q:\n%s", want, script)
		}
	}
}

func TestSaveLoadSnapshotFile(t *testing.T) {
	db := buildSnapshotWorld(t)
	before := renderExact(t, db, snapshotQueries[0])
	path := filepath.Join(t.TempDir(), "snap.sql")
	if err := db.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	// The write is atomic: no temp files linger next to the snapshot.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "snap.sql" {
			t.Errorf("unexpected file %q next to snapshot", e.Name())
		}
	}

	fresh := mosaic.Open(snapshotOpts())
	if err := fresh.LoadSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if got := renderExact(t, fresh, snapshotQueries[0]); got != before {
		t.Errorf("loaded snapshot answers diverged:\n got %q\nwant %q", got, before)
	}

	// Saving over an existing snapshot replaces it atomically.
	if err := fresh.Exec(`INSERT INTO Census VALUES ('west', 5)`); err != nil {
		t.Fatal(err)
	}
	if err := fresh.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	again := mosaic.Open(snapshotOpts())
	if err := again.LoadSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if got, _ := again.Scalar("SELECT COUNT(*) FROM Census"); got != 3 {
		t.Errorf("re-saved snapshot has %g census rows, want 3", got)
	}

	if err := db.LoadSnapshot(filepath.Join(t.TempDir(), "missing.sql")); err == nil {
		t.Error("loading a missing snapshot should fail")
	}
}

func TestRestoreFailureLeavesStateUntouched(t *testing.T) {
	db := buildSnapshotWorld(t)
	before := renderExact(t, db, snapshotQueries[0])
	if err := db.Restore("CREATE TABLE Broken (x INT); INSERT INTO Broken VALUES ('not an int')"); err == nil {
		t.Fatal("restore of a broken script should fail")
	}
	if got := renderExact(t, db, snapshotQueries[0]); got != before {
		t.Errorf("failed restore mutated state:\n got %q\nwant %q", got, before)
	}
}
