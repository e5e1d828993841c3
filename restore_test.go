package mosaic_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"mosaic"
	"mosaic/internal/core"
)

// TestRestoreKeepsWeightsOfIdenticalTuples: two identical tuples with
// different weights restore with their own weights. The dump used to set
// weights with one UPDATE per distinct weight matched by tuple value, so a
// copy answered 6 where its source answered 4.
func TestRestoreKeepsWeightsOfIdenticalTuples(t *testing.T) {
	db := mosaic.Open(nil)
	if err := db.Exec(`
		CREATE GLOBAL POPULATION P (g TEXT, v INT);
		CREATE SAMPLE S AS (SELECT * FROM P);
		INSERT INTO S VALUES ('a', 1);
		UPDATE SAMPLE S SET WEIGHT = 3;
		INSERT INTO S VALUES ('a', 1);
	`); err != nil {
		t.Fatal(err)
	}
	copyDB := snapshotCopy(t, db)
	for name, d := range map[string]*mosaic.DB{"source": db, "restored": copyDB} {
		if got, err := d.Scalar("SELECT CLOSED COUNT(*) FROM P"); err != nil || got != 4 {
			t.Errorf("%s: CLOSED COUNT(*) = %g, %v; want 4", name, got, err)
		}
	}
}

// snapshotCopy restores db's snapshot into a new DB.
func snapshotCopy(t *testing.T, db *mosaic.DB) *mosaic.DB {
	t.Helper()
	script, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	copyDB := mosaic.Open(nil)
	if err := copyDB.Restore(script); err != nil {
		t.Fatalf("restore: %v\nscript:\n%s", err, script)
	}
	return copyDB
}

// TestSnapshotRestoresSpecialFloats: FLOAT cells and weights that are -0,
// ±Inf or NaN (which SetWeights accepts) come back with the same bits, NaN
// as the canonical NaN. A snapshot holding them used to fail to restore
// ("column "Inf" evaluated without a row") or turned -0 into +0.
func TestSnapshotRestoresSpecialFloats(t *testing.T) {
	negZero, oddNaN := math.Copysign(0, -1), math.Float64frombits(0x7ff8000000000bad)
	specials := []float64{negZero, math.Inf(1), math.Inf(-1), oddNaN, 2.5}
	weights := []float64{negZero, math.Inf(1), oddNaN, 2.5, 1} // -Inf is a negative weight
	db := mosaic.Open(nil)
	if err := db.Exec(`
		CREATE GLOBAL POPULATION P (f FLOAT);
		CREATE SAMPLE S AS (SELECT * FROM P);
		CREATE TABLE T (f FLOAT);
	`); err != nil {
		t.Fatal(err)
	}
	var rows [][]any
	for _, f := range specials {
		rows = append(rows, []any{f})
	}
	for _, rel := range []string{"S", "T"} {
		if err := db.Ingest(rel, rows); err != nil {
			t.Fatal(err)
		}
	}
	s, err := db.Table("S")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetWeights(weights); err != nil {
		t.Fatal(err)
	}
	copyDB := snapshotCopy(t, db)
	canon := func(f float64) uint64 {
		if math.IsNaN(f) {
			return math.Float64bits(math.NaN())
		}
		return math.Float64bits(f)
	}
	for _, rel := range []string{"S", "T"} {
		tb, err := copyDB.Table(rel)
		if err != nil {
			t.Fatal(err)
		}
		cells, err := tb.FloatColumn("f")
		if err != nil {
			t.Fatal(err)
		}
		wts := tb.Weights()
		for i, f := range specials {
			if got := math.Float64bits(cells[i]); got != canon(f) {
				t.Errorf("%s row %d: cell %#x restored as %#x", rel, i, canon(f), got)
			}
			if w := wts[i]; rel == "S" && math.Float64bits(w) != canon(weights[i]) {
				t.Errorf("S row %d: weight %#x restored as %#x", i, canon(weights[i]), math.Float64bits(w))
			}
		}
	}
}

// TestRestoreRetainsNothing: once a restore returns and the caller drops
// the script, the heap holds the restored tables and little else — no
// catalog name, predicate or log entry keeps the multi-MiB script alive —
// and the restored engine's log starts at its generation, so a follower
// asking for a delta from below re-bootstraps as after log eviction.
func TestRestoreRetainsNothing(t *testing.T) {
	db := mosaic.Open(&mosaic.Options{Workers: 1})
	before := heapAfterGC()
	scriptBytes := restoreLongTextScript(t, db, 40000)
	after := heapAfterGC()
	if scriptBytes < 3<<20 {
		t.Fatalf("script is %d bytes; the test needs ≥ 3 MiB", scriptBytes)
	}
	// Payloads and weights at twice their length bound every growth slack.
	tables := 2 * (storedBytes(t, db, "S") + storedBytes(t, db, "T"))
	const slack = 1 << 20
	if grew := int64(after) - int64(before); grew > int64(tables+slack) {
		t.Errorf("heap grew %d B over a restore of a %d B script; tables account for %d B + %d B slack",
			grew, scriptBytes, tables, slack)
	}
	eng := db.Engine()
	g := eng.Generation()
	for _, from := range []uint64{0, g / 2, g - 1} {
		if _, _, err := eng.DeltaScript(from); !errors.Is(err, core.ErrLogTruncated) {
			t.Errorf("DeltaScript(%d) below the restored generation %d: err = %v, want ErrLogTruncated", from, g, err)
		}
	}
	if stmts, cur, err := eng.DeltaScript(g); err != nil || cur != g || len(stmts) != 0 {
		t.Errorf("DeltaScript(%d) = %d statements, %d, %v", g, len(stmts), cur, err)
	}
}

// TestRestoreRetainsNothingOfBlocks: the same for a dump of COPY blocks,
// loaded from a file as mosaic-serve -snapshot loads one. The rows' long
// TEXT values scan as slices of the script; the dictionary keeps copies of
// its 8 distinct values, never the slices, which would keep the script.
func TestRestoreRetainsNothingOfBlocks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blocks.sql")
	scriptBytes := saveLongTextBlocks(t, path, 40000)
	db := mosaic.Open(&mosaic.Options{Workers: 1})
	before := heapAfterGC()
	if err := db.LoadSnapshot(path); err != nil {
		t.Fatal(err)
	}
	after := heapAfterGC()
	tables := 2 * (storedBytes(t, db, "S") + storedBytes(t, db, "T"))
	const slack = 1 << 20
	if grew := int64(after) - int64(before); grew > int64(tables+slack) {
		t.Errorf("heap grew %d B over a restore of a %d B script; tables account for %d B + %d B slack",
			grew, scriptBytes, tables, slack)
	}
}

// saveLongTextBlocks writes to path the dump of restoreLongTextScript's
// rows, COPY blocks, and returns its length.
func saveLongTextBlocks(t *testing.T, path string, n int) int {
	t.Helper()
	src := mosaic.Open(&mosaic.Options{Workers: 1})
	restoreLongTextScript(t, src, n)
	if err := src.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	script, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if blocks := strings.Count(string(script), "FROM STDIN;\n"); len(script) < 3<<20 || blocks < 2*n/1024 {
		t.Fatalf("the dump is %d bytes in %d blocks; the test needs ≥ 3 MiB of blocks", len(script), blocks)
	}
	return len(script)
}

// restoreLongTextScript restores into db a script of n sample rows and n
// table rows whose long texts take ~100 bytes each in the script but 4 in a
// table (a dictionary code), and returns the script's length. The script
// is dead once it returns.
func restoreLongTextScript(t *testing.T, db *mosaic.DB, n int) int {
	t.Helper()
	texts := make([]string, 8)
	for i := range texts {
		texts[i] = fmt.Sprintf("%c%s", 'a'+i, strings.Repeat("long text; kept once in the dictionary ", 3)[:99])
	}
	var b strings.Builder
	b.WriteString("CREATE GLOBAL POPULATION P (k TEXT, x INT);\nCREATE SAMPLE S AS (SELECT * FROM P);\nCREATE TABLE T (k TEXT, x INT);\n")
	for _, rel := range []string{"S", "T"} {
		for r := 0; r < n; r++ {
			if r%500 == 0 {
				b.WriteString("INSERT INTO " + rel + " VALUES ")
			} else {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "('%s', %d)", texts[r%len(texts)], r)
			if r%500 == 499 || r == n-1 {
				b.WriteString(";\n")
			}
		}
	}
	script := b.String()
	if err := db.Restore(script); err != nil {
		t.Fatal(err)
	}
	return len(script)
}

func heapAfterGC() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// storedBytes is the length in bytes of a relation's column payloads, null
// bitmaps and weights.
func storedBytes(t *testing.T, db *mosaic.DB, rel string) int {
	t.Helper()
	tb, err := db.Table(rel)
	if err != nil {
		t.Fatal(err)
	}
	snap := tb.Snapshot()
	n := 8 * len(snap.Weights())
	for i := 0; i < snap.Schema().Len(); i++ {
		c := snap.Col(i)
		n += 8*len(c.Ints) + 8*len(c.Floats) + len(c.Bools) + 4*len(c.Codes) + 8*len(c.Nulls)
	}
	return n
}

// TestRestoreReweightedSampleInLinearTime: a 20k-row sample with 100
// distinct weights restores in well under 5 s, even under -race. With one
// UPDATE … WHERE (tuple) OR (tuple) … per weight the restore was quadratic:
// 8k rows took 14 s.
func TestRestoreReweightedSampleInLinearTime(t *testing.T) {
	db := mosaic.Open(&mosaic.Options{Workers: 1})
	if err := db.Exec(`
		CREATE GLOBAL POPULATION P (g TEXT, x INT);
		CREATE SAMPLE S AS (SELECT * FROM P);
	`); err != nil {
		t.Fatal(err)
	}
	rows := make([][]any, 20000)
	for i := range rows {
		rows[i] = []any{fmt.Sprintf("g%d", i%7), i}
	}
	if err := db.Ingest("S", rows); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(`UPDATE SAMPLE S SET WEIGHT = 1 + x % 100`); err != nil {
		t.Fatal(err)
	}
	script, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	copyDB := mosaic.Open(&mosaic.Options{Workers: 1})
	if err := copyDB.Restore(script); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("restore took %v, want < 5 s", d)
	}
	const q = "SELECT CLOSED g, COUNT(*), SUM(x) FROM P GROUP BY g ORDER BY g"
	want, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := copyDB.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("restored answer:\n%s\nwant:\n%s", got, want)
	}
}

// synthDB80k holds an 80k-row sample of the benchmark's 5-column synthetic
// shape (c10 TEXT, c1k TEXT, c100k TEXT, x INT, y FLOAT), unit weights.
func synthDB80k(b *testing.B) *mosaic.DB {
	b.Helper()
	db := mosaic.Open(&mosaic.Options{Seed: 1, Workers: 1})
	if err := db.Exec(`
		CREATE GLOBAL POPULATION P (c10 TEXT, c1k TEXT, c100k TEXT, x INT, y FLOAT);
		CREATE SAMPLE S AS (SELECT * FROM P USING MECHANISM UNIFORM PERCENT 10);
	`); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	rows := make([][]any, 80000)
	for i := range rows {
		rows[i] = []any{
			fmt.Sprintf("g%d", rng.Intn(10)),
			fmt.Sprintf("k%d", rng.Intn(1000)),
			fmt.Sprintf("u%d", rng.Intn(100000)),
			rng.Intn(1000),
			rng.Float64() * 100,
		}
	}
	if err := db.Ingest("S", rows); err != nil {
		b.Fatal(err)
	}
	return db
}

func BenchmarkDump80k(b *testing.B) {
	db := synthDB80k(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Dump(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRestore80k(b *testing.B) {
	script, err := synthDB80k(b).Dump()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mosaic.Open(&mosaic.Options{Seed: 1, Workers: 1}).Restore(script); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadSnapshot80k is BenchmarkRestore80k from a file: B/op over
// it is the one copy of the script LoadSnapshot reads.
func BenchmarkLoadSnapshot80k(b *testing.B) {
	path := filepath.Join(b.TempDir(), "snap.sql")
	if err := synthDB80k(b).SaveSnapshot(path); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mosaic.Open(&mosaic.Options{Seed: 1, Workers: 1}).LoadSnapshot(path); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestoreSmallStatements restores 10k one-row INSERTs: the shape
// where a handoff per statement between restore's stages would cost more
// than the statement, which is why the stages hand over batches.
func BenchmarkRestoreSmallStatements(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("CREATE TABLE T (k TEXT, x INT);\n")
	for i := 0; i < 10000; i++ {
		fmt.Fprintf(&sb, "INSERT INTO T VALUES ('k%d', %d);\n", i%10, i)
	}
	script := sb.String()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mosaic.Open(&mosaic.Options{Seed: 1, Workers: 1}).Restore(script); err != nil {
			b.Fatal(err)
		}
	}
}

// insertFormatWorld is the world testdata/insert_format_dump.sql was dumped
// from, by DumpScript as it was before dumps carried rows as COPY blocks:
// a weighted sample with a column named WEIGHT (so its weights travel in
// per-row WEIGHT clauses), NaN, ±Inf and -0, NULLs, quoted TEXT, a binned
// marginal and a sample of unit weights.
const insertFormatWorld = `
CREATE GLOBAL POPULATION P (g TEXT, weight INT, f FLOAT, ok BOOL);
CREATE TABLE Truth (g TEXT, n INT);
CREATE TABLE Ages (weight INT, n INT);
INSERT INTO Truth VALUES ('a', 40), ('it''s', 60);
INSERT INTO Ages VALUES (10, 25), (20, 25), (30, 50);
CREATE METADATA P_g AS (SELECT g, n FROM Truth);
CREATE METADATA P_w WITH BINS (weight 10) AS (SELECT weight, n FROM Ages);
CREATE SAMPLE S AS (SELECT * FROM P);
CREATE SAMPLE U AS (SELECT g, f FROM P);
INSERT INTO S VALUES ('a', 12, FLOAT 'NaN', TRUE), ('it''s', 25, FLOAT '+Inf', NULL),
	('a', 31, FLOAT '-0', FALSE), (NULL, 12, FLOAT '-Inf', TRUE), ('a', 12, 2.5, TRUE),
	('it''s', 18, -0.125, FALSE), ('a', 12, 2.5, TRUE);
UPDATE SAMPLE S SET WEIGHT = weight / 10.0 WHERE g = 'a';
INSERT INTO U VALUES ('a', 1.5), ('it''s', NULL), ('a', FLOAT '-0');
`

// insertFormatQueries read every cell and weight of the world, and answer
// over its marginals.
var insertFormatQueries = []string{
	"SELECT g, WEIGHT, f, ok FROM S",
	"SELECT g, f, WEIGHT FROM U",
	"SELECT g, n FROM Truth",
	"SELECT CLOSED g, COUNT(*), SUM(WEIGHT), AVG(f) FROM P GROUP BY g ORDER BY g",
	"SELECT SEMI-OPEN g, COUNT(*) FROM P GROUP BY g ORDER BY g",
	"SELECT SEMI-OPEN COUNT(*), SUM(WEIGHT) FROM P",
}

// TestRestoreInsertFormatSnapshot: a snapshot whose rows are INSERT
// statements, written before dumps carried rows as COPY blocks, still
// restores — to the answers of the world it was dumped from — and dumps
// again as COPY blocks, equal to that world's own dump.
func TestRestoreInsertFormatSnapshot(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "insert_format_dump.sql"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(old), ") WEIGHT 1.2, (") || strings.Contains(string(old), "FROM STDIN") {
		t.Fatalf("testdata is not an INSERT-format dump:\n%s", old)
	}
	opts := &mosaic.Options{Seed: 3, Workers: 1}
	restored := mosaic.Open(opts)
	if err := restored.Restore(string(old)); err != nil {
		t.Fatal(err)
	}
	world := mosaic.Open(opts)
	if err := world.Exec(insertFormatWorld); err != nil {
		t.Fatal(err)
	}
	for _, q := range insertFormatQueries {
		want, err := world.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		got, err := restored.Query(q)
		if err != nil || got.String() != want.String() {
			t.Errorf("%s: restored answer (%v)\n%s\nwant\n%s", q, err, got, want)
		}
	}
	redump, err := restored.Dump()
	if err != nil {
		t.Fatal(err)
	}
	wantDump, err := world.Dump()
	if err != nil {
		t.Fatal(err)
	}
	if redump != wantDump || strings.Contains(redump, "INSERT") ||
		!strings.Contains(redump, "COPY S (g, WEIGHT, f, ok, WEIGHT) FROM STDIN;\n'a'\t12\tFLOAT 'NaN'\tTRUE\t1.2\n") {
		t.Errorf("re-dump:\n%s\nwant the world's dump:\n%s", redump, wantDump)
	}
}
