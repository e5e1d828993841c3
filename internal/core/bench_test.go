package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"mosaic/internal/exec"
	"mosaic/internal/mechanism"
	"mosaic/internal/sql"
)

var benchSink *exec.Result

func benchQuery(b *testing.B, e *Engine, q string) *sql.Select {
	b.Helper()
	sel, err := sql.ParseQuery(q)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.Query(sel); err != nil { // fit, train or compute once
		b.Fatal(err)
	}
	return sel
}

// BenchmarkSemiOpenKnownMechanism: a SEMI-OPEN aggregate over a 100k-row
// sample with a predicate-biased mechanism. The 1/Pr vector is derived state
// of (sample, mechanism); the loop pays the scan, not a per-query pass of
// InclusionProb over every tuple.
func BenchmarkSemiOpenKnownMechanism(b *testing.B) {
	e := NewEngine(Options{Workers: 1})
	if _, err := e.ExecScript(`
		CREATE GLOBAL POPULATION P (x INT, y INT);
		CREATE SAMPLE S AS (SELECT * FROM P);`); err != nil {
		b.Fatal(err)
	}
	rows := make([][]any, 100_000)
	for i := range rows {
		rows[i] = []any{i % 1000, i % 7}
	}
	if err := e.Ingest("S", rows); err != nil {
		b.Fatal(err)
	}
	pred, err := sql.ParseQuery("SELECT x FROM P WHERE x < 500")
	if err != nil {
		b.Fatal(err)
	}
	if err := e.SetSampleMechanism("S", mechanism.Biased{Pred: pred.Where, PTrue: 0.5, PFalse: 0.1}); err != nil {
		b.Fatal(err)
	}
	sel := benchQuery(b, e, "SELECT SEMI-OPEN y, COUNT(*) FROM P GROUP BY y")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if benchSink, err = e.QueryContext(context.Background(), sel); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpenAfterUnrelatedWrite: an OPEN read of World (sample SA) after
// each INSERT into SV, a sample that stores only z and so never answers for
// grp. The write changes none of the World model's inputs, so the read
// generates from the model it has; a retrain per iteration would be ~100×
// the cost.
func BenchmarkOpenAfterUnrelatedWrite(b *testing.B) {
	e := NewEngine(derivedOpts())
	if _, err := e.ExecScript(derivedWorld + `CREATE SAMPLE SV (z INT) AS (SELECT z FROM World);`); err != nil {
		b.Fatal(err)
	}
	sel := benchQuery(b, e, openA)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ExecScript(`INSERT INTO SV VALUES (5)`); err != nil {
			b.Fatal(err)
		}
		var err error
		if benchSink, err = e.QueryContext(context.Background(), sel); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := e.ModelCacheStats(); st.Trained != 1 {
		b.Fatalf("trained %d models, want 1", st.Trained)
	}
}

// closedScanSchema is the repo benchmark's closed_scan table: three TEXT
// columns of 10, 1,000 and 100,000 distinct values, an INT and a FLOAT.
const closedScanSchema = `CREATE GLOBAL POPULATION P (c10 TEXT, c1k TEXT, c100k TEXT, x INT, y FLOAT);
CREATE SAMPLE S AS (SELECT * FROM P);`

func closedScanRows(n int) [][]any {
	rng := rand.New(rand.NewSource(1))
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{
			fmt.Sprintf("g%d", rng.Intn(10)),
			fmt.Sprintf("k%d", rng.Intn(1000)),
			fmt.Sprintf("u%d", rng.Intn(100000)),
			rng.Intn(1000),
			rng.Float64() * 100,
		}
	}
	return rows
}

// BenchmarkIngest400k: closed_scan's load, 400k rows ingested 50k at a time
// into a fresh sample. Rows convert a chunk at a time into reused buffers
// and append under one table lock per chunk, so allocs/op is the columns'
// and the dictionary's growth, not a slice or two per row.
func BenchmarkIngest400k(b *testing.B) {
	rows := closedScanRows(400_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := NewEngine(Options{Workers: 1})
		if _, err := e.ExecScript(closedScanSchema); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for lo := 0; lo < len(rows); lo += 50_000 {
			if err := e.Ingest("S", rows[lo:lo+50_000]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkUpdateWeights400k: closed_scan's reweighting of its 400k-row
// sample, computed on the arithmetic kernels: B/op is a handful of
// table-length vectors, allocs/op in the tens.
func BenchmarkUpdateWeights400k(b *testing.B) {
	e := NewEngine(Options{Workers: 1})
	if _, err := e.ExecScript(closedScanSchema); err != nil {
		b.Fatal(err)
	}
	if err := e.Ingest("S", closedScanRows(400_000)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ExecScript(`UPDATE SAMPLE S SET WEIGHT = 0.5 + (x % 100) / 100.0`); err != nil {
			b.Fatal(err)
		}
	}
}
