package exec

import (
	"fmt"
	"sync"
	"testing"

	"mosaic/internal/sql"
	"mosaic/internal/value"
)

// The differential and metamorphic grids run on small tables (≤500 rows),
// which sit far below the 64K-row morsel size: with Workers > 1 they only
// exercise the pool plumbing and the across-aggregates fan-out, never the
// multi-morsel code paths. This file pins those paths on a table large
// enough (3×morselRows + change) that forEachMorsel really partitions,
// ternSelection really stitches per-morsel segments and the parallel merge
// sort really merges sorted runs. It also runs table.Snapshot.GroupIDs,
// which is serial at every worker count, over every key kind: TEXT, BOOL,
// INT and FLOAT keys, composites and DISTINCT.

const morselTestRows = 3*morselRows + 4321

// morselQueries are bench-shaped queries chosen so each parallel code path
// is on the hot line for at least one of them.
var morselQueries = []string{
	// ternSelection (parallel segment stitch) + selection kernels.
	"SELECT id FROM t WHERE x > 5 AND c != 'g3'",
	// Arithmetic kernels inside WHERE (parallel fills over shared errs bitmap).
	"SELECT id FROM t WHERE y * 2 > x + 1",
	// Weighted global multi-aggregate (fan-out across aggregate items).
	"SELECT COUNT(*), SUM(x), AVG(y), MIN(x), MAX(y) FROM t",
	// Low-cardinality group-by: Snapshot.GroupIDs over a TEXT key (dictionary codes).
	"SELECT c, COUNT(*), SUM(x) FROM t GROUP BY c ORDER BY c",
	// Composite key group-by: per-key dense ids folded pairwise.
	"SELECT c, b, COUNT(*) FROM t GROUP BY c, b ORDER BY c, b",
	// FLOAT key group-by: NaN and NULL keys each form one group.
	"SELECT y, COUNT(*) FROM t GROUP BY y ORDER BY y",
	// INT key group-by: a numeric map key with a NULL group.
	"SELECT x, COUNT(*), SUM(y) FROM t GROUP BY x ORDER BY x",
	// BOOL key group-by.
	"SELECT b, COUNT(*), AVG(x) FROM t GROUP BY b ORDER BY b",
	// INT+TEXT composite key group-by.
	"SELECT x, c, COUNT(*) FROM t GROUP BY x, c ORDER BY x, c",
	// Full sort: the parallel stable merge sort.
	"SELECT x, id FROM t ORDER BY x, id",
	// Full sort on a NaN-carrying key: NaN sorts last, at every worker count.
	"SELECT y, id FROM t ORDER BY y, id",
	// Bounded top-K against the same ordering.
	"SELECT id, y FROM t ORDER BY y DESC, id LIMIT 25",
	// Columnar DISTINCT (group-by machinery, first-appearance order).
	"SELECT DISTINCT c, b FROM t",
	// Columnar DISTINCT over an INT column with NULLs.
	"SELECT DISTINCT x FROM t",
	// Division by zero inside an aggregate: the error must be byte-identical
	// at every worker count (y - y is 0 except for NULL/NaN rows).
	"SELECT SUM(x / (y - y)) FROM t",
	// Division by zero inside WHERE.
	"SELECT id FROM t WHERE x % (x - x) = 0",
}

// TestMorselDeterminism: on a genuinely multi-morsel table, the row
// interpreter and the vectorized path at 1, 2, 4, and 8 workers must agree
// byte for byte — same rendered result or same error string.
func TestMorselDeterminism(t *testing.T) {
	tbl := metaTable(t, morselTestRows, 97)
	for _, src := range morselQueries {
		sel, err := sql.ParseQuery(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		rres, rerr := Run(tbl, sel, Options{Weighted: true, ForceRow: true})
		for _, w := range sweepWorkers {
			vres, verr := Run(tbl, sel, Options{Weighted: true, Workers: w})
			switch {
			case rerr != nil && verr != nil:
				if rerr.Error() != verr.Error() {
					t.Errorf("%q: error mismatch\n  row: %v\n  vec(%d workers): %v", src, rerr, w, verr)
				}
			case rerr != nil || verr != nil:
				t.Errorf("%q: one path errored\n  row: %v\n  vec(%d workers): %v", src, rerr, w, verr)
			default:
				if rs, vs := rres.String(), vres.String(); rs != vs {
					t.Errorf("%q: vec(%d workers) diverged from row path (%d vs %d rendered bytes)",
						src, w, len(rs), len(vs))
				}
			}
		}
	}
}

// TestParallelQueryWithConcurrentMutation: morsel-parallel queries racing
// against concurrent appends must stay safe — each query takes
// one consistent table.Snapshot up front and never touches live column
// storage again. Run under -race this pins the snapshot lock-once contract
// for the worker pool; the final exchange re-checks determinism on the
// post-churn table.
func TestParallelQueryWithConcurrentMutation(t *testing.T) {
	tbl := metaTable(t, morselRows+2048, 131)
	queries := []string{
		"SELECT c, COUNT(*), SUM(x) FROM t GROUP BY c ORDER BY c",
		"SELECT COUNT(*), SUM(x), AVG(y) FROM t WHERE y * 2 > x + 1",
		"SELECT x, id FROM t ORDER BY x, id LIMIT 100",
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				src := queries[(g+i)%len(queries)]
				sel, err := sql.ParseQuery(src)
				if err != nil {
					t.Errorf("parse %q: %v", src, err)
					return
				}
				if _, err := Run(tbl, sel, Options{Weighted: true, Workers: 4}); err != nil {
					t.Errorf("%q under mutation: %v", src, err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 400; i++ {
			row := []value.Value{
				value.Int(int64(i)), value.Text("g1"), value.Int(int64(i % 7)),
				value.Float(float64(i%9) / 2), value.Bool(i%2 == 0),
			}
			if err := tbl.AppendWeighted(row, 1.5); err != nil {
				t.Errorf("append: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	// Post-churn table: the determinism contract still holds.
	sel, err := sql.ParseQuery(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(tbl, sel, Options{Weighted: true, ForceRow: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(tbl, sel, Options{Weighted: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if want.String() != got.String() {
		t.Errorf("post-churn divergence:\n row: %s\n vec: %s", want, got)
	}
}

func init() {
	if morselRows%64 != 0 {
		panic("morselRows must stay a multiple of 64: parallel bitmap writers rely on it")
	}
}

func BenchmarkMorselGroupBy(b *testing.B) {
	tbl := metaTable(b, morselTestRows, 97)
	sel, err := sql.ParseQuery("SELECT c, COUNT(*), SUM(x) FROM t GROUP BY c")
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Run(tbl, sel, Options{Weighted: true, Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestTernSelectionStopsAtFirstError: over several morsels, every worker
// count keeps exactly the true rows before the first error row — a morsel
// after the failing one contributes nothing, the failing one only its rows
// before the error — and reports that it stopped.
func TestTernSelectionStopsAtFirstError(t *testing.T) {
	tern := make([]int8, morselTestRows)
	for i := range tern {
		if i%3 != 0 {
			tern[i] = ternTrue
		}
	}
	for _, errRows := range [][]int{nil, {2*morselRows + 77, 3*morselRows + 5}, {0}, {morselRows - 1}} {
		for _, r := range errRows {
			tern[r] = ternErr
		}
		var want []int32
		for i, v := range tern {
			if v == ternErr {
				break
			}
			if v == ternTrue {
				want = append(want, int32(i))
			}
		}
		for _, w := range sweepWorkers {
			sel, failed, err := ternSelection(t.Context(), tern, w)
			if err != nil || failed != (errRows != nil) || fmt.Sprint(sel) != fmt.Sprint(want) {
				t.Errorf("errors at %v, %d workers: %d rows, failed %v, err %v; want %d rows", errRows, w, len(sel), failed, err, len(want))
			}
		}
		for _, r := range errRows {
			tern[r] = ternTrue
		}
	}
}
