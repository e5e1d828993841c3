package exec

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"mosaic/internal/schema"
	"mosaic/internal/sql"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

func benchTable(n int) *table.Table {
	rng := rand.New(rand.NewSource(1))
	tbl := table.New("t", sc)
	for i := 0; i < n; i++ {
		_ = tbl.AppendWeighted([]value.Value{
			value.Text(fmt.Sprintf("g%d", rng.Intn(20))),
			value.Int(int64(rng.Intn(1000))),
			value.Float(rng.Float64() * 100),
		}, rng.Float64()+0.5)
	}
	return tbl
}

func benchQuery(b *testing.B, src string) *sql.Select {
	b.Helper()
	sel, err := sql.ParseQuery(src)
	if err != nil {
		b.Fatal(err)
	}
	return sel
}

func BenchmarkFilterProject100k(b *testing.B) {
	tbl := benchTable(100000)
	sel := benchQuery(b, "SELECT x, y FROM t WHERE x > 500")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(tbl, sel, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFilterKernels100k times one WHERE per numeric operand pairing,
// TEXT and BOOL columns against constants, and the repo benchmark's
// closed_scan filters (a view's conjunction, a TEXT test AND a FLOAT one,
// an arithmetic compare): compiling it, running its kernel over every row
// and cutting the selection vector, with no aggregate or projection after
// it. The TEXT and BOOL cases run over a table whose dictionary holds 100k
// strings, as closed_scan's does, so their B/op includes the outcome table
// (one byte per dictionary code) that every compile fills. B/op is
// otherwise the truth vector, the selection (exactly one int32 per kept
// row) and a computed operand; a kernel that copied a column would add a
// table-length slice to it. text-ne keeps about 90 % of the rows, the
// dense-selection case.
func BenchmarkFilterKernels100k(b *testing.B) {
	num := benchTable(100000).Snapshot()
	rng, rngY := rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2))
	tbl := table.New("t", schema.MustNew(
		schema.Attribute{Name: "c10", Kind: value.KindText},
		schema.Attribute{Name: "c100k", Kind: value.KindText},
		schema.Attribute{Name: "b", Kind: value.KindBool},
		schema.Attribute{Name: "y", Kind: value.KindFloat},
	))
	for i := 0; i < 100000; i++ {
		_ = tbl.Append([]value.Value{
			value.Text(fmt.Sprintf("g%d", rng.Intn(10))),
			value.Text(fmt.Sprintf("u%d", i)),
			value.Bool(rng.Intn(2) == 0),
			value.Float(rngY.Float64() * 100),
		})
	}
	text := tbl.Snapshot()
	for _, bc := range []struct {
		name, where string
		snap        *table.Snapshot
	}{
		{"int-int-lit", "x > 500", num},
		{"float-int-lit", "y < 50", num},
		{"int-float-lit", "x > 499.5", num},
		{"col-col", "x > y", num},
		{"in-int", "x IN (1, 2, 3, 500, 999)", num},
		{"between", "x BETWEEN 100 AND 600", num},
		{"text-ne", "c10 != 'g3'", text},
		{"in-text", "c10 IN ('g1', 'g2')", text},
		{"text-lt", "c10 < 'g5'", text},
		{"bool-eq", "b = TRUE", text},
		{"view-and", "x > 300 AND x < 1000", num},
		{"text-and-float", "c10 != 'g3' AND y < 70", text},
		{"arith-cmp", "x * 2 > y + 500", num},
	} {
		where := benchQuery(b, "SELECT * FROM t WHERE "+bc.where).Where
		snap := bc.snap
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SelectRows(context.Background(), snap, where, snap.Weights(), 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkWeightedGroupBy100k(b *testing.B) {
	tbl := benchTable(100000)
	sel := benchQuery(b, "SELECT c, COUNT(*), AVG(y) FROM t GROUP BY c")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(tbl, sel, Options{Weighted: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGlobalAggregate100k(b *testing.B) {
	tbl := benchTable(100000)
	sel := benchQuery(b, "SELECT COUNT(*), SUM(x), AVG(y), MIN(x), MAX(y) FROM t")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(tbl, sel, Options{Weighted: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComputedOperands100k times operands that are neither a plain
// column nor a numeric expression, compiled like every other: BOOL
// aggregate inputs (COUNT(x > 500), MAX(c = 'g1')) read as values, with and
// without a WHERE comparing two BOOL operands, and a computed select item
// filled from its numVec at the kept rows only. The item's numVec is
// computed over every row, so project-selective (one row in a thousand
// kept) times that cost where the kept rows are few.
func BenchmarkComputedOperands100k(b *testing.B) {
	tbl := benchTable(100000)
	for _, bc := range []struct{ name, q string }{
		{"agg", "SELECT c, COUNT(x > 500), MAX(c = 'g1') FROM t GROUP BY c"},
		{"agg-where", "SELECT c, COUNT(x > 500), MAX(c = 'g1') FROM t WHERE (x > 500) = (y > 50) GROUP BY c"},
		{"project", "SELECT c, x / 2 FROM t WHERE x > 500"},
		{"project-selective", "SELECT c, x / 2 FROM t WHERE x = 5"},
	} {
		sel := benchQuery(b, bc.q)
		for _, w := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", bc.name, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Run(tbl, sel, Options{Weighted: true, Workers: w}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// sortBenchTable is the repo benchmark's closed_scan relation in small: a
// 10-value and a 100k-value TEXT column sharing the table's one dictionary,
// an INT measure in [0, 1000) and a FLOAT measure in [0, 100).
func sortBenchTable(n int) *table.Table {
	rng := rand.New(rand.NewSource(1))
	tbl := table.New("t", schema.MustNew(
		schema.Attribute{Name: "c10", Kind: value.KindText},
		schema.Attribute{Name: "c100k", Kind: value.KindText},
		schema.Attribute{Name: "x", Kind: value.KindInt},
		schema.Attribute{Name: "y", Kind: value.KindFloat},
	))
	for i := 0; i < n; i++ {
		_ = tbl.Append([]value.Value{
			value.Text(fmt.Sprintf("g%d", rng.Intn(10))),
			value.Text(fmt.Sprintf("u%d", rng.Intn(100000))),
			value.Int(int64(rng.Intn(1000))),
			value.Float(rng.Float64() * 100),
		})
	}
	return tbl
}

// benchSort times a full columnar ORDER BY (filter-free, so the sort and the
// materialization of its result are all there is) on the serial path the
// repo benchmark's engines run.
func benchSort(b *testing.B, src string) {
	tbl := sortBenchTable(100000)
	sel := benchQuery(b, src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(tbl, sel, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSortFull100k(b *testing.B)    { benchSort(b, "SELECT y FROM t ORDER BY y") }
func BenchmarkSortTwoKeys100k(b *testing.B) { benchSort(b, "SELECT x, y FROM t ORDER BY y DESC, x") }
func BenchmarkSortTextKey100k(b *testing.B) { benchSort(b, "SELECT c10, x FROM t ORDER BY c10, x") }

// BenchmarkGroupBy400k times weighted GROUP BY and DISTINCT over the repo
// benchmark's closed_scan relation, 400k rows of (c10, c1k, c100k TEXT,
// x INT, y FLOAT), at one and two workers. It guards the one serial group-id
// path: workers=2 reading well above workers=1 means per-morsel group tables
// came back (the deleted ones read 1.5–2.5× slower on TEXT keys).
func BenchmarkGroupBy400k(b *testing.B) {
	const n = 400_000
	rng := rand.New(rand.NewSource(1))
	tbl := table.New("t", schema.MustNew(
		schema.Attribute{Name: "c10", Kind: value.KindText},
		schema.Attribute{Name: "c1k", Kind: value.KindText},
		schema.Attribute{Name: "c100k", Kind: value.KindText},
		schema.Attribute{Name: "x", Kind: value.KindInt},
		schema.Attribute{Name: "y", Kind: value.KindFloat},
	))
	for i := 0; i < n; i++ {
		x := rng.Intn(1000)
		_ = tbl.AppendWeighted([]value.Value{
			value.Text(fmt.Sprintf("g%d", rng.Intn(10))),
			value.Text(fmt.Sprintf("k%d", rng.Intn(1000))),
			value.Text(fmt.Sprintf("u%d", rng.Intn(100000))),
			value.Int(int64(x)),
			value.Float(rng.Float64() * 100),
		}, 0.5+float64(x%100)/100)
	}
	snap := tbl.Snapshot()
	for _, bc := range []struct{ name, src string }{
		{"text10", "SELECT c10, COUNT(*), AVG(y) FROM t WHERE x < 1000 GROUP BY c10"},
		{"text1k", "SELECT c1k, COUNT(*), SUM(x), AVG(y) FROM t WHERE x < 1000 GROUP BY c1k"},
		{"text100k", "SELECT c100k, COUNT(*), AVG(y) FROM t WHERE x < 1000 GROUP BY c100k"},
		{"text2keys", "SELECT c10, c1k, COUNT(*) FROM t WHERE x < 1000 GROUP BY c10, c1k"},
		{"distinct", "SELECT DISTINCT c1k FROM t WHERE x < 1000"},
		{"float200k", "SELECT y, COUNT(*) FROM t WHERE x < 500 GROUP BY y"},
		{"int1k", "SELECT x, COUNT(*), AVG(y) FROM t GROUP BY x"},
	} {
		sel := benchQuery(b, bc.src)
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", bc.name, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := RunSnapshotContext(context.Background(), snap, sel, Options{Weighted: true, Workers: w}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAnswerOrderBy times ORDER BY over a finished answer, which no
// key-word sort serves: 200k rows grouped by an INT key with about 86k
// values, sorted on it in full and cut to a top 25 by count, and a 10-group
// answer. Each row's keys are read once, so allocs/op is the key slab and
// the permutation on top of the aggregate, none per comparison.
func BenchmarkAnswerOrderBy(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tbl := table.New("t", schema.MustNew(
		schema.Attribute{Name: "k", Kind: value.KindInt},
		schema.Attribute{Name: "g", Kind: value.KindText},
	))
	for i := 0; i < 200_000; i++ {
		_ = tbl.Append([]value.Value{
			value.Int(int64(rng.Intn(100_000))),
			value.Text(fmt.Sprintf("g%d", rng.Intn(10))),
		})
	}
	snap := tbl.Snapshot()
	for _, bc := range []struct{ name, src string }{
		{"groups86k", "SELECT k, COUNT(*) AS n FROM t GROUP BY k ORDER BY k"},
		{"top25", "SELECT k, COUNT(*) AS n FROM t GROUP BY k ORDER BY n DESC, k LIMIT 25"},
		{"groups10", "SELECT g, COUNT(*) AS n FROM t GROUP BY g ORDER BY g"},
	} {
		sel := benchQuery(b, bc.src)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunSnapshotContext(context.Background(), snap, sel, Options{Weighted: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
