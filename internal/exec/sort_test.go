package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"mosaic/internal/schema"
	"mosaic/internal/sql"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

// TestSortStabilityContract pins the engine-wide tie-break contract (see
// orderAndLimit): rows with equal ORDER BY keys keep their pre-sort order on
// every sorting surface — the row engine, the columnar permutation sort, the
// bounded top-K heap, and the OPEN combine (RunReplicates).
func TestSortStabilityContract(t *testing.T) {
	tbl := table.New("t", metaSchema)
	// key cycles 2,1,0,2,1,0,... so each key value collects ids in ascending
	// order; id is the tie witness.
	for i := 0; i < 60; i++ {
		err := tbl.Append([]value.Value{
			value.Int(int64(i)),
			value.Text(fmt.Sprintf("k%d", 2-(i%3))),
			value.Int(int64(2 - (i % 3))),
			value.Float(float64(2 - (i % 3))),
			value.Bool(i%3 == 0),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// For every key column and both directions, ties must list ids ascending
	// (their scan order), on both executors, with and without LIMIT.
	keyCol := map[string]int{"c": 1, "x": 2, "y": 3}
	for _, key := range []string{"c", "x", "y"} {
		for _, dir := range []string{"", " DESC"} {
			for _, limit := range []string{"", " LIMIT 7"} {
				src := fmt.Sprintf("SELECT id, c, x, y FROM t ORDER BY %s%s%s", key, dir, limit)
				for _, mode := range execModes {
					res := mustRun(t, tbl, src, mode)
					for i := 1; i < len(res.Rows); i++ {
						prev, row := res.Rows[i-1], res.Rows[i]
						if value.Equal(prev[keyCol[key]], row[keyCol[key]]) && prev[0].AsInt() >= row[0].AsInt() {
							t.Fatalf("%q (%s): tie broken out of scan order: id %d after %d",
								src, modeLabel(mode), row[0].AsInt(), prev[0].AsInt())
						}
					}
				}
			}
		}
	}

	// The OPEN combine sorts its combined answer under the same contract:
	// ties keep replicate-0 group order even when a later replicate lists
	// the groups in reverse, and LIMIT k is the k-prefix of the full answer.
	rep0 := table.New("t", metaSchema)
	rep1 := table.New("t", metaSchema)
	for i := 0; i < 20; i++ {
		for _, rep := range []*table.Table{rep0, rep1} {
			j := i
			if rep == rep1 {
				j = 19 - i
			}
			err := rep.Append([]value.Value{value.Int(int64(j)), value.Text("k"), value.Int(int64(2 - j%3)), value.Float(0), value.Bool(false)})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	combine := func(src string) *Result {
		t.Helper()
		res, err := RunReplicates(context.Background(), q(t, src), 2, Options{Weighted: true}, replicas(rep0, rep1))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	full := combine("SELECT x, id, COUNT(*) FROM t GROUP BY x, id ORDER BY x")
	limited := combine("SELECT x, id, COUNT(*) FROM t GROUP BY x, id ORDER BY x LIMIT 5")
	if len(full.Rows) != 20 || len(limited.Rows) != 5 {
		t.Fatalf("combine kept %d / %d rows, want 20 / 5", len(full.Rows), len(limited.Rows))
	}
	for i, row := range limited.Rows {
		if want := full.Rows[i]; row[1].AsInt() != want[1].AsInt() {
			t.Fatalf("combine LIMIT row %d has id %v, the full answer's prefix has %v", i, row[1], want[1])
		}
	}
	for i := 1; i < len(full.Rows); i++ {
		a, b := full.Rows[i-1], full.Rows[i]
		if a[0].AsInt() == b[0].AsInt() && a[1].AsInt() > b[1].AsInt() {
			t.Fatalf("combine tie broken out of replicate-0 order at row %d: id %v after %v", i, b[1], a[1])
		}
	}
}

// TestBoundedTopKMatchesSortPrefix property-checks the heap against a full
// sort under random total orders.
func TestBoundedTopKMatchesSortPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(50)
		k := rng.Intn(60)
		keys := make([]int, n)
		for i := range keys {
			keys[i] = rng.Intn(8) // heavy ties
		}
		less := func(a, b int) bool {
			if keys[a] != keys[b] {
				return keys[a] < keys[b]
			}
			return a < b
		}
		got := boundedTopK(n, k, less)
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool { return keys[want[a]] < keys[want[b]] })
		if k < n {
			want = want[:k]
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d (n=%d k=%d): topK %v != sort prefix %v", trial, n, k, got, want)
		}
	}
}

// TestFoldedConstantItemKeepsName: a constant item is named by its
// rendering, never by its value, though the compiler evaluates it once.
func TestFoldedConstantItemKeepsName(t *testing.T) {
	tbl := metaTable(t, 3, 1)
	res := mustRun(t, tbl, "SELECT 1 + 2, id FROM t ORDER BY id LIMIT 2", Options{Weighted: true})
	if res.Columns[0] != "(1 + 2)" {
		t.Fatalf("folded item renamed: %q", res.Columns[0])
	}
	if len(res.Rows) != 2 || res.Rows[0][0].AsInt() != 3 {
		t.Fatalf("folded item value wrong: %+v", res.Rows)
	}
	if !strings.Contains(res.String(), "(1 + 2)") {
		t.Fatalf("rendered header lost the original expression: %s", res.String())
	}
}

// sortKeysOf resolves sel's ORDER BY into columnar sort keys over cand, the
// way runProjectionVector does before it sorts.
func sortKeysOf(t *testing.T, snap *table.Snapshot, sel *sql.Select, weights []float64, cand []int32) []vecSortKey {
	t.Helper()
	outCols, sources := projectionSources(snap, sel)
	keys, ok := resolveVecSortKeys(snap, sel, outCols, sources, weights)
	if !ok {
		t.Fatalf("ORDER BY of %v did not resolve to column keys", sel)
	}
	rankTextKeys(snap, keys, cand)
	return keys
}

// rowLess is the multi-key "less" over two row ids, the sort oracle: its
// answer equals the row engine's comparator over the materialized rows,
// pair for pair.
func rowLess(keys []vecSortKey, ra, rb int32) bool {
	for kk := range keys {
		c := keys[kk].cmp(ra, rb)
		if c == 0 {
			continue
		}
		if keys[kk].desc {
			return c > 0
		}
		return c < 0
	}
	return false
}

// TestKeyWordSortMatchesSliceStable pins the key-word sort against the
// comparator sort it replaced: for random key lists over every kind — INT at
// both ends of int64, FLOAT with ±0, ±Inf, subnormals and NaNs of either
// sign and any payload, TEXT, BOOL, NULLs
// everywhere, a non-unit WEIGHT — the permutation sortCandidates produces
// must equal sort.SliceStable behind rowLess at every worker count, on
// candidate sets on both sides of the one-morsel boundary, and topKCandidates
// must return its k-prefix. Heavy duplicates make stability observable: a
// word that splits a tie (-0 apart from +0, or two NaNs), puts NaN anywhere
// but above +Inf or NULL anywhere but below every value, or ignores DESC
// changes the permutation.
func TestKeyWordSortMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	ints := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	floats := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64, 1.5, -1.5, 2,
		math.NaN(), math.Float64frombits(0xfff8000000000000), math.Float64frombits(0x7ff0000000000123),
	}
	texts := []string{"", "a", "ab", "b", "B", "é", "zz"}
	pick := func(v value.Value) value.Value {
		if rng.Intn(6) == 0 {
			return value.Null()
		}
		return v
	}
	const n = 2*morselRows + 3
	tbl := table.New("t", schema.MustNew(
		schema.Attribute{Name: "i", Kind: value.KindInt},
		schema.Attribute{Name: "f", Kind: value.KindFloat},
		schema.Attribute{Name: "s", Kind: value.KindText},
		schema.Attribute{Name: "b", Kind: value.KindBool},
		schema.Attribute{Name: "wide", Kind: value.KindInt},
	))
	weights := make([]float64, n)
	for r := 0; r < n; r++ {
		err := tbl.Append([]value.Value{
			pick(value.Int(ints[rng.Intn(len(ints))])),
			pick(value.Float(floats[rng.Intn(len(floats))])),
			pick(value.Text(texts[rng.Intn(len(texts))])),
			pick(value.Bool(rng.Intn(2) == 0)),
			pick(value.Int(int64(rng.Uint64()))), // every byte position varies
		})
		if err != nil {
			t.Fatal(err)
		}
		weights[r] = floats[rng.Intn(len(floats))]
	}
	snap := tbl.Snapshot()
	order := rng.Perm(n)
	cols := []string{"i", "f", "s", "b", "wide", "WEIGHT"}

	sizes := []int{0, 1, 2, 3, 17, 300, 5000, morselRows - 1, morselRows, morselRows + 1, n}
	for _, m := range sizes {
		trials := 20
		if m > 5000 {
			trials = 1 // the reference sort is the slow side
		}
		for trial := 0; trial < trials; trial++ {
			var terms []string
			for range 1 + (trial+m)%4 {
				term := cols[rng.Intn(len(cols))]
				if rng.Intn(2) == 0 {
					term += " DESC"
				}
				terms = append(terms, term)
			}
			src := "SELECT i, f, s, b, wide, WEIGHT FROM t ORDER BY " + strings.Join(terms, ", ")
			sel, err := sql.ParseQuery(src)
			if err != nil {
				t.Fatal(err)
			}
			off := rng.Intn(n - m + 1)
			cand := make([]int32, m)
			for i := range cand {
				cand[i] = int32(order[off+i])
			}
			if trial%2 == 0 {
				slices.Sort(cand) // scan order, as a selection vector is
			}
			keys := sortKeysOf(t, snap, sel, weights, cand)
			want := slices.Clone(cand)
			sort.SliceStable(want, func(a, b int) bool { return rowLess(keys, want[a], want[b]) })
			for _, w := range sweepWorkers {
				got := slices.Clone(cand)
				if err := sortCandidates(context.Background(), keys, got, w); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%q over %d candidates, %d workers: permutation differs from sort.SliceStable", src, m, w)
				}
			}
			if m > 0 {
				k := 1 + rng.Intn(min(m, 40))
				if got := topKCandidates(keys, cand, k); !slices.Equal(got, want[:k]) {
					t.Fatalf("%q over %d candidates: top-%d is not the sort's prefix", src, m, k)
				}
			}
		}
	}
}

// TestTextSortRanksOnlyOccurringCodes: a table keeps one dictionary for all
// its TEXT columns, so a 10-value sort key shares it with a 100k-value
// sibling. The key's collation ranks cover only the strings the key column
// holds among the candidates; the answer must still be the row engine's, on
// the full sort and on the top-K heap, with NULL keys and a filter that
// leaves some of the key's values out.
func TestTextSortRanksOnlyOccurringCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tbl := table.New("t", schema.MustNew(
		schema.Attribute{Name: "c100k", Kind: value.KindText},
		schema.Attribute{Name: "c10", Kind: value.KindText},
		schema.Attribute{Name: "x", Kind: value.KindInt},
	))
	for i := 0; i < 100000; i++ {
		c10 := value.Text(fmt.Sprintf("g%d", rng.Intn(10)))
		if rng.Intn(50) == 0 {
			c10 = value.Null()
		}
		// The sibling interns first, so the key's codes are scattered
		// through the dictionary rather than sitting at its front.
		err := tbl.Append([]value.Value{value.Text(fmt.Sprintf("u%d", i)), c10, value.Int(int64(rng.Intn(1000)))})
		if err != nil {
			t.Fatal(err)
		}
	}
	// And the degenerate dictionary: a table that never interned a string
	// still has NULL rows in its TEXT columns, holding code 0.
	blank := table.New("t", tbl.Schema())
	for _, x := range []int64{2, 3, 1} {
		if err := blank.Append([]value.Value{value.Null(), value.Null(), value.Int(x)}); err != nil {
			t.Fatal(err)
		}
	}
	runBoth(t, blank, "SELECT c10, x FROM t ORDER BY c10 DESC, x", Options{})

	for _, src := range []string{
		"SELECT c10, x FROM t ORDER BY c10, x",
		"SELECT c10, x FROM t WHERE c10 != 'g3' AND x < 100 ORDER BY c10 DESC, x",
		"SELECT c10, x FROM t ORDER BY c10 DESC, x LIMIT 7",
	} {
		sel, err := sql.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(tbl, sel, Options{ForceRow: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 4} {
			got, err := Run(tbl, sel, Options{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Fatalf("%q (%d workers): vectorized answer differs from the row engine's", src, w)
			}
		}
	}
}

// TestSortIgnoresPayloadUnderNull: table.FromColumns takes the caller's
// vectors as they are, so a NULL position may hold any payload. NULL rows
// must still tie with each other — keep their scan order — under the key.
func TestSortIgnoresPayloadUnderNull(t *testing.T) {
	const n = 64
	col := table.Column{Kind: value.KindInt, Ints: make([]int64, n), Nulls: []uint64{0}}
	for i := range col.Ints {
		col.Ints[i] = int64(7 - i%8) // descending within each block of 8
		if i%2 == 0 {
			col.Nulls[0] |= 1 << i
		}
	}
	wts := make([]float64, n)
	tbl, err := table.FromColumns("t", schema.MustNew(schema.Attribute{Name: "x", Kind: value.KindInt}), []table.Column{col}, wts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{"SELECT x FROM t ORDER BY x", "SELECT x FROM t ORDER BY x DESC"} {
		sel, err := sql.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]int32, n)
		for i := range want {
			want[i] = int32(i)
		}
		got := slices.Clone(want)
		keys := sortKeysOf(t, tbl.Snapshot(), sel, wts, want)
		sort.SliceStable(want, func(a, b int) bool { return rowLess(keys, want[a], want[b]) })
		if err := sortCandidates(context.Background(), keys, got, 1); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%q: NULL rows reordered by the payload under them:\n got %v\nwant %v", src, got, want)
		}
	}
}
