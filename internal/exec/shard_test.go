package exec

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"mosaic/internal/sql"
	"mosaic/internal/value"
)

// TestShardBounds pins the partitioning function: contiguous, 64-row-aligned
// (except the final bound), covering exactly [0, n), with empty trailing
// shards when n is small.
func TestShardBounds(t *testing.T) {
	for _, tc := range []struct {
		n, s int
		want [][2]int
	}{
		{0, 2, [][2]int{{0, 0}, {0, 0}}},
		{1, 2, [][2]int{{0, 1}, {1, 1}}},
		{1, 4, [][2]int{{0, 1}, {1, 1}, {1, 1}, {1, 1}}},
		{64, 2, [][2]int{{0, 64}, {64, 64}}},
		{65, 2, [][2]int{{0, 64}, {64, 65}}},
		{128, 2, [][2]int{{0, 64}, {64, 128}}},
		{130, 4, [][2]int{{0, 64}, {64, 128}, {128, 130}, {130, 130}}},
		{500, 4, [][2]int{{0, 128}, {128, 256}, {256, 384}, {384, 500}}},
		{1000, 3, [][2]int{{0, 384}, {384, 768}, {768, 1000}}},
	} {
		got := shardBounds(tc.n, tc.s)
		if len(got) != len(tc.want) {
			t.Fatalf("shardBounds(%d, %d) = %v, want %v", tc.n, tc.s, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("shardBounds(%d, %d) = %v, want %v", tc.n, tc.s, got, tc.want)
			}
		}
	}
	// Invariants across a sweep: full coverage, contiguity, alignment.
	for n := 0; n <= 700; n += 37 {
		for s := 1; s <= 9; s++ {
			b := shardBounds(n, s)
			if len(b) != s {
				t.Fatalf("shardBounds(%d, %d): %d bounds", n, s, len(b))
			}
			prev := 0
			for i, lh := range b {
				if lh[0] != prev || lh[1] < lh[0] {
					t.Fatalf("shardBounds(%d, %d): shard %d = %v not contiguous from %d", n, s, i, lh, prev)
				}
				if lh[0] < n && lh[0]%64 != 0 {
					t.Fatalf("shardBounds(%d, %d): shard %d starts at unaligned %d", n, s, i, lh[0])
				}
				prev = lh[1]
			}
			if prev != n {
				t.Fatalf("shardBounds(%d, %d): covers [0, %d), want [0, %d)", n, s, prev, n)
			}
		}
	}
}

// TestSliceRangeView pins the zero-copy slicing the sharded path depends on:
// every row and weight of the slice equals the corresponding row of the full
// snapshot, including NULLs in every column and across 64-row word
// boundaries.
func TestSliceRangeView(t *testing.T) {
	tbl := diffTable(t, 200, 13)
	snap := tbl.Snapshot()
	for _, lh := range [][2]int{{0, 200}, {0, 64}, {64, 128}, {128, 200}, {64, 200}, {192, 200}, {128, 128}} {
		sub := snap.SliceRange(lh[0], lh[1])
		if sub.Len() != lh[1]-lh[0] {
			t.Fatalf("SliceRange%v: len %d", lh, sub.Len())
		}
		for i := 0; i < sub.Len(); i++ {
			gi := lh[0] + i
			if sub.Weight(i) != snap.Weight(gi) {
				t.Fatalf("SliceRange%v row %d: weight %v != %v", lh, i, sub.Weight(i), snap.Weight(gi))
			}
			want, got := snap.Row(gi), sub.Row(i)
			for j := range want {
				if want[j].Kind() != got[j].Kind() || !value.Equal(want[j], got[j]) {
					t.Fatalf("SliceRange%v row %d col %d: %v != %v", lh, i, j, got[j], want[j])
				}
			}
		}
	}
}

// shardStressQueries are aggregate shapes that cannot raise per-row errors,
// so a mid-mutation scan must always answer cleanly.
var shardStressQueries = []string{
	"SELECT COUNT(*), SUM(x), AVG(y), MIN(x), MAX(y) FROM t",
	"SELECT c, COUNT(*), AVG(y) FROM t GROUP BY c",
	"SELECT c, b, COUNT(*) AS cnt, SUM(WEIGHT) FROM t WHERE x > 0 GROUP BY c, b ORDER BY cnt DESC LIMIT 5",
	"SELECT n, SUM(y) FROM t GROUP BY n HAVING n IS NOT NULL",
}

// TestShardConcurrentMutation races sharded scatter-gather queries against
// concurrent AppendWeighted on the same table. Snapshot
// isolation makes each query see one frozen prefix; the test (run under
// -race in CI) asserts no data race and no spurious error —
// answer values are unpinnable mid-mutation, so correctness of the scan
// machinery, not the numbers, is the assertion.
func TestShardConcurrentMutation(t *testing.T) {
	tbl := diffTable(t, 300, 21)
	sels := make([]*sql.Select, len(shardStressQueries))
	for i, q := range shardStressQueries {
		sel, err := sql.ParseQuery(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		sels[i] = sel
	}
	done := make(chan struct{})
	var mutator, queriers sync.WaitGroup
	mutator.Add(1)
	go func() {
		defer mutator.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			row := []value.Value{
				value.Text(fmt.Sprintf("g%d", rng.Intn(6))),
				value.Int(int64(rng.Intn(1000) - 500)),
				value.Float(rng.Float64() * 100),
				value.Bool(rng.Intn(2) == 0),
				value.Int(int64(rng.Intn(4))),
			}
			if err := tbl.AppendWeighted(row, rng.Float64()*2); err != nil {
				t.Errorf("append: %v", err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		queriers.Add(1)
		go func(g int) {
			defer queriers.Done()
			shards := []int{2, 4}[g%2]
			for i := 0; i < 60; i++ {
				sel := sels[(g+i)%len(sels)]
				if _, err := Run(tbl, sel, Options{Weighted: true, Workers: 2, Shards: shards}); err != nil {
					t.Errorf("query %d (goroutine %d, %d shards): %v", i, g, shards, err)
					return
				}
			}
		}(g)
	}
	queriers.Wait()
	close(done)
	mutator.Wait()
}

// TestGatherRefusesMalformedPartials: a fleet partial is input from outside
// the gathering process, so one whose groups do not carry a key value per
// GROUP BY column, or a query whose plain item no GROUP BY column backs, is
// refused with an error; either used to index past a group's key values
// inside finalize and panic. So is a partial whose states are of another
// aggregate kind than the query's, which used to be gathered into the
// answer when every partial agreed.
func TestGatherRefusesMalformedPartials(t *testing.T) {
	ctx := t.Context()
	partial := func(kv ...value.Value) *ShardPartial {
		st := NewPartialStates(sql.AggCount, 1)
		st.Count[0] = 1
		return &ShardPartial{Keys: []string{GroupKey(kv)}, KeyVals: [][]value.Value{kv}, States: []*PartialStates{st}, Rows: 1}
	}
	for _, tc := range []struct {
		src  string
		bad  *ShardPartial // gathered after a well-formed partial
		want string
	}{
		{"SELECT c, x, COUNT(*) FROM t GROUP BY c, x", partial(value.Text("a")),
			"exec: gather: partial 1 group 0 carries 1 key values, query groups by 2 columns"},
		{"SELECT COUNT(*) FROM t", partial(value.Text("a")),
			"exec: gather: partial 1 group 0 carries 1 key values, query groups by 0 columns"},
		{"SELECT c, COUNT(*) FROM t", partial(),
			`exec: select item "c" must be a GROUP BY column or an aggregate`},
		{"SELECT SUM(x) FROM t", nil,
			"exec: gather: partial 0 aggregate 0 is COUNT, query has SUM"},
	} {
		partials := []*ShardPartial{partial(make([]value.Value, len(q(t, tc.src).GroupBy))...)}
		if tc.bad != nil {
			partials = append(partials, tc.bad)
		}
		_, err := GatherPartials(ctx, q(t, tc.src), partials)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%q: gather = %v, want %q", tc.src, err, tc.want)
		}
	}
}
