package exec

import (
	"context"
	"math/rand"
	"testing"

	"mosaic/internal/schema"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

// TestAndAllocatesPerCompileOnly: an AND combines its arms in stack chunks,
// so at one worker SelectRows on x > 300 AND x < 1000 makes as many
// allocations per scan as x > 300: the two differ only by the nodes the
// compile builds, by the same count over one morsel and over four.
func TestAndAllocatesPerCompileOnly(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	allocs := func(rows int, where string) float64 {
		rng := rand.New(rand.NewSource(1))
		xs := make([]int64, rows)
		for i := range xs {
			xs[i] = int64(rng.Intn(2000))
		}
		wts := make([]float64, rows)
		for i := range wts {
			wts[i] = 1
		}
		tbl, err := table.FromColumns("t", schema.MustNew(schema.Attribute{Name: "x", Kind: value.KindInt}),
			[]table.Column{{Kind: value.KindInt, Ints: xs}}, wts, table.NewDict())
		if err != nil {
			t.Fatal(err)
		}
		snap, w := tbl.Snapshot(), q(t, "SELECT * FROM t WHERE "+where).Where
		return testing.AllocsPerRun(5, func() {
			if _, err := SelectRows(context.Background(), snap, w, nil, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	one := allocs(1000, "x > 300 AND x < 1000") - allocs(1000, "x > 300")
	four := allocs(4*morselRows, "x > 300 AND x < 1000") - allocs(4*morselRows, "x > 300")
	if one != four {
		t.Errorf("an AND adds %v allocations over one morsel and %v over four: it allocates per morsel", one, four)
	}
}
