package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"mosaic/internal/schema"
	"mosaic/internal/sql"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

// TestRunContextCancelled: both executor paths honor an already-cancelled
// context on every query shape (projection, aggregate, sort).
func TestRunContextCancelled(t *testing.T) {
	sc := schema.MustNew(
		schema.Attribute{Name: "g", Kind: value.KindText},
		schema.Attribute{Name: "x", Kind: value.KindInt},
	)
	tbl := table.New("t", sc)
	for i := 0; i < 20000; i++ {
		if err := tbl.Append([]value.Value{value.Text(fmt.Sprintf("g%d", i%7)), value.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	queries := []string{
		"SELECT g, x FROM t WHERE x > 10",
		"SELECT g, COUNT(*), SUM(x) FROM t GROUP BY g",
		"SELECT g, x FROM t ORDER BY x DESC LIMIT 5",
		"SELECT DISTINCT g FROM t",
	}
	for _, q := range queries {
		sel, err := sql.ParseQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, forceRow := range []bool{false, true} {
			if _, err := RunContext(ctx, tbl, sel, Options{Weighted: true, ForceRow: forceRow}); !errors.Is(err, context.Canceled) {
				t.Errorf("%q (forceRow=%v) = %v, want context.Canceled", q, forceRow, err)
			}
		}
		// And the nil-context wrappers still work.
		if _, err := Run(tbl, sel, Options{Weighted: true}); err != nil {
			t.Errorf("%q uncancelled: %v", q, err)
		}
	}
}

// countdownCtx is a context that reports cancellation after a fixed number
// of Err() checks, landing it at a chosen checkpoint of a query (the same
// device as internal/core's open_cancel_test.go). With limit 0 it never
// cancels and just counts the checkpoints.
type countdownCtx struct {
	context.Context
	calls atomic.Int64
	limit int64
}

func (c *countdownCtx) Err() error {
	if c.calls.Add(1) > c.limit && c.limit > 0 {
		return context.Canceled
	}
	return nil
}

// TestSortCancelledBetweenPasses: the key-word sort is interruptible. A
// sorted query has checkpoints the same query without ORDER BY lacks — one
// per radix pass, per run and per merge — and cancelling at any checkpoint of
// the query returns context.Canceled and no result, never a partly sorted
// one (TestRunContextCancelled has the first checkpoint); allowed all of them,
// the query runs to the full answer.
func TestSortCancelledBetweenPasses(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tbl := table.New("t", sc)
	for i := 0; i < morselRows+1000; i++ {
		err := tbl.Append([]value.Value{value.Text("g"), value.Int(int64(rng.Intn(50))), value.Float(rng.NormFloat64())})
		if err != nil {
			t.Fatal(err)
		}
	}
	checkpoints := func(src string, workers int) (int64, *Result) {
		sel, err := sql.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &countdownCtx{Context: context.Background()}
		res, err := RunContext(ctx, tbl, sel, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return ctx.calls.Load(), res
	}
	const sorted = "SELECT x, y FROM t WHERE x >= 0 ORDER BY y DESC, x"
	sel, err := sql.ParseQuery(sorted)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		unsorted, _ := checkpoints("SELECT x, y FROM t WHERE x >= 0", workers)
		total, want := checkpoints(sorted, workers)
		// Two keys: one pass over x's single varying byte, eight over y's.
		if total-unsorted < 9 {
			t.Fatalf("%d workers: ORDER BY adds %d checkpoints, want one per sort pass (>= 9)", workers, total-unsorted)
		}
		for limit := int64(1); limit < total; limit++ {
			ctx := &countdownCtx{Context: context.Background(), limit: limit}
			res, err := RunContext(ctx, tbl, sel, Options{Workers: workers})
			if !errors.Is(err, context.Canceled) || res != nil {
				t.Fatalf("%d workers, cancelled after checkpoint %d of %d: result %v, error %v; want nil, context.Canceled",
					workers, limit, total, res != nil, err)
			}
		}
		res, err := RunContext(&countdownCtx{Context: context.Background(), limit: total}, tbl, sel, Options{Workers: workers})
		if err != nil {
			t.Fatalf("%d workers, cancelled after the last checkpoint: %v", workers, err)
		}
		if res.String() != want.String() {
			t.Fatalf("%d workers, cancelled after the last checkpoint: answer differs from the uncancelled run's", workers)
		}
	}
}
