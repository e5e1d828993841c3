// Morsel-driven intra-query parallelism.
//
// Every columnar scan partitions into fixed-size morsels of morselRows rows
// and runs across a small worker pool. Partitioning is independent of the
// worker count — morsel boundaries are a pure function of the row count — so
// any per-morsel state (selection counts, truth-vector slices, sorted runs)
// merges **in morsel order** into exactly the state a serial scan would have
// built. That is the whole determinism story: workers only decide who
// computes a morsel, never what the morsel produces or the order morsels
// combine, so answers are byte-identical for any Workers value.
//
// morselRows is a multiple of 64 so that two morsels never share a word of a
// []uint64 bitmap: parallel writers of per-row bits (the arithmetic kernels'
// division-error bits) stay race-free without atomics.
//
// Cancellation: each morsel boundary is a context checkpoint (the successor
// of PR 5's per-kernel checkpoints), so a cancelled query aborts within one
// morsel of work per worker and surfaces ctx.Err().
package exec

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
)

// morselRows is the fixed scan partition size. 64K rows keeps per-morsel
// state (a truth-vector slice, a sorted run) comfortably in cache
// while giving a 1M-row scan 16 units of schedulable work. Must stay a
// multiple of 64 (see the package comment on bitmap word ownership).
const morselRows = 64 * 1024

// MorselRows is the scan partition size, exported for plan introspection
// (EXPLAIN's execution row).
const MorselRows = morselRows

// forEachMorsel runs fn over the morsel partition of [0, n) as forEachTask
// tasks, checking ctx at every morsel boundary. fn must be safe to call
// concurrently on disjoint ranges and must not depend on completion order.
func forEachMorsel(ctx context.Context, n, workers int, fn func(lo, hi int)) error {
	return forEachTask(ctx, (n+morselRows-1)/morselRows, workers, func(m int) error {
		if err := checkCtx(ctx); err != nil {
			return err
		}
		lo := m * morselRows
		fn(lo, min(lo+morselRows, n))
		return nil
	})
}

// forEachTask runs fn(0..n-1) across exec's one worker pool: with workers <= 1
// (or a single task) in order on the calling goroutine, otherwise on
// min(workers, n) goroutines pulling tasks from an atomic counter. A task is
// one morsel (forEachMorsel), one aggregate's accumulation pass or one merge
// of two sorted runs; fn handles its own context checkpoints. The first error
// in task order wins, so the surfaced error is deterministic.
func forEachTask(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return checkCtx(ctx)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ternSelection builds the selection vector — indices of ternTrue rows in
// scan order — from a truth vector. At the first ternErr row (division by
// zero) it stops: sel holds the rows kept before it and failed is true.
//
// It takes one path at every worker count, and no loop branches on a row's
// outcome. Each morsel counts its ternTrue rows and notes whether it holds a
// ternErr; one that does is recounted up to its first ternErr row. The
// counts of the morsels up to the first failing one prefix-sum into
// per-morsel output offsets of one exact-size vector, and each morsel fills
// its segment: it writes every row's index at the next slot and advances
// the slot only past a ternTrue row, until the segment is full.
// Concatenation in morsel order is scan order, so the vector does not
// depend on the worker count.
func ternSelection(ctx context.Context, tern []int8, workers int) (sel []int32, failed bool, err error) {
	n := len(tern)
	nMorsels := (n + morselRows - 1) / morselRows
	counts := make([]int, nMorsels)
	errs := make([]bool, nMorsels)
	if err := forEachMorsel(ctx, n, workers, func(lo, hi int) {
		m, c, e := lo/morselRows, 0, 0
		for _, t := range tern[lo:hi] {
			c += b2i(t == ternTrue)
			e |= b2i(t == ternErr)
		}
		if e != 0 {
			c = 0
			for _, t := range tern[lo : lo+slices.Index(tern[lo:hi], ternErr)] {
				c += b2i(t == ternTrue)
			}
		}
		counts[m], errs[m] = c, e != 0
	}); err != nil {
		return nil, false, err
	}
	last := nMorsels // morsels [0, last) feed the selection
	if m := slices.Index(errs, true); m >= 0 {
		last, failed = m+1, true
	}
	offs := make([]int, last+1)
	for m, c := range counts[:last] {
		offs[m+1] = offs[m] + c
	}
	sel = make([]int32, offs[last])
	if err := forEachMorsel(ctx, n, workers, func(lo, hi int) {
		m := lo / morselRows
		if m >= last {
			return
		}
		seg := sel[offs[m]:offs[m+1]]
		for i, p := lo, 0; p < len(seg); i++ {
			seg[p] = int32(i)
			p += b2i(tern[i] == ternTrue)
		}
	}); err != nil {
		return nil, false, err
	}
	return sel, failed, nil
}
