package radix

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mosaic/internal/value"
)

// keyPatterns are the key shapes the kernel is held to, each a function of
// the input position and a random source: every key equal, one byte varying
// (one pass), the high bytes shared (the top passes skipped), every byte
// random, and descending (every key moves).
var keyPatterns = []struct {
	name string
	key  func(i int, rng *rand.Rand) uint64
}{
	{"all-equal", func(int, *rand.Rand) uint64 { return 0x0123456789abcdef }},
	{"one-byte", func(_ int, rng *rand.Rand) uint64 { return 0x5500000000000011 | uint64(rng.Intn(256))<<24 }},
	{"shared-high", func(_ int, rng *rand.Rand) uint64 { return 0xfeed_0000_0000_0000 | uint64(rng.Intn(1<<20)) }},
	{"random", func(_ int, rng *rand.Rand) uint64 { return rng.Uint64() }},
	{"few-values", func(_ int, rng *rand.Rand) uint64 { return uint64(rng.Intn(4)) << 40 }},
	{"descending", func(i int, _ *rand.Rand) uint64 { return ^uint64(i) }},
}

// TestSortMatchesSliceStable: at every length around a byte's 256 buckets
// and past a morsel, on every key pattern, Sort leaves the keys and ids that
// slices.SortStableFunc by key gives: the same permutation, so equal keys in
// input order. The ids are not the positions, so they are carried, not
// recomputed. Buffers longer than the input are used only in their prefix.
func TestSortMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	type pair struct {
		key uint64
		id  int32
	}
	for _, n := range []int{0, 1, 2, 3, 255, 256, 257, 1000, 70_000} {
		for _, p := range keyPatterns {
			keys, ids := make([]uint64, n), make([]int32, n)
			want := make([]pair, n)
			for i := range keys {
				keys[i], ids[i] = p.key(i, rng), int32(rng.Uint32())
				want[i] = pair{keys[i], ids[i]}
			}
			slices.SortStableFunc(want, func(a, b pair) int { return cmp.Compare(a.key, b.key) })
			keyBuf, idBuf := make([]uint64, n+3), make([]int32, n+3)
			Sort(keys, keyBuf, ids, idBuf, nil)
			for i, w := range want {
				if keys[i] != w.key || ids[i] != w.id {
					t.Fatalf("n=%d, %s: position %d holds (%#x, %d), the stable sort (%#x, %d)", n, p.name, i, keys[i], ids[i], w.key, w.id)
				}
			}
		}
	}
}

// TestSortStopsBetweenPasses: stop is asked once before each pass Sort
// makes, so once per byte position on which the keys differ, and a true
// answer ends the sort there with the ids still a permutation of the input.
func TestSortStopsBetweenPasses(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	const n = 1000
	for _, c := range []struct {
		pattern string
		passes  int
	}{{"all-equal", 0}, {"one-byte", 1}, {"shared-high", 3}, {"random", 8}} {
		var key func(int, *rand.Rand) uint64
		for _, p := range keyPatterns {
			if p.name == c.pattern {
				key = p.key
			}
		}
		keys, ids := make([]uint64, n), make([]int32, n)
		for i := range keys {
			keys[i], ids[i] = key(i, rng), int32(i)
		}
		keyBuf, idBuf := make([]uint64, n), make([]int32, n)
		asked := 0
		Sort(slices.Clone(keys), keyBuf, slices.Clone(ids), idBuf, func() bool { asked++; return false })
		if asked != c.passes {
			t.Errorf("%s: stop asked %d times, want one per differing byte (%d)", c.pattern, asked, c.passes)
		}
		for stopAt := 1; stopAt <= c.passes; stopAt++ {
			got := slices.Clone(ids)
			asked := 0
			Sort(slices.Clone(keys), keyBuf, got, idBuf, func() bool { asked++; return asked == stopAt })
			if asked != stopAt {
				t.Errorf("%s: stop at pass %d, but asked %d times", c.pattern, stopAt, asked)
			}
			slices.Sort(got)
			for i, id := range got {
				if id != int32(i) {
					t.Fatalf("%s: stopped at pass %d, the ids are not a permutation", c.pattern, stopAt)
				}
			}
		}
	}
}

// TestSortAllocatesNothing: the kernel works in the caller's buffers and a
// stop closure that captures an error does not escape.
func TestSortAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	src := make([]uint64, 500)
	for i := range src {
		src[i] = rng.Uint64()
	}
	keys, keyBuf := make([]uint64, len(src)), make([]uint64, len(src))
	ids, idBuf := make([]int32, len(src)), make([]int32, len(src))
	var err error
	allocs := testing.AllocsPerRun(20, func() {
		copy(keys, src)
		Sort(keys, keyBuf, ids, idBuf, func() bool { return err != nil })
	})
	if allocs != 0 {
		t.Errorf("Sort allocates %v times, want 0", allocs)
	}
}

// BenchmarkSort is the kernel alone on the order words of normal draws (every
// byte differs, so all eight passes run): 256 keys (the proximity anchors),
// 500 (a sliced-W1 batch) and 100k (an ORDER BY). Each op first restores the
// unsorted keys. allocs/op reads 0.
func BenchmarkSort(b *testing.B) {
	for _, n := range []int{256, 500, 100_000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			src := make([]uint64, n)
			for i := range src {
				src[i] = value.OrderWord(rng.NormFloat64())
			}
			keys, keyBuf := make([]uint64, n), make([]uint64, n)
			ids, idBuf := make([]int32, n), make([]int32, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(keys, src)
				Sort(keys, keyBuf, ids, idBuf, nil)
			}
		})
	}
}
