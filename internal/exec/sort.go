// Columnar ORDER BY: a key-word sort of candidate row ids over typed column
// vectors instead of a comparator sort of materialized rows, plus a bounded
// heap so that ORDER BY ... LIMIT 10 over 1M rows never sorts them all.
//
// Tie-break contract (shared with orderAndLimit, which every aggregate
// answer — the OPEN combine's and the fleet gather's included — and every
// projection with a computed or expression key sorts through): sorting is
// STABLE — rows whose ORDER BY keys compare equal under value.Compare keep
// their pre-sort order, which is scan order for projections, first-occurrence
// order for DISTINCT, and group first-appearance order for aggregates.
// orderAndLimit reads each row's keys once and orders positions by them with
// ties broken by position, a total order that boundedTopK serves both as the
// LIMIT's heap and as the full sort.
//
// value.Compare is a strict weak order (NaN equals NaN and sorts above every
// other number, -0 equals 0), and under a strict weak order the stably sorted
// permutation is UNIQUE: any stable algorithm produces it, so the full sort
// (sortCandidates) need not run the row engine's. It encodes each key once
// per candidate as uint64 words whose unsigned order is cmp's (fillWords has
// the table) and stable-sorts the row ids by them word by word, least
// significant first, with radix.Sort — the program's one stable radix sort,
// which the M-SWG's sliced-W1 term and anchor index use too — over
// morsel-sized runs merged with left preference when there are workers. The
// top-K heap reaches the same prefix by totalizing the order with the
// pre-sort position.
package exec

import (
	"context"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"mosaic/internal/expr"
	"mosaic/internal/radix"
	"mosaic/internal/sql"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

// Output-column source markers (see projectionSources).
const (
	srcWeight   = -1 // the effective per-row weight vector
	srcComputed = -2 // a computed expression: filled from its compiled operand
)

// projectionSources resolves the output columns of a projection together
// with each column's source: a schema column index, srcWeight for the WEIGHT
// pseudo-column, or srcComputed for any other expression, which compiles to
// an operand (and can fail at a row). The names are the answer's columns.
func projectionSources(snap *table.Snapshot, sel *sql.Select) (names []string, src []int) {
	sc := snap.Schema()
	for _, it := range sel.Items {
		if it.Star {
			for i, n := range sc.Names() {
				names = append(names, n)
				src = append(src, i)
			}
			continue
		}
		names = append(names, it.Name())
		s := srcComputed
		if col, ok := it.Expr.(*expr.Column); ok {
			if j, ok := sc.Index(col.Name); ok {
				s = j
			} else if strings.EqualFold(col.Name, "WEIGHT") {
				s = srcWeight
			}
		}
		src = append(src, s)
	}
	return names, src
}

// vecSortKey is one resolved ORDER BY key over snapshot columns.
type vecSortKey struct {
	desc bool
	src  int
	col  *table.Column // nil for WEIGHT
	w    []float64     // the effective weight vector when src == srcWeight
	rank []int32       // TEXT: dictionary code → collation rank (rankTextKeys)
}

// resolveVecSortKeys maps every ORDER BY item onto a typed column source
// (TEXT keys still need rankTextKeys once the candidates are known). ok=false
// means some key is not a plain reference to a column-backed output column (a
// computed output, an expression key, or an unresolvable name) and the caller
// must fall back to the generic materialized sort.
func resolveVecSortKeys(snap *table.Snapshot, sel *sql.Select, outCols []string, src []int, rawW []float64) ([]vecSortKey, bool) {
	keys := make([]vecSortKey, 0, len(sel.OrderBy))
	for _, o := range sel.OrderBy {
		ci := outputColumn(o.Expr, outCols)
		if ci < 0 || src[ci] == srcComputed {
			return nil, false
		}
		k := vecSortKey{desc: o.Desc, src: src[ci]}
		if k.src == srcWeight {
			k.w = rawW
		} else {
			k.col = snap.Col(k.src)
		}
		keys = append(keys, k)
	}
	return keys, true
}

// rankTextKeys gives every TEXT key its dictionary-code → collation-rank
// table (byte order of the interned strings, as in value.Compare), ranking
// only the codes the key's column holds among the candidates — no other entry
// is ever used: a table has one dictionary for all its TEXT columns, and a
// 10-value key must not pay for a 100k-value sibling.
func rankTextKeys(snap *table.Snapshot, keys []vecSortKey, cand []int32) {
	strs := snap.DictStrings()
	for ki := range keys {
		k := &keys[ki]
		if k.col == nil || k.col.Kind != value.KindText {
			continue
		}
		rank := make([]int32, max(len(strs), 1)) // NULL rows hold code 0, even with nothing interned
		var codes []uint32
		for _, ri := range cand {
			if code := k.col.Codes[ri]; rank[code] == 0 {
				rank[code] = 1
				codes = append(codes, code)
			}
		}
		slices.SortFunc(codes, func(x, y uint32) int { return strings.Compare(strs[x], strs[y]) })
		for r, code := range codes {
			rank[code] = int32(r)
		}
		k.rank = rank
	}
}

// cmp compares rows ri and rj under this key with value.Compare semantics:
// NULL below everything, exact int64, value.CompareFloat, byte-ordered TEXT
// via the rank table. A FLOAT takes CompareFloat's branches, not cmpOrder's
// four tests: a comparison sort or heap branches on the answer anyway, and
// there the branches are the faster (a 100k-row top-K by 5–18 %).
func (k *vecSortKey) cmp(ri, rj int32) int {
	if k.src == srcWeight {
		return value.CompareFloat(k.w[ri], k.w[rj])
	}
	c := k.col
	if ni, nj := c.Null(int(ri)), c.Null(int(rj)); ni || nj {
		return boolCmp(nj, ni) // the row that is not NULL is the greater
	}
	switch c.Kind {
	case value.KindInt:
		return cmpOrder[int64](c.Ints[ri], c.Ints[rj])
	case value.KindFloat:
		return value.CompareFloat(c.Floats[ri], c.Floats[rj])
	case value.KindBool:
		return boolCmp(c.Bools[ri], c.Bools[rj])
	default: // TEXT
		return cmpOrder[int64](int64(k.rank[c.Codes[ri]]), int64(k.rank[c.Codes[rj]]))
	}
}

// sortCandidates stable-sorts the candidate row ids in place, byte-identical
// to the row engine's sort of the materialized rows (see the file comment):
// one stable sort of the ids by each key word, least significant first. A
// cancelled sort leaves cand some permutation of itself.
func sortCandidates(ctx context.Context, keys []vecSortKey, cand []int32, workers int) error {
	if err := checkCtx(ctx); err != nil {
		return err
	}
	m := len(cand)
	words := make([]uint64, 2*m)
	words, wordBuf := words[:m], words[m:]
	idBuf := make([]int32, m)
	for ki := len(keys) - 1; ki >= 0; ki-- {
		k := &keys[ki]
		n := 1
		if k.col != nil && k.col.HasNulls() {
			n = 2 // the value word, then the NULL flag above it
		}
		for wi := 0; wi < n; wi++ {
			k.fillWords(words, cand, wi == 1)
			if err := sortWords(ctx, words, wordBuf, cand, idBuf, workers); err != nil {
				return err
			}
		}
	}
	return nil
}

// fillWords writes one of this key's words for every row id. Among non-NULL
// rows the value word orders exactly as cmp does: INT with the sign bit
// flipped, FLOAT and WEIGHT as value.OrderWord, BOOL 0/1, TEXT the collation
// rank. The flag word, sorted after it on a column with NULLs, puts NULL below
// every value; NULL rows get the lowest word of either kind. DESC complements
// both.
func (k *vecSortKey) fillWords(words []uint64, ids []int32, nullFlag bool) {
	c := k.col
	var word func(ri int32) uint64
	switch {
	case nullFlag:
		word = func(int32) uint64 { return 1 }
	case k.src == srcWeight:
		word = func(ri int32) uint64 { return value.OrderWord(k.w[ri]) }
	case c.Kind == value.KindInt:
		word = func(ri int32) uint64 { return uint64(c.Ints[ri]) ^ 1<<63 }
	case c.Kind == value.KindFloat:
		word = func(ri int32) uint64 { return value.OrderWord(c.Floats[ri]) }
	case c.Kind == value.KindBool:
		word = func(ri int32) uint64 { return uint64(boolCmp(c.Bools[ri], false)) } // 0 / 1
	default: // TEXT
		word = func(ri int32) uint64 { return uint64(k.rank[c.Codes[ri]]) }
	}
	var flip uint64
	if k.desc {
		flip = ^uint64(0)
	}
	for i, ri := range ids {
		words[i] = flip
		if c == nil || !c.Null(int(ri)) {
			words[i] = word(ri) ^ flip
		}
	}
}

// sortWords stable-sorts words, ids moving with them; wordBuf and idBuf are
// scratch of the same length. With workers and more than one morsel it sorts
// morsel-sized runs concurrently, then merges adjacent runs in passes of
// doubling width: left preference on equal words keeps that stable, hence
// equal to the serial sort. The context is checked before every radix pass
// and every merge.
func sortWords(ctx context.Context, words, wordBuf []uint64, ids, idBuf []int32, workers int) error {
	m := len(words)
	if workers <= 1 || m <= morselRows {
		return sortRun(ctx, words, wordBuf, ids, idBuf)
	}
	runs := (m + morselRows - 1) / morselRows
	if err := forEachTask(ctx, runs, workers, func(r int) error {
		lo, hi := r*morselRows, min((r+1)*morselRows, m)
		return sortRun(ctx, words[lo:hi], wordBuf[lo:hi], ids[lo:hi], idBuf[lo:hi])
	}); err != nil {
		return err
	}
	src, dst := words, wordBuf
	srcID, dstID := ids, idBuf
	for width := morselRows; width < m; width *= 2 {
		merges := (m + 2*width - 1) / (2 * width)
		if err := forEachTask(ctx, merges, workers, func(p int) error {
			if err := checkCtx(ctx); err != nil {
				return err
			}
			lo := p * 2 * width
			mid, hi := min(lo+width, m), min(lo+2*width, m)
			mergeRuns(src[lo:mid], src[mid:hi], dst[lo:hi], srcID[lo:mid], srcID[mid:hi], dstID[lo:hi])
			return nil
		}); err != nil {
			return err
		}
		src, dst = dst, src
		srcID, dstID = dstID, srcID
	}
	if &src[0] != &words[0] {
		copy(words, src)
		copy(ids, srcID)
	}
	return nil
}

// sortRun is radix.Sort with the context checked before every pass.
func sortRun(ctx context.Context, words, wordBuf []uint64, ids, idBuf []int32) error {
	var err error
	radix.Sort(words, wordBuf, ids, idBuf, func() bool {
		err = checkCtx(ctx)
		return err != nil
	})
	return err
}

// mergeRuns merges two adjacent sorted runs a and b, with their ids, into out,
// taking from b only when its head word is strictly less than a's (left
// preference = stability).
func mergeRuns(a, b, out []uint64, aID, bID, outID []int32) {
	i, j := 0, 0
	for k := range out {
		if i == len(a) || (j < len(b) && b[j] < a[i]) {
			out[k], outID[k] = b[j], bID[j]
			j++
		} else {
			out[k], outID[k] = a[i], aID[i]
			i++
		}
	}
}

// compositeRanks collapses a multi-key ORDER BY into one packed uint64 per
// candidate: each key's values densify into order-preserving ranks (DESC keys
// invert theirs), and the per-key ranks concatenate most-significant-first,
// so a single uint64 compare answers exactly what the full key chain would,
// and equality means every key ties (stability then falls to pre-sort
// position, as always). Returns nil — caller keeps the per-comparison chain —
// for single-key sorts, empty candidate sets, or when the combined rank
// widths exceed 64 bits (keys whose distinct-value product tops 2^64).
func compositeRanks(keys []vecSortKey, cand []int32) []uint64 {
	if len(keys) < 2 || len(cand) == 0 {
		return nil
	}
	m := len(cand)
	perm := make([]int32, m)
	ranks := make([][]uint64, len(keys))
	widths := make([]uint, len(keys))
	var total uint
	for ki := range keys {
		k := &keys[ki]
		for i := range perm {
			perm[i] = int32(i)
		}
		// Unstable single-key sort: equal values land on equal ranks no
		// matter how they permute, so stability is irrelevant here.
		sort.Slice(perm, func(a, b int) bool { return k.cmp(cand[perm[a]], cand[perm[b]]) < 0 })
		r := make([]uint64, m)
		var cur uint64
		prev := perm[0]
		for i, p := range perm {
			if i > 0 && k.cmp(cand[prev], cand[p]) != 0 {
				cur++
			}
			r[p] = cur
			prev = p
		}
		if k.desc {
			for i := range r {
				r[i] = cur - r[i]
			}
		}
		ranks[ki] = r
		widths[ki] = uint(bits.Len64(cur)) // 0 when the key never discriminates
		total += widths[ki]
		if total > 64 {
			return nil
		}
	}
	comp := make([]uint64, m)
	for ki := range keys {
		w := widths[ki]
		if w == 0 {
			continue
		}
		r := ranks[ki]
		for i := range comp {
			comp[i] = comp[i]<<w | r[i]
		}
	}
	return comp
}

// topKCandidates returns the first k candidates of the full stable sort
// without sorting the whole slice: a bounded max-heap keeps the best k under
// the totalized order (keys, then pre-sort position). Under a strict weak
// order, stable sort equals sorting by that total order, so the heap's
// answer is exactly the k-prefix.
func topKCandidates(keys []vecSortKey, cand []int32, k int) []int32 {
	less := func(a, b int) bool {
		for kk := range keys {
			c := keys[kk].cmp(cand[a], cand[b])
			if c == 0 {
				continue
			}
			if keys[kk].desc {
				return c > 0
			}
			return c < 0
		}
		return a < b
	}
	// Multi-key heaps compare O(k log k · n) times; the shared composite rank
	// vector turns each of those into one uint64 compare. Identical order by
	// construction (see compositeRanks), so the heap's answer is unchanged.
	if comp := compositeRanks(keys, cand); comp != nil {
		less = func(a, b int) bool {
			if comp[a] != comp[b] {
				return comp[a] < comp[b]
			}
			return a < b
		}
	}
	top := boundedTopK(len(cand), k, less)
	out := make([]int32, len(top))
	for i, p := range top {
		out[i] = cand[p]
	}
	return out
}

// boundedTopK returns the k smallest positions of [0, n) under less, in
// ascending order. less must be a total order (ties broken by position).
// The heap holds at most k entries, so memory and comparisons stay O(k) per
// pushed element instead of O(n log n) for a full sort; at k = n it is the
// full sort.
func boundedTopK(n, k int, less func(a, b int) bool) []int {
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	if k == n {
		h := make([]int, n)
		for i := range h {
			h[i] = i
		}
		sort.Slice(h, func(a, b int) bool { return less(h[a], h[b]) })
		return h
	}
	h := make([]int, 0, k)
	// Max-heap: h[0] is the worst of the current best k.
	siftUp := func(i int) {
		for i > 0 {
			p := (i - 1) / 2
			if less(h[p], h[i]) {
				h[p], h[i] = h[i], h[p]
				i = p
				continue
			}
			break
		}
	}
	siftDown := func() {
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			big := i
			if l < len(h) && less(h[big], h[l]) {
				big = l
			}
			if r < len(h) && less(h[big], h[r]) {
				big = r
			}
			if big == i {
				return
			}
			h[i], h[big] = h[big], h[i]
			i = big
		}
	}
	for p := 0; p < n; p++ {
		if len(h) < k {
			h = append(h, p)
			siftUp(len(h) - 1)
			continue
		}
		if less(p, h[0]) {
			h[0] = p
			siftDown()
		}
	}
	sort.Slice(h, func(a, b int) bool { return less(h[a], h[b]) })
	return h
}
