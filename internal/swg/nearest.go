package swg

import (
	"math"

	"mosaic/internal/nn"
	"mosaic/internal/wasserstein"
)

// stripLen is how many consecutive anchors in key order make one strip of
// the index: about the square root of the repo benchmark's 256 anchors, so
// a search walks a few strips and a few anchors in each.
const stripLen = 16

// anchorKey is one indexed anchor: its values in the index's key and
// second columns and its row in the anchor batch.
type anchorKey struct {
	key, v float64
	at     int
}

// anchorStrip is stripLen consecutive anchors in key order: lo and hi are
// their smallest and largest keys, and entries[start:end] those of them
// whose second-column value is not NaN, ascending by that value.
type anchorStrip struct {
	lo, hi     float64
	start, end int
}

// anchorIndex orders the proximity anchors into strips by one encoded
// column, the key, and each strip by a second column, so a nearest-anchor
// search can start at the output row's strip and entry and walk outward on
// both columns instead of scanning every anchor. An anchor whose key or
// second-column value is NaN is at distance NaN from every row and never
// wins, so it is left out.
type anchorIndex struct {
	col, col2 int
	strips    []anchorStrip
	entries   []anchorKey
	// vals and order are build's scratch: the key column in row order, and
	// the stable radix sort that orders it.
	vals  []float64
	order wasserstein.Scratch
}

// build indexes anchors by columns ix.col and ix.col2. The anchors are
// redrawn every training step once the sample outgrows ProximitySubsample,
// so build runs as often as the search: it orders the keys with the W1
// term's stable LSD radix sort (equal keys, −0 and +0 among them, stay in
// row order; NaNs come last and are dropped), cuts that order into strips
// and insertion-sorts each strip by its second column. It allocates nothing
// once strips, entries and vals have room for every anchor.
func (ix *anchorIndex) build(anchors nn.Batch) {
	vals := ix.vals[:0]
	for at := 0; at < anchors.Rows; at++ {
		vals = append(vals, anchors.Data[at*anchors.Dim+ix.col])
	}
	ix.vals = vals
	order := ix.order.Order(vals)
	n := len(order)
	for n > 0 && math.IsNaN(vals[order[n-1]]) {
		n--
	}
	ix.strips, ix.entries = ix.strips[:0], ix.entries[:0]
	for s0 := 0; s0 < n; s0 += stripLen {
		s1 := min(s0+stripLen, n)
		st := anchorStrip{lo: vals[order[s0]], hi: vals[order[s1-1]], start: len(ix.entries)}
		for _, at := range order[s0:s1] {
			v := anchors.Data[int(at)*anchors.Dim+ix.col2]
			if math.IsNaN(v) {
				continue
			}
			ix.entries = append(ix.entries, anchorKey{vals[at], v, int(at)})
			for j := len(ix.entries) - 1; j > st.start && v < ix.entries[j-1].v; j-- {
				ix.entries[j], ix.entries[j-1] = ix.entries[j-1], ix.entries[j]
			}
		}
		st.end = len(ix.entries)
		ix.strips = append(ix.strips, st)
	}
}

// nearest returns the smallest squared distance from x to an anchor and the
// lowest anchor row at that distance, or (+Inf, -1) when no distance is below
// +Inf: bit for bit what scanning every anchor in row order returns.
//
// A distance sums the squared differences in column order. Under
// round-to-nearest, adding a non-negative term never makes a sum smaller and
// rounding is monotone, so a distance is at least the rounded sum of its
// key-column and second-column terms, and at least that sum with the key
// term replaced by anything smaller. A strip's key bound is the term of its
// key nearest x's (zero when x's key lies within the strip): the walk over
// strips away from x's key stops once that bound exceeds the best distance
// so far, since every strip further out has a larger one; the walk over a
// strip's entries away from x's second-column value stops once the key
// bound plus the entry's second-column term does; and an entry whose own
// two terms exceed the best is passed over. A bound equal to the best stops
// nothing, since an anchor at that distance with a lower row would still
// win. When x holds a NaN or an infinity every distance is NaN or +Inf, no
// bound stops anything and nothing wins, as in the scan.
func (ix *anchorIndex) nearest(x []float64, anchors nn.Batch) (best float64, bestAt int) {
	best, bestAt = math.Inf(1), -1
	xk, x2 := x[ix.col], x[ix.col2]
	strips := ix.strips
	// s is the first strip whose keys reach x's.
	s := len(strips)
	for lo := -1; s-lo > 1; {
		if mid := int(uint(lo+s) >> 1); strips[mid].hi < xk {
			lo = mid
		} else {
			s = mid
		}
	}
	dim := anchors.Dim
	for _, side := range [...]struct{ from, step int }{{s, 1}, {s - 1, -1}} {
		for si := side.from; uint(si) < uint(len(strips)); si += side.step {
			st := &strips[si]
			var gap float64
			if xk < st.lo {
				gap = st.lo - xk
			} else if xk > st.hi {
				gap = xk - st.hi
			}
			bound := gap * gap
			if bound > best {
				break
			}
			if ix.col2 == ix.col {
				// One column is both terms: count it once.
				bound = 0
			}
			entries := ix.entries[st.start:st.end]
			// e is the first entry at or above x's second-column value.
			e := len(entries)
			for lo := -1; e-lo > 1; {
				if mid := int(uint(lo+e) >> 1); entries[mid].v < x2 {
					lo = mid
				} else {
					e = mid
				}
			}
			for _, dir := range [...]struct{ from, step int }{{e, 1}, {e - 1, -1}} {
				for i := dir.from; uint(i) < uint(len(entries)); i += dir.step {
					k := entries[i]
					diff := x2 - k.v
					t2 := float64(diff * diff)
					if bound+t2 > best {
						break
					}
					if ix.col2 != ix.col {
						if dk := xk - k.key; float64(dk*dk)+t2 > best {
							continue
						}
					}
					// The whole distance is summed: where a partial sum
					// would pass the best depends on the data, and the
					// mispredicted branches of such a test cost more than
					// the columns it saves.
					y := anchors.Data[k.at*dim : (k.at+1)*dim]
					y = y[:len(x)]
					var d float64
					j := 0
					for ; j+4 <= len(x); j += 4 {
						x4, y4 := x[j:j+4:j+4], y[j:j+4:j+4]
						d0, d1, d2, d3 := x4[0]-y4[0], x4[1]-y4[1], x4[2]-y4[2], x4[3]-y4[3]
						d += float64(d0 * d0)
						d += float64(d1 * d1)
						d += float64(d2 * d2)
						d += float64(d3 * d3)
					}
					for ; j < len(x); j++ {
						diff := x[j] - y[j]
						d += float64(diff * diff)
					}
					if d < best || d == best && k.at < bestAt {
						best, bestAt = d, k.at
					}
				}
			}
		}
	}
	return best, bestAt
}

// proximityKeys picks the columns the anchors are indexed by: the key is the
// continuous attribute whose encoded sample values vary most, the second
// column the one that varies next most. With one continuous attribute the
// second column is the lowest other column, and with none the key is column
// 0; a one-column encoding indexes that column twice. Every choice gives the
// same answers; columns with a wide spread let the walks stop soonest, while
// a one-hot column, with its two values, barely prunes at all.
func proximityKeys(enc *Encoder, sample nn.Batch) (col, col2 int) {
	col, col2 = -1, -1
	widest, next := math.Inf(-1), math.Inf(-1)
	n := float64(sample.Rows)
	for _, sp := range enc.Attrs {
		if sp.Categorical {
			continue
		}
		var sum, sq float64
		for r := 0; r < sample.Rows; r++ {
			v := sample.Data[r*sample.Dim+sp.Offset]
			sum += v
			sq += float64(v * v)
		}
		switch spread := sq/n - float64((sum/n)*(sum/n)); {
		case spread > widest:
			col2, next = col, widest
			col, widest = sp.Offset, spread
		case spread > next:
			col2, next = sp.Offset, spread
		}
	}
	if col < 0 {
		col = 0
	}
	if col2 < 0 {
		col2 = col
		if sample.Dim > 1 {
			col2 = 1 - min(col, 1) // column 0, or 1 when the key is 0
		}
	}
	return col, col2
}
