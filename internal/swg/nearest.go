package swg

import (
	"cmp"
	"math"
	"slices"

	"mosaic/internal/nn"
)

// anchorKey is one anchor's value in the index's key column and its row in
// the anchor batch.
type anchorKey struct {
	v  float64
	at int
}

func compareAnchorKeys(a, b anchorKey) int {
	if c := cmp.Compare(a.v, b.v); c != 0 {
		return c
	}
	return a.at - b.at
}

// anchorIndex orders the proximity anchors by one encoded column, so a
// nearest-anchor search can start at the output row's value in that column
// and walk outward instead of scanning every anchor.
type anchorIndex struct {
	col int
	// keys holds every anchor whose key is not NaN, by key then row. An
	// anchor with a NaN key is at distance NaN from every row and never wins.
	keys []anchorKey
}

// build indexes anchors by column ix.col. It allocates nothing once keys has
// room for every anchor.
func (ix *anchorIndex) build(anchors nn.Batch) {
	ix.keys = ix.keys[:0]
	for at := 0; at < anchors.Rows; at++ {
		if v := anchors.Data[at*anchors.Dim+ix.col]; !math.IsNaN(v) {
			ix.keys = append(ix.keys, anchorKey{v, at})
		}
	}
	slices.SortFunc(ix.keys, compareAnchorKeys)
}

// nearest returns the smallest squared distance from x to an anchor and the
// lowest anchor row at that distance, or (+Inf, -1) when no distance is below
// +Inf: bit for bit what scanning every anchor in row order returns.
//
// A distance sums the squared differences in column order. Under
// round-to-nearest, adding a non-negative term never makes a sum smaller, so
// a distance is at least its key-column term, and a walk away from x's key
// stops once that term exceeds the best distance so far: every anchor further
// out has a term at least as large. A term equal to the best does not stop
// it, since an anchor at that distance with a lower row would still win. When
// x's key is NaN or infinite every term is NaN or +Inf, so nothing stops and
// nothing wins, as in the scan.
func (ix *anchorIndex) nearest(x []float64, anchors nn.Batch) (best float64, bestAt int) {
	best, bestAt = math.Inf(1), -1
	xk := x[ix.col]
	keys := ix.keys
	// lo is the last key below x's.
	lo, hi := -1, len(keys)
	for hi-lo > 1 {
		if mid := int(uint(lo+hi) >> 1); keys[mid].v < xk {
			lo = mid
		} else {
			hi = mid
		}
	}
	// Walk up from lo, then down from the key below it. Starting the up-walk
	// one key early seeds best with a near anchor; that first visit cannot
	// stop (best is still +Inf), and from the next key on the walk moves away
	// from x's.
	dim := anchors.Dim
	for _, side := range [...]struct{ from, step int }{{max(lo, 0), 1}, {lo - 1, -1}} {
	walk:
		for i := side.from; uint(i) < uint(len(keys)); i += side.step {
			k := keys[i]
			diff := xk - k.v
			if diff*diff > best {
				break
			}
			y := anchors.Data[k.at*dim : (k.at+1)*dim]
			y = y[:len(x)]
			var d float64
			j := 0
			// The partial sums only grow, so testing every fourth column
			// instead of every column drops the same anchors.
			for ; j+4 <= len(x); j += 4 {
				if !(d <= best) {
					continue walk
				}
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
	return best, bestAt
}

// proximityKey picks the column the anchors are indexed by: the continuous
// attribute whose encoded sample values vary most, or column 0 when every
// attribute is categorical. Every column gives the same answers; a key with a
// wide spread lets the walk stop soonest, while a one-hot column, with its
// two values, barely prunes at all.
func proximityKey(enc *Encoder, sample nn.Batch) int {
	col, widest := 0, math.Inf(-1)
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
		if spread := sq/n - float64((sum/n)*(sum/n)); spread > widest {
			col, widest = sp.Offset, spread
		}
	}
	return col
}
