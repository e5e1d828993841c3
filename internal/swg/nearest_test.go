package swg

import (
	"math"
	"math/rand"
	"testing"

	"mosaic/internal/nn"
)

// scanNearest is the exhaustive nearest-anchor scan the index replaced, kept
// as its oracle: every anchor in row order, a strictly smaller distance wins,
// so ties go to the lowest row.
func scanNearest(x []float64, anchors nn.Batch) (best float64, bestAt int) {
	dim := anchors.Dim
	best, bestAt = math.Inf(1), -1
nextAnchor:
	for at := 0; at < anchors.Rows; at++ {
		y := anchors.Row(at)
		var d float64
		j := 0
		for ; j+4 <= dim; j += 4 {
			if !(d < best) {
				continue nextAnchor
			}
			x4, y4 := x[j:j+4:j+4], y[j:j+4:j+4]
			d0, d1, d2, d3 := x4[0]-y4[0], x4[1]-y4[1], x4[2]-y4[2], x4[3]-y4[3]
			d += d0 * d0
			d += d1 * d1
			d += d2 * d2
			d += d3 * d3
		}
		for ; j < dim; j++ {
			diff := x[j] - y[j]
			d += diff * diff
		}
		if d < best {
			best, bestAt = d, at
		}
	}
	return best, bestAt
}

// gridValue is a coarse-grid value, so that equal distances (on both sides
// of a query, or to duplicate anchors) are common, or now and then a special
// value.
func gridValue(rng *rand.Rand, specials bool) float64 {
	if specials && rng.Intn(25) == 0 {
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}[rng.Intn(4)]
	}
	return float64(rng.Intn(9)) / 8
}

// TestIndexedNearestMatchesScan: the pruned search returns the exhaustive
// scan's distance and row, bit for bit, whatever column it is keyed on. The
// anchors are the whole sample or a subsample drawn with replacement (so
// duplicates), with NaN and ±Inf in keys and elsewhere, in 1 to 20
// dimensions, and once with every anchor on one key value.
func TestIndexedNearestMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for dim := 1; dim <= 20; dim++ {
		sample := nn.NewBatch(30+rng.Intn(120), dim)
		for k := range sample.Data {
			sample.Data[k] = gridValue(rng, true)
		}
		sub := nn.NewBatch(1+rng.Intn(2*sample.Rows), dim)
		for i := 0; i < sub.Rows; i++ {
			copy(sub.Row(i), sample.Row(rng.Intn(sample.Rows)))
		}
		flat := nn.NewBatch(sub.Rows, dim)
		copy(flat.Data, sub.Data)
		flatCol := rng.Intn(dim)
		for i := 0; i < flat.Rows; i++ {
			flat.Row(i)[flatCol] = 0.5
		}
		for name, anchors := range map[string]nn.Batch{"sample": sample, "subsample": sub, "flat-key": flat} {
			for col := 0; col < dim; col++ {
				ix := anchorIndex{col: col}
				ix.build(anchors)
				x := make([]float64, dim)
				for q := 0; q < 60; q++ {
					switch q % 3 {
					case 0: // an anchor itself: distance 0 to it and its duplicates
						copy(x, anchors.Row(rng.Intn(anchors.Rows)))
					case 1: // an anchor nudged in one column: its duplicates tie above 0
						copy(x, anchors.Row(rng.Intn(anchors.Rows)))
						x[rng.Intn(dim)] += 1.0 / 16
					default:
						for j := range x {
							x[j] = gridValue(rng, true) + float64(rng.Intn(2))/16
						}
					}
					gotD, gotAt := ix.nearest(x, anchors)
					wantD, wantAt := scanNearest(x, anchors)
					if math.Float64bits(gotD) != math.Float64bits(wantD) || gotAt != wantAt {
						t.Fatalf("dim %d, %s (%d anchors), key column %d, x %v: got (%v, row %d), scan says (%v, row %d)",
							dim, name, anchors.Rows, col, x, gotD, gotAt, wantD, wantAt)
					}
				}
			}
		}
	}
}
