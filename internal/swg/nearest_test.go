package swg

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
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
				// The second column is the key itself, then up to three others.
				var ix anchorIndex
				for c2 := 0; c2 < 4 && c2 < dim; c2++ {
					ix.col, ix.col2 = col, (col+c2)%dim
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
							t.Fatalf("dim %d, %s (%d anchors), columns %d and %d, x %v: got (%v, row %d), scan says (%v, row %d)",
								dim, name, anchors.Rows, ix.col, ix.col2, x, gotD, gotAt, wantD, wantAt)
						}
					}
				}
			}
		}
	}
}

// sortedAnchorKeys is the comparator build the radix sort replaced, kept as
// its oracle: every anchor whose key is not NaN, by key (−0 equal to +0),
// then by row. Only key and at are set.
func sortedAnchorKeys(anchors nn.Batch, col int) []anchorKey {
	var keys []anchorKey
	for at := 0; at < anchors.Rows; at++ {
		if v := anchors.Row(at)[col]; !math.IsNaN(v) {
			keys = append(keys, anchorKey{key: v, at: at})
		}
	}
	slices.SortFunc(keys, func(a, b anchorKey) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return a.at - b.at
	})
	return keys
}

// TestAnchorIndexOrderIsTheComparators: the radix-built index cuts the
// comparator's order into strips: strip i holds the comparator's keys i·16
// to i·16+15, its bounds are the first and last of them to the bit, and its
// entries are those whose second-column value is not NaN, ascending by that
// value. Equal keys go by row and −0 beside +0 by row, so which anchors
// straddle a strip boundary tests the tie order; NaN keys are dropped. The
// anchors take few distinct values, so ties are common, and a build reuses
// the index of the one before it, as every training step does.
func TestAnchorIndexOrderIsTheComparators(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	values := []float64{
		math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), -1, 1, 0.5, -0.5,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, 1 + 0x1p-52,
	}
	var ix anchorIndex
	for trial := 0; trial < 200; trial++ {
		dim := 1 + rng.Intn(4)
		anchors := nn.NewBatch(1+rng.Intn(300), dim)
		for k := range anchors.Data {
			anchors.Data[k] = values[rng.Intn(len(values))]
			if rng.Intn(3) == 0 {
				anchors.Data[k] = float64(rng.Intn(1000)) / 7
			}
		}
		ix.col, ix.col2 = rng.Intn(dim), rng.Intn(dim)
		ix.build(anchors)
		want := sortedAnchorKeys(anchors, ix.col)
		if wantStrips := (len(want) + stripLen - 1) / stripLen; len(ix.strips) != wantStrips {
			t.Fatalf("trial %d: %d strips over %d keys, want %d", trial, len(ix.strips), len(want), wantStrips)
		}
		for si, st := range ix.strips {
			chunk := want[si*stripLen : min((si+1)*stripLen, len(want))]
			if math.Float64bits(st.lo) != math.Float64bits(chunk[0].key) || math.Float64bits(st.hi) != math.Float64bits(chunk[len(chunk)-1].key) {
				t.Fatalf("trial %d, strip %d: keys [%v, %v], the comparator's [%v, %v]", trial, si, st.lo, st.hi, chunk[0].key, chunk[len(chunk)-1].key)
			}
			var rows []int
			for _, k := range chunk {
				if !math.IsNaN(anchors.Row(k.at)[ix.col2]) {
					rows = append(rows, k.at)
				}
			}
			entries := ix.entries[st.start:st.end]
			var got []int
			for i, e := range entries {
				row := anchors.Row(e.at)
				if math.Float64bits(e.key) != math.Float64bits(row[ix.col]) || math.Float64bits(e.v) != math.Float64bits(row[ix.col2]) || i > 0 && e.v < entries[i-1].v {
					t.Fatalf("trial %d, strip %d: entry %d (%v, %v, row %d) is not its row's values in ascending order", trial, si, i, e.key, e.v, e.at)
				}
				got = append(got, e.at)
			}
			slices.Sort(rows)
			slices.Sort(got)
			if !slices.Equal(got, rows) {
				t.Fatalf("trial %d, strip %d: rows %v, the comparator's %v", trial, si, got, rows)
			}
		}
	}
}

// BenchmarkAnchorIndexBuild is the index build a training step runs when its
// sample outgrows ProximitySubsample: 256 anchors drawn from the repo
// benchmark's spiral and flights samples (benchSpiral, benchFlights), keyed
// by the model's own columns. allocs/op reads 0.
func BenchmarkAnchorIndexBuild(b *testing.B) {
	for _, bc := range []struct {
		name  string
		build func(testing.TB, int) *Model
	}{{"spiral-bench", benchSpiral}, {"flights-bench", benchFlights}} {
		b.Run(bc.name, func(b *testing.B) {
			m := bc.build(b, 1)
			ts := m.newTrainScratch()
			if ts.anchors.Rows == m.sample.Rows {
				b.Fatalf("%d sample rows: no per-step build", m.sample.Rows)
			}
			for i := 0; i < ts.anchors.Rows; i++ {
				copy(ts.anchors.Row(i), m.sample.Row(ts.rng.Intn(m.sample.Rows)))
			}
			ts.index.build(ts.anchors)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ts.index.build(ts.anchors)
			}
		})
	}
}
