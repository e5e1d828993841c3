package exec_test

import (
	"math"
	"testing"

	"mosaic/internal/exec"
	"mosaic/internal/sql"
	"mosaic/internal/value"
	"mosaic/internal/wire"
)

// sameValue is value identity as an answer shows it: == on the struct, and
// the wire encoding besides, which tells -0 from +0 (== does not) and NaN
// from NaN (== never holds).
func sameValue(a, b value.Value) bool {
	ea, eb := wire.EncodeValue(a), wire.EncodeValue(b)
	if ea.K != eb.K || ea.V != eb.V {
		return false
	}
	return a == b || ea.V == "NaN"
}

// TestFinalizeIntoMatchesFinalize: the column-at-a-time FinalizeInto writes
// exactly Finalize(g) for every aggregate kind, at every stride and offset
// into a row-major slab, and touches no other cell. The states cover unseen
// groups, all-zero weights, NaN, ±0 and ±Inf sums, and MIN/MAX extremes of
// every value kind.
func TestFinalizeIntoMatchesFinalize(t *testing.T) {
	negZero := math.Copysign(0, -1)
	floats := []float64{0, negZero, 1.5, -2, math.NaN(), math.Inf(1)}
	extremes := []value.Value{
		value.Int(-3), value.Int(7), value.Float(negZero), value.Float(math.NaN()),
		value.Float(2.5), value.Text(""), value.Text("x"), value.Bool(true), value.Bool(false),
	}
	sentinel := value.Text("untouched")
	kinds := []sql.AggKind{sql.AggNone, sql.AggCount, sql.AggSum, sql.AggAvg, sql.AggMin, sql.AggMax}
	for _, kind := range kinds {
		// Group g pairs floats[g%6] (Count, SumW) with floats[g/6%6] (SumWX);
		// the second half of the groups is unseen.
		n := 2 * len(floats) * len(floats)
		st := exec.NewPartialStates(kind, n)
		for g := 0; g < n; g++ {
			a, b := floats[g%len(floats)], floats[g/len(floats)%len(floats)]
			seen := g < n/2
			switch kind {
			case sql.AggCount:
				st.Count[g] = a
			case sql.AggSum, sql.AggAvg:
				st.SumW[g], st.SumWX[g], st.Seen[g] = a, b, seen
			case sql.AggMin, sql.AggMax:
				st.MinMax[g], st.Seen[g] = extremes[g%len(extremes)], seen
			}
		}
		for stride := 1; stride <= 3; stride++ {
			for off := 0; off < stride; off++ {
				slab := make([]value.Value, n*stride)
				for i := range slab {
					slab[i] = sentinel
				}
				st.FinalizeInto(slab[off:], stride)
				for i, got := range slab {
					want := sentinel
					if (i-off)%stride == 0 && i >= off {
						want = st.Finalize((i - off) / stride)
					}
					if !sameValue(got, want) {
						t.Fatalf("%v, stride %d, offset %d: cell %d = %v, want %v", kind, stride, off, i, got, want)
					}
				}
			}
		}
		st.FinalizeInto(nil, 3) // no groups: writes nothing
	}
}
