package exec

import (
	"mosaic/internal/sql"
	"mosaic/internal/value"
)

// Finalize produces group g's output value, one group at a time: the
// reference FinalizeInto must equal cell for cell. COUNT of nothing is 0,
// SUM/MIN/MAX of nothing are NULL, AVG is NULL when no input or all weights
// were zero.
func (st *PartialStates) Finalize(g int) value.Value {
	switch st.Kind {
	case sql.AggCount:
		return value.Float(st.Count[g])
	case sql.AggSum:
		if !st.Seen[g] {
			return value.Null()
		}
		return value.Float(st.SumWX[g])
	case sql.AggAvg:
		if !st.Seen[g] || st.SumW[g] == 0 {
			return value.Null()
		}
		return value.Float(st.SumWX[g] / st.SumW[g])
	case sql.AggMin, sql.AggMax:
		if !st.Seen[g] {
			return value.Null()
		}
		return st.MinMax[g]
	default:
		return value.Null()
	}
}
