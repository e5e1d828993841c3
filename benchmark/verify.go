package main

// Answer verification. Every operation checks its own answer; a miss is a
// failed operation.

import (
	"fmt"
	"math"

	"mosaic"
	"mosaic/internal/wire"
)

// sameResult reports whether got is the answer want, cell for cell and bit
// for bit (floats compare through the wire codec's exact encoding).
func sameResult(got, want *mosaic.Result) error {
	if len(got.Columns) != len(want.Columns) {
		return fmt.Errorf("answer has %d columns, want %d", len(got.Columns), len(want.Columns))
	}
	for i := range want.Columns {
		if got.Columns[i] != want.Columns[i] {
			return fmt.Errorf("column %d is %q, want %q", i, got.Columns[i], want.Columns[i])
		}
	}
	if len(got.Rows) != len(want.Rows) {
		return fmt.Errorf("answer has %d rows, want %d", len(got.Rows), len(want.Rows))
	}
	for r, wrow := range want.Rows {
		grow := got.Rows[r]
		if len(grow) != len(wrow) {
			return fmt.Errorf("row %d has %d cells, want %d", r, len(grow), len(wrow))
		}
		for c := range wrow {
			// Struct equality is the fast path; NaN cells fail it and fall
			// back to the encoded form.
			if grow[c] != wrow[c] && wire.EncodeValue(grow[c]) != wire.EncodeValue(wrow[c]) {
				return fmt.Errorf("row %d column %d is %s, want %s", r, c, grow[c], wrow[c])
			}
		}
	}
	return nil
}

// estimate is an aggregate answer flattened to group key → value; scalar
// answers use the empty key.
type estimate map[string]float64

func flatten(res *mosaic.Result) estimate {
	out := estimate{}
	for _, row := range res.Rows {
		key := ""
		if len(row) > 1 {
			key = row[0].String()
		}
		v := row[len(row)-1]
		if v.IsNull() {
			continue
		}
		if f, err := v.Float64(); err == nil {
			out[key] = f
		}
	}
	return out
}

// relErrPct is the mean relative error, in percent, of est against truth
// over truth's groups; a group the estimate lacks counts as 100 %.
func relErrPct(est, truth estimate) float64 {
	if len(truth) == 0 {
		return math.NaN()
	}
	var sum float64
	for k, tv := range truth {
		ev, ok := est[k]
		switch {
		case !ok:
			sum += 1
		case tv == 0:
			sum += math.Abs(ev)
		default:
			sum += math.Abs(ev-tv) / math.Abs(tv)
		}
	}
	return 100 * sum / float64(len(truth))
}
