// Package ipf implements Iterative Proportional Fitting (Deming–Stephan
// raking, the paper's citation [13]; see also Sinkhorn scaling [27]). Given a
// weighted sample and a set of 1-/2-dimensional population marginals, IPF
// rescales tuple weights cell-by-cell until every marginal of the weighted
// sample matches the population marginal. This is Mosaic's SEMI-OPEN query
// evaluation technique when the sampling mechanism is unknown (Sec 4.1).
//
// IPF can only reweight tuples that exist: a marginal cell with positive
// target but no sample tuples is unreachable mass (those are exactly the
// false negatives SEMI-OPEN accepts, Sec 3.3). The Result reports it.
package ipf

import (
	"context"
	"fmt"
	"math"

	"mosaic/internal/marginal"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

// Options tunes the fit.
type Options struct {
	MaxIters int     // maximum raking sweeps (default 200)
	Tol      float64 // max relative marginal error to declare convergence (default 1e-6)
	// KeepUnreachableTargets disables the renormalization of reachable cell
	// targets. By default, when a marginal has cells no sample tuple falls
	// into (e.g. the Gmail cells of a Yahoo-only sample), the reachable
	// cells' targets are scaled up so each marginal's reachable mass equals
	// the full population total. This matches the paper's Sec 2 semantics —
	// the reweighted Yahoo sample represents *all* UK migrants (UK, Yahoo,
	// 20000) — and keeps the marginal system consistent so raking
	// converges. With this flag set the raw targets are used and IPF may
	// oscillate between inconsistent marginals.
	KeepUnreachableTargets bool
}

func (o Options) withDefaults() Options {
	if o.MaxIters <= 0 {
		o.MaxIters = 200
	}
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
	return o
}

// Result describes a completed fit.
type Result struct {
	Iterations      int     // sweeps performed
	MaxRelErr       float64 // final max relative error over reachable cells
	Converged       bool
	UnreachableMass float64 // total target count in cells with no sample tuples
	ReachableTotal  float64 // total target count in reachable cells
}

// cellGroup is the tuple indices belonging to one marginal cell, with its
// target count.
type cellGroup struct {
	target float64
	rows   []int
}

// Fit computes IPF weights for the sample against the marginals. The input
// weights seed the iteration (the user's initial weights, Sec 3.2); they must
// be non-negative and not all zero. Fit does not modify the table; use
// ApplyContext or Table.SetWeights with the returned weights.
func Fit(sample *table.Table, marginals []*marginal.Marginal, opts Options) ([]float64, Result, error) {
	return FitContext(context.Background(), sample, marginals, opts)
}

// FitContext is Fit with a cancellation context, checked once per raking
// sweep. A cancelled fit returns ctx.Err() without touching the sample (Fit
// rakes a private copy of the weights), so a later retry reproduces the
// uncancelled weights exactly.
func FitContext(ctx context.Context, sample *table.Table, marginals []*marginal.Marginal, opts Options) ([]float64, Result, error) {
	opts = opts.withDefaults()
	if len(marginals) == 0 {
		return nil, Result{}, fmt.Errorf("ipf: no marginals")
	}
	if sample.Len() == 0 {
		return nil, Result{}, fmt.Errorf("ipf: empty sample %s", sample.Name())
	}

	snap := sample.Snapshot()
	all := snap.AllRows()
	slots := make([][]cellGroup, len(marginals))
	for mi, m := range marginals {
		idxs := make([]int, len(m.Attrs))
		widths := make([]float64, len(m.Attrs))
		for ai, a := range m.Attrs {
			j, ok := sample.Schema().Index(a)
			if !ok {
				return nil, Result{}, fmt.Errorf("ipf: sample %s has no attribute %q required by marginal %s", sample.Name(), a, m.Name)
			}
			idxs[ai], widths[ai] = j, m.BinWidth(ai)
		}
		slots[mi] = cellSlots(snap, m, idxs, widths, all)
	}
	return rake(ctx, marginals, slots, sample.Weights(), opts)
}

// cellSlots buckets the sample's rows by m's cells: the sample's groups
// under m's bin widths (Snapshot.GroupIDs), then one cell lookup per group
// at its first row. It seeds one slot per cell, in cell order, with the
// cell's count as target; a cell no group matches (a TEXT value the sample
// never stored) keeps no rows. A group outside every cell gets a
// zero-target slot of its own after the cells, in first-appearance order:
// IPF drives its weights to 0.
func cellSlots(snap *table.Snapshot, m *marginal.Marginal, idxs []int, widths []float64, all []int32) []cellGroup {
	ids, first := snap.GroupIDs(idxs, widths, all)
	cells := m.Cells()
	slots := make([]cellGroup, len(cells), len(cells)+len(first))
	for ci := range cells {
		slots[ci].target = cells[ci].Count
	}
	slotOf := make([]int, len(first))
	vals := make([]value.Value, len(idxs))
	for g, r := range first {
		for ai, j := range idxs {
			vals[ai] = snap.Value(int(r), j)
		}
		ci, ok := m.Index(vals)
		if !ok {
			ci = len(slots)
			slots = append(slots, cellGroup{})
		}
		slotOf[g] = ci
	}
	for i, g := range ids {
		s := &slots[slotOf[g]]
		s.rows = append(s.rows, i)
	}
	return slots
}

// rake fits the seed weights w in place to every marginal's slots: slots
// with no rows are unreachable mass, the reachable targets are
// renormalized unless opts keeps them, and raking sweeps until convergence.
func rake(ctx context.Context, marginals []*marginal.Marginal, slots [][]cellGroup, w []float64, opts Options) ([]float64, Result, error) {
	groups := make([][]cellGroup, len(marginals))
	var unreachable, reachableTotal float64
	for mi, m := range marginals {
		gl := make([]cellGroup, 0, len(slots[mi]))
		var reach float64
		for _, g := range slots[mi] {
			if len(g.rows) == 0 {
				unreachable += g.target
				continue
			}
			reach += g.target
			gl = append(gl, g)
		}
		reachableTotal += reach
		// Renormalize reachable targets to the marginal total so the
		// marginal system stays consistent over the sample's support.
		if total := m.Total(); !opts.KeepUnreachableTargets && reach > 0 && reach < total {
			f := total / reach
			for i := range gl {
				gl[i].target *= f
			}
		}
		groups[mi] = gl
	}

	var seed float64
	for _, x := range w {
		if x < 0 {
			return nil, Result{}, fmt.Errorf("ipf: negative seed weight")
		}
		seed += x
	}
	if seed == 0 {
		return nil, Result{}, fmt.Errorf("ipf: all seed weights are zero")
	}

	res := Result{UnreachableMass: unreachable, ReachableTotal: reachableTotal / float64(len(marginals))}
	for iter := 1; iter <= opts.MaxIters; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, res, err
		}
		// One sweep: rake every marginal in turn.
		for _, gl := range groups {
			for _, g := range gl {
				var cur float64
				for _, r := range g.rows {
					cur += w[r]
				}
				switch {
				case cur == 0 && g.target == 0:
					// nothing to do
				case cur == 0:
					// All tuples in the cell have zero weight (seed was zero
					// or a previous zero-target cell overlapped). Restart
					// them uniformly at the target.
					per := g.target / float64(len(g.rows))
					for _, r := range g.rows {
						w[r] = per
					}
				default:
					f := g.target / cur
					for _, r := range g.rows {
						w[r] *= f
					}
				}
			}
		}
		res.Iterations = iter
		res.MaxRelErr = maxRelErr(groups, w)
		if res.MaxRelErr < opts.Tol {
			res.Converged = true
			break
		}
	}
	return w, res, nil
}

// ApplyContext runs FitContext and installs the weights on the sample. A
// cancelled fit leaves the sample's weights untouched (weights install only
// after the fit completes).
func ApplyContext(ctx context.Context, sample *table.Table, marginals []*marginal.Marginal, opts Options) (Result, error) {
	w, res, err := FitContext(ctx, sample, marginals, opts)
	if err != nil {
		return res, err
	}
	if err := sample.SetWeights(w); err != nil {
		return res, err
	}
	return res, nil
}

func maxRelErr(groups [][]cellGroup, w []float64) float64 {
	var worst float64
	for _, gl := range groups {
		for _, g := range gl {
			var cur float64
			for _, r := range g.rows {
				cur += w[r]
			}
			var e float64
			if g.target == 0 {
				e = cur // absolute residual for zero-target cells
			} else {
				e = math.Abs(cur-g.target) / g.target
			}
			if e > worst {
				worst = e
			}
		}
	}
	return worst
}
