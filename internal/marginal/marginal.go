// Package marginal implements Mosaic's population metadata: 1- and
// 2-dimensional marginal histograms (paper Sec 3.2). A marginal records, for
// each observed combination of one or two attribute values, the ground-truth
// population count. Marginals drive both IPF reweighting (SEMI-OPEN) and
// M-SWG training (OPEN).
package marginal

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"mosaic/internal/table"
	"mosaic/internal/value"
)

// Cell is one histogram bucket: a value combination and its count.
type Cell struct {
	Vals  []value.Value
	Count float64
}

// Marginal is a named histogram over one or two attributes of a population.
//
// Numeric attributes may be binned: with a bin width w, values snap to bin
// midpoints (⌊v/w⌋+0.5)·w before keying, so a marginal over continuous data
// is a proper histogram (the "1- or 2-dimensional histograms … commonly
// released by corporations or governments" of Sec 3.2) rather than a set of
// exact-value singletons.
type Marginal struct {
	Name  string
	Attrs []string  // 1 or 2 attribute names
	bins  []float64 // bin width per attribute; 0 = exact values
	cells map[string]*cell
	order []string // cell keys in insertion order for deterministic iteration
}

// cell is a Cell with its position in insertion order.
type cell struct {
	Cell
	pos int
}

// New creates an empty marginal over the given attributes.
func New(name string, attrs []string) (*Marginal, error) {
	if len(attrs) < 1 || len(attrs) > 2 {
		return nil, fmt.Errorf("marginal %s: %d attributes; only 1- and 2-dimensional marginals are supported", name, len(attrs))
	}
	seen := map[string]bool{}
	for _, a := range attrs {
		la := strings.ToLower(a)
		if seen[la] {
			return nil, fmt.Errorf("marginal %s: duplicate attribute %q", name, a)
		}
		seen[la] = true
	}
	return &Marginal{
		Name:  name,
		Attrs: append([]string(nil), attrs...),
		bins:  make([]float64, len(attrs)),
		cells: make(map[string]*cell),
	}, nil
}

// SetBinWidth enables binning for the named numeric attribute. It must be
// called before any cells are added.
func (m *Marginal) SetBinWidth(attr string, width float64) error {
	if width <= 0 || math.IsNaN(width) || math.IsInf(width, 0) {
		return fmt.Errorf("marginal %s: invalid bin width %g", m.Name, width)
	}
	if len(m.cells) > 0 {
		return fmt.Errorf("marginal %s: SetBinWidth after cells were added", m.Name)
	}
	for i, a := range m.Attrs {
		if strings.EqualFold(a, attr) {
			m.bins[i] = width
			return nil
		}
	}
	return fmt.Errorf("marginal %s: no attribute %q", m.Name, attr)
}

// BinWidth returns the bin width for attribute position i (0 = exact).
func (m *Marginal) BinWidth(i int) float64 { return m.bins[i] }

// SnapVals maps a value tuple onto the marginal's bin grid: numeric values
// of binned attributes become their bin midpoint; everything else passes
// through. The result indexes the same cell that Add would have used.
func (m *Marginal) SnapVals(vals []value.Value) ([]value.Value, error) {
	if len(vals) != len(m.Attrs) {
		return nil, fmt.Errorf("marginal %s: %d values for %d attributes", m.Name, len(vals), len(m.Attrs))
	}
	out := make([]value.Value, len(vals))
	for i, v := range vals {
		w := m.bins[i]
		if w == 0 || v.IsNull() || !v.Numeric() {
			out[i] = v
			continue
		}
		f, err := v.Float64()
		if err != nil {
			return nil, err
		}
		mid := (math.Floor(f/w) + 0.5) * w
		out[i] = value.Float(mid)
	}
	return out, nil
}

func cellKey(vals []value.Value) string {
	var b strings.Builder
	for _, v := range vals {
		b.WriteString(v.HashKey())
		b.WriteByte('\x1f')
	}
	return b.String()
}

// Add accumulates count into the cell for vals (snapped to the bin grid).
func (m *Marginal) Add(vals []value.Value, count float64) error {
	if count < 0 {
		return fmt.Errorf("marginal %s: negative count %g", m.Name, count)
	}
	snapped, err := m.SnapVals(vals)
	if err != nil {
		return err
	}
	k := cellKey(snapped)
	if c, ok := m.cells[k]; ok {
		c.Count += count
		return nil
	}
	m.insert(k, snapped, count)
	return nil
}

// insert appends a new cell under key k.
func (m *Marginal) insert(k string, vals []value.Value, count float64) {
	m.cells[k] = &cell{Cell: Cell{Vals: vals, Count: count}, pos: len(m.order)}
	m.order = append(m.order, k)
}

// Index returns the position in Cells of the cell vals snaps to, and false
// when the marginal has no such cell.
func (m *Marginal) Index(vals []value.Value) (int, bool) {
	snapped, err := m.SnapVals(vals)
	if err != nil {
		return 0, false
	}
	c, ok := m.cells[cellKey(snapped)]
	if !ok {
		return 0, false
	}
	return c.pos, true
}

// Total returns the sum of all cell counts — the represented population size.
func (m *Marginal) Total() float64 {
	var s float64
	for _, k := range m.order {
		s += m.cells[k].Count
	}
	return s
}

// Cells returns all cells in insertion order. The returned cells must not be
// modified.
func (m *Marginal) Cells() []Cell {
	out := make([]Cell, 0, len(m.order))
	for _, k := range m.order {
		out = append(out, m.cells[k].Cell)
	}
	return out
}

// SortedCells returns the cells ordered by value (for stable display).
func (m *Marginal) SortedCells() []Cell {
	out := m.Cells()
	sort.Slice(out, func(i, j int) bool {
		for d := range out[i].Vals {
			c := value.Compare(out[i].Vals[d], out[j].Vals[d])
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	return out
}

// Scale multiplies every cell count by f (>0); used to renormalize marginals
// from a query population against global-population marginals.
func (m *Marginal) Scale(f float64) error {
	if f <= 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		return fmt.Errorf("marginal %s: invalid scale factor %g", m.Name, f)
	}
	for _, k := range m.order {
		m.cells[k].Count *= f
	}
	return nil
}

// Equal reports whether o would drive IPF and M-SWG training exactly as m
// does: same name, attributes and bin widths, the same cells in the same
// insertion order (cell order feeds IPF's sweep order and the generator's
// RNG draws, so a permutation is a different marginal), cell values of the
// same kinds and float bits, and counts equal bit for bit.
func (m *Marginal) Equal(o *Marginal) bool {
	if m == o {
		return true
	}
	if m.Name != o.Name || len(m.Attrs) != len(o.Attrs) || len(m.order) != len(o.order) {
		return false
	}
	for i, a := range m.Attrs {
		if a != o.Attrs[i] || m.bins[i] != o.bins[i] {
			return false
		}
	}
	for i, k := range m.order {
		if k != o.order[i] {
			return false
		}
		// Equal keys fix every value up to INT vs FLOAT and -0 vs 0 (HashKey
		// gives each pair one key), and the generator encodes the values
		// themselves, so kinds and float bits are compared beside them.
		mc, oc := m.cells[k], o.cells[k]
		if math.Float64bits(mc.Count) != math.Float64bits(oc.Count) {
			return false
		}
		for d, v := range mc.Vals {
			w := oc.Vals[d]
			if v.Kind() != w.Kind() || v.Kind() == value.KindFloat && math.Float64bits(v.AsFloat()) != math.Float64bits(w.AsFloat()) {
				return false
			}
		}
	}
	return true
}

// FromTable builds a marginal by grouping a relation on attrs and summing
// tuple weights (weight 1 rows give plain counts).
func FromTable(name string, t *table.Table, attrs []string) (*Marginal, error) {
	return FromTableBinned(name, t, attrs, nil)
}

// FromTableBinned is FromTable with per-attribute bin widths (attribute name
// → width; attributes absent from the map use exact values).
//
// Cells are the table's groups under Snapshot.GroupIDs with the marginal's
// bin widths: cell order, values and counts are identical to per-row Add
// calls — a cell takes its first row's snapped values, and counts
// accumulate in row order.
func FromTableBinned(name string, t *table.Table, attrs []string, widths map[string]float64) (*Marginal, error) {
	m, err := New(name, attrs)
	if err != nil {
		return nil, err
	}
	for a, w := range widths {
		if err := m.SetBinWidth(a, w); err != nil {
			return nil, err
		}
	}
	idxs := make([]int, len(attrs))
	for i, a := range attrs {
		j, ok := t.Schema().Index(a)
		if !ok {
			return nil, fmt.Errorf("marginal %s: relation %s has no attribute %q", name, t.Name(), a)
		}
		idxs[i] = j
	}
	snap := t.Snapshot()
	ids, first := snap.GroupIDs(idxs, m.bins, snap.AllRows())
	counts := make([]float64, len(first))
	for i, w := range snap.Weights() {
		counts[ids[i]] += w
	}
	rawVals := make([]value.Value, len(idxs))
	for g, r := range first {
		for ai, j := range idxs {
			rawVals[ai] = snap.Value(int(r), j)
		}
		snapped, err := m.SnapVals(rawVals)
		if err != nil {
			return nil, err
		}
		m.insert(cellKey(snapped), snapped, counts[g])
	}
	return m, nil
}

// CoveredAttrs returns the distinct (lower-cased) attribute names covered by
// the marginal set, in first-seen order.
func CoveredAttrs(ms []*Marginal) []string {
	var out []string
	seen := map[string]bool{}
	for _, m := range ms {
		for _, a := range m.Attrs {
			la := strings.ToLower(a)
			if !seen[la] {
				seen[la] = true
				out = append(out, a)
			}
		}
	}
	return out
}
