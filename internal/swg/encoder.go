// Package swg implements the paper's marginal-constrained sliced Wasserstein
// generator (M-SWG, Sec 5): a generator network trained to produce
// population tuples whose marginals match the ground-truth population
// marginals while staying on the manifold described by the biased sample.
//
// The loss (paper Eq. 1) is
//
//	Σ_{i∈I1} W(P_i, Q_i)                       exact 1-D Wasserstein terms
//	+ (1/p) Σ_{{i,j}∈I2} Σ_{ω∈Ω} W(P^{ij}_ω, Q^{ij}_ω)   sliced 2-D terms
//	+ λ E_{x∼G} min_{y∈S} ‖x − y‖²              sample-proximity term
//
// where the projection set Ω is fixed at model construction ("assume we have
// a set of p linear projections ω ∈ Ω randomly generated and normalized to
// be on the unit sphere"). Because Ω is fixed and the batch size is fixed,
// every projected target quantile vector is precomputed once, making each
// training step sorting-dominated.
package swg

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"mosaic/internal/marginal"
	"mosaic/internal/nn"
	"mosaic/internal/schema"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

// AttrSpec describes how one attribute is encoded into generator dimensions:
// continuous attributes scale to [0,1] in one dimension; categorical
// attributes one-hot encode into one dimension per distinct value (paper
// Sec 5.3: "we one-hot encode the categorical variables and scale all
// attributes to be between 0 and 1").
type AttrSpec struct {
	Name        string
	Kind        value.Kind
	Categorical bool
	Min, Max    float64       // continuous scaling range
	Cats        []value.Value // categorical levels, in first-seen order
	catIdx      map[string]int
	Offset      int // first encoded column
	Width       int // 1 for continuous, len(Cats) for categorical
}

// Encoder maps sample rows to encoded vectors and generated vectors back to
// rows.
type Encoder struct {
	Schema *schema.Schema
	Attrs  []AttrSpec
	Dim    int
}

// BuildEncoder derives encodings from the sample schema, widening continuous
// ranges and categorical levels with every value observed in the marginals
// (the generator must be able to emit population values absent from the
// biased sample — e.g. the AOL tuples of the paper's Sec 2 example).
func BuildEncoder(s *table.Table, marginals []*marginal.Marginal) (*Encoder, error) {
	sc := s.Schema()
	enc := &Encoder{Schema: sc}
	specs := make([]AttrSpec, sc.Len())
	for i := 0; i < sc.Len(); i++ {
		a := sc.At(i)
		specs[i] = AttrSpec{
			Name:        a.Name,
			Kind:        a.Kind,
			Categorical: a.Kind == value.KindText || a.Kind == value.KindBool,
			Min:         math.Inf(1),
			Max:         math.Inf(-1),
			catIdx:      map[string]int{},
		}
	}
	observe := func(i int, v value.Value) error {
		sp := &specs[i]
		if v.IsNull() {
			return fmt.Errorf("swg: NULL in attribute %q; M-SWG requires complete tuples", sp.Name)
		}
		if sp.Categorical {
			k := v.HashKey()
			if _, ok := sp.catIdx[k]; !ok {
				sp.catIdx[k] = len(sp.Cats)
				sp.Cats = append(sp.Cats, v)
			}
			return nil
		}
		f, err := v.Float64()
		if err != nil {
			return fmt.Errorf("swg: attribute %q: %v", sp.Name, err)
		}
		sp.widen(f)
		return nil
	}
	if err := observeSample(s.Snapshot(), specs); err != nil {
		return nil, err
	}
	for _, m := range marginals {
		idxs := make([]int, len(m.Attrs))
		for ai, a := range m.Attrs {
			j, ok := sc.Index(a)
			if !ok {
				return nil, fmt.Errorf("swg: marginal %s attribute %q not in sample schema", m.Name, a)
			}
			idxs[ai] = j
		}
		for _, c := range m.Cells() {
			for ai, v := range c.Vals {
				if err := observe(idxs[ai], v); err != nil {
					return nil, err
				}
			}
		}
	}
	off := 0
	for i := range specs {
		sp := &specs[i]
		if sp.Categorical {
			if len(sp.Cats) == 0 {
				return nil, fmt.Errorf("swg: categorical attribute %q has no observed values", sp.Name)
			}
			sp.Width = len(sp.Cats)
		} else {
			if math.IsInf(sp.Min, 1) {
				return nil, fmt.Errorf("swg: continuous attribute %q has no observed values", sp.Name)
			}
			if sp.Max == sp.Min {
				sp.Max = sp.Min + 1 // degenerate range: encode constantly at 0
			}
			sp.Width = 1
		}
		sp.Offset = off
		off += sp.Width
	}
	enc.Attrs = specs
	enc.Dim = off
	return enc, nil
}

// observeSample is observe over every value of the sample, in row order,
// read from the snapshot's typed columns instead of one materialized row at
// a time: a continuous attribute's range from its INT or FLOAT vector, a
// categorical attribute's levels from its first-appearance group ids. The
// first NULL in row order, lowest column first, is refused as observe
// refuses it.
func observeSample(snap *table.Snapshot, specs []AttrSpec) error {
	n := snap.Len()
	nullRow, nullCol := n, -1
	for i := range specs {
		for w, word := range snap.Col(i).Nulls {
			if word != 0 {
				if r := w<<6 + bits.TrailingZeros64(word); r < nullRow {
					nullRow, nullCol = r, i
				}
				break
			}
		}
	}
	if nullCol >= 0 {
		return fmt.Errorf("swg: NULL in attribute %q; M-SWG requires complete tuples", specs[nullCol].Name)
	}
	for i := range specs {
		sp, col := &specs[i], snap.Col(i)
		switch {
		case sp.Categorical:
			_, first := snap.GroupIDs([]int{i}, nil, snap.AllRows())
			for _, r := range first {
				v := snap.Value(int(r), i)
				sp.catIdx[v.HashKey()] = len(sp.Cats)
				sp.Cats = append(sp.Cats, v)
			}
		case col.Kind == value.KindInt:
			for _, x := range col.Ints {
				sp.widen(float64(x))
			}
		default:
			for _, f := range col.Floats {
				sp.widen(f)
			}
		}
	}
	return nil
}

// widen stretches a continuous attribute's range to take f; NaN changes
// nothing, and of equal values the first seen stays.
func (sp *AttrSpec) widen(f float64) {
	if f < sp.Min {
		sp.Min = f
	}
	if f > sp.Max {
		sp.Max = f
	}
}

// AttrSpecFor returns the spec for the named attribute.
func (e *Encoder) AttrSpecFor(name string) (*AttrSpec, error) {
	for i := range e.Attrs {
		if strings.EqualFold(e.Attrs[i].Name, name) {
			return &e.Attrs[i], nil
		}
	}
	return nil, fmt.Errorf("swg: no attribute %q in encoder", name)
}

// EncodeValue writes the encoding of v for spec sp into dst[sp.Offset:].
func (e *Encoder) EncodeValue(sp *AttrSpec, v value.Value, dst []float64) error {
	if sp.Categorical {
		idx, ok := sp.catIdx[v.HashKey()]
		if !ok {
			return fmt.Errorf("swg: unseen categorical value %s for %q", v, sp.Name)
		}
		for j := 0; j < sp.Width; j++ {
			dst[sp.Offset+j] = 0
		}
		dst[sp.Offset+idx] = 1
		return nil
	}
	f, err := v.Float64()
	if err != nil {
		return err
	}
	dst[sp.Offset] = (f - sp.Min) / (sp.Max - sp.Min)
	return nil
}

// EncodeTable encodes every row of the sample. It runs column-at-a-time
// over the table's snapshot: categorical TEXT attributes one-hot directly
// from dictionary codes through a precomputed code→level table instead of
// re-hashing strings per row, and continuous attributes scale straight off
// the typed column vectors. The result is one flat row-major batch whose rows
// are element-identical to encoding each of a row's values with EncodeValue.
func (e *Encoder) EncodeTable(t *table.Table) (nn.Batch, error) {
	snap := t.Snapshot()
	out := nn.NewBatch(snap.Len(), e.Dim)
	for ai := range e.Attrs {
		sp := &e.Attrs[ai]
		col := snap.Col(ai)
		if err := e.encodeColumn(sp, snap, col, out); err != nil {
			return nn.Batch{}, err
		}
	}
	return out, nil
}

// encodeColumn fills one attribute's encoded block for every row.
func (e *Encoder) encodeColumn(sp *AttrSpec, snap *table.Snapshot, col *table.Column, out nn.Batch) error {
	n := out.Rows
	if !sp.Categorical {
		// Continuous: (f − Min)/(Max − Min), NULL scaling to NaN exactly as
		// value.Float64 coerces NULL.
		for i := 0; i < n; i++ {
			var f float64
			switch {
			case col.Null(i):
				f = math.NaN()
			case col.Kind == value.KindInt:
				f = float64(col.Ints[i])
			default:
				f = col.Floats[i]
			}
			out.Data[i*out.Dim+sp.Offset] = (f - sp.Min) / (sp.Max - sp.Min)
		}
		return nil
	}
	if col.Kind == value.KindBool {
		tIdx, tOK := sp.catIdx[value.Bool(true).HashKey()]
		fIdx, fOK := sp.catIdx[value.Bool(false).HashKey()]
		for i := 0; i < n; i++ {
			if col.Null(i) {
				return fmt.Errorf("swg: unseen categorical value %s for %q", value.Null(), sp.Name)
			}
			if col.Bools[i] {
				if !tOK {
					return fmt.Errorf("swg: unseen categorical value %s for %q", value.Bool(true), sp.Name)
				}
				out.Data[i*out.Dim+sp.Offset+tIdx] = 1
			} else {
				if !fOK {
					return fmt.Errorf("swg: unseen categorical value %s for %q", value.Bool(false), sp.Name)
				}
				out.Data[i*out.Dim+sp.Offset+fIdx] = 1
			}
		}
		return nil
	}
	// TEXT: resolve every dictionary code to its one-hot level once.
	strs := snap.DictStrings()
	codeToCat := make([]int32, len(strs))
	for c, s := range strs {
		if idx, ok := sp.catIdx[value.Text(s).HashKey()]; ok {
			codeToCat[c] = int32(idx)
		} else {
			codeToCat[c] = -1
		}
	}
	for i := 0; i < n; i++ {
		if col.Null(i) {
			return fmt.Errorf("swg: unseen categorical value %s for %q", value.Null(), sp.Name)
		}
		code := col.Codes[i]
		cat := codeToCat[code]
		if cat < 0 {
			return fmt.Errorf("swg: unseen categorical value %s for %q", value.Text(strs[code]), sp.Name)
		}
		out.Data[i*out.Dim+sp.Offset+int(cat)] = 1
	}
	return nil
}

// SubspaceCols returns the encoded column indices spanned by the given
// attributes (a marginal's encoded subspace).
func (e *Encoder) SubspaceCols(attrs []string) ([]int, error) {
	var cols []int
	for _, a := range attrs {
		sp, err := e.AttrSpecFor(a)
		if err != nil {
			return nil, err
		}
		for j := 0; j < sp.Width; j++ {
			cols = append(cols, sp.Offset+j)
		}
	}
	return cols, nil
}

// SoftmaxBlocks returns the [start,end) encoded ranges of all categorical
// attributes, for the generator's softmax head.
func (e *Encoder) SoftmaxBlocks() [][2]int {
	var out [][2]int
	for i := range e.Attrs {
		sp := &e.Attrs[i]
		if sp.Categorical {
			out = append(out, [2]int{sp.Offset, sp.Offset + sp.Width})
		}
	}
	return out
}

// EncodeCellPoint encodes one marginal cell into the marginal's subspace
// coordinates (in the order produced by SubspaceCols for m.Attrs).
func (e *Encoder) EncodeCellPoint(attrs []string, vals []value.Value) ([]float64, error) {
	var out []float64
	for ai, a := range attrs {
		sp, err := e.AttrSpecFor(a)
		if err != nil {
			return nil, err
		}
		buf := make([]float64, e.Dim)
		if err := e.EncodeValue(sp, vals[ai], buf); err != nil {
			return nil, err
		}
		out = append(out, buf[sp.Offset:sp.Offset+sp.Width]...)
	}
	return out, nil
}
