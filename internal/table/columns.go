// Columnar storage: the typed column vectors that are the table, a per-table
// dictionary for TEXT attributes, and the immutable Snapshot the executor
// scans without per-row locking.
//
// Locking contract (see also the Table doc): a Snapshot captures slice
// headers under one RLock. The table is append-only: tuples are never
// mutated in place, and appends past the captured length are invisible to
// the snapshot, so a snapshot stays valid while writers append. SetWeights
// alone writes in place, and the engine serializes it against snapshot
// readers: writes run under the engine write lock while queries hold the
// read lock.
package table

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"mosaic/internal/schema"
	"mosaic/internal/value"
)

// Dict is an append-only string interner. Codes are dense, start at 0, and
// never change, so snapshots taken at different times agree on every code
// they both know. One Dict is shared by a table, its clones, and all its
// snapshots.
type Dict struct {
	mu    sync.RWMutex
	codes map[string]uint32
	strs  []string
}

// NewDict creates an empty dictionary.
func NewDict() *Dict {
	return &Dict{codes: make(map[string]uint32)}
}

// Code interns s and returns its code.
func (d *Dict) Code(s string) uint32 {
	d.mu.Lock()
	c := d.intern(s, false)
	d.mu.Unlock()
	return c
}

// intern is Code for a caller that holds d.mu. With clone set, a string
// new to d is stored as a copy of s.
func (d *Dict) intern(s string, clone bool) uint32 {
	c, ok := d.codes[s]
	if !ok {
		if clone {
			s = strings.Clone(s)
		}
		c = uint32(len(d.strs))
		d.codes[s] = c
		d.strs = append(d.strs, s)
	}
	return c
}

// Lookup returns the code of s without interning it.
func (d *Dict) Lookup(s string) (uint32, bool) {
	d.mu.RLock()
	c, ok := d.codes[s]
	d.mu.RUnlock()
	return c, ok
}

// Strings returns the code→string table as of now. The returned slice is
// append-only shared storage and must not be modified.
func (d *Dict) Strings() []string {
	d.mu.RLock()
	s := d.strs
	d.mu.RUnlock()
	return s
}

// Column is one attribute's typed vector. Exactly one of the payload slices
// is populated, chosen by the schema kind; NULL positions carry the zero
// payload and are flagged in the Nulls bitmap.
type Column struct {
	Kind   value.Kind
	Ints   []int64   // KindInt
	Floats []float64 // KindFloat
	Bools  []bool    // KindBool
	Codes  []uint32  // KindText, dictionary codes
	Nulls  []uint64  // null bitmap (64 rows per word); nil when the column has no NULLs
}

// Null reports whether row i is NULL.
func (c *Column) Null(i int) bool {
	if c.Nulls == nil {
		return false
	}
	w := i >> 6
	if w >= len(c.Nulls) {
		return false
	}
	return c.Nulls[w]&(1<<(uint(i)&63)) != 0
}

// HasNulls reports whether any row is NULL.
func (c *Column) HasNulls() bool { return c.Nulls != nil }

func (c *Column) setNull(i int) {
	w := i >> 6
	for len(c.Nulls) <= w {
		c.Nulls = append(c.Nulls, 0)
	}
	c.Nulls[w] |= 1 << (uint(i) & 63)
}

// Value materializes row i as a value.Value; strs is the code→string table
// that resolves TEXT codes (Dict.Strings or a snapshot's frozen copy).
func (c *Column) Value(i int, strs []string) value.Value {
	if c.Null(i) {
		return value.Null()
	}
	switch c.Kind {
	case value.KindInt:
		return value.Int(c.Ints[i])
	case value.KindFloat:
		return value.Float(c.Floats[i])
	case value.KindBool:
		return value.Bool(c.Bools[i])
	default:
		return value.Text(strs[c.Codes[i]])
	}
}

// appendRow appends row i of cols to dst, one materialized value per column.
func appendRow(dst []value.Value, cols []Column, strs []string, i int) []value.Value {
	for ci := range cols {
		dst = append(dst, cols[ci].Value(i, strs))
	}
	return dst
}

// appendValue extends the column with row value v (already schema-coerced),
// coding TEXT through code: a Dict's intern under a lock the caller holds.
func (c *Column) appendValue(i int, v value.Value, code func(string) uint32) {
	if v.IsNull() {
		c.setNull(i)
		switch c.Kind {
		case value.KindInt:
			c.Ints = append(c.Ints, 0)
		case value.KindFloat:
			c.Floats = append(c.Floats, 0)
		case value.KindBool:
			c.Bools = append(c.Bools, false)
		case value.KindText:
			c.Codes = append(c.Codes, 0)
		}
		return
	}
	switch c.Kind {
	case value.KindInt:
		c.Ints = append(c.Ints, v.AsInt())
	case value.KindFloat:
		c.Floats = append(c.Floats, v.AsFloat())
	case value.KindBool:
		c.Bools = append(c.Bools, v.AsBool())
	case value.KindText:
		c.Codes = append(c.Codes, code(v.AsText()))
	}
}

// newColumns builds empty typed columns for a schema.
func newColumns(sc *schema.Schema) []Column {
	cols := make([]Column, sc.Len())
	for i := range cols {
		cols[i].Kind = sc.At(i).Kind
	}
	return cols
}

// FromColumns assembles a table directly from fully-built typed columns —
// the bulk-load path for generators that produce columnar data natively
// (e.g. swg's decoded samples), skipping the per-row Append pipeline
// (per-row validation, locking, and dictionary map lookups).
//
// The table has len(wts) tuples. Shape mismatches (column count, kind,
// payload length) and negative weights are rejected; the caller guarantees
// that every TEXT code is interned in dict. The returned table owns the
// given slices.
func FromColumns(name string, sc *schema.Schema, cols []Column, wts []float64, dict *Dict) (*Table, error) {
	n := len(wts)
	if len(cols) != sc.Len() {
		return nil, fmt.Errorf("table %s: %d columns for %d attributes", name, len(cols), sc.Len())
	}
	for i := range cols {
		c := &cols[i]
		if c.Kind != sc.At(i).Kind {
			return nil, fmt.Errorf("table %s: column %d is %s, schema says %s", name, i, c.Kind, sc.At(i).Kind)
		}
		var got int
		switch c.Kind {
		case value.KindInt:
			got = len(c.Ints)
		case value.KindFloat:
			got = len(c.Floats)
		case value.KindBool:
			got = len(c.Bools)
		case value.KindText:
			got = len(c.Codes)
		}
		if got != n {
			return nil, fmt.Errorf("table %s: column %d has %d values for %d rows", name, i, got, n)
		}
		if len(c.Nulls) == 0 {
			c.Nulls = nil
		}
	}
	for i, w := range wts {
		if w < 0 {
			return nil, fmt.Errorf("table %s: negative weight %g at row %d", name, w, i)
		}
	}
	if dict == nil {
		dict = NewDict()
	}
	return &Table{name: name, schema: sc, wts: wts, cols: cols, dict: dict}, nil
}

// Snapshot is an immutable view of a table at one instant: the weight vector
// and the typed columns, captured under a single lock acquisition. Scans over
// a snapshot touch no locks at all. Kernels read the typed vectors through
// Col; Value and Row materialize value.Values from them on demand.
type Snapshot struct {
	name     string
	sc       *schema.Schema
	wts      []float64 // its length is the snapshot's row count
	cols     []Column
	dict     *Dict
	dictStrs []string // code→string table frozen at snapshot time
}

// Snapshot captures the table's current contents with one RLock. The
// returned view is safe to read concurrently with appends; SetWeights must
// be serialized against it (the engine write lock does this).
func (t *Table) Snapshot() *Snapshot {
	t.mu.RLock()
	s := &Snapshot{
		name: t.name,
		sc:   t.schema,
		wts:  t.wts,
		dict: t.dict,
	}
	n := len(t.wts)
	s.cols = make([]Column, len(t.cols))
	for i := range t.cols {
		c := t.cols[i]
		s.cols[i] = Column{
			Kind: c.Kind,
			// The null bitmap is copied, not clipped: a later append of a
			// NULL row in the same 64-row word would otherwise mutate a
			// word this snapshot reads (payload slices only ever gain
			// elements past n, so clipping suffices for them).
			Nulls:  append([]uint64(nil), c.Nulls...),
			Ints:   clip(c.Ints, n),
			Floats: clip(c.Floats, n),
			Bools:  clip(c.Bools, n),
			Codes:  clip(c.Codes, n),
		}
		if len(s.cols[i].Nulls) == 0 {
			s.cols[i].Nulls = nil
		}
	}
	t.mu.RUnlock()
	s.dictStrs = t.dict.Strings()
	return s
}

// clip caps a payload slice at the snapshot length so later appends cannot
// be observed (nil stays nil).
func clip[T any](v []T, n int) []T {
	if v == nil {
		return nil
	}
	return v[:n:n]
}

// SliceRange returns an immutable view of rows [lo, hi) of the snapshot —
// the contiguous range partition the sharded executor scans. lo must be a
// multiple of 64 so the null bitmaps re-slice on word boundaries (no bit
// shifting, no copying); hi is clamped to the snapshot length, and lo > hi
// (a trailing empty shard) yields an empty view. The slice shares the
// snapshot's dictionary and payload storage.
func (s *Snapshot) SliceRange(lo, hi int) *Snapshot {
	if hi > len(s.wts) {
		hi = len(s.wts)
	}
	if lo >= hi {
		// Empty shard (bounds past the table): no payload, no bitmaps, and
		// no alignment concern.
		return &Snapshot{name: s.name, sc: s.sc, dict: s.dict, dictStrs: s.dictStrs,
			cols: newColumns(s.sc)}
	}
	if lo%64 != 0 {
		panic(fmt.Sprintf("table: SliceRange lo %d is not 64-aligned", lo))
	}
	out := &Snapshot{
		name:     s.name,
		sc:       s.sc,
		wts:      s.wts[lo:hi],
		dict:     s.dict,
		dictStrs: s.dictStrs,
	}
	out.cols = make([]Column, len(s.cols))
	for i := range s.cols {
		c := &s.cols[i]
		nc := Column{
			Kind:   c.Kind,
			Ints:   sliceRange(c.Ints, lo, hi),
			Floats: sliceRange(c.Floats, lo, hi),
			Bools:  sliceRange(c.Bools, lo, hi),
			Codes:  sliceRange(c.Codes, lo, hi),
		}
		if c.Nulls != nil && lo/64 < len(c.Nulls) {
			nc.Nulls = c.Nulls[lo/64:]
		}
		out.cols[i] = nc
	}
	return out
}

// sliceRange is clip for a sub-range (nil stays nil; hi is pre-clamped).
func sliceRange[T any](v []T, lo, hi int) []T {
	if v == nil {
		return nil
	}
	return v[lo:hi:hi]
}

// Name returns the relation name.
func (s *Snapshot) Name() string { return s.name }

// Schema returns the relation schema.
func (s *Snapshot) Schema() *schema.Schema { return s.sc }

// Len returns the number of rows in the snapshot.
func (s *Snapshot) Len() int { return len(s.wts) }

// Value materializes the cell at row i of column col.
func (s *Snapshot) Value(i, col int) value.Value { return s.cols[col].Value(i, s.dictStrs) }

// FillValues materializes column col at each of rows into dst[k*stride],
// k indexing rows: one column of a row-major slab of stride-wide rows. Every
// cell equals Value(rows[k], col); the kind is decided once per column.
func (s *Snapshot) FillValues(col int, rows []int32, dst []value.Value, stride int) {
	c := &s.cols[col]
	switch c.Kind {
	case value.KindInt:
		for k, r := range rows {
			if c.Null(int(r)) {
				dst[k*stride] = value.Null()
			} else {
				dst[k*stride] = value.Int(c.Ints[r])
			}
		}
	case value.KindFloat:
		for k, r := range rows {
			if c.Null(int(r)) {
				dst[k*stride] = value.Null()
			} else {
				dst[k*stride] = value.Float(c.Floats[r])
			}
		}
	case value.KindBool:
		for k, r := range rows {
			if c.Null(int(r)) {
				dst[k*stride] = value.Null()
			} else {
				dst[k*stride] = value.Bool(c.Bools[r])
			}
		}
	default:
		for k, r := range rows {
			if c.Null(int(r)) {
				dst[k*stride] = value.Null()
			} else {
				dst[k*stride] = value.Text(s.dictStrs[c.Codes[r]])
			}
		}
	}
}

// AppendRow appends the materialized i-th row to dst and returns it, for
// callers that build rows into storage of their own.
func (s *Snapshot) AppendRow(dst []value.Value, i int) []value.Value {
	return appendRow(dst, s.cols, s.dictStrs, i)
}

// Row materializes the i-th row into a fresh slice.
func (s *Snapshot) Row(i int) []value.Value {
	return s.AppendRow(make([]value.Value, 0, len(s.cols)), i)
}

// Weight returns the i-th tuple weight.
func (s *Snapshot) Weight(i int) float64 { return s.wts[i] }

// Weights returns the snapshot's weight vector. The slice is shared with the
// table and must be treated as read-only.
func (s *Snapshot) Weights() []float64 { return s.wts }

// Col returns the typed column at schema position i.
func (s *Snapshot) Col(i int) *Column { return &s.cols[i] }

// DictStrings returns the frozen code→string table (index = code).
func (s *Snapshot) DictStrings() []string { return s.dictStrs }

// DictLookup returns the dictionary code of str, if it was ever interned.
// A miss means no row of any snapshot of this table stores str.
func (s *Snapshot) DictLookup(str string) (uint32, bool) { return s.dict.Lookup(str) }

// GroupIDs assigns each of rows a dense id by its values in cols, in
// first-appearance order: ids[k] is rows[k]'s id and first[g] the row where
// id g first appears. Two rows share an id exactly when value.HashKey
// agrees on every column, after a numeric value is snapped to its bin
// midpoint (⌊v/w⌋+0.5)·w where widths[i] = w ≠ 0 — marginal.SnapVals'
// expression; widths may be nil when no column is binned. A column keys
// TEXT by dictionary code, an unbinned INT by its int64, a FLOAT or a
// binned numeric by value.NumBits, BOOL by false/true, and gives NULL one
// id. Several columns fold pairwise through uint64-keyed maps; with none,
// every row is id 0. Callers that want every row pass the identity row
// list.
func (s *Snapshot) GroupIDs(cols []int, widths []float64, rows []int32) (ids, first []int32) {
	if len(cols) == 0 {
		if len(rows) == 0 {
			return nil, nil
		}
		return make([]int32, len(rows)), []int32{rows[0]}
	}
	width := func(i int) float64 {
		if widths == nil {
			return 0
		}
		return widths[i]
	}
	ids, first = s.columnIDs(cols[0], width(0), rows)
	for i, col := range cols[1:] {
		d, _ := s.columnIDs(col, width(i+1), rows)
		pair := make(map[uint64]int32)
		out := make([]int32, len(rows))
		first = nil
		for k := range rows {
			key := uint64(uint32(ids[k]))<<32 | uint64(uint32(d[k]))
			id, ok := pair[key]
			if !ok {
				id = int32(len(first))
				first = append(first, rows[k])
				pair[key] = id
			}
			out[k] = id
		}
		ids = out
	}
	return ids, first
}

// AllRows is the identity row list 0, 1, …, Len()-1: GroupIDs over every
// row.
func (s *Snapshot) AllRows() []int32 {
	rows := make([]int32, s.Len())
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
}

// columnIDs is GroupIDs over one column; width applies to a numeric one.
func (s *Snapshot) columnIDs(col int, width float64, rows []int32) (ids, first []int32) {
	c := &s.cols[col]
	ids = make([]int32, len(rows))
	switch c.Kind {
	case value.KindText:
		remap := make([]int32, len(s.dictStrs)+1)
		for i := range remap {
			remap[i] = -1
		}
		for k, ri := range rows {
			idx := 0 // NULL
			if !c.Null(int(ri)) {
				idx = int(c.Codes[ri]) + 1
			}
			id := remap[idx]
			if id < 0 {
				id = int32(len(first))
				first = append(first, ri)
				remap[idx] = id
			}
			ids[k] = id
		}
	case value.KindBool:
		remap := [3]int32{-1, -1, -1} // null, false, true
		for k, ri := range rows {
			idx := 0
			if !c.Null(int(ri)) {
				idx = 1
				if c.Bools[ri] {
					idx = 2
				}
			}
			id := remap[idx]
			if id < 0 {
				id = int32(len(first))
				first = append(first, ri)
				remap[idx] = id
			}
			ids[k] = id
		}
	case value.KindInt:
		first = numIDs(c, c.Ints, width, rows, ids)
	case value.KindFloat:
		first = numIDs(c, c.Floats, width, rows, ids)
	}
	return ids, first
}

// numIDs is columnIDs' loop over an INT or FLOAT payload xs of column c,
// keyed as HashKey tells values apart: an INT on its int64 (2^53 and 2^53+1
// are two groups), a FLOAT on its NumBits. A binned column runs it over its
// values snapped to their bin midpoints (⌊v/w⌋+0.5)·w, so the loop never
// branches on the width.
func numIDs[T int64 | float64](c *Column, xs []T, width float64, rows, ids []int32) (first []int32) {
	if width != 0 {
		mids := make([]float64, len(xs))
		for i, x := range xs {
			mids[i] = (math.Floor(float64(x)/width) + 0.5) * width
		}
		return numIDs(c, mids, 0, rows, ids)
	}
	var zero T
	_, isInt := any(zero).(int64)
	m := make(map[uint64]int32)
	nullID := int32(-1)
	for k, ri := range rows {
		if c.Null(int(ri)) {
			if nullID < 0 {
				nullID = int32(len(first))
				first = append(first, ri)
			}
			ids[k] = nullID
			continue
		}
		bits := uint64(int64(xs[ri]))
		if !isInt {
			bits = value.NumBits(float64(xs[ri]))
		}
		id, ok := m[bits]
		if !ok {
			id = int32(len(first))
			first = append(first, ri)
			m[bits] = id
		}
		ids[k] = id
	}
	return first
}
