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
	tbl      *Table   // parent, for the shared code-vector cache
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
		tbl:  t,
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
// snapshot's dictionary and payload storage, but drops the parent-table
// pointer: the shared code-vector cache assumes row 0 of the vector is row 0
// of the table, which is false for any lo > 0, so sliced views always
// compute code vectors directly.
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

// codeKey identifies one cached code vector: a column position and the
// histogram bin width its numerics were snapped to (0 = unbinned Codes).
type codeKey struct {
	col   int
	width float64
}

// codeVec is one cached code vector: the (cls, bits) pair for the first n
// rows of a column. Codes are append-only prefix-stable, so the vector
// serves every snapshot of length ≤ n and is replaced (never edited) when a
// longer snapshot materializes more rows.
type codeVec struct {
	n    int
	cls  []value.Class
	bits []uint64
}

// cachedCodes serves one code vector from the parent table's cache,
// computing and installing it on miss. Repeated IPF fits and marginal
// builds over the same sample hit the cache instead of re-materializing
// O(rows) vectors per call; callers must treat the returned slices as
// read-only (they are shared by every snapshot of the table).
func (s *Snapshot) cachedCodes(col int, width float64, compute func() ([]value.Class, []uint64)) ([]value.Class, []uint64) {
	t := s.tbl
	if t == nil {
		return compute()
	}
	n := s.Len()
	key := codeKey{col: col, width: width}
	t.codeMu.Lock()
	if cv, ok := t.codeCache[key]; ok && cv.n >= n {
		cls, bits := cv.cls[:n:n], cv.bits[:n:n]
		t.codeMu.Unlock()
		return cls, bits
	}
	t.codeMu.Unlock()
	cls, bits := compute()
	t.codeMu.Lock()
	if t.codeCache == nil {
		t.codeCache = make(map[codeKey]*codeVec)
	}
	if cv, ok := t.codeCache[key]; !ok || cv.n < n {
		t.codeCache[key] = &codeVec{n: n, cls: cls, bits: bits}
	}
	t.codeMu.Unlock()
	return cls, bits
}

// Codes materializes the (class, bits) code of every row of column col into
// a pair of parallel slices: cls[i] partitions by HashKey tag class and
// bits[i] distinguishes values within the class (dictionary code for TEXT,
// NaN-canonical float bits for numerics, 0/1 for BOOL). Two rows have equal
// (cls, bits) pairs exactly when their HashKeys are equal, so these codes
// can key group-by and marginal-cell hash tables directly. The vectors are
// cached on the parent table (append-only prefix reuse) and must be treated
// as read-only.
func (s *Snapshot) Codes(col int) (cls []value.Class, bits []uint64) {
	return s.cachedCodes(col, 0, func() ([]value.Class, []uint64) { return s.computeCodes(col) })
}

// computeCodes materializes the code vectors of Codes without consulting the
// cache.
func (s *Snapshot) computeCodes(col int) (cls []value.Class, bits []uint64) {
	c := &s.cols[col]
	n := s.Len()
	cls = make([]value.Class, n)
	bits = make([]uint64, n)
	switch c.Kind {
	case value.KindInt:
		for i, x := range c.Ints {
			cls[i] = value.ClassNum
			bits[i] = value.NumBits(float64(x))
		}
	case value.KindFloat:
		for i, x := range c.Floats {
			cls[i] = value.ClassNum
			bits[i] = value.NumBits(x)
		}
	case value.KindBool:
		for i, b := range c.Bools {
			cls[i] = value.ClassBool
			if b {
				bits[i] = 1
			}
		}
	case value.KindText:
		for i, code := range c.Codes {
			cls[i] = value.ClassText
			bits[i] = uint64(code)
		}
	}
	if c.Nulls != nil {
		for i := 0; i < n; i++ {
			if c.Null(i) {
				cls[i] = value.ClassNull
				bits[i] = 0
			}
		}
	}
	return cls, bits
}

// CellCode keys a 1- or 2-attribute marginal cell by value codes (class +
// 64-bit payload per attribute) instead of a concatenated HashKey string.
// Code equality matches cellKey-string equality exactly; both ipf and
// marginal bucket tuples with it, so the coding scheme lives in one place.
type CellCode struct {
	C0, C1 value.Class
	B0, B1 uint64
}

// CodeOf codes one value against this snapshot's dictionary, matching the
// per-row codes from Codes/BinnedCodes. ok=false means a TEXT value no row
// of this table ever stored — such a value can never match any row.
func (s *Snapshot) CodeOf(v value.Value) (cls value.Class, bits uint64, ok bool) {
	if cls, bits, ok = v.ScalarBits(); ok {
		return cls, bits, true
	}
	c, found := s.DictLookup(v.AsText())
	if !found {
		return value.ClassText, 0, false
	}
	return value.ClassText, uint64(c), true
}

// CellCodeOf codes a 1- or 2-value cell tuple; ok=false when any component
// is unmatchable (see CodeOf).
func (s *Snapshot) CellCodeOf(vals []value.Value) (CellCode, bool) {
	var code CellCode
	cls, bits, ok := s.CodeOf(vals[0])
	if !ok {
		return code, false
	}
	code.C0, code.B0 = cls, bits
	if len(vals) == 2 {
		cls, bits, ok = s.CodeOf(vals[1])
		if !ok {
			return code, false
		}
		code.C1, code.B1 = cls, bits
	}
	return code, true
}

// BinnedCodes is Codes with numeric values snapped to histogram bin
// midpoints first: (⌊v/width⌋+0.5)·width, the same expression
// marginal.SnapVals uses, so a binned row code equals the code of its
// snapped cell value. Non-numeric columns and width 0 defer to Codes. Like
// Codes, the vectors are cached per (column, width) on the parent table and
// must be treated as read-only.
func (s *Snapshot) BinnedCodes(col int, width float64) (cls []value.Class, bits []uint64) {
	if width == 0 || (s.cols[col].Kind != value.KindInt && s.cols[col].Kind != value.KindFloat) {
		return s.Codes(col)
	}
	return s.cachedCodes(col, width, func() ([]value.Class, []uint64) { return s.computeBinnedCodes(col, width) })
}

// computeBinnedCodes materializes the code vectors of BinnedCodes without
// consulting the cache.
func (s *Snapshot) computeBinnedCodes(col int, width float64) (cls []value.Class, bits []uint64) {
	c := &s.cols[col]
	n := s.Len()
	cls = make([]value.Class, n)
	bits = make([]uint64, n)
	snapf := func(f float64) uint64 {
		return value.NumBits((math.Floor(f/width) + 0.5) * width)
	}
	if c.Kind == value.KindInt {
		for i, x := range c.Ints {
			cls[i] = value.ClassNum
			bits[i] = snapf(float64(x))
		}
	} else {
		for i, x := range c.Floats {
			cls[i] = value.ClassNum
			bits[i] = snapf(x)
		}
	}
	if c.Nulls != nil {
		for i := 0; i < n; i++ {
			if c.Null(i) {
				cls[i] = value.ClassNull
				bits[i] = 0
			}
		}
	}
	return cls, bits
}
