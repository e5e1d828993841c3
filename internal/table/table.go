// Package table implements Mosaic's in-memory weighted relation store.
//
// Every tuple carries a float64 weight (Sec 3.2 of the paper: sample
// metadata is tuple weights initialized to one). The executor answers
// SEMI-OPEN and OPEN queries by aggregating over these weights, so the store
// keeps one weight vector beside the typed columns. Rows are only ever
// appended, and SetWeights, which rewrites the whole vector, is the one way
// a weight changes. For a sample that vector IS the user's weights: nothing
// else in the system keeps a copy.
package table

import (
	"fmt"
	"math"
	"sync"

	"mosaic/internal/schema"
	"mosaic/internal/value"
)

// Table is an append-only in-memory relation with per-tuple weights. Tuples
// are stored once, as typed column vectors with null bitmaps and a TEXT
// dictionary (see columns.go). Row and Scan materialize value.Values from
// the columns on demand: every returned row is a fresh slice the caller
// owns, and two calls never alias each other.
//
// Locking contract: the table is safe for concurrent readers. Hot loops
// should not call Row per index — each call takes the RLock — but should
// take a Snapshot once and scan it lock-free. A Snapshot stays valid across
// appends, which land past its captured length; SetWeights writes the
// weight vector in place, so it must be serialized against snapshot
// readers (the engine runs writes under its write lock while queries share
// the read lock).
type Table struct {
	mu     sync.RWMutex
	name   string
	schema *schema.Schema
	wts    []float64 // one weight per tuple; its length is the tuple count
	cols   []Column
	dict   *Dict
	// version counts mutations: every append and SetWeights advances it,
	// so (table identity, version) names one exact content.
	// Derived state (IPF fits, trained models) records the pair it was
	// computed from and is valid exactly while the pair still matches.
	version uint64
}

// New creates an empty table with the given name and schema.
func New(name string, s *schema.Schema) *Table {
	return &Table{name: name, schema: s, cols: newColumns(s), dict: NewDict()}
}

// Name returns the relation name.
func (t *Table) Name() string { return t.name }

// Schema returns the relation schema.
func (t *Table) Schema() *schema.Schema { return t.schema }

// Len returns the number of stored tuples.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.wts)
}

// Version returns the table's mutation counter. It only ever grows, and two
// reads that return the same value saw the same rows and weights.
func (t *Table) Version() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.version
}

// Append validates and stores a row with weight 1.
func (t *Table) Append(row []value.Value) error {
	return t.AppendWeighted(row, 1)
}

// AppendWeighted validates and stores a row with the given weight: it is a
// one-row BulkAppendWeighted, returning the row's error itself rather than
// a *BatchError. The append is all-or-nothing: a value that fails coercion
// leaves every column, the null bitmaps, the dictionary and the weights
// untouched.
func (t *Table) AppendWeighted(row []value.Value, w float64) error {
	if err := t.BulkAppendWeighted([][]value.Value{row}, []float64{w}, false); err != nil {
		return err.(*BatchError).Err
	}
	return nil
}

// A BatchError is the error BulkAppendWeighted stops on: Err is what
// AppendWeighted returns for the batch's row at index Row.
type BatchError struct {
	Row int
	Err error
}

func (e *BatchError) Error() string { return e.Err.Error() }

func (e *BatchError) Unwrap() error { return e.Err }

// BulkAppend stores many rows with weight 1, validating each. It is
// BulkAppendWeighted(rows, nil, false).
func (t *Table) BulkAppend(rows [][]value.Value) error {
	return t.BulkAppendWeighted(rows, nil, false)
}

// BulkAppendWeighted stores many rows, validating each: row i with weight
// wts[i], or 1 when wts is nil. It stops at the first bad row with a
// *BatchError, keeping the rows before it. The batch takes the table and
// dictionary locks once and advances Version once when it stored any row.
// With clone set, a TEXT value new to the dictionary is stored as a copy,
// so rows whose strings alias a larger buffer (a script being restored)
// leave nothing of it behind; a repeated value costs nothing.
func (t *Table) BulkAppendWeighted(rows [][]value.Value, wts []float64, clone bool) error {
	buf := make([]value.Value, len(t.cols))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dict.mu.Lock()
	defer t.dict.mu.Unlock()
	n0 := len(t.wts)
	intern := func(s string) uint32 { return t.dict.intern(s, clone) }
	defer func() {
		if len(t.wts) > n0 {
			t.version++
		}
	}()
	for ri, row := range rows {
		// The whole row is coerced, and its weight checked, before any
		// column grows.
		if err := t.schema.ValidateInto(buf, row); err != nil {
			return &BatchError{Row: ri, Err: fmt.Errorf("table %s: %v", t.name, err)}
		}
		w := 1.0
		if wts != nil {
			if w = wts[ri]; w < 0 {
				return &BatchError{Row: ri, Err: fmt.Errorf("table %s: negative weight %g", t.name, w)}
			}
		}
		i := len(t.wts)
		for ci := range t.cols {
			t.cols[ci].appendValue(i, buf[ci], intern)
		}
		t.wts = append(t.wts, w)
	}
	return nil
}

// Row materializes the i-th row from the columns into a fresh slice.
func (t *Table) Row(i int) []value.Value {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return appendRow(make([]value.Value, 0, len(t.cols)), t.cols, t.dict.Strings(), i)
}

// SetWeights overwrites all tuple weights at once; len(w) must equal Len.
func (t *Table) SetWeights(w []float64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(w) != len(t.wts) {
		return fmt.Errorf("table %s: %d weights for %d rows", t.name, len(w), len(t.wts))
	}
	// All or nothing: a vector refused half-way must not leave weights
	// changed under an unchanged version.
	for i, x := range w {
		if x < 0 {
			return fmt.Errorf("table %s: negative weight %g at row %d", t.name, x, i)
		}
	}
	copy(t.wts, w)
	t.version++
	return nil
}

// Weights returns a copy of all tuple weights.
func (t *Table) Weights() []float64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]float64, len(t.wts))
	copy(out, t.wts)
	return out
}

// Scan calls fn for every (row, weight) pair, stopping early if fn returns
// false. Each row is materialized into a fresh slice, one allocation per
// tuple; hot loops over one or two attributes should read a Snapshot's
// typed columns instead.
func (t *Table) Scan(fn func(row []value.Value, w float64) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	strs := t.dict.Strings()
	for i, w := range t.wts {
		if !fn(appendRow(make([]value.Value, 0, len(t.cols)), t.cols, strs, i), w) {
			return
		}
	}
}

// FloatColumn extracts a numeric attribute as float64s, in row order,
// straight from its typed vector; NULL reads as NaN.
func (t *Table) FloatColumn(name string) ([]float64, error) {
	i, ok := t.schema.Index(name)
	if !ok {
		return nil, fmt.Errorf("table %s: no attribute %q", t.name, name)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	c, strs := &t.cols[i], t.dict.Strings()
	out := make([]float64, len(t.wts))
	switch c.Kind {
	case value.KindInt:
		for j, x := range c.Ints {
			out[j] = float64(x)
		}
	case value.KindFloat:
		copy(out, c.Floats)
	default:
		// BOOL reads as 0/1; the first stored TEXT is the error.
		for j := range out {
			f, err := c.Value(j, strs).Float64()
			if err != nil {
				return nil, fmt.Errorf("table %s: attribute %q row %d: %v", t.name, name, j, err)
			}
			out[j] = f
		}
		return out, nil
	}
	for j := range out {
		if c.Null(j) {
			out[j] = math.NaN()
		}
	}
	return out, nil
}

// Clone deep-copies the table under a new name, preserving weights. The
// clone shares the source's string dictionary (codes are append-only, so
// sharing is safe and keeps clone codes compatible with source snapshots).
func (t *Table) Clone(name string) *Table {
	t.mu.RLock()
	defer t.mu.RUnlock()
	nt := New(name, t.schema)
	nt.dict = t.dict
	nt.wts = append([]float64(nil), t.wts...)
	for ci := range t.cols {
		c := &t.cols[ci]
		nc := &nt.cols[ci]
		nc.Ints = append([]int64(nil), c.Ints...)
		nc.Floats = append([]float64(nil), c.Floats...)
		nc.Bools = append([]bool(nil), c.Bools...)
		nc.Codes = append([]uint32(nil), c.Codes...)
		nc.Nulls = append([]uint64(nil), c.Nulls...)
	}
	return nt
}
