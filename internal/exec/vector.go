// Vectorized query execution over columnar snapshots.
//
// The WHERE clause compiles once into a tree of selection kernels that
// evaluate SQL's three-valued logic over typed column vectors (one int8
// truth value per row: false/true/null). Every numeric operand — an
// INT/FLOAT column, WEIGHT, a literal or arithmetic — compiles to one numVec
// (arith.go), so numeric truth, comparison, IN, BETWEEN and IS NULL each
// have one kernel. A TEXT or BOOL column compared against constants — its
// truth, a comparison, IN, BETWEEN's two bounds — is a table of outcomes
// indexed by the row's dictionary code or bool, filled once per compile.
// Group-by and DISTINCT keys become dense ids through
// table.Snapshot.GroupIDs — never through per-row strings — and aggregates
// run as tight loops over the same numVecs with the weight vector.
//
// Determinism contract: the vectorized path is byte-identical to the row
// interpreter on every query it accepts. Group output order is
// first-appearance order (dense ids are assigned in scan order), float
// accumulation happens in row order with the same operation sequence the
// row path uses, and value identity for grouping matches value.HashKey
// exactly (see table.Snapshot.GroupIDs). An operand the kernels do not
// compile stays inside the pipeline as a per-row form: a WHERE the kernels
// do not cover runs the interpreted expression tree per row (SelectRows),
// an aggregate input is evaluated per kept row through accumulateRow, and
// a computed select item through projectRow, while selection, grouping and
// accumulation stay columnar. Errors surface in the interpreter's order:
// the first failing row in scan order, items at a row in select-list order.
package exec

import (
	"context"
	"math"
	"slices"
	"strings"

	"mosaic/internal/expr"
	"mosaic/internal/sql"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

// Ternary truth encoding of the filter kernels, extended with a fourth
// "error" state for the arithmetic kernels. Rows marked ternErr are rows
// where the interpreter would raise a runtime error mid-scan; the scan
// surfaces that error (see SelectRows) instead of producing a result.
//
// The four states fit in two bits, so NOT, AND and OR are table lookups
// (notTable, andTable, orTable): a row's outcome indexes the table and no
// kernel loop branches on it.
const (
	ternFalse int8 = 0
	ternTrue  int8 = 1
	ternNull  int8 = 2
	ternErr   int8 = 3
)

// notTable is three-valued NOT, indexed by the child's state: NULL and
// error rows stay as they are.
var notTable = [4]int8{ternTrue, ternFalse, ternNull, ternErr}

// andTable and orTable are three-valued AND and OR, indexed by l<<2 | r.
// Errors follow the interpreter's left-to-right short-circuit: a FALSE left
// arm of AND (TRUE for OR) decides the row before the right arm runs, so a
// right-arm error is suppressed there; everywhere else an error in either
// arm aborts, the left arm's first.
//
//	AND     r: F  T  N  E        OR      r: F  T  N  E
//	l=F        F  F  F  F        l=F        F  T  N  E
//	l=T        F  T  N  E        l=T        T  T  T  T
//	l=N        F  N  N  E        l=N        N  T  N  E
//	l=E        E  E  E  E        l=E        E  E  E  E
var (
	andTable = [16]int8{
		ternFalse, ternFalse, ternFalse, ternFalse,
		ternFalse, ternTrue, ternNull, ternErr,
		ternFalse, ternNull, ternNull, ternErr,
		ternErr, ternErr, ternErr, ternErr,
	}
	orTable = [16]int8{
		ternFalse, ternTrue, ternNull, ternErr,
		ternTrue, ternTrue, ternTrue, ternTrue,
		ternNull, ternTrue, ternNull, ternErr,
		ternErr, ternErr, ternErr, ternErr,
	}
)

// kernel computes a ternary truth vector over a row range of the snapshot.
// eval fills dst with the outcomes of rows [lo, hi), where dst[i] is row
// lo+i (len(dst) == hi-lo); the morsel scheduler hands each worker its own
// sub-slice of the full truth vector, and a serial caller passes the whole
// vector with lo=0. Row outcomes are independent, so evaluating by morsel is
// trivially byte-identical to one full-range pass.
//
// Kernels never return Go errors: expression shapes whose errors are decided
// by static column kinds (text truthiness, arithmetic on BOOL, unknown
// columns) are rejected at compile time and evaluated per row by the
// interpreter inside the pipeline, while the single dynamic error the kernel set can raise —
// division by zero, the only runtime error arithmetic over numeric columns
// admits — is tracked per row as ternErr and propagated through the logic
// kernels with the interpreter's exact short-circuit rules (a FALSE left arm
// of an AND suppresses errors in the right arm, etc.).
type kernel interface {
	eval(dst []int8, lo, hi int)
}

// colRef is a resolved column. An INT/FLOAT column or the WEIGHT
// pseudo-column (the effective per-row weight vector, never NULL) is a
// column-backed numVec sharing the snapshot's payload and null bitmap; a
// TEXT/BOOL column keeps its table.Column for the typed kernels.
type colRef struct {
	kind value.Kind
	col  *table.Column // TEXT/BOOL
	num  *numVec       // INT/FLOAT column or WEIGHT
}

// nulls is the column's NULL bitmap (nil: no NULLs).
func (r colRef) nulls() []uint64 {
	if r.num != nil {
		return r.num.nulls
	}
	return r.col.Nulls
}

// class buckets a kind the way value.Compare ranks it.
func classOf(k value.Kind) value.Class {
	switch k {
	case value.KindBool:
		return value.ClassBool
	case value.KindInt, value.KindFloat:
		return value.ClassNum
	case value.KindText:
		return value.ClassText
	default:
		return value.ClassNull
	}
}

type kernelCompiler struct {
	snap    *table.Snapshot
	weights []float64
	n       int
	workers int // parallelism for eager vector materialization (numArith fills)
}

func (c *kernelCompiler) resolve(name string) (colRef, bool) {
	if j, ok := c.snap.Schema().Index(name); ok {
		col := c.snap.Col(j)
		switch kind := c.snap.Schema().At(j).Kind; kind {
		case value.KindInt:
			return colRef{kind: kind, num: &numVec{isInt: true, ints: col.Ints, nulls: col.Nulls}}, true
		case value.KindFloat:
			return colRef{kind: kind, num: &numVec{floats: col.Floats, nulls: col.Nulls}}, true
		default:
			return colRef{kind: kind, col: col}, true
		}
	}
	if strings.EqualFold(name, "WEIGHT") {
		return colRef{kind: value.KindFloat, num: &numVec{floats: c.weights}}, true
	}
	return colRef{}, false
}

// ternTruth converts a constant value to its ternary truth, mirroring
// expr.Truthy's inner truth() plus NULL propagation. Text is not a boolean
// (the interpreter raises an error per row), so it is not compilable.
func ternTruth(v value.Value) (int8, bool) {
	switch v.Kind() {
	case value.KindNull:
		return ternNull, true
	case value.KindBool:
		return ternOf(v.AsBool()), true
	case value.KindInt:
		return ternOf(v.AsInt() != 0), true
	case value.KindFloat:
		return ternOf(v.AsFloat() != 0), true
	default:
		return ternFalse, false
	}
}

// ternOf is a condition's truth; like b2i it compiles without a branch.
func ternOf(b bool) int8 { return int8(b2i(b)) }

// b2i is 1 for true and 0 for false. The compiler turns it into a flag
// move, so a kernel loop that indexes a table with it does not branch on
// the row.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// foldConst evaluates a column-free subexpression to a constant. Expressions
// that error (e.g. division by zero) are not foldable; the row interpreter
// then reproduces the error lazily, per scanned row, exactly as before.
func foldConst(e expr.Expr) (value.Value, bool) {
	if len(e.Columns(nil)) != 0 {
		return value.Null(), false
	}
	v, err := e.Eval(nil)
	if err != nil {
		return value.Null(), false
	}
	return v, true
}

func (c *kernelCompiler) compile(e expr.Expr) kernel {
	if v, ok := foldConst(e); ok {
		t, ok := ternTruth(v)
		if !ok {
			return nil
		}
		return &constKernel{v: t}
	}
	switch ex := e.(type) {
	case *expr.Column:
		if ref, ok := c.resolve(ex.Name); ok && ref.kind == value.KindBool {
			return boolTable(ref, ternOf)
		}
	case *expr.Unary:
		if !ex.Neg {
			child := c.compile(ex.Child)
			if child == nil {
				return nil
			}
			return &notKernel{child: child}
		}
		// truth(-e) == truth(e): negation changes neither zero-ness nor the
		// NULL and error rows, so the child's vector answers, un-negated.
		e = ex.Child
	case *expr.Binary:
		switch ex.Op {
		case expr.OpAnd, expr.OpOr:
			l := c.compile(ex.Left)
			if l == nil {
				return nil
			}
			r := c.compile(ex.Right)
			if r == nil {
				return nil
			}
			return &logicKernel{l: l, r: r, and: ex.Op == expr.OpAnd}
		case expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe:
			return c.compileCompare(ex.Op, ex.Left, ex.Right)
		}
	case *expr.In:
		return c.compileIn(ex)
	case *expr.Between:
		return c.compileBetween(ex)
	case *expr.IsNull:
		return c.compileIsNull(ex)
	}
	// Numeric truth: an INT/FLOAT column, WEIGHT, or arithmetic used as a
	// boolean (WHERE x + y). Truth of TEXT errors per row in the
	// interpreter, so it stays uncompiled.
	if v := c.compileNum(e); v != nil {
		return &truthNumKernel{v: v.full(c.n)}
	}
	return nil
}

// cmpLUT maps a comparison result c ∈ {-1,0,1} (index c+1) to the ternary
// outcome of the operator.
func cmpLUT(op expr.BinOp) [3]int8 {
	switch op {
	case expr.OpEq:
		return [3]int8{0, 1, 0}
	case expr.OpNe:
		return [3]int8{1, 0, 1}
	case expr.OpLt:
		return [3]int8{1, 0, 0}
	case expr.OpLe:
		return [3]int8{1, 1, 0}
	case expr.OpGt:
		return [3]int8{0, 0, 1}
	default: // OpGe
		return [3]int8{0, 1, 1}
	}
}

func mirrorOp(op expr.BinOp) expr.BinOp {
	switch op {
	case expr.OpLt:
		return expr.OpGt
	case expr.OpLe:
		return expr.OpGe
	case expr.OpGt:
		return expr.OpLt
	case expr.OpGe:
		return expr.OpLe
	default:
		return op
	}
}

func (c *kernelCompiler) compileCompare(op expr.BinOp, left, right expr.Expr) kernel {
	// Numeric operands — INT/FLOAT columns, WEIGHT, literals, arithmetic —
	// meet in one kernel.
	if l := c.compileNum(left); l != nil {
		if r := c.compileNum(right); r != nil {
			return newCmpNumNum(l, r, cmpLUT(op))
		}
	}
	// A TEXT/BOOL column, or a column against another kind class. An
	// unknown column compiles nothing; statements refuse it before any row
	// is read (CheckNames).
	lr, lok := c.columnOf(left)
	rr, rok := c.columnOf(right)
	switch {
	case lok && rok:
		return c.compileColCol(op, lr, rr)
	case lok:
		if v, ok := foldConst(right); ok {
			return c.compileColLit(op, lr, v)
		}
	case rok:
		if v, ok := foldConst(left); ok {
			return c.compileColLit(mirrorOp(op), rr, v)
		}
	}
	return nil
}

// columnOf resolves e when it is a plain column reference.
func (c *kernelCompiler) columnOf(e expr.Expr) (colRef, bool) {
	col, ok := e.(*expr.Column)
	if !ok {
		return colRef{}, false
	}
	return c.resolve(col.Name)
}

// crossClass decides a comparison between two different kind classes by
// their rank alone (value.Compare): one outcome for every row its operands
// leave neither NULL nor erroring.
func crossClass(op expr.BinOp, a, b value.Class, nulls, errs []uint64) kernel {
	cc := -1
	if a > b {
		cc = 1
	}
	return &constKernel{v: cmpLUT(op)[cc+1], nulls: nulls, errs: errs}
}

// compileNumLit compares a numeric operand against a constant: a numeric
// or NULL constant is a scalar numVec, a TEXT/BOOL one (numConst's nil)
// ranks by class.
func (c *kernelCompiler) compileNumLit(op expr.BinOp, v *numVec, lit value.Value) kernel {
	if lv := c.numConst(lit); lv != nil {
		return newCmpNumNum(v, lv, cmpLUT(op))
	}
	return crossClass(op, value.ClassNum, classOf(lit.Kind()), v.nulls, v.errs)
}

// compileColLit compares a TEXT/BOOL column against a constant through its
// outcome table, or any column against a constant of another class by rank
// (numeric pairs never get here: compileCompare sends them to
// cmpNumNumKernel).
func (c *kernelCompiler) compileColLit(op expr.BinOp, ref colRef, lit value.Value) kernel {
	if lit.IsNull() {
		// Comparison with NULL is NULL for every row, NULL rows included.
		return &constKernel{v: ternNull}
	}
	if rc, lc := classOf(ref.kind), classOf(lit.Kind()); rc != lc {
		return crossClass(op, rc, lc, ref.nulls(), nil)
	}
	lut := cmpLUT(op)
	switch ref.kind {
	case value.KindBool:
		lb := lit.AsBool()
		return boolTable(ref, func(x bool) int8 { return lut[boolCmp(x, lb)+1] })
	case value.KindText:
		if op == expr.OpEq || op == expr.OpNe {
			// Every code but the literal's is unequal: one DictLookup, no
			// string compared.
			return c.textTable(ref, lut[0], lut[1], lit)
		}
		k := c.textTable(ref, 0, 0)
		ls := lit.AsText()
		for i, s := range c.snap.DictStrings() {
			k.tbl[i] = lut[sign(strings.Compare(s, ls))+1]
		}
		return k
	default:
		return nil
	}
}

// boolTable compiles a BOOL column against constants: outcome(false) and
// outcome(true) are its whole table.
func boolTable(ref colRef, outcome func(x bool) int8) *boolTableKernel {
	return &boolTableKernel{xs: ref.col.Bools, tbl: [2]int8{outcome(false), outcome(true)}, col: ref.col}
}

// textTable compiles a TEXT column against constants: a table over the
// snapshot's dictionary codes holding miss, except hit at the code of each
// TEXT value of hits the snapshot holds. NULL rows hold code 0 even when
// nothing was interned, so the table has at least one entry. The
// dictionary is live: a string interned after the snapshot was taken has a
// code past the table and matches no row of it.
func (c *kernelCompiler) textTable(ref colRef, miss, hit int8, hits ...value.Value) *textTableKernel {
	n := len(c.snap.DictStrings())
	tbl := make([]int8, max(n, 1))
	for i := range tbl {
		tbl[i] = miss
	}
	for _, v := range hits {
		if v.Kind() != value.KindText {
			continue
		}
		if code, ok := c.snap.DictLookup(v.AsText()); ok && int(code) < n {
			tbl[code] = hit
		}
	}
	return &textTableKernel{xs: ref.col.Codes, tbl: tbl, col: ref.col}
}

// compileColCol compares two TEXT/BOOL columns, or two columns of
// different classes.
func (c *kernelCompiler) compileColCol(op expr.BinOp, a, b colRef) kernel {
	if ca, cb := classOf(a.kind), classOf(b.kind); ca != cb {
		return crossClass(op, ca, cb, orBits(a.nulls(), b.nulls(), c.n), nil)
	}
	lut := cmpLUT(op)
	switch a.kind {
	case value.KindBool:
		return &cmpBoolBoolColKernel{a: a.col.Bools, b: b.col.Bools, lut: lut, ca: a.col, cb: b.col}
	case value.KindText:
		return &cmpTextTextColKernel{a: a.col.Codes, b: b.col.Codes, strs: c.snap.DictStrings(), lut: lut, ca: a.col, cb: b.col}
	default:
		return nil
	}
}

func (c *kernelCompiler) compileIn(ex *expr.In) kernel {
	vals := make([]value.Value, 0, len(ex.List))
	sawNull := false
	for _, item := range ex.List {
		v, ok := foldConst(item)
		if !ok {
			return nil
		}
		if v.IsNull() {
			sawNull = true
			continue
		}
		vals = append(vals, v)
	}
	if v := c.compileNum(ex.Child); v != nil {
		return newInNum(v.full(c.n), vals, sawNull, ex.Negate) // inNumKernel indexes per row
	}
	ref, ok := c.columnOf(ex.Child)
	if !ok {
		return nil
	}
	// A value of another kind class is never equal: only same-class values
	// are members.
	match, miss := ternOf(!ex.Negate), ternOf(ex.Negate)
	if sawNull {
		miss = ternNull
	}
	switch ref.kind {
	case value.KindBool:
		return boolTable(ref, func(x bool) int8 {
			if slices.ContainsFunc(vals, func(v value.Value) bool { return v.Kind() == value.KindBool && v.AsBool() == x }) {
				return match
			}
			return miss
		})
	case value.KindText:
		return c.textTable(ref, miss, match, vals...)
	default:
		return nil
	}
}

func (c *kernelCompiler) compileBetween(ex *expr.Between) kernel {
	lo, ok := foldConst(ex.Lo)
	if !ok {
		return nil
	}
	hi, ok := foldConst(ex.Hi)
	if !ok {
		return nil
	}
	// Any NULL bound makes every row NULL: the interpreter checks the three
	// operands together before comparing, but only after evaluating the
	// child, so a computed child's division errors still surface.
	var ge, le kernel
	if v := c.compileNum(ex.Child); v != nil {
		// The child is read by two comparisons and the NULL-bound shortcut,
		// so a computed one materializes once; the bounds stay scalar.
		v = v.full(c.n)
		if lo.IsNull() || hi.IsNull() {
			return &constKernel{v: ternNull, errs: v.errs}
		}
		ge, le = c.compileNumLit(expr.OpGe, v, lo), c.compileNumLit(expr.OpLe, v, hi)
	} else {
		ref, ok := c.columnOf(ex.Child)
		if !ok {
			return nil
		}
		if lo.IsNull() || hi.IsNull() {
			return &constKernel{v: ternNull}
		}
		ge, le = c.compileColLit(expr.OpGe, ref, lo), c.compileColLit(expr.OpLe, ref, hi)
		if ge == nil || le == nil {
			return nil
		}
	}
	var k kernel = &logicKernel{l: ge, r: le, and: true}
	if ex.Negate {
		k = &notKernel{child: k}
	}
	return k
}

func (c *kernelCompiler) compileIsNull(ex *expr.IsNull) kernel {
	if v := c.compileNum(ex.Child); v != nil {
		v = v.full(c.n)
		return &isNullKernel{nulls: v.nulls, errs: v.errs, negate: ex.Negate}
	}
	ref, ok := c.columnOf(ex.Child)
	if !ok {
		return nil
	}
	return &isNullKernel{nulls: ref.nulls(), negate: ex.Negate}
}

func sign(c int) int { return b2i(c > 0) - b2i(c < 0) }

// --- kernel implementations ---

// constKernel is one outcome for every row, except the rows its operands
// mark NULL (nulls) or erroring (errs); nil bitmaps mark none.
type constKernel struct {
	v           int8
	nulls, errs []uint64
}

func (k *constKernel) eval(dst []int8, lo, hi int) {
	for i := range dst {
		dst[i] = k.v
	}
	overlayBits(dst, k.nulls, ternNull, lo)
	overlayBits(dst, k.errs, ternErr, lo)
}

type notKernel struct{ child kernel }

func (k *notKernel) eval(dst []int8, lo, hi int) {
	k.child.eval(dst, lo, hi)
	for i, t := range dst {
		dst[i] = notTable[t&3]
	}
}

// logicKernel is three-valued AND/OR through andTable or orTable, which
// encode the interpreter's short-circuit of right-arm errors.
type logicKernel struct {
	l, r kernel
	and  bool
}

// logicChunkRows is how many rows a logicKernel combines at a time: a
// multiple of 64, so every chunk starts on a null-bitmap word.
const logicChunkRows = 1024

// eval writes the left arm's outcomes into dst, then, a chunk at a time,
// saves them in a stack buffer, lets the right arm overwrite the chunk and
// combines the two. The buffer is never handed to a kernel (a slice passed
// through the interface would escape to the heap), so a node allocates
// nothing, and outcomes are row-local, so chunking changes none.
func (k *logicKernel) eval(dst []int8, lo, hi int) {
	k.l.eval(dst, lo, hi)
	tbl := &orTable
	if k.and {
		tbl = &andTable
	}
	var left [logicChunkRows]int8
	for c := 0; c < len(dst); c += logicChunkRows {
		d := dst[c:min(c+logicChunkRows, len(dst))]
		copy(left[:], d)
		k.r.eval(d, lo+c, lo+c+len(d))
		for i, r := range d {
			d[i] = tbl[(left[i]<<2|r)&15]
		}
	}
}

// textTableKernel is a TEXT column against constants: the outcome of
// every dictionary code, looked up per row.
type textTableKernel struct {
	xs  []uint32
	tbl []int8
	col *table.Column
}

func (k *textTableKernel) eval(dst []int8, lo, hi int) {
	for i, c := range k.xs[lo:hi] {
		dst[i] = k.tbl[c]
	}
	overlayBits(dst, k.col.Nulls, ternNull, lo)
}

// boolTableKernel is a BOOL column against constants: the outcome of false
// and of true, looked up per row.
type boolTableKernel struct {
	xs  []bool
	tbl [2]int8
	col *table.Column
}

func (k *boolTableKernel) eval(dst []int8, lo, hi int) {
	for i, x := range k.xs[lo:hi] {
		dst[i] = k.tbl[b2i(x)]
	}
	overlayBits(dst, k.col.Nulls, ternNull, lo)
}

// boolCmp orders FALSE before TRUE: -1, 0 or 1.
func boolCmp(a, b bool) int { return b2i(a) - b2i(b) }

type cmpBoolBoolColKernel struct {
	a, b   []bool
	lut    [3]int8
	ca, cb *table.Column
}

func (k *cmpBoolBoolColKernel) eval(dst []int8, lo, hi int) {
	b := k.b[lo:hi]
	for i, x := range k.a[lo:hi] {
		dst[i] = k.lut[boolCmp(x, b[i])+1]
	}
	overlayBits(dst, k.ca.Nulls, ternNull, lo)
	overlayBits(dst, k.cb.Nulls, ternNull, lo)
}

// cmpTextTextColKernel compares two TEXT columns. The dictionary interns
// each string once, so equal codes are equal strings and unequal codes
// unequal ones: = and <> (lut[0] == lut[2]) never read a string.
type cmpTextTextColKernel struct {
	a, b   []uint32
	strs   []string
	lut    [3]int8
	ca, cb *table.Column
}

func (k *cmpTextTextColKernel) eval(dst []int8, lo, hi int) {
	eqOnly := k.lut[0] == k.lut[2]
	b := k.b[lo:hi]
	for i, x := range k.a[lo:hi] {
		switch y := b[i]; {
		case x == y:
			dst[i] = k.lut[1]
		case eqOnly:
			dst[i] = k.lut[0]
		default:
			dst[i] = k.lut[sign(strings.Compare(k.strs[x], k.strs[y]))+1]
		}
	}
	overlayBits(dst, k.ca.Nulls, ternNull, lo)
	overlayBits(dst, k.cb.Nulls, ternNull, lo)
}

// isNullKernel is IS [NOT] NULL over an operand's NULL bitmap; a computed
// operand's error rows raise.
type isNullKernel struct {
	nulls, errs []uint64
	negate      bool
}

func (k *isNullKernel) eval(dst []int8, lo, hi int) {
	base := ternOf(k.negate) // IS NULL on a non-null row
	for i := range dst {
		dst[i] = base
	}
	overlayBits(dst, k.nulls, ternOf(!k.negate), lo)
	overlayBits(dst, k.errs, ternErr, lo)
}

// --- vectorized aggregation ---

// vecAgg is one aggregate's input. A numeric input — INT/FLOAT column,
// WEIGHT or arithmetic — is vec; a TEXT/BOOL column input is col; COUNT(*)
// has neither. Any other input (a comparison, SUM/AVG over TEXT, an unknown
// column) is row: the per-row form, evaluated at each kept row through
// accumulateRow with the interpreter's own errors.
type vecAgg struct {
	kind sql.AggKind
	star bool
	col  int
	vec  *numVec
	row  *sql.SelectItem
}

// planVectorAggs compiles every aggregate item: COUNT(*), a numeric operand
// the compiler covers, a TEXT/BOOL column, or else the item's per-row form.
// A compiled arithmetic input's only dynamic error is division by zero,
// which accumulateStates surfaces at the first kept row that raises it.
func planVectorAggs(comp *kernelCompiler, sel *sql.Select) []vecAgg {
	sc := comp.snap.Schema()
	out := make([]vecAgg, 0, len(sel.Items))
	for _, it := range sel.Items {
		if it.Agg == sql.AggNone {
			continue
		}
		if it.Star {
			out = append(out, vecAgg{kind: it.Agg, star: true})
			continue
		}
		if v := comp.compileNum(it.Expr); v != nil {
			// The accumulators index per row; scalars (e.g. SUM(2) under an
			// unfoldable parent) materialize here, off the hot path.
			out = append(out, vecAgg{kind: it.Agg, vec: v.full(comp.n)})
			continue
		}
		if colEx, ok := it.Expr.(*expr.Column); ok {
			j, ok := sc.Index(colEx.Name)
			if ok && !((it.Agg == sql.AggSum || it.Agg == sql.AggAvg) && sc.At(j).Kind == value.KindText) {
				out = append(out, vecAgg{kind: it.Agg, col: j})
				continue
			}
		}
		out = append(out, vecAgg{kind: it.Agg, row: &it})
	}
	return out
}

// SelectRows is the engine's one selection operator: the rows where keeps
// (every row when where is nil), in scan order. WEIGHT reads weights unless
// a column of that name shadows it. A predicate the kernels compile is
// evaluated morsel by morsel across the worker pool; any other runs the
// interpreted expression per row on one goroutine.
//
// Errors keep the interpreter's order: at the first row whose predicate
// fails, SelectRows stops and returns the rows it kept before that row
// together with the row's error. Every kept row comes before the failing
// one, so a caller that evaluates more at each kept row (items, aggregate
// inputs, a new weight) returns its own first error instead, when it has
// one, and the selection's error otherwise.
func SelectRows(ctx context.Context, snap *table.Snapshot, where expr.Expr, weights []float64, workers int) ([]int32, error) {
	n := snap.Len()
	if where == nil {
		sel := make([]int32, n)
		if err := forEachMorsel(ctx, n, workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				sel[i] = int32(i)
			}
		}); err != nil {
			return nil, err
		}
		return sel, nil
	}
	if k := (&kernelCompiler{snap: snap, weights: weights, n: n, workers: workers}).compile(where); k != nil {
		tern, err := evalTern(ctx, k, n, workers)
		if err != nil {
			return nil, err
		}
		sel, failed, err := ternSelection(ctx, tern, workers)
		if err != nil {
			return nil, err
		}
		if failed {
			// The only dynamic error the kernel set admits.
			return sel, errDivisionByZero
		}
		return sel, nil
	}
	sel := make([]int32, 0, n)
	env := makeEnv(snap.Schema())
	for i := 0; i < n; i++ {
		if i%cancelCheckRows == 0 {
			if err := checkCtx(ctx); err != nil {
				return nil, err
			}
		}
		ok, err := expr.Truthy(where, env.at(snap, i, weights[i]))
		if err != nil {
			return sel, err
		}
		if ok {
			sel = append(sel, int32(i))
		}
	}
	return sel, nil
}

// WeightError is UpdateWeights' refusal of a kept row's value, UPDATE's new
// weight or CREATE METADATA's count: Value is TEXT or negative. The caller
// words the refusal.
type WeightError struct{ Value value.Value }

func (e *WeightError) Error() string {
	return "exec: weight " + e.Value.String() + " is not a non-negative number"
}

// UpdateWeights computes UPDATE SAMPLE … SET WEIGHT = weight WHERE where,
// and CREATE METADATA's count per kept row: the rows where keeps
// (SelectRows), and weight's value at each as float64, NULL as NaN
// (value.Float64's conversion). The names of where and then of weight
// resolve first (CheckNames); WEIGHT in either reads snap's weights unless
// a column of that name shadows it. A weight the kernels do not compile is
// evaluated per kept row. The first kept row whose weight fails returns its
// evaluation error, or a *WeightError for a TEXT or negative value; the
// selection's error surfaces only when no kept row failed first.
func UpdateWeights(snap *table.Snapshot, where, weight expr.Expr, workers int) (rows []int32, vals []float64, err error) {
	if err := CheckNames(snap.Schema(), where, weight); err != nil {
		return nil, nil, err
	}
	// A mutation runs to completion once it holds the engine's write lock,
	// so the selection gets no caller context.
	rows, selErr := SelectRows(context.Background(), snap, where, snap.Weights(), workers)
	vals = make([]float64, len(rows))
	c := &kernelCompiler{snap: snap, weights: snap.Weights(), n: snap.Len(), workers: workers}
	if v := c.compileNum(weight); v != nil {
		v = v.full(snap.Len())
		for k, r := range rows {
			if bitGet(v.errs, int(r)) {
				return nil, nil, errDivisionByZero
			}
			f := math.NaN()
			switch {
			case bitGet(v.nulls, int(r)):
			case v.isInt:
				f = float64(v.ints[r])
			default:
				f = v.floats[r]
			}
			if f < 0 {
				return nil, nil, &WeightError{Value: value.Float(f)}
			}
			vals[k] = f
		}
		return rows, vals, selErr
	}
	env := makeEnv(snap.Schema())
	for k, r := range rows {
		v, err := weight.Eval(env.at(snap, int(r), snap.Weight(int(r))))
		if err != nil {
			return nil, nil, err
		}
		f, err := v.Float64()
		if err != nil || f < 0 {
			return nil, nil, &WeightError{Value: v}
		}
		vals[k] = f
	}
	return rows, vals, selErr
}

// accumulate runs one aggregate's tight loop over the selected rows,
// writing the shared partial-state arrays (PartialStates). Accumulation
// order is scan order and the operation sequence matches
// PartialStates.Accumulate exactly, so float results are bit-identical to the row path. COUNT and
// SUM/AVG decide a numeric input's kind and its no-NULL case once, outside
// the row loop.
func accumulate(a vecAgg, st *PartialStates, snap *table.Snapshot, selRows, gids []int32, selW []float64) {
	v := a.vec
	var nulls []uint64 // COUNT(*) has no input; WEIGHT is never NULL
	switch {
	case v != nil:
		nulls = v.nulls
	case !a.star:
		nulls = snap.Col(a.col).Nulls
	}
	switch a.kind {
	case sql.AggCount:
		if nulls == nil {
			for k := range selRows {
				st.Count[gids[k]] += selW[k]
			}
			return
		}
		for k, ri := range selRows {
			if !bitGet(nulls, int(ri)) {
				st.Count[gids[k]] += selW[k]
			}
		}
	case sql.AggSum, sql.AggAvg:
		switch {
		case v == nil: // a BOOL column; SUM/AVG over TEXT has a per-row form
			bools := snap.Col(a.col).Bools
			for k, ri := range selRows {
				if !bitGet(nulls, int(ri)) {
					x := 0.0
					if bools[ri] {
						x = 1
					}
					addSum(st, gids[k], selW[k], x) // full multiply keeps NaN/±0 flow identical
				}
			}
		case v.isInt:
			sumRows(st, v.ints, nulls, selRows, gids, selW)
		default:
			sumRows(st, v.floats, nulls, selRows, gids, selW)
		}
	case sql.AggMin, sql.AggMax:
		less := a.kind == sql.AggMin
		for k, ri := range selRows {
			var x value.Value
			switch {
			case v == nil:
				if x = snap.Value(int(ri), a.col); x.IsNull() {
					continue
				}
			case bitGet(nulls, int(ri)):
				continue
			case v.isInt:
				x = value.Int(v.ints[ri])
			default:
				x = value.Float(v.floats[ri])
			}
			g := gids[k]
			if !st.Seen[g] {
				st.MinMax[g], st.Seen[g] = x, true
			} else if c := value.Compare(x, st.MinMax[g]); (less && c < 0) || (!less && c > 0) {
				st.MinMax[g] = x
			}
		}
	}
}

// sumRows is SUM/AVG over one numeric payload.
func sumRows[T int64 | float64](st *PartialStates, xs []T, nulls []uint64, selRows, gids []int32, selW []float64) {
	if nulls == nil {
		for k, ri := range selRows {
			addSum(st, gids[k], selW[k], float64(xs[ri]))
		}
		return
	}
	for k, ri := range selRows {
		if !bitGet(nulls, int(ri)) {
			addSum(st, gids[k], selW[k], float64(xs[ri]))
		}
	}
}

// addSum folds one weighted value into group g's SUM/AVG state. The
// float64 conversion forbids a fused multiply-add (see Accumulate).
func addSum(st *PartialStates, g int32, w, x float64) {
	st.SumW[g] += w
	st.SumWX[g] += float64(w * x)
	st.Seen[g] = true
}

// accumulateStates runs every aggregate's accumulation pass over one
// selection, producing the shared partial states (nst groups each).
// Aggregates parallelize ACROSS items, never across morsels: float
// accumulation is order-sensitive (IEEE 754 addition does not reassociate),
// so each aggregate's pass walks the selection in scan order on one
// goroutine — splitting one sum across workers would change low-order bits.
// Independent aggregates touch disjoint states, so a multi-aggregate query
// (weighted-global has five) still fans out. Chunked calls on
// position-aligned sub-slices keep per-morsel cancellation checkpoints
// without changing accumulation order.
//
// An input fails at a kept row where a compiled input divides by zero or a
// per-row form's evaluation errs. The interpreter accumulates a row's items
// in select-list order before the next row, so the error returned is the
// one at the earliest failing kept row, the first failing item there.
func accumulateStates(ctx context.Context, vaggs []vecAgg, snap *table.Snapshot, rawW []float64, selRows, gids []int32, selW []float64, nst, workers int) ([]*PartialStates, error) {
	states := make([]*PartialStates, len(vaggs))
	failAt := make([]int, len(vaggs)) // kept-row position of the item's first failure
	fails := make([]error, len(vaggs))
	err := forEachTask(ctx, len(vaggs), workers, func(i int) error {
		a := vaggs[i]
		st := NewPartialStates(a.kind, nst)
		states[i] = st
		if a.vec != nil && a.vec.errs != nil {
			for k, ri := range selRows {
				if bitGet(a.vec.errs, int(ri)) {
					failAt[i], fails[i] = k, errDivisionByZero
					return nil
				}
			}
		}
		var env *rowEnv
		if a.row != nil {
			env = makeEnv(snap.Schema())
		}
		for lo := 0; lo < len(selRows); lo += morselRows {
			if err := checkCtx(ctx); err != nil {
				return err
			}
			hi := min(lo+morselRows, len(selRows))
			if a.row == nil {
				accumulate(a, st, snap, selRows[lo:hi], gids[lo:hi], selW[lo:hi])
				continue
			}
			for k := lo; k < hi; k++ {
				ri := int(selRows[k])
				if err := accumulateRow(st, int(gids[k]), *a.row, env.at(snap, ri, rawW[ri]), selW[k]); err != nil {
					failAt[i], fails[i] = k, err
					return nil
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	first := -1
	for i, e := range fails {
		if e != nil && (first < 0 || failAt[i] < failAt[first]) {
			first = i
		}
	}
	if first >= 0 {
		return nil, fails[first]
	}
	return states, nil
}

// runProjectionVector answers a non-aggregate query on the columnar path:
// the WHERE is one SelectRows, DISTINCT densifies through the group-id
// machinery, and ORDER BY permutes row indices over typed columns — with a
// bounded top-K heap when LIMIT is present — so only the surviving rows
// ever materialize. Plain items (stars, columns, WEIGHT) fill the answer a
// column at a time (projectColumns).
//
// A computed item is evaluated per kept row through projectRow, and can
// raise an error at any of them, so its answer materializes every kept row
// in scan order before DISTINCT, ORDER BY or LIMIT apply; the first error
// among them comes before the selection's own, which lies at a later row.
func runProjectionVector(ctx context.Context, snap *table.Snapshot, sel *sql.Select, opts Options) (*Result, error) {
	rawW := snap.Weights()
	if opts.WeightOverride != nil {
		rawW = opts.WeightOverride
	}
	workers := opts.workers()
	outCols, sources := projectionSources(snap, sel)
	selRows, selErr := SelectRows(ctx, snap, sel.Where, rawW, workers)
	res := &Result{Columns: outCols}
	if slices.Contains(sources, srcComputed) {
		env := makeEnv(snap.Schema())
		res.Rows = make([][]value.Value, 0, len(selRows))
		for ci, ri := range selRows {
			if ci%cancelCheckRows == 0 {
				if err := checkCtx(ctx); err != nil {
					return nil, err
				}
			}
			out, err := projectRow(sel, env.at(snap, int(ri), rawW[ri]), env.nc)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, out)
		}
		if selErr != nil {
			return nil, selErr
		}
		if sel.Distinct {
			res.Rows = dedupRows(res.Rows)
		}
		if err := orderAndLimit(ctx, res, sel); err != nil {
			return nil, err
		}
		return res, nil
	}
	if selErr != nil {
		return nil, selErr
	}

	// DISTINCT: densify the item columns to group ids; the first-appearance
	// representatives are exactly dedupRows' first occurrences. A WEIGHT
	// item dedups the materialized rows instead.
	distinctOK := sel.Distinct && !slices.Contains(sources, srcWeight)
	cand := selRows
	if distinctOK {
		_, cand = snap.GroupIDs(sources, nil, selRows)
	}

	// ORDER BY / LIMIT on row indices, before materialization.
	var sortKeys []vecSortKey
	sortOK := false
	if len(sel.OrderBy) > 0 {
		sortKeys, sortOK = resolveVecSortKeys(snap, sel, outCols, sources, rawW)
	}
	postDone := false
	if sortOK && (!sel.Distinct || distinctOK) {
		// Sort boundary.
		if err := checkCtx(ctx); err != nil {
			return nil, err
		}
		rankTextKeys(snap, sortKeys, cand)
		switch {
		case sel.Limit == 0:
			cand = nil
		case sel.Limit > 0 && sel.Limit < len(cand):
			cand = topKCandidates(sortKeys, cand, sel.Limit)
		default:
			if err := sortCandidates(ctx, sortKeys, cand, workers); err != nil {
				return nil, err
			}
			if sel.Limit >= 0 && len(cand) > sel.Limit {
				cand = cand[:sel.Limit]
			}
		}
		postDone = true
	} else if len(sel.OrderBy) == 0 && sel.Limit >= 0 && (!sel.Distinct || distinctOK) {
		// LIMIT without ORDER BY: keep the first k candidates.
		if len(cand) > sel.Limit {
			cand = cand[:sel.Limit]
		}
		postDone = true
	}

	rows, err := projectColumns(ctx, snap, sources, rawW, cand)
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	if sel.Distinct && !distinctOK {
		res.Rows = dedupRows(res.Rows)
	}
	if postDone {
		return res, nil
	}
	if err := orderAndLimit(ctx, res, sel); err != nil {
		return nil, err
	}
	return res, nil
}

// projectColumns materializes the plain sources (schema columns and WEIGHT)
// at rows cand into one slab, a column at a time through the same column
// reader as finalize's GROUP BY keys, cancelCheckRows rows per chunk so a
// cancelled context stops it between chunks. Each row is cut from the slab
// capacity-capped, so a caller's append cannot run into the next row.
func projectColumns(ctx context.Context, snap *table.Snapshot, sources []int, rawW []float64, cand []int32) ([][]value.Value, error) {
	nc := len(sources)
	slab := make([]value.Value, len(cand)*nc)
	for lo := 0; lo < len(cand); lo += cancelCheckRows {
		if err := checkCtx(ctx); err != nil {
			return nil, err
		}
		rows := cand[lo:min(lo+cancelCheckRows, len(cand))]
		for oi, src := range sources {
			dst := slab[lo*nc+oi:]
			if src == srcWeight {
				for k, ri := range rows {
					dst[k*nc] = value.Float(rawW[ri])
				}
			} else {
				snap.FillValues(src, rows, dst, nc)
			}
		}
	}
	out := make([][]value.Value, len(cand))
	for ci := range out {
		out[ci] = slab[ci*nc : (ci+1)*nc : (ci+1)*nc]
	}
	return out, nil
}
