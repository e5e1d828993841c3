// Vectorized query execution over columnar snapshots.
//
// Every expression compiles once into a typed operand over the snapshot's
// rows (operand): an INT or FLOAT one — a column, WEIGHT, a literal,
// arithmetic — into one numVec (arith.go); a BOOL one into a kernel that
// evaluates SQL's three-valued logic as one int8 truth value per row
// (false/true/null); a TEXT one into a dictionary-code column or a
// constant. A WHERE is its operand's truth kernel. Numeric comparison, IN,
// BETWEEN and IS NULL each have one kernel, and a TEXT or BOOL column
// compared against constants — its truth, a comparison, IN, BETWEEN's two
// bounds — is a table of outcomes indexed by the row's dictionary code or
// bool, filled once per compile. Group-by and DISTINCT keys become dense ids
// through table.Snapshot.GroupIDs — never through per-row strings — and
// aggregates run as tight loops over the same numVecs with the weight
// vector.
//
// Determinism contract: the vectorized path is byte-identical to the row
// interpreter. Group output order is first-appearance order (dense ids are
// assigned in scan order), float accumulation happens in row order with the
// same operation sequence the row path uses, and value identity for
// grouping matches value.HashKey exactly (see table.Snapshot.GroupIDs).
//
// Errors: the kernels find the row, the interpreter writes the message. A
// row where the interpreter's evaluation fails carries a failing state
// (ternErr, numVec.errs) through every operator in the interpreter's
// evaluation order. The statement's first failing row — in scan order, the
// WHERE before the items and items in select-list order — is handed to the
// interpreter's own function (rowError), and its error is returned.
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
// "error" state. Rows marked ternErr are rows where the interpreter would
// raise a runtime error mid-scan; the scan surfaces that error (see
// SelectRows) instead of producing a result.
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

// cmpTernTable is a comparison of two BOOL operands over their states,
// indexed by l<<2 | r like andTable: a failing operand fails the row, a
// NULL one makes it NULL, and FALSE and TRUE order through lut.
func cmpTernTable(lut [3]int8) *[16]int8 {
	tbl := new([16]int8)
	for l := range int8(4) {
		for r := range int8(4) {
			switch {
			case l == ternErr || r == ternErr:
				tbl[l<<2|r] = ternErr
			case l == ternNull || r == ternNull:
				tbl[l<<2|r] = ternNull
			default:
				tbl[l<<2|r] = lut[boolCmp(l == ternTrue, r == ternTrue)+1]
			}
		}
	}
	return tbl
}

// kernel computes a ternary truth vector over a row range of the snapshot.
// eval fills dst with the outcomes of rows [lo, hi), where dst[i] is row
// lo+i (len(dst) == hi-lo); the morsel scheduler hands each worker its own
// sub-slice of the full truth vector, and a serial caller passes the whole
// vector with lo=0. Row outcomes are independent, so evaluating by morsel is
// trivially byte-identical to one full-range pass.
//
// Kernels never return Go errors. A row where the interpreter fails —
// division by zero, arithmetic on or negation of a BOOL or TEXT value, TEXT
// read as a boolean, SUM or AVG over TEXT — is marked ternErr (numVec.errs
// in a numeric operand), and the logic kernels carry it with the
// interpreter's exact short-circuit rules (a FALSE left arm of an AND
// suppresses errors in the right arm, etc.). Each of those errors depends
// only on the operands' kinds and on which of them are NULL or fail, so the
// kernels know where the interpreter fails; which error it is, the
// interpreter says at that one row (rowError).
type kernel interface {
	eval(dst []int8, lo, hi int)
}

// operand is one compiled expression over the snapshot's rows, typed by the
// kind of value the interpreter's Eval gives it:
//
//   - INT and FLOAT are num. So is KindNull: a NULL constant, or an
//     expression that is NULL or fails at every row;
//   - BOOL is a column (col), a constant (lit), or any other
//     expression's truth kernel (truth);
//   - TEXT is a dictionary-code column (col) or a constant (lit).
type operand struct {
	kind  value.Kind
	num   *numVec
	truth kernel
	col   *table.Column
	lit   value.Value // a TEXT or BOOL constant; NULL when the operand is none
}

// numOp types a numeric operand.
func numOp(v *numVec) operand {
	switch {
	case v.constNull || v.constErr:
		return operand{kind: value.KindNull, num: v}
	case v.isInt:
		return operand{kind: value.KindInt, num: v}
	}
	return operand{kind: value.KindFloat, num: v}
}

func boolOp(k kernel) operand { return operand{kind: value.KindBool, truth: k} }

// failingOp fails at every row.
func failingOp() operand { return numOp(&numVec{scalar: true, constErr: true}) }

// classOf buckets a kind the way value.Compare ranks it.
var classOf = [...]value.Class{
	value.KindNull: value.ClassNull, value.KindBool: value.ClassBool,
	value.KindInt: value.ClassNum, value.KindFloat: value.ClassNum, value.KindText: value.ClassText,
}

type kernelCompiler struct {
	ctx     context.Context // stops the compile-time fills; nil never does
	snap    *table.Snapshot
	weights []float64
	n       int
	workers int   // parallelism for the compile-time fills (fill)
	err     error // the context's error once a fill stopped; its operands are not read
}

// fill runs fn over the snapshot's rows morsel by morsel at compile time:
// arithmetic payloads, and the truth vector of a BOOL operand read by state
// or values. A cancelled context stops it and sets err, which the compiler's
// caller returns before it reads any operand.
func (c *kernelCompiler) fill(fn func(lo, hi int)) {
	if err := forEachMorsel(c.ctx, c.n, c.workers, fn); err != nil && c.err == nil {
		c.err = err
	}
}

// column resolves a name. An INT/FLOAT column or the WEIGHT pseudo-column
// (the effective per-row weight vector, never NULL) is a column-backed
// numVec sharing the snapshot's payload and null bitmap; a TEXT/BOOL column
// keeps its table.Column. A name nothing resolves fails at every row, as in
// the interpreter; statements refuse it before any row is read
// (CheckNames).
func (c *kernelCompiler) column(name string) operand {
	if j, ok := c.snap.Schema().Index(name); ok {
		col := c.snap.Col(j)
		switch kind := c.snap.Schema().At(j).Kind; kind {
		case value.KindInt:
			return numOp(&numVec{isInt: true, ints: col.Ints, nulls: col.Nulls})
		case value.KindFloat:
			return numOp(&numVec{floats: col.Floats, nulls: col.Nulls})
		default:
			return operand{kind: kind, col: col}
		}
	}
	if strings.EqualFold(name, "WEIGHT") {
		return numOp(&numVec{floats: c.weights})
	}
	return failingOp()
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

// operand compiles e; every expression compiles.
func (c *kernelCompiler) operand(e expr.Expr) operand {
	if len(e.Columns(nil)) == 0 {
		// A column-free expression has one value at every row, or fails at
		// every row: the compiler evaluates it here, once, and nowhere else.
		v, err := e.Eval(nil)
		if err != nil {
			return failingOp()
		}
		return constant(v)
	}
	switch ex := e.(type) {
	case *expr.Column:
		return c.column(ex.Name)
	case *expr.Unary:
		if ex.Neg {
			return numOp(c.negate(c.operand(ex.Child)))
		}
		return boolOp(&notKernel{child: c.compile(ex.Child)})
	case *expr.Binary:
		switch ex.Op {
		case expr.OpAnd:
			return boolOp(&logicKernel{l: c.compile(ex.Left), r: c.compile(ex.Right), tbl: &andTable})
		case expr.OpOr:
			return boolOp(&logicKernel{l: c.compile(ex.Left), r: c.compile(ex.Right), tbl: &orTable})
		case expr.OpAdd, expr.OpSub, expr.OpMul, expr.OpDiv, expr.OpMod:
			return numOp(c.arith(ex.Op, c.operand(ex.Left), c.operand(ex.Right)))
		default:
			return boolOp(c.compare(ex.Op, c.operand(ex.Left), c.operand(ex.Right)))
		}
	case *expr.In:
		return boolOp(c.compileIn(ex))
	case *expr.Between:
		return boolOp(c.compileBetween(ex))
	case *expr.IsNull:
		// IS NULL passes its child's failures on.
		nulls, errs := c.state(c.operand(ex.Child))
		return boolOp(&isNullKernel{nulls: nulls, errs: errs, negate: ex.Negate})
	}
	// No other node holds a column. Should one appear, its first evaluated
	// row reports it (rowError) instead of an answer.
	return failingOp()
}

// constant is a column-free expression's value, shared by every row: a
// numeric or NULL one a scalar numVec, a TEXT or BOOL one lit.
func constant(v value.Value) operand {
	switch v.Kind() {
	case value.KindText:
		return operand{kind: value.KindText, lit: v}
	case value.KindBool:
		return operand{kind: value.KindBool, lit: v}
	}
	return numOp(numConst(v))
}

// constValue is the value an operand has at every row, when it has one and
// fails at none, as a column-free expression's operand does.
func (o operand) constValue() (value.Value, bool) {
	v := o.num
	switch {
	case !o.lit.IsNull():
		return o.lit, true
	case v == nil || !v.scalar || v.constErr || v.errs != nil:
		return value.Null(), false
	case v.constNull:
		return value.Null(), true
	case v.isInt:
		return value.Int(v.ints[0]), true
	}
	return value.Float(v.floats[0]), true
}

// compile is e's truth kernel: a WHERE, an AND/OR arm, NOT's child.
func (c *kernelCompiler) compile(e expr.Expr) kernel { return c.truthOf(c.operand(e)) }

// truthOf reads an operand as a boolean, as expr.Truthy does: a number is
// TRUE when non-zero, and TEXT is not a boolean, so a non-NULL TEXT row
// fails.
func (c *kernelCompiler) truthOf(o operand) kernel {
	switch {
	case o.kind == value.KindBool && o.col != nil:
		return boolTable(o.col, ternOf)
	case o.kind == value.KindBool && !o.lit.IsNull():
		return &constKernel{v: ternOf(o.lit.AsBool())}
	case o.kind == value.KindBool:
		return o.truth
	case o.kind == value.KindText:
		nulls, _ := c.state(o)
		return &constKernel{v: ternErr, nulls: nulls}
	case o.num.constErr:
		return &constKernel{v: ternErr}
	case o.num.constNull:
		return &constKernel{v: ternNull, errs: o.num.errs}
	case o.num.scalar:
		return &constKernel{v: ternOf(o.num.scalarFloat() != 0)}
	}
	return &truthNumKernel{v: o.num}
}

// state is an operand's NULL rows and failing rows as bitmaps over the
// snapshot (nil: none), which decide a row before its value is read. A BOOL
// operand other than a column evaluates its kernel here, through once.
func (c *kernelCompiler) state(o operand) (nulls, errs []uint64) {
	switch v := o.num; {
	case o.col != nil:
		return o.col.Nulls, nil
	case !o.lit.IsNull():
		return nil, nil
	case v == nil:
		return ternBits(c.once(o).truth.(*ternVec).tern)
	case v.constErr:
		return nil, allOnes(c.n)
	case v.constNull:
		return allOnes(c.n), v.errs
	case v.scalar:
		return nil, nil
	default:
		return v.nulls, v.errs
	}
}

// tern is a kernel's truth vector over every row. Each morsel writes its
// own sub-slice, so the vector does not depend on the worker count.
func (c *kernelCompiler) tern(k kernel) []int8 {
	tern := make([]int8, c.n)
	c.fill(func(lo, hi int) { k.eval(tern[lo:hi], lo, hi) })
	return tern
}

// once evaluates a BOOL operand's kernel a single time for a node that
// reads the operand more than once (IN's child, BETWEEN's three operands):
// its comparisons and its state then read the one truth vector.
func (c *kernelCompiler) once(o operand) operand {
	if _, done := o.truth.(*ternVec); o.truth == nil || done {
		return o
	}
	return boolOp(&ternVec{tern: c.tern(o.truth)})
}

// ternBits is a truth vector's NULL rows and failing rows as bitmaps.
func ternBits(tern []int8) (nulls, errs []uint64) {
	nulls, errs = newBitmap(len(tern)), newBitmap(len(tern))
	for i, t := range tern {
		switch t {
		case ternNull:
			bitSet(nulls, i)
		case ternErr:
			bitSet(errs, i)
		}
	}
	return nulls, errs
}

// boolValues is a BOOL row's value by its state; a failing row reads NULL.
var boolValues = [4]value.Value{value.Bool(false), value.Bool(true), value.Null(), value.Null()}

// values reads an operand a row at a time, as an aggregate input or a
// computed select item: at is row i's value, NULL at a row errs marks as
// failing.
func (c *kernelCompiler) values(o operand) (at func(i int) value.Value, errs []uint64) {
	switch {
	case o.col != nil:
		strs := c.snap.DictStrings()
		return func(i int) value.Value { return o.col.Value(i, strs) }, nil
	case !o.lit.IsNull():
		return func(int) value.Value { return o.lit }, nil
	case o.num != nil:
		v := o.num.full(c.n)
		return func(i int) value.Value {
			switch {
			case bitGet(v.nulls, i) || bitGet(v.errs, i):
				return value.Null()
			case v.isInt:
				return value.Int(v.ints[i])
			}
			return value.Float(v.floats[i])
		}, v.errs
	}
	tern := c.once(o).truth.(*ternVec).tern
	_, errs = ternBits(tern)
	return func(i int) value.Value { return boolValues[tern[i]] }, errs
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

// compare is a comparison: the interpreter evaluates both operands (either
// may fail), gives NULL when one is NULL, and otherwise orders them with
// value.Compare. Numeric operands — INT/FLOAT columns, WEIGHT, literals,
// arithmetic — meet in one kernel; a TEXT or BOOL column against a column
// or a constant of its kind has its own; any other pair of BOOL operands
// combines their truth kernels through cmpTernTable.
func (c *kernelCompiler) compare(op expr.BinOp, l, r operand) kernel {
	lc, rc := classOf[l.kind], classOf[r.kind]
	switch {
	case l.num != nil && r.num != nil:
		return newCmpNumNum(l.num, r.num, cmpLUT(op))
	case lc != rc || lc == value.ClassNull:
		ln, le := c.state(l)
		rn, re := c.state(r)
		if lc == value.ClassNull || rc == value.ClassNull {
			return &constKernel{v: ternNull, errs: orBits(le, re, c.n)}
		}
		// Two kind classes: value.Compare ranks them, one outcome for every
		// row neither operand leaves NULL or failing.
		return &constKernel{v: cmpLUT(op)[sign(int(lc)-int(rc))+1], nulls: orBits(ln, rn, c.n), errs: orBits(le, re, c.n)}
	case l.col == nil && r.col != nil:
		return c.compare(mirrorOp(op), r, l)
	}
	lut := cmpLUT(op)
	switch {
	case l.kind == value.KindText && r.col != nil:
		return &cmpTextTextColKernel{a: l.col.Codes, b: r.col.Codes, strs: c.snap.DictStrings(), lut: lut, ca: l.col, cb: r.col}
	case l.kind == value.KindText && l.col == nil: // two constants
		return &constKernel{v: lut[sign(strings.Compare(l.lit.AsText(), r.lit.AsText()))+1]}
	case l.kind == value.KindText && (op == expr.OpEq || op == expr.OpNe):
		// Every code but the constant's is unequal: one DictLookup, no
		// string compared.
		return c.textTable(l.col, lut[0], lut[1], r.lit)
	case l.kind == value.KindText:
		k := c.textTable(l.col, 0, 0)
		ls := r.lit.AsText()
		for i, s := range c.snap.DictStrings() {
			k.tbl[i] = lut[sign(strings.Compare(s, ls))+1]
		}
		return k
	case l.col != nil && r.col != nil:
		return &cmpBoolBoolColKernel{a: l.col.Bools, b: r.col.Bools, lut: lut, ca: l.col, cb: r.col}
	case l.col != nil && !r.lit.IsNull():
		lb := r.lit.AsBool()
		return boolTable(l.col, func(x bool) int8 { return lut[boolCmp(x, lb)+1] })
	default:
		return &logicKernel{l: c.truthOf(l), r: c.truthOf(r), tbl: cmpTernTable(lut)}
	}
}

// boolTable compiles a BOOL column against constants: outcome(false) and
// outcome(true) are its whole table.
func boolTable(col *table.Column, outcome func(x bool) int8) *boolTableKernel {
	return &boolTableKernel{xs: col.Bools, tbl: [2]int8{outcome(false), outcome(true)}, col: col}
}

// textTable compiles a TEXT column against constants: a table over the
// snapshot's dictionary codes holding miss, except hit at the code of each
// TEXT value of hits the snapshot holds. NULL rows hold code 0 even when
// nothing was interned, so the table has at least one entry. The
// dictionary is live: a string interned after the snapshot was taken has a
// code past the table and matches no row of it.
func (c *kernelCompiler) textTable(col *table.Column, miss, hit int8, hits ...value.Value) *textTableKernel {
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
	return &textTableKernel{xs: col.Codes, tbl: tbl, col: col}
}

// compileIn is IN. The interpreter evaluates the child and, only while it
// is non-NULL, each item in order until one matches. A list of constants
// over a numeric child or a TEXT or BOOL column is one membership kernel.
// Any other list is the child's equality with each item chained through
// orTable — a match decides the row before a later item can fail — with the
// child's NULL and failing rows on top.
func (c *kernelCompiler) compileIn(ex *expr.In) kernel {
	child := c.once(c.operand(ex.Child))
	items := make([]operand, len(ex.List))
	vals := make([]value.Value, 0, len(ex.List))
	sawNull, consts := false, true
	for i, item := range ex.List {
		items[i] = c.operand(item)
		switch v, ok := items[i].constValue(); {
		case !ok:
			consts = false
		case v.IsNull():
			sawNull = true
		default:
			vals = append(vals, v)
		}
	}
	// A value of another kind class is never equal: only same-class values
	// are members.
	match, miss := ternOf(!ex.Negate), ternOf(ex.Negate)
	if sawNull {
		miss = ternNull
	}
	switch {
	case !consts:
	case child.num != nil:
		return newInNum(child.num.full(c.n), vals, sawNull, ex.Negate) // inNumKernel indexes per row
	case child.col != nil && child.kind == value.KindText:
		return c.textTable(child.col, miss, match, vals...)
	case child.col != nil:
		return boolTable(child.col, func(x bool) int8 {
			if slices.ContainsFunc(vals, func(v value.Value) bool { return v.Kind() == value.KindBool && v.AsBool() == x }) {
				return match
			}
			return miss
		})
	}
	var k kernel = &constKernel{v: ternFalse}
	for _, item := range items {
		k = &logicKernel{l: k, r: c.compare(expr.OpEq, child, item), tbl: &orTable}
	}
	nulls, errs := c.state(child)
	k = &maskKernel{k: k, nulls: nulls, errs: errs}
	if ex.Negate {
		k = &notKernel{child: k}
	}
	return k
}

// compileBetween is BETWEEN: child ≥ lo AND child ≤ hi, under NOT when
// negated. The interpreter evaluates all three before it looks for NULL, so
// where lo or hi is NULL or fails, that decides the row (after the child's
// own failure), not a FALSE arm of the AND.
func (c *kernelCompiler) compileBetween(ex *expr.Between) kernel {
	child, lo, hi := c.once(c.operand(ex.Child)), c.once(c.operand(ex.Lo)), c.once(c.operand(ex.Hi))
	var k kernel = &logicKernel{l: c.compare(expr.OpGe, child, lo), r: c.compare(expr.OpLe, child, hi), tbl: &andTable}
	ln, le := c.state(lo)
	hn, he := c.state(hi)
	if nulls, errs := orBits(ln, hn, c.n), orBits(le, he, c.n); nulls != nil || errs != nil {
		_, ce := c.state(child)
		k = &maskKernel{k: k, nulls: nulls, errs: orBits(ce, errs, c.n)}
	}
	if ex.Negate {
		k = &notKernel{child: k}
	}
	return k
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

// ternVec is a truth vector once evaluated (kernelCompiler.once).
type ternVec struct{ tern []int8 }

func (k *ternVec) eval(dst []int8, lo, hi int) { copy(dst, k.tern[lo:hi]) }

// maskKernel is k's outcomes, except the rows an operand evaluated first
// decides: NULL where nulls marks, failing where errs marks.
type maskKernel struct {
	k           kernel
	nulls, errs []uint64
}

func (k *maskKernel) eval(dst []int8, lo, hi int) {
	k.k.eval(dst, lo, hi)
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

// logicKernel combines two arms' states through tbl, indexed by l<<2 | r:
// AND and OR through andTable and orTable, which encode the interpreter's
// short-circuit of right-arm errors, and a comparison of two BOOL operands
// through cmpTernTable.
type logicKernel struct {
	l, r kernel
	tbl  *[16]int8
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
	tbl := k.tbl
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

// isNullKernel is IS [NOT] NULL over an operand's NULL bitmap; the
// operand's failing rows fail.
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

// --- selection ---

// firstFailing is the position in rows of the first row any of errs marks,
// or -1. It drops errs' nil bitmaps in place.
func firstFailing(rows []int32, errs ...[]uint64) int {
	errs = slices.DeleteFunc(errs, func(e []uint64) bool { return e == nil })
	for k := 0; k < len(rows) && len(errs) > 0; k++ {
		for _, e := range errs {
			if bitGet(e, int(rows[k])) {
				return k
			}
		}
	}
	return -1
}

// SelectRows is the engine's one selection operator: the rows where keeps
// (every row when where is nil), in scan order, evaluated morsel by morsel
// across the worker pool. WEIGHT reads weights unless a column of that
// name shadows it.
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
	c := &kernelCompiler{ctx: ctx, snap: snap, weights: weights, n: n, workers: workers}
	tern := c.tern(c.compile(where))
	if c.err != nil {
		return nil, c.err
	}
	sel, failed, err := ternSelection(ctx, tern, workers)
	if err != nil {
		return nil, err
	}
	if failed {
		i := slices.Index(tern, ternErr)
		return sel, rowError(snap, i, weights[i], func(b *expr.Binding) error {
			_, err := expr.Truthy(where, b)
			return err
		})
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
// a column of that name shadows it. The first kept row whose weight fails
// returns its evaluation error, or a *WeightError for a TEXT or negative
// value; the selection's error surfaces only when no kept row failed first.
func UpdateWeights(snap *table.Snapshot, where, weight expr.Expr, workers int) (rows []int32, vals []float64, err error) {
	if err := CheckNames(snap.Schema(), where, weight); err != nil {
		return nil, nil, err
	}
	// A mutation runs to completion once it holds the engine's write lock,
	// so the selection gets no caller context.
	rows, selErr := SelectRows(context.Background(), snap, where, snap.Weights(), workers)
	c := &kernelCompiler{snap: snap, weights: snap.Weights(), n: snap.Len(), workers: workers}
	v := c.weightVec(c.operand(weight)).full(snap.Len())
	vals = make([]float64, len(rows))
	for k, r := range rows {
		f := v.floatAt(int(r))
		if bitGet(v.nulls, int(r)) {
			f = math.NaN()
		}
		if bitGet(v.errs, int(r)) || f < 0 {
			return nil, nil, rowError(snap, int(r), snap.Weight(int(r)), func(b *expr.Binding) error {
				v, err := weight.Eval(b)
				if err != nil {
					return err
				}
				if f, err := v.Float64(); err != nil || f < 0 {
					return &WeightError{Value: v}
				}
				return nil
			})
		}
		vals[k] = f
	}
	return rows, vals, selErr
}

// weightVec is a new weight's operand as one numeric vector, as
// value.Float64 reads a value: a BOOL is 1 or 0, and a TEXT is refused
// wherever it is not NULL.
func (c *kernelCompiler) weightVec(o operand) *numVec {
	switch o.kind {
	case value.KindBool:
		tern := c.tern(c.truthOf(o))
		v := &numVec{floats: make([]float64, c.n)}
		v.nulls, v.errs = ternBits(tern)
		for i, t := range tern {
			v.floats[i] = float64(b2i(t == ternTrue))
		}
		return v
	case value.KindText:
		return c.nonNumeric(o)
	}
	return o.num
}

// --- vectorized aggregation ---

// vecAgg is one aggregate's input: an INT/FLOAT input is vec, a BOOL or
// TEXT one is read a value at a time (at), and COUNT(*) has neither. errs
// marks the rows where accumulating the input fails: where its evaluation
// fails, and for SUM/AVG over TEXT at every non-NULL row.
type vecAgg struct {
	kind sql.AggKind
	vec  *numVec
	at   func(i int) value.Value
	errs []uint64
}

// planVectorAggs compiles every aggregate item's input over the full
// snapshot.
func planVectorAggs(c *kernelCompiler, sel *sql.Select) []vecAgg {
	out := make([]vecAgg, 0, len(sel.Items))
	for _, it := range sel.Items {
		if it.Agg == sql.AggNone {
			continue
		}
		a := vecAgg{kind: it.Agg}
		if !it.Star {
			switch in := c.operand(it.Expr); {
			case in.num != nil:
				// The accumulators index per row, so a scalar materializes
				// here, off the hot path.
				a.vec = in.num.full(c.n)
				a.errs = a.vec.errs
			default:
				a.at, a.errs = c.values(in)
				if in.kind == value.KindText && (it.Agg == sql.AggSum || it.Agg == sql.AggAvg) {
					a.errs = c.nonNumeric(in).errs
				}
			}
		}
		out = append(out, a)
	}
	return out
}

// accumulate runs one aggregate's tight loop over the selected rows,
// writing the shared partial-state arrays (PartialStates). Accumulation
// order is scan order and the operation sequence matches
// PartialStates.Accumulate exactly, so float results are bit-identical to
// the row path. COUNT and SUM/AVG decide a numeric input's kind and its
// no-NULL case once, outside the row loop. No selected row fails (scan
// checked).
func accumulate(a vecAgg, st *PartialStates, selRows, gids []int32, selW []float64) {
	if a.at != nil {
		// A BOOL or TEXT input folds through the interpreter's own scalar
		// Accumulate.
		for k, ri := range selRows {
			if x := a.at(int(ri)); !x.IsNull() {
				_ = st.Accumulate(int(gids[k]), x, selW[k])
			}
		}
		return
	}
	v := a.vec
	var nulls []uint64 // COUNT(*) has no input; WEIGHT is never NULL
	if v != nil {
		nulls = v.nulls
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
		if v.isInt {
			sumRows(st, v.ints, nulls, selRows, gids, selW)
		} else {
			sumRows(st, v.floats, nulls, selRows, gids, selW)
		}
	case sql.AggMin, sql.AggMax:
		less := a.kind == sql.AggMin
		for k, ri := range selRows {
			if bitGet(nulls, int(ri)) {
				continue
			}
			var x value.Value
			if v.isInt {
				x = value.Int(v.ints[ri])
			} else {
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
func accumulateStates(ctx context.Context, vaggs []vecAgg, selRows, gids []int32, selW []float64, nst, workers int) ([]*PartialStates, error) {
	states := make([]*PartialStates, len(vaggs))
	err := forEachTask(ctx, len(vaggs), workers, func(i int) error {
		st := NewPartialStates(vaggs[i].kind, nst)
		states[i] = st
		for lo := 0; lo < len(selRows); lo += morselRows {
			if err := checkCtx(ctx); err != nil {
				return err
			}
			hi := min(lo+morselRows, len(selRows))
			accumulate(vaggs[i], st, selRows[lo:hi], gids[lo:hi], selW[lo:hi])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return states, nil
}

// --- projection ---

// runProjectionVector answers a non-aggregate query on the columnar path:
// the WHERE is one SelectRows, DISTINCT densifies through the group-id
// machinery, and ORDER BY permutes row indices over typed columns — with a
// bounded top-K heap when LIMIT is present — so only the surviving rows
// ever materialize. Every item fills the answer a column at a time
// (projectColumns): a plain one (stars, columns, WEIGHT) from the snapshot,
// a computed one from its operand.
//
// A computed item can fail at any kept row, so its failing rows are checked
// over every kept row before DISTINCT, ORDER BY or LIMIT drop any; the
// first failure among them comes before the selection's own, which lies at
// a later row.
func runProjectionVector(ctx context.Context, snap *table.Snapshot, sel *sql.Select, opts Options) (*Result, error) {
	rawW := snap.Weights()
	if opts.WeightOverride != nil {
		rawW = opts.WeightOverride
	}
	workers := opts.workers()
	outCols, sources := projectionSources(snap, sel)
	selRows, selErr := SelectRows(ctx, snap, sel.Where, rawW, workers)
	c := &kernelCompiler{ctx: ctx, snap: snap, weights: rawW, n: snap.Len(), workers: workers}
	var computed []func(int) value.Value // at each srcComputed position
	var itemErrs [][]uint64
	pos := 0
	for _, it := range sel.Items {
		if it.Star {
			pos += snap.Schema().Len()
			continue
		}
		if sources[pos] == srcComputed {
			if computed == nil {
				computed = make([]func(int) value.Value, len(sources))
			}
			var errs []uint64
			computed[pos], errs = c.values(c.operand(it.Expr))
			itemErrs = append(itemErrs, errs)
		}
		pos++
	}
	if c.err != nil {
		return nil, c.err
	}
	if k := firstFailing(selRows, itemErrs...); k >= 0 {
		r := int(selRows[k])
		return nil, rowError(snap, r, rawW[r], func(b *expr.Binding) error {
			_, err := projectRow(sel, b, snap.Schema().Len())
			return err
		})
	}
	if selErr != nil {
		return nil, selErr
	}
	res := &Result{Columns: outCols}

	// DISTINCT: densify the item columns to group ids; the first-appearance
	// representatives are exactly dedupRows' first occurrences. A WEIGHT or
	// computed item dedups the materialized rows instead.
	distinctOK := sel.Distinct && !slices.ContainsFunc(sources, func(s int) bool { return s < 0 })
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

	rows, err := projectColumns(ctx, snap, sources, computed, rawW, cand)
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

// projectColumns materializes the sources at rows cand into one slab, a
// column at a time: schema columns through the same column reader as
// finalize's GROUP BY keys, WEIGHT from rawW and a computed item from its
// operand's reader (computed), cancelCheckRows rows per chunk so a
// cancelled context stops it between chunks. Each row is cut from the slab
// capacity-capped, so a caller's append cannot run into the next row.
func projectColumns(ctx context.Context, snap *table.Snapshot, sources []int, computed []func(int) value.Value, rawW []float64, cand []int32) ([][]value.Value, error) {
	nc := len(sources)
	slab := make([]value.Value, len(cand)*nc)
	for lo := 0; lo < len(cand); lo += cancelCheckRows {
		if err := checkCtx(ctx); err != nil {
			return nil, err
		}
		rows := cand[lo:min(lo+cancelCheckRows, len(cand))]
		for oi, src := range sources {
			dst := slab[lo*nc+oi:]
			switch src {
			case srcWeight:
				for k, ri := range rows {
					dst[k*nc] = value.Float(rawW[ri])
				}
			case srcComputed:
				for k, ri := range rows {
					dst[k*nc] = computed[oi](int(ri))
				}
			default:
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
