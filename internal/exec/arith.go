// Numeric operands and their kernels: +, -, *, /, %, unary minus and the
// numeric truth, comparison and IN kernels.
//
// A numVec is the columnar executor's one numeric operand, in WHERE, select
// items and aggregate inputs alike: an INT/FLOAT column or WEIGHT (sharing
// the snapshot's payload and null bitmap, never copied), a literal (one
// scalar element), or arithmetic materialized as a typed vector — int64
// when the whole expression stays in exact integer arithmetic, float64
// otherwise, with null and error bitmaps on the side. The compiler mirrors
// expr.evalArith exactly — operands first, then NULL, then kinds; INT op INT
// stays int64 (including wraparound) except division, everything else
// computes through float64 in the interpreter's operand order — so results
// are bit-identical to the row path. Rows where the interpreter fails carry
// an error bit: division by zero, and arithmetic on or negation of a BOOL
// or TEXT value (nonNumeric); the consuming kernels turn it into ternErr.
package exec

import (
	"math"
	"math/bits"

	"mosaic/internal/expr"
	"mosaic/internal/value"
)

// numVec is a numeric operand: exactly one of ints/floats is set. Bitmaps
// are 64 rows per word; nil means "no bits set". Payload and bitmap slices
// may be shared with the snapshot's columns and must not be mutated.
//
// Constant operands broadcast as scalars instead of materializing
// table-length vectors: scalar means the payload slice holds a single
// element every row shares, constNull means every row is NULL (payload
// unused; errs may still carry per-row bits from an operand), and constErr
// means every row fails. The arithmetic and comparison kernels read scalars
// into registers; consumers whose loops index per row call full() first.
type numVec struct {
	isInt     bool
	scalar    bool // payload is one broadcast element
	constNull bool // every row NULL
	constErr  bool // every row fails
	ints      []int64
	floats    []float64
	nulls     []uint64
	errs      []uint64 // rows where the interpreter fails; they win over nulls
}

// scalarInt returns the broadcast element of a scalar int vector.
func (v *numVec) scalarInt() int64 { return v.ints[0] }

// scalarFloat returns the broadcast element of a scalar vector as float64.
func (v *numVec) scalarFloat() float64 {
	if v.isInt {
		return float64(v.ints[0])
	}
	return v.floats[0]
}

// full materializes a scalar vector at table length n — the shape consumers
// with per-row indexing expect, identical to what numConst built before
// scalars existed. Non-scalar vectors return unchanged.
func (v *numVec) full(n int) *numVec {
	if !v.scalar {
		return v
	}
	switch {
	case v.constErr:
		return &numVec{floats: make([]float64, n), errs: allOnes(n)}
	case v.constNull:
		return &numVec{floats: make([]float64, n), nulls: allOnes(n), errs: v.errs}
	case v.isInt:
		xs := make([]int64, n)
		x := v.ints[0]
		for i := range xs {
			xs[i] = x
		}
		return &numVec{isInt: true, ints: xs}
	default:
		xs := make([]float64, n)
		x := v.floats[0]
		for i := range xs {
			xs[i] = x
		}
		return &numVec{floats: xs}
	}
}

// slice returns rows [lo, hi) of a full (non-scalar) vector, sharing its
// storage; lo must be 64-aligned unless the range is empty, so the bitmaps
// re-slice on word boundaries.
func (v *numVec) slice(lo, hi int) *numVec {
	s := *v
	if v.ints != nil {
		s.ints = v.ints[lo:hi]
	}
	if v.floats != nil {
		s.floats = v.floats[lo:hi]
	}
	s.nulls, s.errs = sliceBits(v.nulls, lo), sliceBits(v.errs, lo)
	return &s
}

// sliceBits re-slices a bitmap to start at row lo (64-aligned); words past
// its end are unset bits, which nil already means.
func sliceBits(bm []uint64, lo int) []uint64 {
	if w := lo >> 6; w < len(bm) {
		return bm[w:]
	}
	return nil
}

func bitGet(bm []uint64, i int) bool {
	if bm == nil {
		return false
	}
	w := i >> 6
	if w >= len(bm) {
		return false
	}
	return bm[w]&(1<<(uint(i)&63)) != 0
}

func bitSet(bm []uint64, i int) {
	bm[i>>6] |= 1 << (uint(i) & 63)
}

func newBitmap(n int) []uint64 { return make([]uint64, (n+63)/64) }

// allOnes is a bitmap with every row's bit set.
func allOnes(n int) []uint64 {
	bm := newBitmap(n)
	for i := range bm {
		bm[i] = ^uint64(0)
	}
	return bm
}

// orBits merges two bitmaps (either may be nil, lengths may differ).
func orBits(a, b []uint64, n int) []uint64 {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := newBitmap(n)
	copy(out, a)
	for i := range b {
		if i < len(out) {
			out[i] |= b[i]
		}
	}
	return out
}

// overlayBits writes v into dst wherever the bitmap is set; dst covers rows
// [lo, lo+len(dst)) of the bitmap. It works a word at a time: a zero word
// (64 rows with no bit set) costs one test, and a set word visits only its
// set bits.
func overlayBits(dst []int8, bm []uint64, v int8, lo int) {
	hi := lo + len(dst)
	for w := lo >> 6; w < len(bm) && w<<6 < hi; w++ {
		word := bm[w]
		if w<<6 < lo {
			word &^= 1<<(uint(lo)&63) - 1 // rows before lo
		}
		if (w+1)<<6 > hi {
			word &= 1<<(uint(hi)&63) - 1 // rows from hi on
		}
		for ; word != 0; word &= word - 1 {
			dst[w<<6+bits.TrailingZeros64(word)-lo] = v
		}
	}
}

// floatAt returns row i's value as float64, converting an INT as
// expr.evalArith does in mixed arithmetic.
func (v *numVec) floatAt(i int) float64 {
	if v.isInt {
		return float64(v.ints[i])
	}
	return v.floats[i]
}

// arith is a binary arithmetic node: numArith over two numeric operands,
// nonNumeric when either is BOOL or TEXT.
func (c *kernelCompiler) arith(op expr.BinOp, l, r operand) *numVec {
	if l.num == nil || r.num == nil {
		return c.nonNumeric(l, r)
	}
	return c.numArith(op, l.num, r.num)
}

// nonNumeric is arithmetic on, or negation of, a BOOL or TEXT operand,
// which the interpreter refuses once its operands are evaluated and none is
// NULL: every row is NULL where an operand is NULL, and fails where an
// operand fails or none is NULL.
func (c *kernelCompiler) nonNumeric(ops ...operand) *numVec {
	var nulls, errs []uint64
	for _, o := range ops {
		n, e := c.state(o)
		nulls, errs = orBits(nulls, n, c.n), orBits(errs, e, c.n)
	}
	out := allOnes(c.n)
	for i := range out {
		if i < len(nulls) {
			out[i] &^= nulls[i]
		}
		if i < len(errs) {
			out[i] |= errs[i]
		}
	}
	return &numVec{scalar: true, constNull: true, errs: out}
}

// negate is unary minus.
func (c *kernelCompiler) negate(o operand) *numVec {
	child := o.num
	switch {
	case child == nil:
		return c.nonNumeric(o)
	case child.constNull || child.constErr:
		return child // negating NULL/error changes nothing
	}
	out := &numVec{isInt: child.isInt, nulls: child.nulls, errs: child.errs}
	if child.isInt {
		out.ints = make([]int64, len(child.ints))
		for i, x := range child.ints {
			out.ints[i] = -x
		}
	} else {
		out.floats = make([]float64, len(child.floats))
		for i, x := range child.floats {
			out.floats[i] = -x
		}
	}
	return out
}

// numConst broadcasts an INT, FLOAT or NULL constant as a scalar vector:
// one element shared by every row, never a table-length materialization.
// NULL becomes a constNull scalar (NULL propagates through arithmetic, so
// payload values are never observed).
func numConst(v value.Value) *numVec {
	switch v.Kind() {
	case value.KindInt:
		return &numVec{isInt: true, scalar: true, ints: []int64{v.AsInt()}}
	case value.KindFloat:
		return &numVec{scalar: true, floats: []float64{v.AsFloat()}}
	default:
		return &numVec{scalar: true, constNull: true}
	}
}

// numArith applies one arithmetic operator elementwise, mirroring
// expr.evalArith: NULL-before-error (a NULL operand yields NULL even when
// the divisor is zero), exact int64 arithmetic for INT op INT except /, and
// float64 otherwise. Scalar operands stay scalar inside the loops — the
// constant reads once into a register instead of being materialized as a
// table-length vector — so `x*2 > y+500` allocates exactly one vector per
// computed operand.
func (c *kernelCompiler) numArith(op expr.BinOp, l, r *numVec) *numVec {
	n := c.n
	// Whole-row constants decide first: an erroring operand errors every row
	// (operand evaluation precedes evalArith's NULL check), and a NULL
	// constant nulls every row while keeping the other side's error bits.
	if l.constErr || r.constErr {
		return &numVec{scalar: true, constErr: true}
	}
	if l.constNull || r.constNull {
		return &numVec{scalar: true, constNull: true, errs: orBits(l.errs, r.errs, n)}
	}
	out := &numVec{
		nulls: orBits(l.nulls, r.nulls, n),
		errs:  orBits(l.errs, r.errs, n),
	}
	// The fills below run morsel-parallel (kernelCompiler.fill). Each morsel writes disjoint payload rows, and morselRows is
	// a multiple of 64, so error-bit writers never share a bitmap word — but
	// the shared errs bitmap must be privately owned *before* the fan-out.
	if l.isInt && r.isInt && op != expr.OpDiv {
		out.isInt = true
		out.ints = make([]int64, n)
		if op == expr.OpMod {
			out.errs = ownBits(out.errs, n)
		}
		c.fill(func(lo, hi int) {
			switch {
			case r.scalar:
				arithIntVS(op, out, l.ints, r.scalarInt(), lo, hi)
			case l.scalar:
				arithIntSV(op, out, l.scalarInt(), r.ints, lo, hi)
			default:
				arithIntVV(op, out, l.ints, r.ints, lo, hi)
			}
		})
		return out
	}
	out.floats = make([]float64, n)
	if op == expr.OpDiv || op == expr.OpMod {
		out.errs = ownBits(out.errs, n)
	}
	c.fill(func(lo, hi int) { arithFloat(op, out, l, r, lo, hi) })
	return out
}

// number is a numeric vector's payload type. The FLOAT kernels take either:
// an INT payload is converted by float64(x) inside the row loop, the
// conversion expr.evalArith applies to mixed arithmetic, so no operation
// allocates a converted copy of its operand.
type number interface{ int64 | float64 }

// arithFloat fills rows [lo, hi) of a FLOAT result on the kernel that
// matches its operands' shapes and payload types.
func arithFloat(op expr.BinOp, out, l, r *numVec, lo, hi int) {
	switch {
	case r.scalar && l.isInt:
		arithFloatVS(op, out, l.ints, r.scalarFloat(), lo, hi)
	case r.scalar:
		arithFloatVS(op, out, l.floats, r.scalarFloat(), lo, hi)
	case l.scalar && r.isInt:
		arithFloatSV(op, out, l.scalarFloat(), r.ints, lo, hi)
	case l.scalar:
		arithFloatSV(op, out, l.scalarFloat(), r.floats, lo, hi)
	case l.isInt && r.isInt:
		arithFloatVV(op, out, l.ints, r.ints, lo, hi)
	case l.isInt:
		arithFloatVV(op, out, l.ints, r.floats, lo, hi)
	case r.isInt:
		arithFloatVV(op, out, l.floats, r.ints, lo, hi)
	default:
		arithFloatVV(op, out, l.floats, r.floats, lo, hi)
	}
}

// arithIntVV is the vector⊙vector int kernel (exact int64, incl. wraparound),
// filling rows [lo, hi). The caller owns out.errs before any % fan-out.
func arithIntVV(op expr.BinOp, out *numVec, a, b []int64, lo, hi int) {
	switch op {
	case expr.OpAdd:
		for i := lo; i < hi; i++ {
			out.ints[i] = a[i] + b[i]
		}
	case expr.OpSub:
		for i := lo; i < hi; i++ {
			out.ints[i] = a[i] - b[i]
		}
	case expr.OpMul:
		for i := lo; i < hi; i++ {
			out.ints[i] = a[i] * b[i]
		}
	case expr.OpMod:
		for i := lo; i < hi; i++ {
			if b[i] == 0 {
				if !bitGet(out.nulls, i) {
					bitSet(out.errs, i)
				}
				continue
			}
			out.ints[i] = a[i] % b[i]
		}
	}
}

// arithIntVS is vector⊙scalar: the broadcast operand lives in a register. A
// zero scalar divisor errors every non-null row without a per-row branch.
func arithIntVS(op expr.BinOp, out *numVec, a []int64, y int64, lo, hi int) {
	switch op {
	case expr.OpAdd:
		for i := lo; i < hi; i++ {
			out.ints[i] = a[i] + y
		}
	case expr.OpSub:
		for i := lo; i < hi; i++ {
			out.ints[i] = a[i] - y
		}
	case expr.OpMul:
		for i := lo; i < hi; i++ {
			out.ints[i] = a[i] * y
		}
	case expr.OpMod:
		if y == 0 {
			for i := lo; i < hi; i++ {
				if !bitGet(out.nulls, i) {
					bitSet(out.errs, i)
				}
			}
			return
		}
		for i := lo; i < hi; i++ {
			out.ints[i] = a[i] % y
		}
	}
}

// arithIntSV is scalar⊙vector (the divisor varies per row for %).
func arithIntSV(op expr.BinOp, out *numVec, x int64, b []int64, lo, hi int) {
	switch op {
	case expr.OpAdd:
		for i := lo; i < hi; i++ {
			out.ints[i] = x + b[i]
		}
	case expr.OpSub:
		for i := lo; i < hi; i++ {
			out.ints[i] = x - b[i]
		}
	case expr.OpMul:
		for i := lo; i < hi; i++ {
			out.ints[i] = x * b[i]
		}
	case expr.OpMod:
		for i := lo; i < hi; i++ {
			y := b[i]
			if y == 0 {
				if !bitGet(out.nulls, i) {
					bitSet(out.errs, i)
				}
				continue
			}
			out.ints[i] = x % y
		}
	}
}

// arithFloatVV is the vector⊙vector float kernel over rows [lo, hi).
func arithFloatVV[L, R number](op expr.BinOp, out *numVec, lf []L, rf []R, lo, hi int) {
	switch op {
	case expr.OpAdd:
		for i := lo; i < hi; i++ {
			out.floats[i] = float64(lf[i]) + float64(rf[i])
		}
	case expr.OpSub:
		for i := lo; i < hi; i++ {
			out.floats[i] = float64(lf[i]) - float64(rf[i])
		}
	case expr.OpMul:
		for i := lo; i < hi; i++ {
			out.floats[i] = float64(lf[i]) * float64(rf[i])
		}
	case expr.OpDiv, expr.OpMod:
		mod := op == expr.OpMod
		for i := lo; i < hi; i++ {
			x, y := float64(lf[i]), float64(rf[i])
			if y == 0 {
				if !bitGet(out.nulls, i) {
					bitSet(out.errs, i)
				}
				continue
			}
			if mod {
				out.floats[i] = math.Mod(x, y)
			} else {
				out.floats[i] = x / y
			}
		}
	}
}

// arithFloatVS is vector⊙scalar; a zero scalar divisor errors every non-null
// row, any other divisor drops the per-row zero check entirely.
func arithFloatVS[L number](op expr.BinOp, out *numVec, lf []L, y float64, lo, hi int) {
	switch op {
	case expr.OpAdd:
		for i := lo; i < hi; i++ {
			out.floats[i] = float64(lf[i]) + y
		}
	case expr.OpSub:
		for i := lo; i < hi; i++ {
			out.floats[i] = float64(lf[i]) - y
		}
	case expr.OpMul:
		for i := lo; i < hi; i++ {
			out.floats[i] = float64(lf[i]) * y
		}
	case expr.OpDiv, expr.OpMod:
		if y == 0 {
			for i := lo; i < hi; i++ {
				if !bitGet(out.nulls, i) {
					bitSet(out.errs, i)
				}
			}
			return
		}
		if op == expr.OpMod {
			for i := lo; i < hi; i++ {
				out.floats[i] = math.Mod(float64(lf[i]), y)
			}
			return
		}
		for i := lo; i < hi; i++ {
			out.floats[i] = float64(lf[i]) / y
		}
	}
}

// arithFloatSV is scalar⊙vector (the divisor varies per row).
func arithFloatSV[R number](op expr.BinOp, out *numVec, x float64, rf []R, lo, hi int) {
	switch op {
	case expr.OpAdd:
		for i := lo; i < hi; i++ {
			out.floats[i] = x + float64(rf[i])
		}
	case expr.OpSub:
		for i := lo; i < hi; i++ {
			out.floats[i] = x - float64(rf[i])
		}
	case expr.OpMul:
		for i := lo; i < hi; i++ {
			out.floats[i] = x * float64(rf[i])
		}
	case expr.OpDiv, expr.OpMod:
		mod := op == expr.OpMod
		for i := lo; i < hi; i++ {
			y := float64(rf[i])
			if y == 0 {
				if !bitGet(out.nulls, i) {
					bitSet(out.errs, i)
				}
				continue
			}
			if mod {
				out.floats[i] = math.Mod(x, y)
			} else {
				out.floats[i] = x / y
			}
		}
	}
}

// ownBits returns a full-width, privately owned copy of bm (which may be nil
// or shared with a child vector) so the caller can set bits into it.
func ownBits(bm []uint64, n int) []uint64 {
	out := newBitmap(n)
	copy(out, bm)
	return out
}

// --- kernels over numeric vectors ---

// cmpNumNumKernel compares two numeric operands with value.Compare
// semantics: exact int64 when both sides are INT, float64 otherwise — an
// INT element converts inline, never through a materialized copy — with NaN
// equal to NaN and above every other number, as in the interpreter. A
// scalar operand compares from a register, so `x > 500` and `x*2 > 500`
// never materialize the constant side.
type cmpNumNumKernel struct {
	a, b *numVec // a is scalar only when b is too, and FLOAT only when b is (newCmpNumNum)
	lut  [3]int8
}

// newCmpNumNum builds the comparison kernel, moving a lone scalar operand
// to the right and an INT vector facing a FLOAT one to the left: `5 < x` is
// `x > 5`, the LUT mirrored.
func newCmpNumNum(a, b *numVec, lut [3]int8) kernel {
	if a.scalar && !b.scalar || !a.isInt && b.isInt && !b.scalar {
		a, b, lut = b, a, [3]int8{lut[2], lut[1], lut[0]}
	}
	return &cmpNumNumKernel{a: a, b: b, lut: lut}
}

func (k *cmpNumNumKernel) eval(dst []int8, lo, hi int) {
	a, b, lut := k.a, k.b, k.lut
	// Whole-row constants first: an erroring operand errors every row; a
	// NULL constant nulls every row but still surfaces the other side's
	// division errors (operands evaluate before the comparison).
	if a.constErr || b.constErr {
		for i := range dst {
			dst[i] = ternErr
		}
		return
	}
	if a.constNull || b.constNull {
		for i := range dst {
			dst[i] = ternNull
		}
		overlayBits(dst, a.errs, ternErr, lo)
		overlayBits(dst, b.errs, ternErr, lo)
		return
	}
	switch {
	case a.scalar:
		// Two constants meet only under a parent that reads a column — the
		// sub-comparisons of `0 BETWEEN 0 AND x` or `0 IN (0, x)`: one
		// comparison decides every row.
		c := cmpOrder[float64](a.scalarFloat(), b.scalarFloat())
		if a.isInt && b.isInt {
			c = cmpOrder[int64](a.scalarInt(), b.scalarInt())
		}
		for i := range dst {
			dst[i] = lut[c+1]
		}
	case b.scalar && a.isInt && b.isInt:
		cmpScalar(dst, a.ints[lo:hi], b.scalarInt(), lut)
	case b.scalar && a.isInt:
		cmpScalar(dst, a.ints[lo:hi], b.scalarFloat(), lut)
	case b.scalar:
		cmpScalar(dst, a.floats[lo:hi], b.scalarFloat(), lut)
	case a.isInt && b.isInt:
		cmpRows[int64](dst, a.ints[lo:hi], b.ints[lo:hi], lut)
	case a.isInt:
		cmpRows[float64](dst, a.ints[lo:hi], b.floats[lo:hi], lut)
	default:
		cmpRows[float64](dst, a.floats[lo:hi], b.floats[lo:hi], lut)
	}
	overlayBits(dst, a.nulls, ternNull, lo)
	overlayBits(dst, b.nulls, ternNull, lo)
	overlayBits(dst, a.errs, ternErr, lo)
	overlayBits(dst, b.errs, ternErr, lo)
}

// cmpScalar compares each row of xs against y in y's type C: an INT row
// against a FLOAT scalar converts to float64 in the loop. The row's order
// indexes lut without a branch. Against a number y, cmpOrder's order takes
// two tests: a NaN row is the one neither ≤ y nor < y, so it is greater.
// Against a NaN y, every row but a NaN one is smaller.
func cmpScalar[X, C int64 | float64](dst []int8, xs []X, y C, lut [3]int8) {
	dst = dst[:len(xs)]
	if y != y {
		for i, x := range xs {
			dst[i] = lut[b2i(C(x) != C(x))]
		}
		return
	}
	for i, x := range xs {
		dst[i] = lut[b2i(!(C(x) <= y))-b2i(C(x) < y)+1]
	}
}

// cmpRows compares xs[i] against ys[i] in type C: int64 when both sides
// are INT, float64 otherwise.
func cmpRows[C, X, Y int64 | float64](dst []int8, xs []X, ys []Y, lut [3]int8) {
	dst, ys = dst[:len(xs)], ys[:len(xs)]
	for i, x := range xs {
		dst[i] = lut[cmpOrder[C](x, ys[i])+1]
	}
}

// cmpOrder is value.Compare's ordering of x and y compared in type C:
// -1/0/1, NaN equal to NaN and above every other number, computed without
// a branch. x is greater when it is > y, or NaN facing a number; smaller
// when it is a number not ≥ y. An INT is never NaN, so with x INT the NaN
// tests compile away and two comparisons remain (newCmpNumNum puts an INT
// vector on the left).
func cmpOrder[C, X, Y int64 | float64](x X, y Y) int {
	a, b := C(x), C(y)
	return (b2i(a > b) | b2i(x != x)&b2i(y == y)) - b2i(!(a >= b))&b2i(x == x)
}

// truthNumKernel is WHERE truthiness of a numeric operand.
type truthNumKernel struct{ v *numVec }

func (k *truthNumKernel) eval(dst []int8, lo, hi int) {
	if k.v.isInt {
		for i, x := range k.v.ints[lo:hi] {
			dst[i] = ternOf(x != 0)
		}
	} else {
		for i, x := range k.v.floats[lo:hi] {
			dst[i] = ternOf(x != 0)
		}
	}
	overlayBits(dst, k.v.nulls, ternNull, lo)
	overlayBits(dst, k.v.errs, ternErr, lo)
}

// inNumKernel is IN-list membership of a numeric operand with value.Equal
// semantics. Over an INT operand, INT list items match exactly on int64 and
// FLOAT items through float64 — the asymmetry value.Compare has. Every
// other item matches by value.NumBits, under which NaN is NaN and -0 is 0.
type inNumKernel struct {
	v       *numVec
	ints    map[int64]bool  // INT items, over an INT operand
	floats  map[uint64]bool // every other numeric item, by value.NumBits
	sawNull bool
	negate  bool
}

// newInNum builds the membership kernel over a full (non-scalar) operand.
// Other classes can never equal a numeric value (kind rank), so only
// numeric list items enter the sets.
func newInNum(v *numVec, vals []value.Value, sawNull, negate bool) *inNumKernel {
	k := &inNumKernel{v: v, ints: map[int64]bool{}, floats: map[uint64]bool{}, sawNull: sawNull, negate: negate}
	for _, item := range vals {
		if classOf[item.Kind()] != value.ClassNum {
			continue
		}
		if v.isInt && item.Kind() == value.KindInt {
			k.ints[item.AsInt()] = true
		} else {
			f, _ := item.Float64()
			k.floats[value.NumBits(f)] = true
		}
	}
	return k
}

func (k *inNumKernel) eval(dst []int8, lo, hi int) {
	out := [2]int8{ternOf(k.negate), ternOf(!k.negate)} // miss, match
	if k.sawNull {
		out[0] = ternNull
	}
	if k.v.isInt {
		for i, x := range k.v.ints[lo:hi] {
			hit := k.ints[x]
			if !hit && len(k.floats) > 0 {
				hit = k.floats[value.NumBits(float64(x))]
			}
			dst[i] = out[b2i(hit)]
		}
	} else {
		for i, x := range k.v.floats[lo:hi] {
			dst[i] = out[b2i(k.floats[value.NumBits(x)])]
		}
	}
	overlayBits(dst, k.v.nulls, ternNull, lo)
	overlayBits(dst, k.v.errs, ternErr, lo)
}
