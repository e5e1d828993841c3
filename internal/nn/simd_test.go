package nn

import (
	"math"
	"math/rand"
	"testing"
)

// x86NaN is the NaN x86 makes for an invalid operation (Inf−Inf, 0·Inf).
// When two NaNs meet, the result carries the first operand's payload, and
// which operand of a Go multiplication or addition comes first is the
// compiler's choice (the race detector's instrumentation changes it). With
// x86NaN as the only NaN fed in, every NaN either side computes has the same
// bits, so the AVX2 kernels can be held to the scalar ones bit for bit.
var x86NaN = math.Float64frombits(0xfff8000000000000)

// specials are the values the kernels are fed besides ordinary numbers.
var specials = []float64{
	0, math.Copysign(0, -1), x86NaN, math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030,
	math.MaxFloat64, -math.MaxFloat64,
}

// kernelInput is a normal matrix with a share of exact zeros (half of them
// −0) and a sprinkling of special values.
func kernelInput(rng *rand.Rand, n int, zeros float64) []float64 {
	v := make([]float64, n)
	for k := range v {
		switch p := rng.Float64(); {
		case p < zeros:
			v[k] = math.Copysign(0, float64(rng.Intn(2)*2-1))
		case p < zeros+0.03:
			v[k] = specials[rng.Intn(len(specials))]
		default:
			v[k] = rng.NormFloat64()
		}
	}
	return v
}

// refForward, refGradW and refGradX state the kernels' contracts as plain
// loops.
func refForward(y, x, w, b []float64, rows, in, out int) {
	for r := 0; r < rows; r++ {
		for j := 0; j < out; j++ {
			s := b[j]
			for i := 0; i < in; i++ {
				if xi := x[r*in+i]; xi != 0 {
					s += float64(xi * w[i*out+j])
				}
			}
			y[r*out+j] = s
		}
	}
}

func refGradW(wg, x, g []float64, rows, in, out int) {
	for r := 0; r < rows; r++ {
		for i := 0; i < in; i++ {
			if xi := x[r*in+i]; xi != 0 {
				for j := 0; j < out; j++ {
					wg[i*out+j] += float64(xi * g[r*out+j])
				}
			}
		}
	}
}

func refGradX(gx, g, wt []float64, rows, in, out int) {
	for r := 0; r < rows; r++ {
		for i := 0; i < in; i++ {
			var s float64
			for j := 0; j < out; j++ {
				s += float64(wt[j*in+i] * g[r*out+j])
			}
			gx[r*in+i] = s
		}
	}
}

// sameOrBothNaN compares bit patterns, except that any two NaNs agree: off
// x86 an invalid operation makes a NaN of another sign.
func sameOrBothNaN(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

func sameBitsExactly(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// kernelCase is one shape: every width from 1 to 67 appears as both the
// output width (forward's and gradW's tiles) and the input width (gradX's
// tiles, and forward's gathers of more than one block), so every tile
// remainder is covered; rows run from 2 to 301; x is mostly zero, as behind
// a ReLU.
type kernelCase struct {
	rows, in, out      int
	wg, x, g, wt, w, b []float64
}

func kernelCases() []kernelCase {
	rng := rand.New(rand.NewSource(22))
	var cases []kernelCase
	for w := 1; w <= 67; w++ {
		for _, shape := range [][2]int{{1 + rng.Intn(67), w}, {w, 1 + rng.Intn(67)}} {
			in, out := shape[0], shape[1]
			rows := 2 + rng.Intn(300)
			cases = append(cases, kernelCase{
				rows: rows, in: in, out: out,
				wg: kernelInput(rng, in*out, 0.1),
				x:  kernelInput(rng, rows*in, 0.6),
				g:  kernelInput(rng, rows*out, 0.1),
				wt: kernelInput(rng, out*in, 0.1),
				w:  kernelInput(rng, in*out, 0.1),
				b:  kernelInput(rng, out, 0.1),
			})
		}
	}
	return cases
}

// checkKernels runs k on every case and holds it to want under same.
func checkKernels(t *testing.T, k, want denseKernels, same func(a, b float64) bool) {
	t.Helper()
	for _, c := range kernelCases() {
		gotY := make([]float64, c.rows*c.out)
		wantY := make([]float64, c.rows*c.out)
		k.forward(gotY, c.x, c.w, c.b, c.rows, c.in, c.out)
		want.forward(wantY, c.x, c.w, c.b, c.rows, c.in, c.out)
		gotW := append([]float64(nil), c.wg...)
		wantW := append([]float64(nil), c.wg...)
		k.gradW(gotW, c.x, c.g, c.rows, c.in, c.out)
		want.gradW(wantW, c.x, c.g, c.rows, c.in, c.out)
		gotX := make([]float64, c.rows*c.in)
		wantX := make([]float64, c.rows*c.in)
		k.gradX(gotX, c.g, c.wt, c.rows, c.in, c.out)
		want.gradX(wantX, c.g, c.wt, c.rows, c.in, c.out)
		for what, pair := range map[string][2][]float64{"forward": {gotY, wantY}, "gradW": {gotW, wantW}, "gradX": {gotX, wantX}} {
			checkSame(t, what, c, pair[0], pair[1], same)
		}
	}
}

func checkSame(t *testing.T, what string, c kernelCase, got, want []float64, same func(a, b float64) bool) {
	t.Helper()
	for e, v := range got {
		if w := want[e]; !same(v, w) {
			t.Fatalf("%s, %d rows, %d→%d: element %d is %v (%#x), want %v (%#x)",
				what, c.rows, c.in, c.out, e, v, math.Float64bits(v), w, math.Float64bits(w))
		}
	}
}

// TestBackwardKernels holds the portable kernels of Dense's training step
// (its forward and both halves of its backward) to the plain loops, and the
// AVX2 kernels to the portable ones bit for bit.
func TestBackwardKernels(t *testing.T) {
	t.Run("scalar", func(t *testing.T) {
		checkKernels(t, scalarKernels, denseKernels{refForward, refGradW, refGradX}, sameOrBothNaN)
	})
	t.Run("avx2", func(t *testing.T) {
		if simdKernels == nil {
			t.Skip("no AVX2 on this CPU or architecture: Dense's training step runs the scalar kernels")
		}
		checkKernels(t, *simdKernels, scalarKernels, sameBitsExactly)
	})
}

// TestDenseForwardIsEval holds Dense's training forward, which runs on
// whichever kernels the CPU has, to its inference forward, which is always
// the portable loop: generation and training may dispatch differently only
// because they write the same bits.
func TestDenseForwardIsEval(t *testing.T) {
	for _, c := range kernelCases() {
		d := &Dense{In: c.in, Out: c.out, W: &Param{Data: c.w}, B: &Param{Data: c.b}}
		fwd := make([]float64, c.rows*c.out)
		eval := make([]float64, c.rows*c.out)
		d.forward(c.x, fwd, c.rows, nil)
		d.eval(c.x, eval, c.rows, nil)
		checkSame(t, "Dense.forward vs Dense.eval", c, fwd, eval, sameBitsExactly)
	}
}
