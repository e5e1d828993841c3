package nn

import "math"

func init() {
	if hasAVX2() {
		simdKernels = &denseKernels{forwardAVX2, gradWAVX2, gradXAVX2}
		kernels = *simdKernels
		simdBNReLU = &bnReLUKernels{colSumAVX2, centerAVX2, normalizeAVX2, gradSumsAVX2, bnGradXAVX2, maskAVX2}
		bnReLU = *simdBNReLU
	}
}

// hasAVX2 reports whether the CPU has AVX2 and the OS saves YMM state.
func hasAVX2() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.(7,0):EBX
		xmmYmm  = 0b110   // XCR0: SSE and AVX state enabled
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&xmmYmm != xmmYmm {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// gradBlock is how many batch rows gradWAVX2 gathers per input column, and
// how many inputs forwardAVX2 gathers per row, at a time; their scratch lives
// on the stack.
const gradBlock = 64

// forwardAVX2 runs the forward on gradW's assembly: a row of y is a gradient
// row of W whose terms are the row's inputs that are not exactly zero, each
// scaling its row of w, in input order. Every term is one the scalar loop
// adds, in the same order.
func forwardAVX2(y, x, w, b []float64, rows, in, out int) {
	y, x, w, b = y[:rows*out], x[:rows*in], w[:in*out], b[:out]
	var xs [gradBlock]float64
	var offs [gradBlock]int
	for r := 0; r < rows; r++ {
		yr, xr := y[r*out:(r+1)*out], x[r*in:(r+1)*in]
		copy(yr, b)
		for i0 := 0; i0 < in; i0 += gradBlock {
			n := gatherNonzero(&xs, &offs, xr[i0:], 1, 8*out, min(gradBlock, in-i0), 8*i0*out)
			gradWRowsAsm(yr, xs[:n], offs[:n], w)
		}
	}
}

// gradWAVX2 hands the assembly, for each block of rows and each input
// column, the inputs that are not exactly zero and their g rows: every term
// it sums is one the scalar loop adds, in the same row order.
func gradWAVX2(wg, x, g []float64, rows, in, out int) {
	wg, x, g = wg[:in*out], x[:rows*in], g[:rows*out]
	var xs [gradBlock]float64
	var offs [gradBlock]int
	for r0 := 0; r0 < rows; r0 += gradBlock {
		for i := 0; i < in; i++ {
			n := gatherNonzero(&xs, &offs, x[r0*in+i:], in, 8*out, min(gradBlock, rows-r0), 8*r0*out)
			gradWRowsAsm(wg[i*out:(i+1)*out], xs[:n], offs[:n], g)
		}
	}
}

// gatherNonzero copies column[r·stride] for r < rows into xs, and off +
// r·rowBytes into offs, keeping only the values that are not ±0, and returns
// how many it kept.
func gatherNonzero(xs *[gradBlock]float64, offs *[gradBlock]int, column []float64, stride, rowBytes, rows, off int) int {
	n := 0
	for r := 0; r < rows; r++ {
		v := column[r*stride]
		// n ≤ r < gradBlock: the mask changes no index, it only spares
		// the bounds checks.
		xs[n&(gradBlock-1)], offs[n&(gradBlock-1)] = v, off
		off += rowBytes
		// n advances unless v is ±0: a branch on v would be mispredicted
		// for every other ReLU output.
		u := math.Float64bits(v) << 1
		n += int((u | -u) >> 63)
	}
	return n
}

// gradXAVX2 checks the shapes, which the assembly trusts.
func gradXAVX2(gx, g, wt []float64, rows, in, out int) {
	gradXAsm(gx[:rows*in], g[:rows*out], wt[:out*in], rows, in, out)
}

// The BatchNorm and ReLU wrappers check the shapes, which the assembly
// trusts.

func colSumAVX2(sum, x []float64, rows, dim int) {
	bnColSumAsm(sum[:dim], x[:rows*dim], rows, dim)
}

func centerAVX2(c, variance, x, mean []float64, rows, dim int) {
	bnCenterAsm(c[:rows*dim], variance[:dim], x[:rows*dim], mean[:dim], rows, dim)
}

func normalizeAVX2(xhat, y, std, gamma, beta []float64, rows, dim int) {
	bnNormalizeAsm(xhat[:rows*dim], y[:rows*dim], std[:dim], gamma[:dim], beta[:dim], rows, dim)
}

func gradSumsAVX2(betaG, gammaG, sumG, sumGX, g, xhat []float64, rows, dim int) {
	bnGradSumsAsm(betaG[:dim], gammaG[:dim], sumG[:dim], sumGX[:dim], g[:rows*dim], xhat[:rows*dim], rows, dim)
}

func bnGradXAVX2(gx, g, xhat, scale, meanG, sumGX []float64, rows, dim int) {
	bnGradXAsm(gx[:rows*dim], g[:rows*dim], xhat[:rows*dim], scale[:dim], meanG[:dim], sumGX[:dim], float64(rows), rows, dim)
}

func maskAVX2(dst, src, key []float64) {
	maskAsm(dst[:len(key)], src[:len(key)], key)
}

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func gradWRowsAsm(wg, xs []float64, offs []int, g []float64)

//go:noescape
func gradXAsm(gx, g, wt []float64, rows, in, out int)

//go:noescape
func bnColSumAsm(sum, x []float64, rows, dim int)

//go:noescape
func bnCenterAsm(c, variance, x, mean []float64, rows, dim int)

//go:noescape
func bnNormalizeAsm(xhat, y, std, gamma, beta []float64, rows, dim int)

//go:noescape
func bnGradSumsAsm(betaG, gammaG, sumG, sumGX, g, xhat []float64, rows, dim int)

//go:noescape
func bnGradXAsm(gx, g, xhat, scale, meanG, sumGX []float64, n float64, rows, dim int)

//go:noescape
func maskAsm(dst, src, key []float64)
