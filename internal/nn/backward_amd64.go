package nn

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

// forwardAVX2 and gradWAVX2 check the shapes, which the assembly trusts.
// Each skips the inputs that are exactly ±0 through masks it builds in
// registers; backward_amd64.s describes the walk.

func forwardAVX2(y, x, w, b []float64, rows, in, out int) {
	forwardAsm(y[:rows*out], x[:rows*in], w[:in*out], b[:out], rows, in, out)
}

func gradWAVX2(wg, x, g []float64, rows, in, out int) {
	gradWAsm(wg[:in*out], x[:rows*in], g[:rows*out], rows, in, out)
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
func forwardAsm(y, x, w, b []float64, rows, in, out int)

//go:noescape
func gradWAsm(wg, x, g []float64, rows, in, out int)

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
