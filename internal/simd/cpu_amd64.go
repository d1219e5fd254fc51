//go:build amd64

package simd

// cpuid executes the CPUID instruction with the given leaf/subleaf
// (implemented in cpuid_amd64.s).
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0), which reports which
// register states the OS saves across context switches.
func xgetbv() (eax, edx uint32)

// avx2Impl is the vectorized kernel set, nil when the host cannot run it.
// It is a package-level variable initializer (not an init function) so it
// is ready before simd.go's init installs Best().
var avx2Impl = detectAVX2()

func vectorImpl() *Impl { return avx2Impl }

// detectAVX2 probes CPUID for AVX2 and for OS support of the ymm register
// state. FMA presence is irrelevant here: the kernels deliberately use
// separate multiply and add to preserve the scalar reference's rounding
// (see the package comment's bit-identity contract).
func detectAVX2() *Impl {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return nil
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return nil
	}
	// XCR0 bits 1 (SSE) and 2 (AVX): the OS preserves xmm and ymm state.
	if xcr0, _ := xgetbv(); xcr0&0x6 != 0x6 {
		return nil
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	if ebx7&avx2 == 0 {
		return nil
	}
	return &Impl{
		Name:           "avx2",
		Dot:            dotAVX2,
		Axpy:           axpyAVX2,
		Scale:          scaleAVX2,
		Had:            hadAVX2,
		HadAcc:         hadAccAVX2,
		Add:            addAVX2,
		SumAbs:         sumAbsAVX2,
		Gemm4x4Strided: gemm4x4AVX2,
		HadExpand:      hadExpandAVX2,
	}
}

// Assembly kernels (kernels_amd64.s). Their element counts come from the
// same operand as the scalar references: len(x) for dot/axpy/add, len(z)
// for the Hadamard pair, len(kl) and len(row) for the expansion.

//go:noescape
func dotAVX2(x, y []float64) float64

//go:noescape
func axpyAVX2(alpha float64, x, y []float64)

//go:noescape
func scaleAVX2(alpha float64, x []float64)

//go:noescape
func hadAVX2(x, y, z []float64)

//go:noescape
func hadAccAVX2(x, y, z []float64)

//go:noescape
func addAVX2(x, y []float64)

//go:noescape
func sumAbsAVX2(x []float64) float64

//go:noescape
func gemm4x4AVX2(kc int, a []float64, rs, cs int, bp []float64, acc *[16]float64)

//go:noescape
func hadExpandAVX2(row, kl, out []float64)
