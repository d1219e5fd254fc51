// Package blas implements the dense linear-algebra kernels that the paper
// obtains from Intel MKL: a cache-blocked, goroutine-parallel GEMM, a
// strided GEMV, and the level-1 routines the higher layers need. All
// routines operate on mat.View strided windows, so the tensor
// matricizations of the paper (column-major X_(0:n), row-major X_(n)
// blocks) are multiplied in place without reordering tensor entries.
// The blocked GEMM does not copy A either: its micro-kernel reads every
// full 4-row panel of A through the view's strides, and only the final
// m%4 rows are packed into a zero-padded panel. B, the small KRP operand
// in MTTKRP, is packed.
//
// Parallel GEMM splits the M (and, for wide outputs, N) dimension across
// workers and never splits the K dimension. This deliberately reproduces
// the behaviour the paper observed in MKL: inner-product-shaped
// multiplications (small M·N, huge K) do not scale, because scaling them
// requires temporary per-thread output buffers and a reduction — the exact
// optimization the paper's 1-step algorithm performs at a higher level.
package blas

import (
	"fmt"

	"repro/internal/mat"
)

// Blocking parameters for the GEMM. A KC×NC block of B is packed into
// KC×NR micro-panels that stream through L1; A is read in place, so the
// only A scratch is one MR×KC tail panel (8 KiB per worker at the default
// KC, where packing whole MC×KC blocks of A used 256 KiB).
const (
	kcDefault = 256
	ncDefault = 2048

	mr = 4 // micro-kernel rows
	nr = 4 // micro-kernel cols
)

// Blocking carries GEMM cache-blocking parameters. The zero value selects
// the package defaults; it exists so ablation benchmarks can sweep the
// design space. KC also fixes the accumulation grouping of every output
// element (one partial sum per KC block, added to C in block order), so
// changing it changes result bits.
type Blocking struct {
	KC, NC int
}

func (b Blocking) orDefault() Blocking {
	if b.KC <= 0 {
		b.KC = kcDefault
	}
	if b.NC <= 0 {
		b.NC = ncDefault
	}
	// Round NC to a multiple of the micro-kernel so packing stays simple.
	b.NC = roundUp(b.NC, nr)
	return b
}

func roundUp(x, m int) int {
	if r := x % m; r != 0 {
		x += m - r
	}
	return x
}

func checkGemmDims(a, b, c mat.View) (m, n, k int) {
	m, k = a.R, a.C
	if b.R != k {
		panic(fmt.Sprintf("blas: gemm inner dimension mismatch: A is %dx%d, B is %dx%d", a.R, a.C, b.R, b.C))
	}
	n = b.C
	if c.R != m || c.C != n {
		panic(fmt.Sprintf("blas: gemm output dimension mismatch: want %dx%d, got %dx%d", m, n, c.R, c.C))
	}
	return m, n, k
}
