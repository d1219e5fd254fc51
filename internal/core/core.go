// Package core implements the paper's MTTKRP algorithms for dense tensors
// in natural layout: the novel 1-step algorithm (Algorithms 2 and 3), the
// 2-step algorithm of Phan et al. (Algorithm 4), and the classical
// explicit-reorder baseline of Bader and Kolda. All variants compute
//
//	M = X_(n) · (U_{N-1} ⊙ ⋯ ⊙ U_{n+1} ⊙ U_{n-1} ⊙ ⋯ ⊙ U₀)
//
// where X is an N-way dense tensor, U_k are I_k × C factor matrices, and
// ⊙ is the Khatri-Rao product. The 1-step and 2-step algorithms never
// reorder tensor entries; they multiply strided views of the tensor buffer
// directly (see package tensor for the layout structure).
package core

import (
	"fmt"

	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Method selects an MTTKRP algorithm.
type Method int

const (
	// MethodAuto (the zero value, hence the default everywhere) is the
	// paper's CP-ALS choice (Section 5.3.3): 1-step for external modes,
	// 2-step for internal modes.
	MethodAuto Method = iota
	// MethodOneStep is the paper's 1-step algorithm: form KRP rows and
	// multiply tensor blocks in place (Algorithm 3; Algorithm 2 is the
	// sequential full-KRP variant, available as OneStepSequential).
	MethodOneStep
	// MethodTwoStep is the partial-MTTKRP + multi-TTV algorithm of Phan et
	// al. (Algorithm 4). For external modes it degenerates to 1-step.
	MethodTwoStep
	// MethodReorder is the Bader–Kolda baseline: explicitly reorder the
	// tensor into a column-major X_(n), form the full KRP, one GEMM.
	MethodReorder
	// MethodNaive is the direct-definition reference (for validation).
	MethodNaive
)

// String returns the method name used in benchmark output.
func (m Method) String() string {
	switch m {
	case MethodOneStep:
		return "1-step"
	case MethodTwoStep:
		return "2-step"
	case MethodReorder:
		return "reorder"
	case MethodAuto:
		return "auto"
	case MethodNaive:
		return "naive"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Options configures an MTTKRP computation.
type Options struct {
	// Threads is the worker count; 0 selects GOMAXPROCS.
	Threads int
	// Breakdown, when non-nil, receives per-phase wall times (Figure 6).
	Breakdown *Breakdown
	// DynamicGrain, when positive, switches the internal-mode 1-step block
	// loop from static contiguous partitioning to dynamic chunks of this
	// many blocks (ablation knob).
	DynamicGrain int
	// BlasOnlyParallel restricts MethodReorder to parallelism inside the
	// GEMM call only, the way Matlab Tensor Toolbox on a multithreaded
	// BLAS behaves: the tensor permute and the KRP formation run on a
	// single thread. Used by the Figure 7 comparator.
	BlasOnlyParallel bool
	// KRPChunkRows, when positive, bounds the temporary memory of the
	// 1-step algorithm's external modes: each worker streams its KRP row
	// block in chunks of at most this many rows, GEMMing each chunk
	// immediately (the blocking idea of Vannieuwenhoven et al. [25],
	// cited in the paper's related work). Zero materializes the whole
	// per-worker block, as in Algorithm 3. The result is identical.
	KRPChunkRows int
	// Pool, when non-nil, selects the execution context that runs the
	// kernels: a *parallel.Pool (a persistent worker team with reusable
	// per-worker workspaces) or a *parallel.Lease (a scheduler-granted
	// slice of a shared team, the serving path); nil uses the process-wide
	// default pool. With a lease attached, Threads = 0 resolves to the
	// lease's granted budget, so admitted requests automatically honor
	// their admission policy. The isolation covers the MTTKRP kernels,
	// BLAS calls and reductions; auxiliary tensor utilities without a pool
	// parameter (for example the reorder baseline's Unfold and
	// tensor.Norm) still run on the default pool.
	Pool parallel.Executor
	// PhaseNotify, when non-nil, is invoked at kernel phase boundaries —
	// the entry of each MTTKRP computation, and between the per-mode
	// derivations of SweepAll — with no dispatch in flight on the
	// executor. The serving scheduler hooks parallel.Lease.Reconcile here
	// so a mid-request worker-budget change (shrink or grow) applies at
	// the next safe point rather than only between requests;
	// instrumentation can use it to observe kernel progress. It runs on
	// the computing goroutine and must not dispatch on opts.Pool.
	PhaseNotify func()

	// TileRows, when positive, streams dense 1-step/2-step computations
	// (and the hybrid) through mode-n row-block tiles of at most this many
	// rows: each tile of the mode-n matricization is gathered into a
	// bounded workspace buffer (or aliased in place when it is contiguous)
	// and run through the untiled kernel, so the resident working set is
	// the tile, not the tensor — the out-of-core path for mmap-backed
	// tensors. Output bits are identical to the untiled kernels (the GEMM
	// size class is pinned to the full extent; see blas.GemmArenaClass).
	// AutoTileRows derives a value from a byte budget. Zero disables
	// tiling; MethodReorder and MethodNaive ignore it.
	TileRows int

	// DropBehind, when set with TileRows on a mapped tensor, advises the
	// OS (MADV_DONTNEED) that each tile's source pages are disposable as
	// soon as the tile has been consumed, so a single-pass scan's resident
	// set stays near one tile instead of growing to the whole slab. Pages
	// are re-faulted from the page cache or disk if touched again, so the
	// hint is opt-in: callers that re-run kernels over the same mapping
	// (for example CP-ALS sweeps or the serving map cache) should leave it
	// off and let the OS keep warm pages. No effect on heap tensors or
	// untiled calls; results are bit-identical either way.
	DropBehind bool

	// tileClass, when positive, marks this call as a row tile of a logical
	// computation whose full mode-n extent is tileClass rows; kernels pin
	// their GEMM size-class decisions to it so tiles reproduce the untiled
	// bit patterns. Set by the tiled driver only.
	tileClass int
}

// classRows resolves the GEMM size-class row count: the full mode-n extent
// when executing a tile, the natural extent otherwise.
func (o Options) classRows(natural int) int {
	if o.tileClass > 0 {
		return o.tileClass
	}
	return natural
}

// notifyPhase invokes the phase-boundary hook, if any.
func (o Options) notifyPhase() {
	if o.PhaseNotify != nil {
		o.PhaseNotify()
	}
}

// pool resolves the execution context for this computation; nil (and the
// historical typed-nil *Pool) selects the process-wide default pool.
func (o Options) pool() parallel.Executor {
	return parallel.OrDefault(o.Pool)
}

// Compute runs the selected MTTKRP method for mode n and returns the
// I_n × C result matrix (row-major).
func Compute(method Method, x *tensor.Dense, u []mat.View, n int, opts Options) mat.View {
	validate(x, u, n)
	if method == MethodNaive {
		return Naive(x, u, n)
	}
	return ComputeInto(mat.NewDense(x.Dim(n), rank(u)), method, x, u, n, opts)
}

// ComputeInto runs the selected MTTKRP method for mode n, writing the
// I_n × C result into dst (contiguous row-major) and returning it. dst is
// the steady-state entry point: with a retained dst and a persistent pool,
// repeated same-shape calls reuse the pool's workspaces and allocate
// nothing.
func ComputeInto(dst mat.View, method Method, x *tensor.Dense, u []mat.View, n int, opts Options) mat.View {
	validate(x, u, n)
	validateDst(dst, x.Dim(n), rank(u))
	// Phase notification happens in the leaf kernels (oneStepExternal,
	// oneStepInternal, twoStepLeftFirst, twoStepRightFirst, ReorderInto),
	// so direct entry through OneStepInto/TwoStepInto/ReorderInto reaches
	// the same safe point as entry through here — exactly once per
	// computation either way. mttkrp-lint's phasehook analyzer enforces
	// this for every exported *Into entry point.
	switch method {
	case MethodOneStep:
		if tiled(x, n, opts) {
			return OneStepTiledInto(dst, x, u, n, opts)
		}
		return OneStepInto(dst, x, u, n, opts)
	case MethodTwoStep:
		if tiled(x, n, opts) {
			return TwoStepTiledInto(dst, x, u, n, opts)
		}
		return TwoStepInto(dst, x, u, n, opts)
	case MethodReorder:
		return ReorderInto(dst, x, u, n, opts)
	case MethodAuto:
		if isExternal(x, n) {
			if tiled(x, n, opts) {
				return OneStepTiledInto(dst, x, u, n, opts)
			}
			return OneStepInto(dst, x, u, n, opts)
		}
		if tiled(x, n, opts) {
			return TwoStepTiledInto(dst, x, u, n, opts)
		}
		return TwoStepInto(dst, x, u, n, opts)
	case MethodNaive:
		opts.notifyPhase() // the reference path has no leaf kernel to notify
		dst.CopyFrom(Naive(x, u, n))
		return dst
	}
	panic(fmt.Sprintf("core: unknown method %d", int(method)))
}

// validateDst checks that dst is a contiguous row-major in × c matrix (the
// kernels use its backing slice directly as worker 0's accumulator).
func validateDst(dst mat.View, in, c int) {
	if dst.R != in || dst.C != c {
		panic(fmt.Sprintf("core: dst is %dx%d, want %dx%d", dst.R, dst.C, in, c))
	}
	if !dst.IsRowMajor() {
		panic("core: dst must be contiguous row-major")
	}
}

// Methods lists the production algorithms (excluding the naive reference),
// in the order benchmarks report them.
func Methods() []Method {
	return []Method{MethodOneStep, MethodTwoStep, MethodReorder, MethodAuto}
}

func isExternal(x *tensor.Dense, n int) bool {
	return n == 0 || n == x.Order()-1
}

// validate checks the factor matrices against the tensor.
func validate(x *tensor.Dense, u []mat.View, n int) {
	nModes := x.Order()
	if nModes < 2 {
		panic("core: MTTKRP requires an order ≥ 2 tensor")
	}
	if len(u) != nModes {
		panic(fmt.Sprintf("core: %d factor matrices for an order-%d tensor", len(u), nModes))
	}
	if n < 0 || n >= nModes {
		panic(fmt.Sprintf("core: mode %d out of range [0,%d)", n, nModes))
	}
	c := u[0].C
	for k, m := range u {
		if m.R != x.Dim(k) {
			panic(fmt.Sprintf("core: factor %d has %d rows, want %d", k, m.R, x.Dim(k)))
		}
		if m.C != c {
			panic(fmt.Sprintf("core: factor %d has %d columns, want %d", k, m.C, c))
		}
		if m.CS != 1 {
			panic(fmt.Sprintf("core: factor %d must have unit column stride", k))
		}
	}
}

// rank returns the shared column count C of the factors.
func rank(u []mat.View) int { return u[0].C }

// operands returns the KRP operand list for mode n in the paper's order
// [U_{N-1}, …, U_{n+1}, U_{n-1}, …, U₀], so that U₀'s row index varies
// fastest, matching the column linearization of X_(n).
func operands(u []mat.View, n int) []mat.View {
	return appendOperands(make([]mat.View, 0, len(u)-1), u, n)
}

// appendOperands is operands into a caller-owned slice (kernel frames reuse
// one backing array across calls).
func appendOperands(dst []mat.View, u []mat.View, n int) []mat.View {
	for k := len(u) - 1; k >= 0; k-- {
		if k != n {
			dst = append(dst, u[k])
		}
	}
	return dst
}

// leftOperands returns [U_{n-1}, …, U₀]: the left partial KRP K_L, whose
// rows are indexed by the linearization of modes 0..n-1.
func leftOperands(u []mat.View, n int) []mat.View {
	return appendLeftOperands(make([]mat.View, 0, n), u, n)
}

func appendLeftOperands(dst []mat.View, u []mat.View, n int) []mat.View {
	for k := n - 1; k >= 0; k-- {
		dst = append(dst, u[k])
	}
	return dst
}

// rightOperands returns [U_{N-1}, …, U_{n+1}]: the right partial KRP K_R,
// whose rows are indexed by the linearization of modes n+1..N-1.
func rightOperands(u []mat.View, n int) []mat.View {
	return appendRightOperands(make([]mat.View, 0, len(u)-n-1), u, n)
}

func appendRightOperands(dst []mat.View, u []mat.View, n int) []mat.View {
	for k := len(u) - 1; k > n; k-- {
		dst = append(dst, u[k])
	}
	return dst
}

// clearViews zeroes a frame-cached view slice so released workspaces do not
// retain caller data, returning it emptied with capacity intact.
func clearViews(s []mat.View) []mat.View {
	for i := range s {
		s[i] = mat.View{}
	}
	return s[:0]
}

// viewListFrame is a workspace-cached operand-list scratch slice for
// coordinator-level kernels that need one KRP operand list per call.
type viewListFrame struct{ ops []mat.View }

func newViewListFrame() any { return &viewListFrame{} }

func viewList(ws *parallel.Workspace) *viewListFrame {
	return ws.Frame("core.viewlist", newViewListFrame).(*viewListFrame)
}

// arenaMat leases an r × c contiguous row-major matrix from ar under tag.
// Contents are unspecified (whatever the previous same-tag use left).
func arenaMat(ar *parallel.Arena, tag string, r, c int) mat.View {
	return mat.FromRowMajor(ar.Float64(tag, r*c), r, c)
}

// arenaMatZero is arenaMat with the contents cleared.
func arenaMatZero(ar *parallel.Arena, tag string, r, c int) mat.View {
	m := arenaMat(ar, tag, r, c)
	clear(m.Data)
	return m
}

// arenaColMajor leases an r × c contiguous column-major matrix from ar.
func arenaColMajor(ar *parallel.Arena, tag string, r, c int) mat.View {
	return mat.FromColMajor(ar.Float64(tag, r*c), r, c)
}

// Naive computes the MTTKRP directly from the definition,
// M(i, c) = Σ over all entries X(i₀,…,i_{N-1}) ∏_{k≠n} U_k(i_k, c).
// It is the validation reference for every other method.
func Naive(x *tensor.Dense, u []mat.View, n int) mat.View {
	validate(x, u, n)
	c := rank(u)
	m := mat.NewDense(x.Dim(n), c)
	idx := make([]int, x.Order())
	data := x.Data()
	for l, v := range data {
		if v == 0 {
			continue
		}
		x.MultiIndex(l, idx)
		for cc := 0; cc < c; cc++ {
			p := v
			for k := range u {
				if k != n {
					p *= u[k].At(idx[k], cc)
				}
			}
			m.Add(idx[n], cc, p)
		}
	}
	return m
}
