package core

import (
	"time"

	"repro/internal/blas"
	"repro/internal/krp"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// SweepAll performs the MTTKRPs of one full ALS sweep (modes 0..N-1, in
// order) while avoiding recomputation across modes — the extension the
// paper names as its natural next step (Section 6), following Phan et al.
// [19, Section III.C].
//
// The modes are split into a left half {0..s-1} and right half {s..N-1}
// with s chosen to minimize the intermediate sizes. The sweep then costs
// two passes over the tensor instead of N:
//
//  1. a right partial MTTKRP R = X_(0:s-1)·K_R (one GEMM over all tensor
//     entries), from which each left mode's MTTKRP is derived by cheap
//     multi-TTVs over the small intermediate R;
//  2. after the left factors are updated, a left partial MTTKRP
//     L = X_(0:s-1)ᵀ·K_L, from which each right mode's MTTKRP is derived.
//
// update(n, m) is called once per mode, in ALS order, with the raw MTTKRP
// result; it must perform the factor update in place (writing through
// u[n]) before returning, because later derivations read the updated
// factors. m lives in the sweep's workspace and is valid only for the
// duration of the callback: the next mode's result overwrites it, so a
// caller that needs it later must copy it out. The scheme computes the
// same MTTKRPs as per-mode calls inside an ALS sweep — equal in exact
// arithmetic, not bitwise, because the sums are associated differently.
// Every output element's summation order depends only on the shape, never
// on the worker count, so the results are width-invariant.
//
// For order-2 tensors the intermediates are the results themselves and
// the scheme degenerates to two ordinary MTTKRPs.
//
// The whole sweep runs on one pool (opts.Pool or the default) and leases
// its intermediates, results and contraction scratch from one reusable
// workspace, so a steady stream of same-shape sweeps allocates nothing.
// opts.Breakdown's total covers the sweep's own work only; the time spent
// inside update is excluded.
func SweepAll(x *tensor.Dense, u []mat.View, opts Options, update func(n int, m mat.View)) {
	validate(x, u, 0)
	opts.notifyPhase()
	n := x.Order()
	s := splitPoint(x)
	c := rank(u)
	bd := opts.Breakdown
	p := opts.pool()
	t := p.Effective(opts.Threads)
	ws := p.Acquire()
	vf := viewList(ws)
	f := ws.Frame("core.derive", newDeriveFrame).(*deriveFrame)
	f.ws = ws
	f.dims = f.dims[:0]
	for k := 0; k < n; k++ {
		f.dims = append(f.dims, x.Dim(k))
	}
	totalW := startWatch()

	// Phase 1: contract the right half once; derive modes 0..s-1.
	leftSize := x.SizeLeft(s-1) * x.Dim(s-1)
	r := arenaColMajor(ws.Arena(0), "core.sweep.r", leftSize, c)
	vf.ops = appendRightOperands(vf.ops, u, s-1)
	kr := arenaMat(ws.Arena(0), "core.sweep.kr", krp.NumRows(vf.ops), c)
	sw := startWatch()
	krp.ParallelOn(p, ws, t, vf.ops, kr)
	bd.add(PhaseLRKRP, sw.elapsed())
	sw = startWatch()
	blas.GemmOn(p, t, 1, x.MatricizeRowModes(s-1), kr, 0, r)
	bd.add(PhaseGEMM, sw.elapsed())
	vf.ops = clearViews(vf.ops)
	inUpdate := deriveModes(p, t, f, opts, r, u, 0, s, update)

	// Phase 2: contract the (updated) left half once; derive s..N-1.
	rightSize := x.Size() / leftSize
	l := arenaColMajor(ws.Arena(0), "core.sweep.l", rightSize, c)
	vf.ops = appendLeftOperands(vf.ops, u, s)
	kl := arenaMat(ws.Arena(0), "core.sweep.kl", krp.NumRows(vf.ops), c)
	sw = startWatch()
	krp.ParallelOn(p, ws, t, vf.ops, kl)
	bd.add(PhaseLRKRP, sw.elapsed())
	sw = startWatch()
	blas.GemmOn(p, t, 1, x.MatricizeRowModes(s-1).T(), kl, 0, l)
	bd.add(PhaseGEMM, sw.elapsed())
	vf.ops = clearViews(vf.ops)
	inUpdate += deriveModes(p, t, f, opts, l, u, s, n, update)

	bd.addTotal(totalW.elapsed() - inUpdate)
	f.inter, f.out = mat.View{}, mat.View{}
	f.half, f.factors, f.ws = nil, nil, nil
	ws.Release()
}

// deriveModes derives the MTTKRPs of modes lo..hi-1 (one half) from the
// half's intermediate and hands each to update, returning the time spent
// inside update.
func deriveModes(p parallel.Executor, t int, f *deriveFrame, opts Options, inter mat.View, u []mat.View, lo, hi int, update func(n int, m mat.View)) time.Duration {
	var inUpdate time.Duration
	for mode := lo; mode < hi; mode++ {
		opts.notifyPhase() // per-mode phase boundary: budget changes land here
		sw := startWatch()
		m := deriveFromIntermediate(p, t, f, inter, u, lo, hi, mode)
		opts.Breakdown.add(PhaseGEMV, sw.elapsed())
		sw = startWatch()
		update(mode, m)
		inUpdate += sw.elapsed()
	}
	return inUpdate
}

// splitPoint chooses s to minimize the combined size of the two
// intermediates, I_{0..s-1} + I_{s..N-1} (both scale with C).
func splitPoint(x *tensor.Dense) int {
	n := x.Order()
	best, bestCost := 1, -1
	for s := 1; s < n; s++ {
		left := x.SizeLeft(s-1) * x.Dim(s-1)
		right := x.Size() / left
		cost := left + right
		if bestCost < 0 || cost < bestCost {
			best, bestCost = s, cost
		}
	}
	return best
}

// deriveFrame is the workspace-cached column-loop state of
// deriveFromIntermediate. dims holds the whole tensor's dimensions; half
// and factors describe the half the current intermediate covers.
type deriveFrame struct {
	inter   mat.View
	dims    []int
	half    []int
	factors []mat.View
	mode    int // index into half / factors
	out     mat.View
	ws      *parallel.Workspace
	body    func(w, lo, hi int)
}

func newDeriveFrame() any {
	f := &deriveFrame{}
	f.body = f.columns
	return f
}

// columns derives result columns lo..hi-1 on worker w. Column c of the
// intermediate is the natural-layout subtensor of component c over the
// half's modes; every mode except f.mode is contracted against its factor
// column c, highest mode first so the remaining modes keep their
// positions. The contractions ping-pong between two arena buffers.
func (f *deriveFrame) columns(w, lo, hi int) {
	dims := f.half
	size := f.inter.R
	ar := f.ws.Arena(w)
	bufs := [2][]float64{ar.Float64("core.derive.a", size), ar.Float64("core.derive.b", size)}
	for col := lo; col < hi; col++ {
		src := f.inter.Data[col*size : (col+1)*size]
		next := 0
		for k := len(dims) - 1; k >= 0; k-- {
			if k == f.mode {
				continue
			}
			il := 1
			for _, d := range dims[:k] {
				il *= d
			}
			ir := 1 // modes above k are contracted, except f.mode
			if f.mode > k {
				ir = dims[f.mode]
			}
			v := ar.Float64("core.derive.v", dims[k])
			blas.CopyVec(f.factors[k].Col(col), mat.FromSlice(v))
			dst := bufs[next][:il*ir]
			ttvInto(dst, src, il, dims[k], ir, v)
			src, next = dst, 1-next
		}
		for i, v := range src {
			f.out.Set(i, col, v)
		}
	}
}

// ttvInto is tensor.TTV into a caller buffer: dst (il·ir entries) = src
// (il × in × ir in natural layout) contracted over its middle mode with v.
// The loop order and zero-skip are TTV's, so the bits match it.
func ttvInto(dst, src []float64, il, in, ir int, v []float64) {
	clear(dst)
	for j := 0; j < ir; j++ {
		for i := 0; i < in; i++ {
			vi := v[i]
			if vi == 0 {
				continue
			}
			s := src[j*il*in+i*il : j*il*in+(i+1)*il]
			d := dst[j*il : (j+1)*il]
			for l, x := range s {
				d[l] += vi * x
			}
		}
	}
}

// deriveFromIntermediate computes the MTTKRP of mode `mode` (one of
// lo..hi-1, the half the intermediate covers) from the half's
// intermediate: an (∏dims[lo:hi]) × C column-major matrix whose column c is
// the natural-layout subtensor for component c. Columns are independent
// and processed in parallel. The result is leased from worker 0's arena
// of f.ws and stays valid until the next derivation on it.
func deriveFromIntermediate(p parallel.Executor, t int, f *deriveFrame, inter mat.View, u []mat.View, lo, hi, mode int) mat.View {
	c := inter.C
	out := arenaMat(f.ws.Arena(0), "core.sweep.m", f.dims[mode], c)
	f.inter, f.half, f.factors, f.mode, f.out = inter, f.dims[lo:hi], u[lo:hi], mode-lo, out
	f.ws.Arena(parallel.Clamp(t, c) - 1) // pre-grow arenas before the dispatch
	p.For(t, c, f.body)
	return out
}
