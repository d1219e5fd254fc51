package cpd

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Config controls a CP-ALS run.
type Config struct {
	// Rank is the number of components C (required, ≥ 1).
	Rank int
	// MaxIters bounds the number of ALS sweeps; default DefaultMaxIters.
	MaxIters int
	// Tol stops the iteration when the fit improves by less than this
	// between sweeps; default 1e-4 (the Tensor Toolbox default). Set
	// negative to always run MaxIters (benchmarking).
	Tol float64
	// Threads is the worker count for all kernels; 0 = GOMAXPROCS.
	Threads int
	// Method selects how a sweep computes its MTTKRPs. The zero value
	// (MethodAuto) runs dense tensors through core.SweepAll, the
	// cross-mode scheme of Phan et al. that the paper names as its natural
	// next step (Section 6): two passes over the tensor per sweep instead
	// of N, and a result that does not depend on the worker count. An
	// explicit method runs one MTTKRP per mode with that algorithm;
	// MethodTwoStep is the paper's per-mode hybrid (1-step on external
	// modes, 2-step on internal ones). Both compute the same updates in
	// exact arithmetic, not bitwise, since the sums associate differently.
	Method core.Method
	// BlasOnlyParallel restricts reorder-baseline parallelism to BLAS
	// (Tensor Toolbox fidelity; see core.Options).
	BlasOnlyParallel bool
	// Seed drives the random initial guess; runs are reproducible per
	// seed.
	Seed int64
	// Init optionally supplies the initial factor matrices instead of a
	// random draw (it is cloned, not modified).
	Init *KTensor
	// Breakdown, when non-nil, accumulates MTTKRP phase timings across
	// all iterations (Figure 8 instrumentation).
	Breakdown *core.Breakdown
	// Pool, when non-nil, is the execution context all kernels of the run
	// execute on: a *parallel.Pool (persistent worker team) or a
	// *parallel.Lease (a scheduler-granted slice of a shared team, the
	// serving path); nil uses the process-wide default pool. A full ALS
	// run reuses this one context and its workspaces for every MTTKRP, so
	// sweeps allocate no kernel scratch in steady state. Concurrent
	// decompositions should use one pool or lease each.
	Pool parallel.Executor
	// PhaseNotify, when non-nil, is invoked after every completed ALS (or
	// NNALS) sweep, once any pending worker-budget change on Pool has been
	// applied (parallel.Reconcile runs first). A serving scheduler that
	// resizes a running request's lease relies on these sweep boundaries
	// as the safe points where the change lands; tests and
	// instrumentation can observe the per-sweep granted width here. It
	// runs on the decomposition goroutine and must not dispatch on Pool.
	PhaseNotify func()
}

// DefaultMaxIters is the sweep budget a zero Config.MaxIters selects.
const DefaultMaxIters = 50

func (c Config) withDefaults() Config {
	if c.MaxIters <= 0 {
		c.MaxIters = DefaultMaxIters
	}
	if c.Tol == 0 {
		c.Tol = 1e-4
	}
	return c
}

// Result reports a CP-ALS run.
type Result struct {
	// K is the fitted Kruskal tensor with unit-normalized factor columns.
	K *KTensor
	// Iters is the number of completed ALS sweeps.
	Iters int
	// Fit is 1 − ‖X − Y‖/‖X‖ after the final sweep (1 is exact).
	Fit float64
	// FitHistory holds the fit after each sweep.
	FitHistory []float64
	// IterTimes holds the wall time of each sweep; the Figure 7 benchmark
	// reports their mean.
	IterTimes []time.Duration
}

// MeanIterTime returns the average sweep time.
func (r *Result) MeanIterTime() time.Duration {
	if len(r.IterTimes) == 0 {
		return 0
	}
	var s time.Duration
	for _, d := range r.IterTimes {
		s += d
	}
	return s / time.Duration(len(r.IterTimes))
}

// ErrBadRank reports an invalid rank request.
var ErrBadRank = errors.New("cpd: rank must be ≥ 1")

// ALS computes a rank-C CP decomposition of x by alternating least
// squares. Each sweep updates every factor in mode order via
//
//	U_n ← MTTKRP(X, U, n) · (⊛_{k≠n} U_kᵀU_k)†
//
// followed by column normalization, exactly the update of Section 2.2.
// The fit is computed per sweep from cached quantities (the last mode's
// MTTKRP), adding no extra passes over the tensor.
func ALS(x *tensor.Dense, cfg Config) (*Result, error) {
	cfg, k, err := prepare(x, cfg)
	if err != nil {
		return nil, err
	}
	return run(x, x.Norm(cfg.Threads), cfg, k, false), nil
}

// prepare applies cfg's defaults, validates the rank and order, and
// returns the initial guess: cfg.Init cloned, or a draw seeded by
// cfg.Seed.
func prepare(x tensor.Interface, cfg Config) (Config, *KTensor, error) {
	cfg = cfg.withDefaults()
	if cfg.Rank < 1 {
		return cfg, nil, ErrBadRank
	}
	n, c := x.Order(), cfg.Rank
	if n < 2 {
		return cfg, nil, fmt.Errorf("cpd: tensor order %d < 2", n)
	}
	if cfg.Init != nil {
		if cfg.Init.Rank() != c || cfg.Init.Order() != n {
			return cfg, nil, fmt.Errorf("cpd: init has rank %d order %d, want %d and %d",
				cfg.Init.Rank(), cfg.Init.Order(), c, n)
		}
		return cfg, cfg.Init.Clone(), nil
	}
	return cfg, RandomKTensor(rand.New(rand.NewSource(cfg.Seed)), x.Dims(), c), nil
}

// sweeper is the state of one ALS-family run that every sweep reuses: the
// Gram matrices and all solve and fit scratch are allocated once, and the
// factors are updated in place, so sweeps after the first allocate
// nothing.
type sweeper struct {
	cfg    Config
	k      *KTensor
	nonneg bool // HALS update (NNALS) instead of the least-squares solve
	first  bool // first sweep: normalize by 2-norms

	grams []mat.View // G_k = U_kᵀU_k
	h     mat.View   // ⊛_{k≠n} G_k, then ⊛ G_k for the fit
	chol  mat.View   // Cholesky factor of h
	mLast mat.View   // raw MTTKRP of the last mode, for the fit
}

// run is the sweep loop ALS, NNALS and the sparse ALS share. A dense
// tensor with MethodAuto sweeps through core.SweepAll (two tensor passes);
// otherwise every mode runs its own MTTKRP through core.Run.
func run(x tensor.Interface, normX float64, cfg Config, k *KTensor, nonneg bool) *Result {
	n, c := x.Order(), cfg.Rank
	opts := core.Options{
		Threads:          cfg.Threads,
		Breakdown:        cfg.Breakdown,
		BlasOnlyParallel: cfg.BlasOnlyParallel,
		Pool:             cfg.Pool,
		// Every per-mode MTTKRP entry (and SweepAll mode derivation) is a
		// phase boundary: apply any budget change the admission policy
		// issued while the previous region was in flight.
		PhaseNotify: func() { parallel.Reconcile(cfg.Pool) },
	}
	s := &sweeper{
		cfg: cfg, k: k, nonneg: nonneg,
		grams: make([]mat.View, n),
		h:     mat.NewDense(c, c),
		chol:  mat.NewDense(c, c),
		mLast: mat.NewDense(x.Dim(n-1), c),
	}
	for i := range s.grams {
		s.grams[i] = mat.NewDense(c, c)
		s.gram(i)
	}
	dense, _ := x.(*tensor.Dense)
	twoPass := dense != nil && cfg.Method == core.MethodAuto
	var dsts []mat.View // per-mode MTTKRP results, reused across sweeps
	if !twoPass {
		dsts = make([]mat.View, n)
		for i := range dsts {
			dsts[i] = mat.NewDense(x.Dim(i), c)
		}
	}
	update := s.update

	res := &Result{
		K:          k,
		FitHistory: make([]float64, 0, cfg.MaxIters),
		IterTimes:  make([]time.Duration, 0, cfg.MaxIters),
	}
	fitOld := 0.0
	for iter := 0; iter < cfg.MaxIters; iter++ {
		start := time.Now()
		s.first = iter == 0
		if twoPass {
			core.SweepAll(dense, k.Factors, opts, update)
		} else {
			for mode := 0; mode < n; mode++ {
				update(mode, core.Run(core.Request{
					X: x, Factors: k.Factors, Mode: mode, Method: cfg.Method,
					Dst: dsts[mode], Opts: opts,
				}))
			}
		}
		res.IterTimes = append(res.IterTimes, time.Since(start))
		res.Iters = iter + 1

		// Sweep boundary: the lease-rebalancing safe point. Apply any
		// pending Resize from the admission policy, then let observers see
		// the reconciled width.
		parallel.Reconcile(cfg.Pool)
		if cfg.PhaseNotify != nil {
			cfg.PhaseNotify()
		}

		fit := s.fit(normX)
		res.FitHistory = append(res.FitHistory, fit)
		res.Fit = fit
		if cfg.Tol > 0 && iter > 0 && math.Abs(fit-fitOld) < cfg.Tol {
			break
		}
		fitOld = fit
	}
	return res
}

// update rewrites factor `mode` in place from its raw MTTKRP m, which is
// valid only for the duration of the call (core.SweepAll reuses it).
func (s *sweeper) update(mode int, m mat.View) {
	if mode == len(s.grams)-1 {
		s.mLast.CopyFrom(m) // keep for the fit
	}
	s.hadamardExcept(mode)
	u := s.k.Factors[mode]
	if s.nonneg {
		halsUpdate(u, m, s.h)
	} else {
		u.CopyFrom(m)
		la.PinvSolveGramInto(s.h, u, s.chol)
		normalizeColumns(u, s.k.Lambda, s.first)
	}
	s.gram(mode)
}

// gram recomputes G_mode = UᵀU into its retained buffer.
func (s *sweeper) gram(mode int) {
	u := s.k.Factors[mode]
	blas.GemmOn(s.cfg.Pool, s.cfg.Threads, 1, u.T(), u, 0, s.grams[mode])
}

// hadamardExcept sets h = ⊛_{k≠mode} G_k (mode < 0 includes every Gram).
func (s *sweeper) hadamardExcept(mode int) {
	s.h.Fill(1)
	for i, g := range s.grams {
		if i != mode {
			hadamardInPlace(s.h, g)
		}
	}
}

// normalizeColumns rescales the columns of u into lambda: 2-norms on the
// first sweep, max(|·|, 1) afterwards — the Tensor Toolbox convention,
// which avoids driving factor entries to zero on late sweeps.
func normalizeColumns(u mat.View, lambda []float64, firstIter bool) {
	for c := 0; c < u.C; c++ {
		col := u.Col(c)
		var s float64
		if firstIter {
			s = blas.Nrm2(col)
		} else {
			s = math.Abs(col.At(blas.IAmax(col)))
			if s < 1 {
				s = 1
			}
		}
		lambda[c] = s
		if s != 0 {
			blas.Scal(1/s, col)
		}
	}
}

// fit evaluates 1 − ‖X−Y‖/‖X‖ from cached quantities:
// ‖Y‖² = λᵀ(⊛ G_k)λ and ⟨X, Y⟩ = Σ_c λ_c Σ_i M(i,c)·U_{N-1}(i,c), where M
// is the raw MTTKRP of the last updated mode.
func (s *sweeper) fit(normX float64) float64 {
	k := s.k
	c := k.Rank()
	s.hadamardExcept(-1)
	normY2 := 0.0
	for i := 0; i < c; i++ {
		for j := 0; j < c; j++ {
			normY2 += k.Lambda[i] * s.h.At(i, j) * k.Lambda[j]
		}
	}
	last := k.Factors[len(k.Factors)-1]
	iprod := 0.0
	for cc := 0; cc < c; cc++ {
		iprod += k.Lambda[cc] * blas.Dot(s.mLast.Col(cc), last.Col(cc))
	}
	res2 := normX*normX + normY2 - 2*iprod
	if res2 < 0 {
		res2 = 0
	}
	if normX == 0 {
		return 1
	}
	return 1 - math.Sqrt(res2)/normX
}

// ReferenceALS runs CP-ALS the way the Matlab Tensor Toolbox comparator of
// Figure 7 does: the Bader–Kolda explicit-reorder MTTKRP with parallelism
// only inside the BLAS call.
func ReferenceALS(x *tensor.Dense, cfg Config) (*Result, error) {
	cfg.Method = core.MethodReorder
	cfg.BlasOnlyParallel = true
	return ALS(x, cfg)
}
