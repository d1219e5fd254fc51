package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/cpd"
	"repro/internal/fmri"
	"repro/internal/krp"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/simd"
	"repro/internal/tensor"
)

// fitTol bounds |fit − reference fit| for a cp-fmri job. cpd.ALS and
// cpd.ReferenceALS run different MTTKRP kernels from the same initial
// guess; their fits agree to about 1e-15.
const fitTol = 1e-9

// cpFMRI runs back-to-back cpd.ALS jobs of a fixed sweep count on the
// synthetic fMRI tensor. Each sweep is a unit of work.
type cpFMRI struct {
	x    *tensor.Dense
	pool *parallel.Pool
	ref  *cpd.Result // cpd.ReferenceALS at the same seed and sweep count
	jobs int64

	// From the last window: every sweep's time, and from the last traced
	// window, the phase split.
	sweepSum time.Duration
	sweeps   int
	bd       core.Breakdown
	alsP50   time.Duration // sweep p50 of the last untraced window
}

func (w *cpFMRI) config(c *config) cpd.Config {
	return cpd.Config{Rank: c.sizes.fmriRank, MaxIters: c.sizes.jobSweeps, Tol: -1, Threads: 2, Seed: c.seed, Pool: w.pool}
}

func (w *cpFMRI) setup(c *config) (time.Duration, error) {
	w.close()
	start := time.Now()
	p := fmri.PaperParams().Scaled(c.sizes.fmriScale)
	p.Seed = c.seed
	w.x = fmri.Generate(p).Tensor4
	gen := time.Since(start)
	w.pool = parallel.NewPool(2)
	warm := w.config(c)
	warm.MaxIters = 1 // one sweep sizes every workspace the jobs reuse
	_, err := cpd.ALS(w.x, warm)
	return gen, err
}

func (w *cpFMRI) facts(c *config) {
	dims, rank := w.x.Dims(), c.sizes.fmriRank
	flops, bytes := sweepCounts(dims, rank)
	c.printf("# workload: tensor %v (%s), rank %d, %d sweeps per job, Threads 2; working set %s\n",
		dims, mib(8*float64(w.x.Size())), rank, c.sizes.jobSweeps, mib(8*float64(w.x.Size())+factorBytes(dims, rank)))
	c.printf("# computed per sweep: %.4f GFLOP, %.4f GB moved\n", flops/1e9, bytes/1e9)
}

// sweepCounts returns the computed flops and bytes of one ALS sweep's
// MTTKRPs, one per mode.
func sweepCounts(dims []int, rank int) (flops, bytes float64) {
	for n := range dims {
		flops += mttkrpFlops(dims, rank)
		bytes += mttkrpBytes(dims, rank, n)
	}
	return flops, bytes
}

func factorBytes(dims []int, rank int) float64 {
	s := 0
	for _, d := range dims {
		s += d * rank
	}
	return 8 * float64(s)
}

func (w *cpFMRI) reference(c *config) error {
	ref, err := cpd.ReferenceALS(w.x, w.config(c))
	w.ref = ref
	return err
}

func (w *cpFMRI) measure(c *config, d time.Duration, tr *tracer) (*window, error) {
	win := &window{unit: "sweep"}
	cfg := w.config(c)
	var ends []time.Time // sweep boundaries of the running job
	if tr != nil {
		w.bd.Reset()
		cfg.Breakdown = &w.bd
		cfg.PhaseNotify = func() { ends = append(ends, time.Now()) }
	}
	w.sweepSum, w.sweeps = 0, 0
	start := time.Now()
	for time.Since(start) < d {
		w.jobs++
		ends = ends[:0]
		id := tr.begin("cpd.ALS", 0, w.jobs)
		res, err := cpd.ALS(w.x, cfg)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		for i, it := range res.IterTimes {
			w.sweepSum += it
			if tr != nil {
				tr.add("cpd.sweep", ends[i].Add(-it), ends[i], id, w.jobs)
			}
		}
		w.sweeps += res.Iters
		fit := []float64{res.Fit}
		if c.tamper != nil {
			c.tamper(win.attempted, fit)
		}
		win.attempted += res.Iters
		if !(math.Abs(fit[0]-w.ref.Fit) <= fitTol) {
			win.failed += res.Iters
			continue
		}
		win.lat = append(win.lat, res.IterTimes...)
	}
	win.elapsed = time.Since(start)
	if tr == nil {
		w.alsP50 = median(win.lat)
	}
	c.printf("# check: %d jobs, fit vs cpd.ReferenceALS %.15f within %g\n", w.jobs, w.ref.Fit, fitTol)
	return win, nil
}

func (w *cpFMRI) layers(c *config, tr *tracer, r *result) {
	dims, rank := w.x.Dims(), c.sizes.fmriRank
	rng := rand.New(rand.NewSource(c.seed))
	u := cpd.RandomKTensor(rng, dims, rank).Factors
	minT := c.sizes.replay

	// simd: the packed 4×4 GEMM tile at kc = 256 and the Hadamard row
	// expansion at the job's rank.
	const kc, tiles = 256, 1000
	ap, bp := randSlice(rng, 4*kc), randSlice(rng, 4*kc)
	var acc [16]float64
	dt := replay(tr, "simd.Gemm4x4", minT, func() {
		acc = [16]float64{}
		for i := 0; i < tiles; i++ {
			simd.Gemm4x4(kc, ap, bp, &acc)
		}
	})
	gemm4 := tiles * 2 * 16 * kc / dt.Seconds() / 1e9
	r.set("simd.gemm4x4_gflops", gemm4)
	const expandRows, expands = 1080, 100
	row, kl, out := randSlice(rng, rank), randSlice(rng, expandRows*rank), make([]float64, expandRows*rank)
	dt = replay(tr, "simd.HadExpand", minT, func() {
		for i := 0; i < expands; i++ {
			simd.HadExpand(row, kl, out)
		}
	})
	r.set("simd.hadexpand_gflops", float64(expands*expandRows*rank)/dt.Seconds()/1e9)

	// blas: the Figure 5 "Baseline" GEMM, I_n × I_{≠n} times I_{≠n} × C,
	// for every mode.
	var gemmFlops float64
	var gemmT time.Duration
	for n := range dims {
		other := prod(dims) / dims[n]
		a, b := mat.NewColMajor(dims[n], other), mat.NewColMajor(other, rank)
		a.Randomize(rng)
		b.Randomize(rng)
		cm := mat.NewDense(dims[n], rank)
		gemmT += replay(tr, "blas.Gemm", minT, func() { blas.Gemm(2, 1, a, b, 0, cm) })
		gemmFlops += 2 * float64(dims[n]*other*rank)
	}
	gemmRate := gemmFlops / gemmT.Seconds() / 1e9
	r.set("blas.gemm_baseline_gflops", gemmRate)
	r.set("blas.gemm_over_simd", gemmRate/(2*gemm4))

	// krp: the full mode-0 Khatri-Rao product, operands [U_{N-1}, …, U_1].
	var ops []mat.View
	for k := len(dims) - 1; k >= 1; k-- {
		ops = append(ops, u[k])
	}
	full := mat.NewDense(krp.NumRows(ops), rank)
	r.set("krp.full_ms", ms(replay(tr, "krp.Parallel", minT, func() { krp.Parallel(2, ops, full) })))

	// core: every mode at t=2 and, as the single-threaded baseline, t=1.
	var t1, t2 time.Duration
	for n := range dims {
		dst := mat.NewDense(dims[n], rank)
		d2 := replay(tr, "core.ComputeInto", minT, func() {
			core.ComputeInto(dst, core.MethodAuto, w.x, u, n, core.Options{Threads: 2, Pool: w.pool})
		})
		t1 += replay(tr, "core.ComputeInto", minT, func() {
			core.ComputeInto(dst, core.MethodAuto, w.x, u, n, core.Options{Threads: 1, Pool: w.pool})
		})
		t2 += d2
		r.set(fmt.Sprintf("core.mttkrp_m%d_ms", n), ms(d2))
	}
	flops, bytes := sweepCounts(dims, rank)
	r.set("core.mttkrp_gflops", flops/t2.Seconds()/1e9)
	r.set("core.mttkrp_over_gemm", flops/t2.Seconds()/1e9/gemmRate)
	r.set("core.speedup_t2", float64(t1)/float64(t2))
	r.set("core.gflop_per_sweep", flops/1e9)
	r.set("core.gbytes_per_sweep_computed", bytes/1e9)

	// The traced window's phase split, per sweep.
	n := float64(w.sweeps)
	r.set("core.phase_gemm_ms", ms(w.bd.Get(core.PhaseGEMM))/n)
	r.set("core.phase_gemv_ms", ms(w.bd.Get(core.PhaseGEMV))/n)
	r.set("core.phase_krp_ms", ms(w.bd.Get(core.PhaseFullKRP)+w.bd.Get(core.PhaseLRKRP))/n)
	r.set("core.phase_reduce_ms", ms(w.bd.Get(core.PhaseReduce))/n)
	self := ms(w.sweepSum-w.bd.Total()) / n
	r.set("cpd.self_ms", self)
	r.set("cpd.speedup_vs_reference", float64(median(w.ref.IterTimes))/float64(w.alsP50))
	c.printf("# sweep mean %.3f ms = Breakdown total %.3f ms + cpd.self %.3f ms per sweep; replayed sum of core.mttkrp_m*_ms %.3f ms\n",
		ms(w.sweepSum)/n, ms(w.bd.Total())/n, self, ms(t2))
	c.printf("# cpd.ReferenceALS sweep p50 %.3f ms vs cpd.ALS %.3f ms\n", ms(median(w.ref.IterTimes)), ms(w.alsP50))
}

func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.Float64()
	}
	return s
}

func (w *cpFMRI) close() {
	if w.pool != nil {
		w.pool.Close()
	}
	w.pool, w.x = nil, nil
}
