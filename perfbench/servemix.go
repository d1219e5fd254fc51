package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cpd"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/serve"
	"repro/internal/tensor"
)

const (
	// inFlight is the fixed window of outstanding serve-mix requests. On a
	// 2-core host an open loop at about half load spread small-request p99
	// over 7–14 ms between runs; a fixed window keeps a queue in place
	// without that spread.
	inFlight = 8
	mixMode  = 1
)

// mixClass is one serve-mix request class.
type mixClass struct {
	name   string
	weight int
	x      tensor.Interface
	sets   [][]mat.View // MTTKRP factor sets (nil for cp)
	seeds  []int64      // cp initial-guess seeds (nil for MTTKRP)
	refs   [][]float64  // per set or seed: the MTTKRP result, or the cp fit
}

// serveMix keeps inFlight requests outstanding on an in-process
// serve.Server, drawing each from four classes with weights 16:4:1:1.
type serveMix struct {
	classes []*mixClass
	total   int // sum of weights
	srv     *serve.Server
	rng     *rand.Rand

	before, after serve.Stats                // scheduler counters around the last window
	class         map[string][]time.Duration // per-class latencies of the last window
}

func (w *serveMix) setup(c *config) (time.Duration, error) {
	w.close()
	s := c.sizes
	start := time.Now()
	rng := rand.New(rand.NewSource(c.seed))
	sets := func(dims []int) [][]mat.View {
		out := make([][]mat.View, s.mixSets)
		for i := range out {
			out[i] = randFactors(rng, dims, s.mixRank)
		}
		return out
	}
	seeds := make([]int64, s.mixSets)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	w.classes = []*mixClass{
		{name: "small", weight: 16, x: tensor.Random(rng, s.small...), sets: sets(s.small)},
		{name: "sparse", weight: 4, x: tensor.RandomSparse(rng, s.density, s.sparse...), sets: sets(s.sparse)},
		{name: "large", weight: 1, x: tensor.Random(rng, s.large...), sets: sets(s.large)},
		{name: "cp", weight: 1, x: tensor.Random(rng, s.cp...), seeds: seeds},
	}
	w.total = 0
	for _, cl := range w.classes {
		w.total += cl.weight
	}
	gen := time.Since(start)

	w.srv = serve.New(serve.Config{Workers: 2})
	w.rng = rand.New(rand.NewSource(c.seed + 1))
	// Warm-up: every factor set and cp seed of every class once, unchecked
	// because the references do not exist yet.
	var warm [][2]int
	for i, cl := range w.classes {
		for k := 0; k < max(len(cl.sets), len(cl.seeds)); k++ {
			warm = append(warm, [2]int{i, k})
		}
	}
	_, err := w.run(c, nil, false, func() (*mixClass, int, bool) {
		if len(warm) == 0 {
			return nil, 0, false
		}
		i, k := warm[0][0], warm[0][1]
		warm = warm[1:]
		return w.classes[i], k, true
	})
	return gen, err
}

func (w *serveMix) facts(c *config) {
	s := c.sizes
	var ws, flops, bytes float64
	for _, cl := range w.classes {
		dims := cl.x.Dims()
		size := float64(prod(dims))
		f, b := mttkrpFlops(dims, s.mixRank), mttkrpBytes(dims, s.mixRank, mixMode)
		if sp, ok := cl.x.(*tensor.Sparse); ok {
			size = 1.5 * float64(sp.NNZ()) // value plus three int32 coordinates
			f = 2 * float64(sp.NNZ()) * float64(s.mixRank) * float64(len(dims)-1)
			b = 8*size + b - 8*float64(prod(dims))
		}
		if cl.name == "cp" {
			f, b = sweepCounts(dims, s.cpRank)
			f, b = f*float64(s.cpSweeps), b*float64(s.cpSweeps)
		}
		ws += 8*size + factorBytes(dims, s.mixRank)
		p := float64(cl.weight) / float64(w.total)
		flops += p * f
		bytes += p * b
		c.printf("# class %-6s weight %2d: %T %v\n", cl.name, cl.weight, cl.x, dims)
	}
	c.printf("# workload: %d requests in flight, 2 workers, rank %d (cp rank %d, %d sweeps); working set %s\n",
		inFlight, s.mixRank, s.cpRank, s.cpSweeps, mib(ws))
	c.printf("# computed per request (mix mean): %.4f GFLOP, %.4f GB moved\n", flops/1e9, bytes/1e9)
}

func (w *serveMix) reference(c *config) error {
	pool := parallel.NewPool(2)
	defer pool.Close()
	for _, cl := range w.classes {
		cl.refs = nil
		for _, u := range cl.sets {
			var x *tensor.Dense
			switch t := cl.x.(type) {
			case *tensor.Dense:
				x = t
			case *tensor.Sparse:
				x = t.Densify()
			}
			cl.refs = append(cl.refs, flat(core.Naive(x, u, mixMode)))
		}
		for _, seed := range cl.seeds {
			res, err := cpd.ALS(cl.x.(*tensor.Dense), w.cpConfig(c, seed, pool))
			if err != nil {
				return err
			}
			cl.refs = append(cl.refs, []float64{res.Fit})
		}
	}
	return nil
}

func (w *serveMix) cpConfig(c *config, seed int64, pool parallel.Executor) cpd.Config {
	return cpd.Config{Rank: c.sizes.cpRank, MaxIters: c.sizes.cpSweeps, Tol: -1, Seed: seed, Pool: pool, Threads: 2}
}

func (w *serveMix) measure(c *config, d time.Duration, tr *tracer) (*window, error) {
	w.before = w.srv.Stats()
	start := time.Now()
	win, err := w.run(c, tr, true, func() (*mixClass, int, bool) {
		if time.Since(start) >= d {
			return nil, 0, false
		}
		cl := w.draw()
		return cl, w.rng.Intn(max(len(cl.sets), len(cl.seeds))), true
	})
	w.after = w.srv.Stats()
	if win != nil {
		w.class = win.class
	}
	c.printf("# check: every MTTKRP vs core.Naive within relative %g, every cp fit vs cpd.ALS within %g\n", resultTol, fitTol)
	return win, err
}

// run keeps inFlight requests outstanding, submitting what next returns
// until it reports none, and with check set compares every result with
// its reference. An error fails the request; with check unset (the
// warm-up) it fails the run.
func (w *serveMix) run(c *config, tr *tracer, check bool, next func() (cl *mixClass, k int, ok bool)) (*window, error) {
	win := &window{unit: "request", class: map[string][]time.Duration{}}
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		errs []error
	)
	slots := make(chan struct{}, inFlight)
	start := time.Now()
	for n := int64(1); ; n++ {
		slots <- struct{}{}
		cl, k, ok := next()
		if !ok {
			<-slots
			break
		}
		id := tr.begin("serve.Server.Submit."+cl.name, 0, n)
		t0 := time.Now()
		var tk *serve.Ticket
		if cl.seeds != nil {
			cfg := w.cpConfig(c, cl.seeds[k], nil)
			if tr != nil {
				cfg.PhaseNotify = func() { now := time.Now(); tr.add("cpd.PhaseNotify", now, now, id, n) }
			}
			tk = w.srv.SubmitCP(serve.CPRequest{X: cl.x, Config: cfg})
		} else {
			tk = w.srv.SubmitMTTKRP(serve.MTTKRPRequest{X: cl.x, Factors: cl.sets[k], Mode: mixMode})
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-tk.Done()
			lat := time.Since(t0)
			tr.end(id)
			got, err := ticketValues(tk, cl.seeds != nil)
			if err == nil && check && c.tamper != nil {
				c.tamper(int(n), got)
			}
			tol := resultTol
			if cl.seeds != nil {
				tol = fitTol
			}
			ok := err == nil && (!check || relErr(got, cl.refs[k]) <= tol)
			mu.Lock()
			win.attempted++
			if ok {
				win.lat = append(win.lat, lat)
				win.class[cl.name] = append(win.class[cl.name], lat)
			} else {
				win.failed++
				if err != nil && len(errs) < 3 {
					errs = append(errs, err)
				}
			}
			mu.Unlock()
			<-slots
		}()
	}
	wg.Wait()
	win.elapsed = time.Since(start)
	if !check && len(errs) > 0 {
		return nil, fmt.Errorf("warm-up: %v", errs)
	}
	for _, err := range errs {
		c.printf("# error: %v\n", err)
	}
	return win, nil
}

// ticketValues returns a completed request's result as numbers to check:
// the MTTKRP matrix, or the CP fit.
func ticketValues(tk *serve.Ticket, cp bool) ([]float64, error) {
	if cp {
		res, err := tk.CP()
		if err != nil {
			return nil, err
		}
		return []float64{res.Fit}, nil
	}
	m, err := tk.MTTKRP()
	if err != nil {
		return nil, err
	}
	return flat(m), nil
}

// draw picks a class with probability weight ÷ total.
func (w *serveMix) draw() *mixClass {
	r := w.rng.Intn(w.total)
	for _, cl := range w.classes {
		if r < cl.weight {
			return cl
		}
		r -= cl.weight
	}
	panic("perfbench: class weights do not sum to total")
}

func (w *serveMix) layers(c *config, tr *tracer, r *result) {
	b, a := w.before, w.after
	batches := float64(max(a.Batches-b.Batches, 1))
	r.set("serve.batch_size_mean", float64(a.Completed-b.Completed)/batches)
	r.set("serve.coalesced_ratio", float64(a.Coalesced-b.Coalesced)/float64(max(a.Submitted-b.Submitted, 1)))
	r.set("serve.fused_ratio", float64(a.Fused-b.Fused)/batches)
	r.set("serve.plan_cache_hit_ratio", float64(a.PlanCacheHits-b.PlanCacheHits)/batches)
	r.set("serve.reordered_ratio", float64(a.Reordered-b.Reordered)/batches)
	// High-water marks cannot be differenced; they cover the warm-up too,
	// which runs the same mix.
	r.set("serve.max_queue_wait_ms", a.MaxQueueWaitMs)
	r.set("serve.peak_queued", float64(a.PeakQueued))
	r.set("serve.large_p50_ms", ms(median(w.class["large"])))
	r.set("serve.sparse_p50_ms", ms(median(w.class["sparse"])))
	r.set("serve.cp_job_p50_ms", ms(median(w.class["cp"])))

	minT := c.sizes.replay
	pool := parallel.NewPool(2)
	defer pool.Close()
	r.set("parallel.region_us", regionUS(tr, pool, minT))
	for _, cl := range w.classes {
		switch cl.name {
		case "sparse", "large":
			u := cl.sets[0]
			dst := mat.NewDense(cl.x.Dim(mixMode), c.sizes.mixRank)
			req := core.Request{X: cl.x, Factors: u, Mode: mixMode, Dst: dst, Opts: core.Options{Threads: 2, Pool: pool}}
			r.set("core."+cl.name+"_ms", ms(replay(tr, "core.Run", minT, func() { core.Run(req) })))
		}
	}
}

func (w *serveMix) close() {
	if w.srv != nil {
		w.srv.Drain()
		w.srv.Close()
	}
	w.srv = nil
}
