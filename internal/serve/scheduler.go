package serve

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cpd"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Config sizes a Server.
type Config struct {
	// Workers is the total team width of the server's pool (caller slots
	// included); 0 selects GOMAXPROCS.
	Workers int
	// MinWorkers is the admission policy's per-request floor; requests
	// never run narrower than this budget. Default 1.
	MinWorkers int
	// MaxActive caps concurrently executing requests (batches); further
	// requests queue. 0 selects Workers / MinWorkers — the widest
	// concurrency at which every active request can still hold its floor.
	MaxActive int
	// DisableBatching turns off same-shape MTTKRP coalescing; every
	// request becomes its own batch.
	DisableBatching bool
	// MaxBatch caps the requests one batch may coalesce; a full batch
	// stops accepting joiners and the next same-key arrival opens a
	// fresh one. The cap is what keeps the aging queue's starvation
	// bound real: a batch's score divides by its total service estimate
	// (cost × members), so an uncapped batch fed by a steady joiner
	// stream would plateau instead of aging upward, starving its
	// earliest members behind fresh traffic. With the cap, a queued
	// batch waits at most ~MaxBatch · costRatio · AgeBias behind
	// continuous arrivals. It also bounds the batch's non-preemptible
	// back-to-back service time on one lease. 0 selects 32.
	MaxBatch int
	// Cost selects the request cost model for cost-aware admission; the
	// zero value is the default model (see CostModel).
	Cost CostModel
	// MaxShare caps one request's share of the pool width under
	// cost-aware admission (0 < MaxShare ≤ 1; 0 selects 1, i.e. no cap
	// below the full width). The cap applies unconditionally — a lone
	// request on an idle server is capped too — so a MaxShare below 1
	// deliberately reserves warm headroom for the next arrival at the
	// price of single-tenant throughput.
	MaxShare float64
	// AgeBias is the virtual head start every queued request gets in the
	// aging score score = weight · (age + AgeBias) / cost. Smaller values
	// favor shortest-job-first more aggressively (small requests overtake
	// a convoy of large ones immediately); larger values approach FIFO. A
	// request costing k× more than the smallest waits at most ~k·AgeBias
	// behind a continuous stream of small arrivals before its age wins.
	// 0 selects 1ms.
	AgeBias time.Duration
	// EvenSplit reverts admission to the historical policy — FIFO queue
	// order and worker budgets of width ÷ active regardless of request
	// cost. It exists as the measured baseline for the cost-aware policy
	// (mttkrp-bench -serve -mix tabulates both).
	EvenSplit bool
}

// Stats is a snapshot of scheduler counters.
type Stats struct {
	// Submitted counts accepted requests; Completed counts finished ones
	// (Failed of those completed with an error).
	Submitted, Completed, Failed int
	// Batches counts executed batches; Coalesced counts requests that
	// joined an existing same-shape batch instead of opening their own.
	Batches, Coalesced int
	// Fused and PlanCacheHits are always 0: batch-level KRP fusion was
	// removed. They stay only until the benchmark's serve.fused_ratio and
	// serve.plan_cache_hit_ratio metrics, which read them, are dropped.
	Fused, PlanCacheHits int
	// Active and Queued describe the instant of the snapshot; PeakActive
	// and PeakQueued are the high-water marks of concurrently executing
	// batches and of the admission queue depth.
	Active, Queued, PeakActive, PeakQueued int
	// Reordered counts admissions where the aging policy let a request
	// overtake an older queued one (non-FIFO admissions); it stays 0
	// under EvenSplit.
	Reordered int
	// OldestQueuedMs is the age of the oldest request still waiting for
	// admission at the snapshot (0 when the queue is empty).
	OldestQueuedMs float64
	// MaxQueueWaitMs is the longest admission wait any batch has
	// experienced so far — the tail-latency fingerprint of the policy.
	MaxQueueWaitMs float64
	// Requests details the currently active and queued batches: granted
	// worker budget (0 while queued), model cost, and queue age.
	Requests []RequestStat
}

// RequestStat describes one active or queued batch in a Stats snapshot.
type RequestStat struct {
	// Kind is "mttkrp", "cp" or "func"; Key is the batching shape key
	// ("" for uncoalesced kinds); Items is the number of coalesced
	// requests riding the batch.
	Kind  string
	Key   string
	Items int
	// Cost is the per-request admission cost (model estimate or hint).
	Cost float64
	// Budget is the granted worker budget; 0 means still queued.
	Budget int
	// QueuedMs is the time the batch has spent (or spent, if active)
	// waiting for admission.
	QueuedMs float64
}

// Server is the serving runtime: an admission-controlled scheduler plus a
// same-shape batcher over one exclusively-owned worker pool. Create with
// New, submit with SubmitMTTKRP/SubmitCP, and Close when done.
//
// Admission is cost-aware: each request's worker budget is the pool width
// weighted by its share of the active requests' total cost (floored at
// MinWorkers, capped at MaxShare of the width), and the admission queue is
// ordered by an aging score rather than FIFO, so small requests are not
// convoyed behind large ones and large ones cannot starve. Budgets are
// retargeted on every admit and finish, and running requests apply the
// change at their next kernel phase boundary (between ALS sweeps, between
// MTTKRP mode computations) via parallel.Lease.Reconcile.
type Server struct {
	pool       *parallel.Pool
	width      int // pool team width the admission policy divides
	minWorkers int
	maxActive  int
	maxBatch   int
	batching   bool
	evenSplit  bool
	cost       CostModel
	shareCap   int           // precomputed MaxShare · width, clamped to [minWorkers, width]
	ageBias    time.Duration // aging head start (resolved, > 0)

	mu       sync.Mutex
	open     map[string]*batch // same-shape batches still accepting joiners
	queue    []*batch          // admission queue (aging-scored; FIFO under EvenSplit)
	active   map[*batch]*grant
	rate     float64 // EMA of served cost per second per request (ProjectedWait)
	stats    Stats
	draining bool
	closed   bool
	drained  chan struct{}  // closed once draining and no queued/active work remains
	wg       sync.WaitGroup // running batch executors
}

// batch is one unit of admission: one or more requests that execute
// back-to-back on a single lease. Same-shape MTTKRP requests share a batch
// (and through its shape key, a workspace set); CP requests and unbatched
// servers get singleton batches.
type batch struct {
	key      string // shape key; "" never coalesces
	kind     string // "mttkrp", "cp" or "func"
	items    []*item
	cost     float64   // per-item admission cost (max over joined items)
	weight   float64   // aging priority weight (max over joined items)
	enqueued time.Time // when the batch entered the admission queue
}

// totalCost is the batch's full service estimate: every coalesced item
// runs back-to-back on the lease.
func (b *batch) totalCost() float64 { return b.cost * float64(len(b.items)) }

// grant is one active batch's execution state: its lease and the budget
// the policy most recently assigned it.
type grant struct {
	lease   *parallel.Lease
	budget  int
	started time.Time
}

// item is one submitted request plus its completion ticket.
type item struct {
	mt *MTTKRPRequest
	cp *CPRequest
	fn func(parallel.Executor) // test/instrumentation hook requests
	tk *Ticket
}

// New creates a serving runtime with its own worker pool.
func New(cfg Config) *Server {
	width := parallel.Effective(cfg.Workers)
	minW := cfg.MinWorkers
	if minW < 1 {
		minW = 1
	}
	if minW > width {
		minW = width
	}
	maxActive := cfg.MaxActive
	if maxActive <= 0 {
		maxActive = width / minW
	}
	if maxActive < 1 {
		maxActive = 1
	}
	share := cfg.MaxShare
	if share <= 0 || share > 1 {
		share = 1
	}
	shareCap := int(share*float64(width) + 0.5)
	if shareCap < minW {
		shareCap = minW
	}
	if shareCap > width {
		shareCap = width
	}
	ageBias := cfg.AgeBias
	if ageBias <= 0 {
		ageBias = time.Millisecond
	}
	maxBatch := cfg.MaxBatch
	if maxBatch <= 0 {
		maxBatch = 32
	}
	return &Server{
		pool:       parallel.NewPool(width),
		width:      width,
		minWorkers: minW,
		maxActive:  maxActive,
		maxBatch:   maxBatch,
		batching:   !cfg.DisableBatching,
		evenSplit:  cfg.EvenSplit,
		cost:       cfg.Cost,
		shareCap:   shareCap,
		ageBias:    ageBias,
		open:       make(map[string]*batch),
		active:     make(map[*batch]*grant),
		drained:    make(chan struct{}),
	}
}

// Workers returns the server pool's team width.
func (s *Server) Workers() int { return s.width }

// Model returns the server's request cost model, so front ends (the HTTP
// transport) can price a request from its header before admitting it.
func (s *Server) Model() CostModel { return s.cost }

// Stats returns a snapshot of the scheduler counters, including the
// per-request grant table (active budgets and queue ages).
func (s *Server) Stats() Stats {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Active = len(s.active)
	st.Queued = len(s.queue)
	st.Requests = make([]RequestStat, 0, len(s.active)+len(s.queue))
	for b, g := range s.active {
		st.Requests = append(st.Requests, RequestStat{
			Kind: b.kind, Key: b.key, Items: len(b.items), Cost: b.cost,
			Budget:   g.budget,
			QueuedMs: msBetween(b.enqueued, g.started),
		})
	}
	for _, b := range s.queue {
		age := msBetween(b.enqueued, now)
		st.Requests = append(st.Requests, RequestStat{
			Kind: b.kind, Key: b.key, Items: len(b.items), Cost: b.cost,
			QueuedMs: age,
		})
		if age > st.OldestQueuedMs {
			st.OldestQueuedMs = age
		}
	}
	return st
}

func msBetween(from, to time.Time) float64 {
	return float64(to.Sub(from).Microseconds()) / 1e3
}

// SubmitMTTKRP admits an MTTKRP request and returns its ticket
// immediately; the computation runs when the scheduler grants a lease.
// Same-shape requests submitted while a batch for that shape is still
// waiting for admission coalesce onto it.
func (s *Server) SubmitMTTKRP(req MTTKRPRequest) *Ticket {
	if err := validateMTTKRP(req); err != nil {
		return failedTicket(err)
	}
	it := &item{mt: &req, tk: newTicket()}
	cost := costOf(req.CostHint, s.cost.MTTKRPFor(req.X, req.Factors[0].C))
	s.enqueue(shapeKey(req), "mttkrp", it, cost, weightOf(req.Weight))
	return it.tk
}

// SubmitCP admits a CP-ALS request. CP runs are never coalesced — each is
// its own unit of admission — but they share the worker pool and are
// budgeted by the same policy.
func (s *Server) SubmitCP(req CPRequest) *Ticket {
	if req.X == nil {
		return failedTicket(fmt.Errorf("serve: nil tensor"))
	}
	it := &item{cp: &req, tk: newTicket()}
	// Each sweep costs cpPasses tensor passes, each priced by layout
	// (MTTKRPFor): a sparse decomposition costs its nnz, a dense one
	// exactly CostModel.CP.
	_, dense := req.X.(*tensor.Dense)
	perMTTKRP := s.cost.MTTKRPFor(req.X, req.Config.Rank)
	passes := cpPasses(len(req.X.Dims()), dense, req.Config.Method)
	cost := costOf(req.CostHint, cpCost(perMTTKRP, passes, req.Config.MaxIters))
	s.enqueue("", "cp", it, cost, weightOf(req.Weight))
	return it.tk
}

// submitFunc admits an arbitrary function under a shape key, cost and
// aging weight (0 selects defaults). Tests use it to occupy the scheduler
// deterministically.
func (s *Server) submitFunc(key string, cost, weight float64, fn func(parallel.Executor)) *Ticket {
	it := &item{fn: fn, tk: newTicket()}
	s.enqueue(key, "func", it, costOf(0, cost), weightOf(weight))
	return it.tk
}

// enqueue joins an open same-shape batch or opens a new one, then kicks
// the scheduler. A batch accepts joiners only while it is in s.open,
// which it leaves — under this same mutex — the moment scheduleLocked
// pops it for execution, so a join after the batch has been granted a
// lease is impossible: the executor goroutine is spawned while the lock
// is still held, after which no path can append to b.items.
func (s *Server) enqueue(key, kind string, it *item, cost, weight float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.closed {
		it.tk.fail(ErrDraining)
		return
	}
	s.stats.Submitted++
	if key != "" && s.batching {
		if b, ok := s.open[key]; ok {
			b.items = append(b.items, it)
			// The batch ages as fast as its most urgent joiner and is
			// priced at its most expensive one: same-shape items share a
			// model cost by construction, but explicit CostHints may
			// differ, and under-pricing the batch would let a cheap first
			// item smuggle an expensive joiner past the aging queue. The
			// join also re-raises the batch's total service estimate —
			// totalCost scales with len(items) — which the aging score,
			// the budget split and ProjectedWait all price, so a batch
			// bloated by joiners cannot keep jumping the queue as if it
			// were a single request.
			if weight > b.weight {
				b.weight = weight
			}
			if cost > b.cost {
				b.cost = cost
			}
			s.stats.Coalesced++
			if len(b.items) >= s.maxBatch {
				// Full: close the join window so the batch's aging score
				// resumes growing (see Config.MaxBatch) and its lease-time
				// stays bounded; the next arrival opens a fresh batch.
				delete(s.open, key)
			}
			return
		}
	}
	b := &batch{key: key, kind: kind, items: []*item{it}, cost: cost, weight: weight, enqueued: time.Now()}
	if key != "" && s.batching && s.maxBatch > 1 {
		// A fresh batch already holds one item, so it only opens a join
		// window when the cap leaves room for a second.
		s.open[key] = b
	}
	s.queue = append(s.queue, b)
	if len(s.queue) > s.stats.PeakQueued {
		s.stats.PeakQueued = len(s.queue)
	}
	s.scheduleLocked()
}

// evenBudgetLocked is the historical admission policy: the pool's width
// divided evenly across `active` concurrent requests, floored at
// MinWorkers and capped at the full width.
func (s *Server) evenBudgetLocked(active int) int {
	if active < 1 {
		active = 1
	}
	b := s.width / active
	if b < s.minWorkers {
		b = s.minWorkers
	}
	if b > s.width {
		b = s.width
	}
	return b
}

// ageScore is the aging priority of a queued batch: cost-weighted deficit
// that grows with wait time. Small requests score high immediately
// (shortest-job-first), and a large request's age eventually dominates
// fresh small arrivals. The denominator is the batch's full service
// estimate — per-item cost × items — so every join re-prices the batch: a
// batch that has coalesced k requests is k× the work of a lone one and
// must not outscore it as if it were still a single small request.
// Because a join grows the denominator, the starvation bound is paid per
// member: a queued batch waits at most ~members · costRatio · AgeBias —
// capped at MaxBatch · costRatio · AgeBias, since a full batch stops
// accepting joiners and its score resumes growing with age alone.
func (s *Server) ageScore(b *batch, now time.Time) float64 {
	age := now.Sub(b.enqueued) + s.ageBias
	return b.weight * age.Seconds() / b.totalCost()
}

// pickLocked removes and returns the next batch to admit: the oldest under
// EvenSplit (FIFO), the highest aging score otherwise. Callers hold s.mu
// and guarantee the queue is non-empty.
func (s *Server) pickLocked(now time.Time) *batch {
	best := 0
	if !s.evenSplit {
		bestScore := s.ageScore(s.queue[0], now)
		for i := 1; i < len(s.queue); i++ {
			if score := s.ageScore(s.queue[i], now); score > bestScore {
				best, bestScore = i, score
			}
		}
	}
	b := s.queue[best]
	if best > 0 {
		s.stats.Reordered++ // an older batch stays queued behind this one
	}
	copy(s.queue[best:], s.queue[best+1:])
	s.queue[len(s.queue)-1] = nil
	s.queue = s.queue[:len(s.queue)-1]
	return b
}

// scheduleLocked admits queued batches while capacity remains: each gets a
// lease, and every active lease is retargeted to the policy's budget (the
// change lands at each lease's next phase boundary). Callers hold s.mu.
func (s *Server) scheduleLocked() {
	for len(s.queue) > 0 && len(s.active) < s.maxActive {
		now := time.Now()
		b := s.pickLocked(now)
		if b.key != "" && s.open[b.key] == b {
			// The batch stops accepting joiners the moment it is granted
			// a lease; later same-shape arrivals open the next batch. The
			// identity guard matters after a MaxBatch cap-close: the key
			// may already name a NEWER open batch whose join window must
			// survive this admission.
			delete(s.open, b.key)
		}
		if wait := msBetween(b.enqueued, now); wait > s.stats.MaxQueueWaitMs {
			s.stats.MaxQueueWaitMs = wait
		}
		// Open the lease at the floor; rebalanceLocked immediately widens
		// it to the policy budget (the lease is still idle, so the resize
		// applies before the first dispatch).
		g := &grant{lease: s.pool.Lease(s.minWorkers), started: now}
		s.active[b] = g
		s.stats.Batches++
		if len(s.active) > s.stats.PeakActive {
			s.stats.PeakActive = len(s.active)
		}
		s.rebalanceLocked()
		s.wg.Add(1)
		go s.run(b, g)
	}
}

// rebalanceLocked retargets every active lease to the admission policy's
// budget: an even width ÷ active split under EvenSplit, otherwise each
// request's cost share of the width, floored at MinWorkers and capped at
// MaxShare. Width changes apply at each lease's next phase/region
// boundary; workers freed by a shrinking lease are picked up by growing
// ones on their next reconcile. Callers hold s.mu.
func (s *Server) rebalanceLocked() {
	if s.evenSplit {
		budget := s.evenBudgetLocked(len(s.active))
		for _, g := range s.active {
			g.budget = budget
			g.lease.Resize(budget)
		}
		return
	}
	total := 0.0
	for b := range s.active {
		total += b.totalCost()
	}
	for b, g := range s.active {
		// Budgets weight by the batch's full service estimate: a batch
		// running k coalesced members back-to-back is k× the work of a
		// singleton and earns the proportional share.
		w := int(float64(s.width)*b.totalCost()/total + 0.5)
		if w < s.minWorkers {
			w = s.minWorkers
		}
		if w > s.shareCap {
			w = s.shareCap
		}
		g.budget = w
		g.lease.Resize(w)
	}
}

// ProjectedWait estimates how long a request of the given cost would wait
// for admission if submitted now: the backlog it cannot overtake (queued
// batches of no greater cost, which outscore it under aging, plus an
// assumed-half-done remainder of the active batches when every slot is
// busy) divided by the scheduler's recent service rate. The estimate is
// deliberately coarse — its consumer is the transport's 429-versus-queue
// decision, which only needs the right order of magnitude. With no
// completed work yet (rate unknown) it reports 0: admit optimistically.
func (s *Server) ProjectedWait(cost float64) time.Duration {
	if cost <= 0 {
		cost = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rate <= 0 {
		return 0
	}
	ahead := 0.0
	for _, b := range s.queue {
		// Aging scores by total service estimate, so a batch can only be
		// overtaken by the new request when its full backlog — per-item
		// cost × coalesced items — exceeds the request's cost.
		if s.evenSplit || b.totalCost() <= cost {
			ahead += b.totalCost()
		}
	}
	if len(s.active) >= s.maxActive {
		for b := range s.active {
			ahead += 0.5 * b.totalCost()
		}
	}
	if ahead == 0 {
		return 0
	}
	slots := len(s.active)
	if slots < 1 {
		slots = 1
	}
	if slots > s.maxActive {
		slots = s.maxActive
	}
	return time.Duration(ahead / (s.rate * float64(slots)) * float64(time.Second))
}

// run executes one batch on its lease, member by member, then returns
// the lease and admits more work. Each member is counted in Stats before
// its ticket resolves, so a caller that has seen every ticket finish reads
// Completed == Submitted.
func (s *Server) run(b *batch, g *grant) {
	defer s.wg.Done()
	lease := g.lease
	if b.key != "" {
		lease.SetWorkspaceKey("serve:" + b.key)
	}
	for _, it := range b.items {
		it.execute(lease)
		s.mu.Lock()
		s.stats.Completed++
		if it.tk.err != nil {
			s.stats.Failed++
		}
		s.mu.Unlock()
		close(it.tk.done)
	}
	dur := time.Since(g.started)
	lease.Close()
	s.mu.Lock()
	delete(s.active, b)
	s.observeRateLocked(b.totalCost(), dur)
	s.rebalanceLocked()
	s.scheduleLocked()
	s.maybeDrainedLocked()
	s.mu.Unlock()
}

// observeRateLocked folds one completed batch into the served-cost-rate
// EMA that ProjectedWait divides by. Callers hold s.mu.
func (s *Server) observeRateLocked(cost float64, dur time.Duration) {
	sec := dur.Seconds()
	if sec <= 0 || cost <= 0 {
		return
	}
	r := cost / sec
	if s.rate == 0 {
		s.rate = r
		return
	}
	s.rate = 0.25*r + 0.75*s.rate
}

// maybeDrainedLocked signals Drain waiters once admission has stopped and
// the last admitted batch has finished. Callers hold s.mu.
func (s *Server) maybeDrainedLocked() {
	if !s.draining || len(s.queue) != 0 || len(s.active) != 0 {
		return
	}
	select {
	case <-s.drained:
	default:
		close(s.drained)
	}
}

// Drain stops admission and waits for every already-accepted request —
// running or still queued — to complete. Submissions during and after the
// drain fail with ErrDraining. Drain is idempotent and safe to call
// concurrently; Close after Drain releases the pool without failing
// anything.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.maybeDrainedLocked()
	s.mu.Unlock()
	<-s.drained
	s.wg.Wait()
}

// execute runs one request on the granted executor, recovering kernel
// panics (shape mismatches and the like) into the ticket's error; the
// caller resolves the ticket. Kernel phase boundaries reconcile the
// executor, so a budget change issued by the scheduler mid-request lands
// at the next safe point.
func (it *item) execute(ex parallel.Executor) {
	tk := it.tk
	defer func() {
		if r := recover(); r != nil {
			tk.err = fmt.Errorf("serve: request failed: %v", r)
		}
	}()
	switch {
	case it.mt != nil:
		// Threads = 0 resolves to the lease's granted budget; PhaseNotify
		// applies pending budget changes at each computation boundary,
		// including between batch members. Run dispatches on the tensor's
		// layout.
		cr := it.mt.Core()
		cr.Opts = core.Options{
			Pool:        ex,
			PhaseNotify: func() { parallel.Reconcile(ex) },
		}
		if xd, isDense := cr.X.(*tensor.Dense); isDense && xd.Mapped() {
			// A file-backed tensor streams through bounded row tiles so
			// its resident working set stays within the tile budget
			// regardless of the file's extent (bit-identical to the
			// untiled kernel; see core's tiled drivers).
			cr.Opts.TileRows = core.AutoTileRows(xd.Dims(), cr.Mode, 0)
		}
		tk.m = core.Run(cr)
	case it.cp != nil:
		cfg := it.cp.Config
		cfg.Pool = ex
		cfg.Threads = 0
		// cpd reconciles the lease between sweeps (and between modes)
		// itself; no extra wiring needed here. ALSAny dispatches on the
		// tensor's layout.
		tk.cp, tk.err = cpd.ALSAny(it.cp.X, cfg)
	default:
		it.fn(ex)
	}
}

// Close fails all queued requests, waits for running batches to finish,
// and releases the worker pool. Submissions after Close fail with
// ErrDraining. Close is idempotent. For a graceful stop that completes
// queued work instead of failing it, call Drain first.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.draining = true
	pending := s.queue
	s.queue = nil
	clear(s.open)
	s.maybeDrainedLocked()
	for _, b := range pending {
		// Queued requests complete (with ErrClosed) like any others, so
		// Submitted == Completed still holds after a drain-and-close.
		s.stats.Completed += len(b.items)
		s.stats.Failed += len(b.items)
	}
	s.mu.Unlock()
	for _, b := range pending {
		for _, it := range b.items {
			it.tk.fail(ErrClosed)
		}
	}
	s.wg.Wait()
	s.pool.Close()
}

// shapeKey is the batching signature of an MTTKRP request: tensor shape,
// rank, mode, method and layout. Two requests with equal keys run
// correctly on one warmed workspace set; sparse requests additionally key
// on nnz, since the sparse kernel's scratch sizing (entry-range bounds,
// per-worker accumulators) tracks the stored-entry count, and a dense and
// a sparse request of the same shape must never share a workspace.
func shapeKey(r MTTKRPRequest) string {
	key := make([]byte, 0, 48)
	for i := 0; i < r.X.Order(); i++ {
		key = fmt.Appendf(key, "%dx", r.X.Dim(i))
	}
	key = fmt.Appendf(key, "|c%d|n%d|m%d", r.Factors[0].C, r.Mode, int(r.Method))
	if r.X.Layout() == tensor.LayoutCOO {
		key = fmt.Appendf(key, "|coo%d", r.X.NNZ())
	}
	return string(key)
}
