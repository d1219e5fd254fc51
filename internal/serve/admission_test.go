package serve

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cpd"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// TestAdmissionCostWeightedBudgets pins the cost-share budget policy: two
// active requests with a 3:1 cost ratio on an 8-wide pool hold budgets of
// 6 and 2 — not the even 4/4 split.
func TestAdmissionCostWeightedBudgets(t *testing.T) {
	s := New(Config{Workers: 8, MaxActive: 2})
	defer s.Close()

	var entered sync.WaitGroup
	entered.Add(2)
	measure := make(chan struct{})
	release := make(chan struct{})
	type obs struct {
		name  string
		width int
	}
	widths := make(chan obs, 2)
	submit := func(name string, cost float64) {
		s.submitFunc("", cost, 0, func(ex parallel.Executor) {
			entered.Done()
			<-measure
			// Kernel-entry resolution: reconciles the budget first.
			widths <- obs{name, ex.Effective(0)}
			<-release
		})
	}
	submit("big", 3)
	submit("small", 1)
	entered.Wait()
	close(measure)
	got := map[string]int{}
	for i := 0; i < 2; i++ {
		o := <-widths
		got[o.name] = o.width
	}
	close(release)
	if got["big"] != 6 || got["small"] != 2 {
		t.Fatalf("budgets big=%d small=%d, want 6 and 2 (cost share of 8 workers at 3:1)", got["big"], got["small"])
	}
}

// TestAdmissionMaxShareAndFloor pins the cap and floor of the cost-aware
// policy: MaxShare bounds even a lone huge request, and MinWorkers keeps a
// tiny request from being starved to zero width by a dominant peer.
func TestAdmissionMaxShareAndFloor(t *testing.T) {
	// A lone request is capped at MaxShare of the width.
	s := New(Config{Workers: 8, MaxShare: 0.5})
	solo := make(chan int, 1)
	s.submitFunc("", 1e9, 0, func(ex parallel.Executor) { solo <- ex.Effective(0) }).Err()
	if w := <-solo; w != 4 {
		t.Fatalf("lone request granted %d workers under MaxShare 0.5 of 8, want 4", w)
	}
	s.Close()

	// A 100:1 cost ratio still leaves the small request its floor.
	s = New(Config{Workers: 8, MinWorkers: 2, MaxShare: 0.75, MaxActive: 2})
	defer s.Close()
	var entered sync.WaitGroup
	entered.Add(2)
	measure := make(chan struct{})
	release := make(chan struct{})
	widths := make(chan [2]int, 2)
	submit := func(idx int, cost float64) {
		s.submitFunc("", cost, 0, func(ex parallel.Executor) {
			entered.Done()
			<-measure
			widths <- [2]int{idx, ex.Effective(0)}
			<-release
		})
	}
	submit(0, 100)
	submit(1, 1)
	entered.Wait()
	close(measure)
	got := map[int]int{}
	for i := 0; i < 2; i++ {
		w := <-widths
		got[w[0]] = w[1]
	}
	close(release)
	if got[0] != 6 {
		t.Fatalf("dominant request granted %d, want 6 (MaxShare 0.75 of 8)", got[0])
	}
	if got[1] != 2 {
		t.Fatalf("tiny request granted %d, want the MinWorkers floor 2", got[1])
	}
}

// TestAdmissionAgingPreventsConvoy pins the anti-convoy property: a small
// request that arrives behind an already-queued large one overtakes it at
// the next admission slot, and the reorder is counted.
func TestAdmissionAgingPreventsConvoy(t *testing.T) {
	s := New(Config{Workers: 2, MaxActive: 1})
	defer s.Close()

	release := make(chan struct{})
	started := make(chan struct{})
	blocker := s.submitFunc("", 0, 0, func(parallel.Executor) {
		close(started)
		<-release
	})
	<-started

	order := make(chan string, 2)
	s.submitFunc("", 1e9, 0, func(parallel.Executor) { order <- "large" })
	small := s.submitFunc("", 1, 0, func(parallel.Executor) { order <- "small" })
	close(release)
	if err := blocker.Err(); err != nil {
		t.Fatal(err)
	}
	if err := small.Err(); err != nil {
		t.Fatal(err)
	}
	if first := <-order; first != "small" {
		t.Fatalf("first admitted %q, want the small request to overtake the queued convoy", first)
	}
	if second := <-order; second != "large" {
		t.Fatalf("second admitted %q, want large", second)
	}
	if st := s.Stats(); st.Reordered < 1 {
		t.Fatalf("stats %+v: aging reorder not counted", st)
	}
}

// TestAdmissionAgingBoundsStarvation pins the other half of the aging
// contract: a large request that has waited long enough beats a
// just-arrived small one, so a continuous small-request stream cannot
// starve it. With AgeBias b, a request costing k× more wins once its age
// exceeds ~k·b.
func TestAdmissionAgingBoundsStarvation(t *testing.T) {
	s := New(Config{Workers: 2, MaxActive: 1, AgeBias: time.Millisecond})
	defer s.Close()

	release := make(chan struct{})
	started := make(chan struct{})
	blocker := s.submitFunc("", 0, 0, func(parallel.Executor) {
		close(started)
		<-release
	})
	<-started

	order := make(chan string, 2)
	large := s.submitFunc("", 4, 0, func(parallel.Executor) { order <- "large" })
	// Let the large request age well past costRatio·AgeBias = 4 ms.
	time.Sleep(40 * time.Millisecond)
	s.submitFunc("", 1, 0, func(parallel.Executor) { order <- "small" })
	close(release)
	if err := blocker.Err(); err != nil {
		t.Fatal(err)
	}
	if err := large.Err(); err != nil {
		t.Fatal(err)
	}
	if first := <-order; first != "large" {
		t.Fatalf("first admitted %q, want the aged large request", first)
	}
	<-order
}

// TestAdmissionStatsQueueVisibility pins the saturation observability the
// drain/supervision tooling needs: queue depth, per-request granted
// budgets, queue ages and the max-wait high-water mark.
func TestAdmissionStatsQueueVisibility(t *testing.T) {
	s := New(Config{Workers: 2, MaxActive: 1})
	defer s.Close()

	release := make(chan struct{})
	started := make(chan struct{})
	blocker := s.submitFunc("", 5, 0, func(parallel.Executor) {
		close(started)
		<-release
	})
	<-started
	q1 := s.submitFunc("", 1, 0, func(parallel.Executor) {})
	q2 := s.submitFunc("", 2, 0, func(parallel.Executor) {})
	time.Sleep(5 * time.Millisecond) // let the queued requests age measurably

	st := s.Stats()
	if st.Active != 1 || st.Queued != 2 || st.PeakQueued < 2 {
		t.Fatalf("stats %+v: want 1 active, 2 queued, peak ≥ 2", st)
	}
	if st.OldestQueuedMs <= 0 {
		t.Fatalf("OldestQueuedMs = %v, want > 0 with aged queued requests", st.OldestQueuedMs)
	}
	if len(st.Requests) != 3 {
		t.Fatalf("len(Requests) = %d, want 3 (1 active + 2 queued)", len(st.Requests))
	}
	activeSeen, queuedSeen := 0, 0
	for _, r := range st.Requests {
		if r.Kind != "func" {
			t.Fatalf("request kind %q, want func", r.Kind)
		}
		if r.Budget > 0 {
			activeSeen++
			if r.Budget != 2 {
				t.Fatalf("active budget %d, want the full width 2", r.Budget)
			}
		} else {
			queuedSeen++
			if r.QueuedMs <= 0 {
				t.Fatalf("queued request age %v, want > 0", r.QueuedMs)
			}
		}
	}
	if activeSeen != 1 || queuedSeen != 2 {
		t.Fatalf("requests: %d active, %d queued, want 1 and 2 (%+v)", activeSeen, queuedSeen, st.Requests)
	}

	close(release)
	blocker.Err()
	q1.Err()
	q2.Err()
	if st := s.Stats(); st.MaxQueueWaitMs <= 0 {
		t.Fatalf("MaxQueueWaitMs = %v after queued work drained, want > 0", st.MaxQueueWaitMs)
	}
}

// TestAdmissionProjectedWait pins the transport's shed signal: zero with
// no history or no backlog, positive once the scheduler is saturated with
// queued work, and no smaller for a costlier request (which cannot
// overtake more of the queue).
func TestAdmissionProjectedWait(t *testing.T) {
	s := New(Config{Workers: 2, MaxActive: 1})
	defer s.Close()

	if d := s.ProjectedWait(100); d != 0 {
		t.Fatalf("ProjectedWait with no history = %v, want 0", d)
	}
	// One completed batch seeds the service-rate estimate.
	if err := s.submitFunc("", 100, 0, func(parallel.Executor) { time.Sleep(2 * time.Millisecond) }).Err(); err != nil {
		t.Fatal(err)
	}
	if d := s.ProjectedWait(100); d != 0 {
		t.Fatalf("ProjectedWait on an idle server = %v, want 0", d)
	}

	release := make(chan struct{})
	started := make(chan struct{})
	blocker := s.submitFunc("", 100, 0, func(parallel.Executor) {
		close(started)
		<-release
	})
	<-started
	queued := s.submitFunc("", 100, 0, func(parallel.Executor) {})

	small := s.ProjectedWait(1)
	big := s.ProjectedWait(200)
	if big <= 0 {
		t.Fatalf("ProjectedWait(200) = %v with a saturated scheduler, want > 0", big)
	}
	if big < small {
		t.Fatalf("ProjectedWait(200) = %v < ProjectedWait(1) = %v; costlier requests cannot wait less", big, small)
	}
	close(release)
	blocker.Err()
	queued.Err()
}

// TestCostModel pins the model's ordering properties (the policy only
// needs relative costs) and the hint/weight resolution rules.
func TestCostModel(t *testing.T) {
	var m CostModel
	small := m.MTTKRP([]int{12, 10, 8}, 4)
	large := m.MTTKRP([]int{48, 40, 36}, 16)
	if small <= 0 || large <= small {
		t.Fatalf("MTTKRP costs small=%g large=%g, want 0 < small < large", small, large)
	}
	cp := m.CP([]int{12, 10, 8}, 4, 10, core.MethodAuto)
	if cp <= small {
		t.Fatalf("CP cost %g not above one MTTKRP %g (10 sweeps × 2 passes)", cp, small)
	}
	if m.CP([]int{12, 10, 8}, 4, 0, core.MethodAuto) != m.CP([]int{12, 10, 8}, 4, 50, core.MethodAuto) {
		t.Fatal("CP sweeps=0 must price the cpd default sweep budget (50)")
	}

	// A dense CP sweep under MethodAuto is two tensor passes (core.SweepAll)
	// whatever the order; an explicit method runs one MTTKRP per mode.
	for _, dims := range [][]int{{12, 10, 8}, {12, 10, 8, 6}} {
		one := m.MTTKRP(dims, 4)
		if got, want := m.CP(dims, 4, 10, core.MethodAuto), 10*2*one; got != want {
			t.Fatalf("dense auto CP %v = %g, want %g (2 passes per sweep)", dims, got, want)
		}
		if got, want := m.CP(dims, 4, 10, core.MethodTwoStep), 10*float64(len(dims))*one; got != want {
			t.Fatalf("dense 2-step CP %v = %g, want %g (one MTTKRP per mode per sweep)", dims, got, want)
		}
	}
	if got := cpPasses(4, false, core.MethodAuto); got != 4 {
		t.Fatalf("sparse CP passes = %d, want one per mode (4)", got)
	}
	if got := cpPasses(2, true, core.MethodAuto); got != 2 {
		t.Fatalf("order-2 dense auto CP passes = %d, want 2", got)
	}
	if got := costOf(7, 99); got != 7 {
		t.Fatalf("costOf hint override = %g, want 7", got)
	}
	if got := costOf(0, 99); got != 99 {
		t.Fatalf("costOf estimate fallback = %g, want 99", got)
	}
	if got := costOf(0, 0); got != 1 {
		t.Fatalf("costOf default = %g, want 1", got)
	}
	if got := weightOf(0); got != 1 {
		t.Fatalf("weightOf default = %g, want 1", got)
	}

	// The mapped model prices the resident working set, not the file
	// extent: with a bounded tile budget it undercuts the dense model on a
	// big shape, and degenerate budgets (0, or larger than the tensor)
	// collapse to the dense estimate exactly.
	dims := []int{256, 256, 256}
	dense := m.MTTKRP(dims, 8)
	mapped := m.MTTKRPMapped(dims, 8, 1<<20)
	if mapped <= 0 || mapped >= dense {
		t.Fatalf("MTTKRPMapped = %g, want 0 < mapped < dense %g (resident bytes, not file extent)", mapped, dense)
	}
	if m.MTTKRPMapped(dims, 8, 0) != dense || m.MTTKRPMapped(dims, 8, 1<<62) != dense {
		t.Fatal("MTTKRPMapped degenerate budgets must collapse to the dense estimate")
	}
}

// TestAdmissionSparseCPPricedByNNZ pins CP admission pricing by layout
// and method: a sparse decomposition costs sweeps × order nnz-keyed
// MTTKRPs, not the dense Π dims model of its shape (at density 1e-3 that
// model overprices it by two orders of magnitude, handing it the full
// width and aging it as a huge job), while a dense decomposition keeps the
// CP model exactly — two passes per sweep under the default method, one
// MTTKRP per mode under an explicit one.
func TestAdmissionSparseCPPricedByNNZ(t *testing.T) {
	s := New(Config{Workers: 2, MaxActive: 1})
	defer s.Close()
	var m CostModel

	rng := rand.New(rand.NewSource(1))
	sp := tensor.RandomSparse(rng, 1e-3, 200, 200, 200)
	dn := tensor.Random(rng, 12, 10, 8)
	const rank, sweeps = 8, 10
	sparseWant := float64(sweeps) * 3 * m.SparseMTTKRP(sp.NNZ(), sp.Dims(), rank)
	denseWant := m.CP(dn.Dims(), rank, sweeps, core.MethodAuto)
	explicitWant := m.CP(dn.Dims(), rank, sweeps, core.MethodTwoStep)
	if explicitWant != 1.5*denseWant {
		t.Fatalf("3-way explicit-method CP %g, want 1.5× the two-pass dense auto CP %g", explicitWant, denseWant)
	}
	if dense := m.CP(sp.Dims(), rank, sweeps, core.MethodTwoStep); sparseWant*100 > dense {
		t.Fatalf("nnz model %g not two orders under the dense model %g; the fixture no longer tells them apart", sparseWant, dense)
	}

	release := make(chan struct{})
	started := make(chan struct{})
	blocker := s.submitFunc("", 1, 0, func(parallel.Executor) {
		close(started)
		<-release
	})
	<-started
	cfg := cpd.Config{Rank: rank, MaxIters: sweeps, Tol: -1, Seed: 1}
	tSparse := s.SubmitCP(CPRequest{X: sp, Config: cfg})
	tDense := s.SubmitCP(CPRequest{X: dn, Config: cfg})
	explicitCfg := cfg
	explicitCfg.Method = core.MethodTwoStep
	tExplicit := s.SubmitCP(CPRequest{X: dn, Config: explicitCfg})

	var costs []float64
	for _, r := range s.Stats().Requests {
		if r.Kind == "cp" {
			costs = append(costs, r.Cost)
		}
	}
	close(release)
	if err := blocker.Err(); err != nil {
		t.Fatal(err)
	}
	for _, tk := range []*Ticket{tSparse, tDense, tExplicit} {
		if _, err := tk.CP(); err != nil {
			t.Fatal(err)
		}
	}
	want := []float64{sparseWant, denseWant, explicitWant}
	sort.Float64s(costs)
	sort.Float64s(want)
	if !slices.Equal(costs, want) {
		t.Fatalf("queued CP costs %v, want sparse %g (nnz model), dense auto %g and dense 2-step %g (CP model)", costs, sparseWant, denseWant, explicitWant)
	}
}

// TestAdmissionEvenSplitBaseline pins that the EvenSplit policy keeps the
// historical behavior: FIFO admission order (no aging reorders) and
// width ÷ active budgets regardless of cost.
func TestAdmissionEvenSplitBaseline(t *testing.T) {
	s := New(Config{Workers: 2, MaxActive: 1, EvenSplit: true})
	defer s.Close()

	release := make(chan struct{})
	started := make(chan struct{})
	blocker := s.submitFunc("", 0, 0, func(parallel.Executor) {
		close(started)
		<-release
	})
	<-started
	order := make(chan string, 2)
	s.submitFunc("", 1e9, 0, func(parallel.Executor) { order <- "large" })
	small := s.submitFunc("", 1, 0, func(parallel.Executor) { order <- "small" })
	close(release)
	blocker.Err()
	small.Err()
	if first := <-order; first != "large" {
		t.Fatalf("even-split admitted %q first, want FIFO (large)", first)
	}
	<-order
	if st := s.Stats(); st.Reordered != 0 {
		t.Fatalf("even-split recorded %d reorders, want 0", st.Reordered)
	}
}
