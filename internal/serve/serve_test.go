package serve

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cpd"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// problem builds a deterministic tensor + factor set.
func problem(seed int64, c int, dims ...int) (*tensor.Dense, []mat.View) {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.Random(rng, dims...)
	u := make([]mat.View, x.Order())
	for k := range u {
		u[k] = mat.RandomDense(x.Dim(k), c, rng)
	}
	return x, u
}

func matsEqual(t *testing.T, got, want mat.View, label string) {
	t.Helper()
	if got.R != want.R || got.C != want.C {
		t.Fatalf("%s: got %dx%d, want %dx%d", label, got.R, got.C, want.R, want.C)
	}
	for i := 0; i < want.R; i++ {
		for j := 0; j < want.C; j++ {
			d := got.At(i, j) - want.At(i, j)
			if d > 1e-10 || d < -1e-10 {
				t.Fatalf("%s: mismatch at (%d,%d): %g vs %g", label, i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

// bitsEqual compares two matrices for bitwise float64 equality.
func bitsEqual(t *testing.T, got, want mat.View, label string) {
	t.Helper()
	if got.R != want.R || got.C != want.C {
		t.Fatalf("%s: got %dx%d, want %dx%d", label, got.R, got.C, want.R, want.C)
	}
	for i := 0; i < want.R; i++ {
		for j := 0; j < want.C; j++ {
			if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
				t.Fatalf("%s: bit mismatch at (%d,%d): %v vs %v", label, i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

// TestServeMTTKRPMatchesDirect floods the scheduler with concurrent
// requests over mixed shapes, modes and methods and checks every result
// against the direct single-caller API.
func TestServeMTTKRPMatchesDirect(t *testing.T) {
	s := New(Config{Workers: 4})
	defer s.Close()

	x1, u1 := problem(1, 6, 12, 10, 8)
	x2, u2 := problem(2, 5, 7, 9, 6, 5)
	type cs struct {
		x      *tensor.Dense
		u      []mat.View
		mode   int
		method core.Method
	}
	var cases []cs
	for mode := 0; mode < 3; mode++ {
		cases = append(cases, cs{x1, u1, mode, core.MethodAuto})
	}
	for mode := 0; mode < 4; mode++ {
		cases = append(cases, cs{x2, u2, mode, core.MethodOneStep})
		cases = append(cases, cs{x2, u2, mode, core.MethodTwoStep})
	}

	const rounds = 6
	tickets := make([]*Ticket, 0, rounds*len(cases))
	wants := make([]mat.View, 0, rounds*len(cases))
	for r := 0; r < rounds; r++ {
		for _, c := range cases {
			tickets = append(tickets, s.SubmitMTTKRP(MTTKRPRequest{X: c.x, Factors: c.u, Mode: c.mode, Method: c.method}))
			wants = append(wants, core.Compute(c.method, c.x, c.u, c.mode, core.Options{Threads: 2}))
		}
	}
	for i, tk := range tickets {
		got, err := tk.MTTKRP()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		matsEqual(t, got, wants[i], fmt.Sprintf("request %d", i))
	}
	st := s.Stats()
	if st.Completed != len(tickets) || st.Failed != 0 {
		t.Fatalf("stats: %+v, want %d completed, 0 failed", st, len(tickets))
	}
}

// TestServeBatchingCoalesces blocks the scheduler with a sentinel request
// so that same-shape submissions pile into one open batch, then checks the
// batch executed them all correctly on a shared lease.
func TestServeBatchingCoalesces(t *testing.T) {
	s := New(Config{Workers: 4, MaxActive: 1})
	defer s.Close()

	release := make(chan struct{})
	started := make(chan struct{})
	blocker := s.submitFunc("", 0, 0, func(parallel.Executor) {
		close(started)
		<-release
	})
	<-started // the scheduler's only slot is now occupied

	x, u := problem(3, 6, 14, 11, 9)
	want := core.Compute(core.MethodAuto, x, u, 1, core.Options{Threads: 2})
	const k = 5
	var tickets [k]*Ticket
	for i := range tickets {
		tickets[i] = s.SubmitMTTKRP(MTTKRPRequest{X: x, Factors: u, Mode: 1})
	}
	if st := s.Stats(); st.Coalesced != k-1 {
		t.Fatalf("coalesced %d, want %d", st.Coalesced, k-1)
	}
	close(release)
	if err := blocker.Err(); err != nil {
		t.Fatalf("blocker: %v", err)
	}
	for i, tk := range tickets {
		got, err := tk.MTTKRP()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		matsEqual(t, got, want, fmt.Sprintf("request %d", i))
	}
	st := s.Stats()
	// The k coalesced requests executed as one batch (the blocker is the
	// other batch).
	if st.Batches != 2 {
		t.Fatalf("batches %d, want 2", st.Batches)
	}
	if st.PeakActive != 1 {
		t.Fatalf("peak active %d, want 1", st.PeakActive)
	}
}

// TestServeBatchMembersIndependent pins what a coalesced batch guarantees
// each member: same-shape requests coalesce whatever their factor values
// or buffers, every member's result is bit-identical to the direct kernel
// at the batch's width, and a member whose factors fail kernel validation
// fails only its own ticket.
func TestServeBatchMembersIndependent(t *testing.T) {
	const width = 4
	x, u1 := problem(24, 5, 12, 10, 8)
	_, u2 := problem(25, 5, 12, 10, 8) // same shape, different values
	bad := []mat.View{mat.NewDense(3, 5), mat.NewDense(3, 5), mat.NewDense(3, 5)}
	clone := func(u []mat.View) []mat.View {
		c := make([]mat.View, len(u))
		for i := range u {
			c[i] = u[i].Clone() // fresh buffers, identical values
		}
		return c
	}
	pool := parallel.NewPool(width)
	defer pool.Close()

	for _, method := range []core.Method{core.MethodOneStep, core.MethodTwoStep} {
		s := New(Config{Workers: width, MaxActive: 1})
		release := make(chan struct{})
		started := make(chan struct{})
		blocker := s.submitFunc("", 0, 0, func(parallel.Executor) {
			close(started)
			<-release
		})
		<-started
		sets := [][]mat.View{u1, clone(u1), u2, bad, clone(u2)}
		tickets := make([]*Ticket, len(sets))
		for i, u := range sets {
			tickets[i] = s.SubmitMTTKRP(MTTKRPRequest{X: x, Factors: u, Mode: 1, Method: method})
		}
		close(release)
		if err := blocker.Err(); err != nil {
			t.Fatal(err)
		}
		for i, tk := range tickets {
			got, err := tk.MTTKRP()
			if i == 3 {
				if err == nil {
					t.Fatalf("%v: member with mismatched factors succeeded", method)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%v member %d: %v", method, i, err)
			}
			want := core.ComputeInto(mat.NewDense(x.Dim(1), 5), method, x, sets[i], 1, core.Options{Threads: width, Pool: pool})
			bitsEqual(t, got, want, fmt.Sprintf("%v member %d", method, i))
		}
		st := s.Stats()
		s.Close()
		if st.Coalesced != len(sets)-1 || st.Batches != 2 || st.Completed != len(sets)+1 || st.Failed != 1 {
			t.Fatalf("%v: stats %+v, want one batch of %d (%d coalesced), 1 failed", method, st, len(sets), len(sets)-1)
		}
	}
}

// TestServeDisableBatching pins that DisableBatching gives every request
// its own batch even under an occupied scheduler.
func TestServeDisableBatching(t *testing.T) {
	s := New(Config{Workers: 2, MaxActive: 1, DisableBatching: true})
	defer s.Close()

	release := make(chan struct{})
	started := make(chan struct{})
	blocker := s.submitFunc("", 0, 0, func(parallel.Executor) {
		close(started)
		<-release
	})
	<-started
	x, u := problem(4, 4, 10, 8, 6)
	t1 := s.SubmitMTTKRP(MTTKRPRequest{X: x, Factors: u, Mode: 0})
	t2 := s.SubmitMTTKRP(MTTKRPRequest{X: x, Factors: u, Mode: 0})
	close(release)
	if err := blocker.Err(); err != nil {
		t.Fatal(err)
	}
	if err := t1.Err(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Err(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Coalesced != 0 || st.Batches != 3 {
		t.Fatalf("stats %+v, want 0 coalesced, 3 batches", st)
	}
}

// TestServeCP runs concurrent CP decompositions through the scheduler and
// compares fits against direct runs with the same seeds.
func TestServeCP(t *testing.T) {
	s := New(Config{Workers: 4})
	defer s.Close()
	x, _ := problem(5, 1, 13, 11, 9)
	cfg := cpd.Config{Rank: 3, MaxIters: 4, Tol: -1, Seed: 7}
	want, err := cpd.ALS(x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tickets [3]*Ticket
	for i := range tickets {
		tickets[i] = s.SubmitCP(CPRequest{X: x, Config: cfg})
	}
	for i, tk := range tickets {
		res, err := tk.CP()
		if err != nil {
			t.Fatalf("cp %d: %v", i, err)
		}
		if res.Iters != want.Iters {
			t.Fatalf("cp %d: %d iters, want %d", i, res.Iters, want.Iters)
		}
		d := res.Fit - want.Fit
		if d > 1e-12 || d < -1e-12 {
			t.Fatalf("cp %d: fit %v, want %v (deterministic per seed)", i, res.Fit, want.Fit)
		}
	}
}

// TestServeAdmissionControl checks that MaxActive bounds concurrency and
// that the admission budget math divides the pool with a floor.
func TestServeAdmissionControl(t *testing.T) {
	s := New(Config{Workers: 8, MinWorkers: 2})
	defer s.Close()
	if s.maxActive != 4 {
		t.Fatalf("default MaxActive = %d, want 4 (workers/minworkers)", s.maxActive)
	}
	for _, tc := range []struct{ active, want int }{
		{1, 8}, {2, 4}, {3, 2}, {4, 2}, {100, 2},
	} {
		if got := s.evenBudgetLocked(tc.active); got != tc.want {
			t.Fatalf("budget(%d) = %d, want %d", tc.active, got, tc.want)
		}
	}

	// Saturate the scheduler with blockers; verify the cap holds and
	// queued work drains afterwards.
	release := make(chan struct{})
	var mu sync.Mutex
	running := 0
	peak := 0
	var blockers []*Ticket
	for i := 0; i < 9; i++ {
		blockers = append(blockers, s.submitFunc("", 0, 0, func(parallel.Executor) {
			mu.Lock()
			running++
			if running > peak {
				peak = running
			}
			mu.Unlock()
			<-release
			mu.Lock()
			running--
			mu.Unlock()
		}))
	}
	close(release)
	for _, tk := range blockers {
		if err := tk.Err(); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if peak > 4 {
		t.Fatalf("observed %d concurrent requests, cap is 4", peak)
	}
	if st := s.Stats(); st.PeakActive > 4 {
		t.Fatalf("PeakActive %d, cap is 4", st.PeakActive)
	}
}

// TestServeLeaseBudgets observes the scheduler's worker assignment from
// inside requests: a lone request gets the full width, and once four are
// active each holds width/4.
func TestServeLeaseBudgets(t *testing.T) {
	s := New(Config{Workers: 8})
	defer s.Close()

	solo := make(chan int, 1)
	s.submitFunc("", 0, 0, func(ex parallel.Executor) { solo <- ex.Workers() }).Err()
	if w := <-solo; w != 8 {
		t.Fatalf("solo request granted width %d, want 8", w)
	}

	// Hold 4 requests active simultaneously and measure each one's width
	// while the other three are provably still active: all four have
	// entered (so the last admission's rebalance has set every target to
	// width/4 = 2) and none has been released yet.
	var entered sync.WaitGroup
	entered.Add(4)
	measure := make(chan struct{})
	release := make(chan struct{})
	widths := make(chan int, 4)
	for i := 0; i < 4; i++ {
		s.submitFunc("", 0, 0, func(ex parallel.Executor) {
			entered.Done()
			<-measure
			widths <- ex.Effective(0) // the kernel-entry resolution path
			<-release
		})
	}
	entered.Wait()
	close(measure)
	for i := 0; i < 4; i++ {
		if w := <-widths; w != 2 {
			t.Fatalf("granted width %d with 4 active on 8 workers, want 2", w)
		}
	}
	close(release)
}

// TestServeErrors covers synchronous validation, panic recovery, and
// closed-server behavior.
func TestServeErrors(t *testing.T) {
	s := New(Config{Workers: 2})
	x, u := problem(6, 4, 8, 7, 6)

	if err := s.SubmitMTTKRP(MTTKRPRequest{}).Err(); err == nil {
		t.Fatal("nil tensor accepted")
	}
	if err := s.SubmitMTTKRP(MTTKRPRequest{X: x, Factors: u, Mode: 9}).Err(); err == nil {
		t.Fatal("out-of-range mode accepted")
	}
	// Shape mismatch detected inside core: recovered into the ticket.
	bad := []mat.View{u[0], u[1], mat.NewDense(3, 4)}
	if err := s.SubmitMTTKRP(MTTKRPRequest{X: x, Factors: bad, Mode: 0}).Err(); err == nil {
		t.Fatal("mismatched factors accepted")
	}
	if err := s.SubmitCP(CPRequest{X: x, Config: cpd.Config{Rank: 0}}).Err(); err == nil {
		t.Fatal("bad rank accepted")
	}
	st := s.Stats()
	if st.Failed == 0 {
		t.Fatalf("stats %+v: expected failures recorded", st)
	}
	s.Close()
	if err := s.SubmitMTTKRP(MTTKRPRequest{X: x, Factors: u, Mode: 0}).Err(); err != ErrDraining {
		t.Fatalf("submit after close: %v, want ErrDraining", err)
	}
}

// TestServeDrain pins the graceful-drain contract: Drain completes queued
// and running work, rejects new submissions with the typed ErrDraining,
// and a Close afterwards fails nothing.
func TestServeDrain(t *testing.T) {
	s := New(Config{Workers: 2, MaxActive: 1})
	release := make(chan struct{})
	started := make(chan struct{})
	blocker := s.submitFunc("", 0, 0, func(parallel.Executor) {
		close(started)
		<-release
	})
	<-started
	x, u := problem(7, 3, 6, 5, 4)
	queued := s.SubmitMTTKRP(MTTKRPRequest{X: x, Factors: u, Mode: 0})
	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()
	// Submissions during the drain are refused with the typed error.
	var rejected *Ticket
	for {
		rejected = s.SubmitMTTKRP(MTTKRPRequest{X: x, Factors: u, Mode: 0})
		select {
		case <-rejected.Done():
		default:
			// Raced ahead of Drain marking the server; this one was
			// accepted and will complete. Try again.
			continue
		}
		break
	}
	if err := rejected.Err(); err != ErrDraining {
		t.Fatalf("submit during drain: %v, want ErrDraining", err)
	}
	select {
	case <-drained:
		t.Fatal("Drain returned while admitted work still running")
	default:
	}
	close(release)
	<-drained
	if err := blocker.Err(); err != nil {
		t.Fatalf("running request after drain: %v", err)
	}
	if err := queued.Err(); err != nil {
		t.Fatalf("queued request after drain: %v (drain must complete admitted work)", err)
	}
	st := s.Stats()
	// Drain-rejected submissions are never accepted, so they appear in no
	// counter; everything accepted completed successfully.
	if st.Failed != 0 || st.Submitted != st.Completed {
		t.Fatalf("stats %+v: want no failures and Submitted == Completed", st)
	}
	s.Close()
}

// TestServeCloseFailsQueued pins that Close fails requests still waiting
// for admission rather than abandoning them.
func TestServeCloseFailsQueued(t *testing.T) {
	s := New(Config{Workers: 2, MaxActive: 1})
	release := make(chan struct{})
	started := make(chan struct{})
	blocker := s.submitFunc("", 0, 0, func(parallel.Executor) {
		close(started)
		<-release
	})
	<-started
	x, u := problem(7, 3, 6, 5, 4)
	queued := s.SubmitMTTKRP(MTTKRPRequest{X: x, Factors: u, Mode: 0})
	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	if err := queued.Err(); err != ErrClosed {
		t.Fatalf("queued request: %v, want ErrClosed", err)
	}
	close(release)
	if err := blocker.Err(); err != nil {
		t.Fatalf("running request: %v", err)
	}
	<-done
	// Queued-then-failed requests still count as completed (failed), so
	// the Submitted == Completed drain invariant survives a Close.
	st := s.Stats()
	if st.Submitted != 2 || st.Completed != 2 || st.Failed != 1 {
		t.Fatalf("stats after close: %+v, want 2 submitted, 2 completed, 1 failed", st)
	}
}

// TestServeWorkerPanicRecovered pins that a kernel panic on a reserved
// worker goroutine (not just the coordinator) fails only that request's
// ticket: the server keeps serving and the process survives.
func TestServeWorkerPanicRecovered(t *testing.T) {
	s := New(Config{Workers: 4, MinWorkers: 4}) // every request gets the full width
	defer s.Close()
	tk := s.submitFunc("", 0, 0, func(ex parallel.Executor) {
		ex.Run(4, func(w int) {
			if w == 3 {
				panic("bad request data")
			}
		})
	})
	if err := tk.Err(); err == nil {
		t.Fatal("worker panic not surfaced on the ticket")
	}
	// The server must still work.
	x, u := problem(9, 4, 9, 8, 7)
	want := core.Compute(core.MethodAuto, x, u, 0, core.Options{Threads: 2})
	got, err := s.SubmitMTTKRP(MTTKRPRequest{X: x, Factors: u, Mode: 0}).MTTKRP()
	if err != nil {
		t.Fatal(err)
	}
	matsEqual(t, got, want, "post-panic request")
}

// TestServeSteadyStateDst pins the serving steady state: a caller that
// retains its dst across same-shape submissions gets results written
// through it, with the shape-keyed workspaces reused underneath.
func TestServeSteadyStateDst(t *testing.T) {
	s := New(Config{Workers: 4})
	defer s.Close()
	x, u := problem(8, 5, 11, 9, 7)
	want := core.Compute(core.MethodAuto, x, u, 1, core.Options{Threads: 2})
	dst := mat.NewDense(x.Dim(1), 5)
	for i := 0; i < 10; i++ {
		got, err := s.SubmitMTTKRP(MTTKRPRequest{X: x, Factors: u, Mode: 1, Dst: dst}).MTTKRP()
		if err != nil {
			t.Fatal(err)
		}
		if &got.Data[0] != &dst.Data[0] {
			t.Fatal("result not written through the retained dst")
		}
		matsEqual(t, got, want, fmt.Sprintf("iteration %d", i))
	}
}

// TestJoinWindowClosesAtAdmission pins the coalescing window: a same-key
// request arriving while the batch is queued joins it; one arriving after
// the batch has been popped for execution must open a new batch, never
// append to the executing one.
func TestJoinWindowClosesAtAdmission(t *testing.T) {
	s := New(Config{Workers: 2, MaxActive: 1})
	defer s.Close()

	release := make(chan struct{})
	started := make(chan struct{})
	blocker := s.submitFunc("", 0, 0, func(parallel.Executor) {
		close(started)
		<-release
	})
	<-started

	gate := make(chan struct{})
	entered := make(chan struct{})
	a1 := s.submitFunc("k", 1, 0, func(parallel.Executor) {
		close(entered)
		<-gate
	})
	a2 := s.submitFunc("k", 1, 0, func(parallel.Executor) { <-gate }) // joins while queued
	if st := s.Stats(); st.Coalesced != 1 {
		t.Fatalf("coalesced = %d, want 1 (join while queued)", st.Coalesced)
	}

	close(release)
	if err := blocker.Err(); err != nil {
		t.Fatal(err)
	}
	<-entered // batch "k" has been popped and is executing
	a3 := s.submitFunc("k", 1, 0, func(parallel.Executor) {})
	close(gate)
	for i, tk := range []*Ticket{a1, a2, a3} {
		if err := tk.Err(); err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
	}
	s.Drain()
	st := s.Stats()
	if st.Coalesced != 1 {
		t.Fatalf("coalesced = %d, want 1: a3 joined a batch already popped for execution", st.Coalesced)
	}
	if st.Batches != 3 {
		t.Fatalf("batches = %d, want 3 (blocker, the a1+a2 batch, a3's own)", st.Batches)
	}
}

// TestJoinWindowRaisesBatchCost pins that a join re-raises the batch's
// total service estimate in the aging queue: a batch that has coalesced
// three unit-cost items is 3× the work of a lone 1.5-cost request and
// must stop outscoring it — per-item cost alone would let the bloated
// batch keep jumping the queue.
func TestJoinWindowRaisesBatchCost(t *testing.T) {
	s := New(Config{Workers: 2, MaxActive: 1, AgeBias: 10 * time.Millisecond})
	defer s.Close()

	release := make(chan struct{})
	started := make(chan struct{})
	blocker := s.submitFunc("", 0, 0, func(parallel.Executor) {
		close(started)
		<-release
	})
	<-started

	order := make(chan string, 4)
	var tickets []*Ticket
	for i := 0; i < 3; i++ { // batch "a": 3 joined unit-cost items, totalCost 3
		tickets = append(tickets, s.submitFunc("a", 1, 0, func(parallel.Executor) { order <- "a" }))
	}
	tickets = append(tickets, s.submitFunc("b", 1.5, 0, func(parallel.Executor) { order <- "b" }))

	close(release)
	if err := blocker.Err(); err != nil {
		t.Fatal(err)
	}
	for i, tk := range tickets {
		if err := tk.Err(); err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
	}
	if first := <-order; first != "b" {
		t.Fatalf("first admitted %q, want the lone 1.5-cost request to beat the 3-item unit-cost batch", first)
	}
}

// TestJoinWindowCapClosesBatch pins the MaxBatch bound that keeps the
// aging queue's starvation guarantee real: a full batch stops accepting
// joiners (so a steady joiner stream cannot pin its score at a plateau
// forever), and the next same-key arrival opens a fresh batch.
func TestJoinWindowCapClosesBatch(t *testing.T) {
	s := New(Config{Workers: 2, MaxActive: 1, MaxBatch: 2})
	defer s.Close()

	release := make(chan struct{})
	started := make(chan struct{})
	blocker := s.submitFunc("", 0, 0, func(parallel.Executor) {
		close(started)
		<-release
	})
	<-started
	var tickets []*Ticket
	for i := 0; i < 5; i++ {
		tickets = append(tickets, s.submitFunc("k", 1, 0, func(parallel.Executor) {}))
	}
	close(release)
	if err := blocker.Err(); err != nil {
		t.Fatal(err)
	}
	for i, tk := range tickets {
		if err := tk.Err(); err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
	}
	s.Drain()
	st := s.Stats()
	// 5 submissions at cap 2 → batches of 2, 2, 1: two joins, plus the
	// blocker's batch makes 4 executed batches.
	if st.Coalesced != 2 || st.Batches != 4 {
		t.Fatalf("stats %+v: want 2 coalesced and 4 batches (2+2+1 under MaxBatch=2, plus the blocker)", st)
	}

	// The boundary configuration: MaxBatch=1 must never coalesce — a
	// fresh batch already holds one item, so no join window opens.
	s1 := New(Config{Workers: 2, MaxActive: 1, MaxBatch: 1})
	defer s1.Close()
	release1 := make(chan struct{})
	started1 := make(chan struct{})
	blocker1 := s1.submitFunc("", 0, 0, func(parallel.Executor) {
		close(started1)
		<-release1
	})
	<-started1
	t1 := s1.submitFunc("k", 1, 0, func(parallel.Executor) {})
	t2 := s1.submitFunc("k", 1, 0, func(parallel.Executor) {})
	close(release1)
	for i, tk := range []*Ticket{blocker1, t1, t2} {
		if err := tk.Err(); err != nil {
			t.Fatalf("MaxBatch=1 ticket %d: %v", i, err)
		}
	}
	s1.Drain()
	if st := s1.Stats(); st.Coalesced != 0 || st.Batches != 3 {
		t.Fatalf("MaxBatch=1 stats %+v: want 0 coalesced, 3 batches", st)
	}
}

// TestJoinWindowSurvivesCapCloseAdmission pins the open-map identity
// guard: after a cap-closed batch A leaves the join window, a newer
// batch B reuses the key; admitting A must not close B's window — a
// same-key arrival while A executes still joins B.
func TestJoinWindowSurvivesCapCloseAdmission(t *testing.T) {
	// EvenSplit: FIFO admission guarantees A (older) pops before B.
	s := New(Config{Workers: 2, MaxActive: 1, MaxBatch: 2, EvenSplit: true})
	defer s.Close()

	release := make(chan struct{})
	started := make(chan struct{})
	blocker := s.submitFunc("", 0, 0, func(parallel.Executor) {
		close(started)
		<-release
	})
	<-started

	gate := make(chan struct{})
	entered := make(chan struct{})
	a1 := s.submitFunc("k", 1, 0, func(parallel.Executor) {
		close(entered)
		<-gate
	})
	a2 := s.submitFunc("k", 1, 0, func(parallel.Executor) { <-gate }) // fills A: cap-closed
	b1 := s.submitFunc("k", 1, 0, func(parallel.Executor) {})         // opens B under the same key
	if st := s.Stats(); st.Coalesced != 1 {
		t.Fatalf("coalesced = %d, want 1 (A filled to its cap)", st.Coalesced)
	}

	close(release)
	if err := blocker.Err(); err != nil {
		t.Fatal(err)
	}
	<-entered // A popped and executing; B still queued and must stay joinable
	b2 := s.submitFunc("k", 1, 0, func(parallel.Executor) {})
	close(gate)
	for i, tk := range []*Ticket{a1, a2, b1, b2} {
		if err := tk.Err(); err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
	}
	s.Drain()
	st := s.Stats()
	if st.Coalesced != 2 {
		t.Fatalf("coalesced = %d, want 2: admitting cap-closed A closed B's join window", st.Coalesced)
	}
	if st.Batches != 3 {
		t.Fatalf("batches = %d, want 3 (blocker, A×2, B×2)", st.Batches)
	}
}

// TestJoinWindowRace hammers the join window from many submitters while
// batches continuously pop for execution, under -race in CI. The drain
// invariants catch a lost joiner (an item appended after its batch was
// popped would never execute): every submission completes, and every
// accepted request either opened a batch or was counted coalesced.
func TestJoinWindowRace(t *testing.T) {
	s := New(Config{Workers: 4, MaxActive: 2})
	const (
		submitters = 8
		perG       = 50
	)
	var wg sync.WaitGroup
	tickets := make([][]*Ticket, submitters)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				key := "k"
				if i%5 == 0 {
					key = "" // interleave keyless batches to churn the slots
				}
				tickets[g] = append(tickets[g], s.submitFunc(key, 1, 0, func(parallel.Executor) {}))
			}
		}(g)
	}
	wg.Wait()
	for g := range tickets {
		for i, tk := range tickets[g] {
			if err := tk.Err(); err != nil {
				t.Fatalf("submitter %d request %d: %v", g, i, err)
			}
		}
	}
	s.Drain()
	st := s.Stats()
	s.Close()
	if st.Submitted != submitters*perG || st.Completed != st.Submitted || st.Failed != 0 {
		t.Fatalf("stats %+v: want %d submitted == completed, 0 failed", st, submitters*perG)
	}
	if st.Batches+st.Coalesced != st.Submitted {
		t.Fatalf("stats %+v: every request must either open a batch or be coalesced exactly once", st)
	}
}
