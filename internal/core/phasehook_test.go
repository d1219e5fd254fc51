package core

import (
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// TestEveryIntoEntryPointNotifiesOnce pins the phase-hook contract the
// phasehook analyzer machine-checks: every exported *Into kernel entry
// point reaches Options.PhaseNotify exactly once per computation, whether
// entered directly or through ComputeInto. Before this test, direct entry
// via OneStepInto/TwoStepInto/ReorderInto skipped the notification, so an
// admitted request running against those entry points never gave the
// scheduler a reconcile safe-point.
func TestEveryIntoEntryPointNotifiesOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dims := []int{4, 5, 6}
	x, u := randomProblem(rng, dims, 3)

	entries := []struct {
		name string
		call func(n int, opts Options) mat.View
	}{
		{"OneStepInto", func(n int, opts Options) mat.View {
			return OneStepInto(mat.NewDense(x.Dim(n), 3), x, u, n, opts)
		}},
		{"TwoStepInto", func(n int, opts Options) mat.View {
			return TwoStepInto(mat.NewDense(x.Dim(n), 3), x, u, n, opts)
		}},
		{"ReorderInto", func(n int, opts Options) mat.View {
			return ReorderInto(mat.NewDense(x.Dim(n), 3), x, u, n, opts)
		}},
		{"ComputeInto/OneStep", func(n int, opts Options) mat.View {
			return ComputeInto(mat.NewDense(x.Dim(n), 3), MethodOneStep, x, u, n, opts)
		}},
		{"ComputeInto/TwoStep", func(n int, opts Options) mat.View {
			return ComputeInto(mat.NewDense(x.Dim(n), 3), MethodTwoStep, x, u, n, opts)
		}},
		{"ComputeInto/Reorder", func(n int, opts Options) mat.View {
			return ComputeInto(mat.NewDense(x.Dim(n), 3), MethodReorder, x, u, n, opts)
		}},
		{"ComputeInto/Auto", func(n int, opts Options) mat.View {
			return ComputeInto(mat.NewDense(x.Dim(n), 3), MethodAuto, x, u, n, opts)
		}},
		{"ComputeInto/Naive", func(n int, opts Options) mat.View {
			return ComputeInto(mat.NewDense(x.Dim(n), 3), MethodNaive, x, u, n, opts)
		}},
	}

	for _, e := range entries {
		// Mode 0 is external and mode 1 internal, so both kernel variants
		// of the 1-step algorithm (and both entry paths of TwoStepInto)
		// are exercised.
		for n := 0; n < 2; n++ {
			notified := 0
			opts := Options{Threads: 2, PhaseNotify: func() { notified++ }}
			got := e.call(n, opts)
			want := Naive(x, u, n)
			if !mat.ApproxEqual(got, want, 1e-11) {
				t.Errorf("%s n=%d: result mismatch %g", e.name, n, mat.MaxAbsDiff(got, want))
			}
			if notified != 1 {
				t.Errorf("%s n=%d: PhaseNotify invoked %d times, want exactly 1", e.name, n, notified)
			}
		}
	}
}

// TestForcedOrderingsNotify covers the ordering-ablation entry points,
// which share the leaf kernels with TwoStepInto.
func TestForcedOrderingsNotify(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x, u := randomProblem(rng, []int{4, 5, 6}, 3)
	want := Naive(x, u, 1)
	for _, e := range []struct {
		name string
		call func(opts Options) mat.View
	}{
		{"TwoStepLeftFirst", func(opts Options) mat.View { return TwoStepLeftFirst(x, u, 1, opts) }},
		{"TwoStepRightFirst", func(opts Options) mat.View { return TwoStepRightFirst(x, u, 1, opts) }},
	} {
		notified := 0
		got := e.call(Options{Threads: 2, PhaseNotify: func() { notified++ }})
		if !mat.ApproxEqual(got, want, 1e-11) {
			t.Errorf("%s: result mismatch %g", e.name, mat.MaxAbsDiff(got, want))
		}
		if notified != 1 {
			t.Errorf("%s: PhaseNotify invoked %d times, want exactly 1", e.name, notified)
		}
	}
}

// TestReconcileMidBatch pins the batch × admission interaction the
// scheduler relies on: a lease shrinking 8→2 between two same-shape
// requests executed back to back (applied by PhaseNotify → Reconcile at
// the second request's kernel entry, exactly as the scheduler wires it)
// leaves the second result bit-identical to a run at the post-shrink
// width.
func TestReconcileMidBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pool := parallel.NewPool(8)
	defer pool.Close()
	ref := parallel.NewPool(8)
	defer ref.Close()
	x := tensor.Random(rng, 10, 9, 8)
	const c, n = 6, 1
	u := make([]mat.View, 3)
	for k := range u {
		u[k] = mat.RandomDense(x.Dim(k), c, rng)
	}

	for _, method := range []Method{MethodOneStep, MethodTwoStep} {
		lease := pool.Lease(8)
		opts := Options{Pool: lease, PhaseNotify: func() { parallel.Reconcile(lease) }}

		got1 := ComputeInto(mat.NewDense(x.Dim(n), c), method, x, u, n, opts)
		want1 := ComputeInto(mat.NewDense(x.Dim(n), c), method, x, u, n, Options{Threads: 8, Pool: ref})
		bitsEqual(t, got1, want1, "member 1 at width 8")

		// The scheduler's mid-batch rebalance: Resize lands at the next
		// phase boundary, i.e. member 2's entry.
		lease.Resize(2)
		got2 := ComputeInto(mat.NewDense(x.Dim(n), c), method, x, u, n, opts)
		if w := lease.Width(); w != 2 {
			t.Fatalf("lease width after mid-batch shrink = %d, want 2", w)
		}
		want2 := ComputeInto(mat.NewDense(x.Dim(n), c), method, x, u, n, Options{Threads: 2, Pool: ref})
		bitsEqual(t, got2, want2, "member 2 after shrink to 2")

		lease.Close()
	}
}
