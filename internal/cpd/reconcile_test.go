package cpd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// TestALSReconcileAtSweepBoundaries pins the phase-boundary lease
// rebalancing contract end to end: a CP-ALS run executing on a scheduler
// lease shrinks when the admission policy retargets it mid-run and
// re-grows when the pressure drains — with both changes landing exactly at
// sweep boundaries (ALS calls parallel.Reconcile after every sweep, then
// PhaseNotify observes the applied width).
func TestALSReconcileAtSweepBoundaries(t *testing.T) {
	pool := parallel.NewPool(8)
	defer pool.Close()
	l := pool.Lease(8)
	defer l.Close()

	x := tensor.Random(rand.New(rand.NewSource(3)), 14, 12, 10)
	var widths []int
	cfg := Config{
		Rank:     3,
		MaxIters: 6,
		Tol:      -1, // run all sweeps
		Seed:     7,
		Pool:     l,
		PhaseNotify: func() {
			widths = append(widths, l.Width())
			// Play the admission policy: after sweep 2 another request
			// arrives and the scheduler shrinks this lease's budget; after
			// sweep 4 the peer finishes and the budget is restored. The
			// retarget itself happens "between" sweeps here; mid-region
			// deferral of a concurrent Resize is pinned in package
			// parallel (TestLeaseReconcileChurn).
			switch len(widths) {
			case 2:
				l.Resize(2)
			case 4:
				l.Resize(8)
			}
		},
	}
	res, err := ALS(x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 6 {
		t.Fatalf("ran %d sweeps, want 6", res.Iters)
	}
	want := []int{8, 8, 2, 2, 8, 8}
	if len(widths) != len(want) {
		t.Fatalf("observed %d sweep boundaries (%v), want %d", len(widths), widths, len(want))
	}
	for i, w := range want {
		if widths[i] != w {
			t.Fatalf("sweep %d ran at width %d, want %d (full trace %v)", i+1, widths[i], w, widths)
		}
	}

	// The run's factors must be bit-identical to an unperturbed run's:
	// lease resizing changes scheduling, never arithmetic.
	ref, err := ALS(x, Config{Rank: 3, MaxIters: 6, Tol: -1, Seed: 7, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if diff := firstBitDiff(res.K, ref.K); diff != "" {
		t.Fatalf("under resizing vs fixed width: %s", diff)
	}
}

// TestALSBitsWidthInvariant pins that a CP result does not depend on the
// worker count: the default two-pass sweep fixes every sum's association
// by shape alone, so factors and weights match the t=1 run bit for bit at
// every width a scheduler could grant.
func TestALSBitsWidthInvariant(t *testing.T) {
	pool := parallel.NewPool(8)
	defer pool.Close()
	rng := rand.New(rand.NewSource(11))
	for _, dims := range [][]int{{14, 12, 10}, {30, 28, 26, 24}, {13, 11, 9, 7, 5}, {68, 18, 60, 60}} {
		x := tensor.Random(rng, dims...)
		var ref *KTensor
		for threads := 1; threads <= 8; threads++ {
			res, err := ALS(x, Config{Rank: 10, MaxIters: 2, Tol: -1, Seed: 3, Threads: threads, Pool: pool})
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = res.K
				continue
			}
			if diff := firstBitDiff(res.K, ref); diff != "" {
				t.Errorf("dims=%v threads=%d vs 1: %s", dims, threads, diff)
			}
		}
	}
}

// firstBitDiff describes the first weight or factor entry whose bits
// differ between a and b, or returns "" when they are identical.
func firstBitDiff(a, b *KTensor) string {
	for c := range a.Lambda {
		if math.Float64bits(a.Lambda[c]) != math.Float64bits(b.Lambda[c]) {
			return fmt.Sprintf("lambda[%d] %v vs %v", c, a.Lambda[c], b.Lambda[c])
		}
	}
	for n, u := range a.Factors {
		for i := 0; i < u.R; i++ {
			for j := 0; j < u.C; j++ {
				if math.Float64bits(u.At(i, j)) != math.Float64bits(b.Factors[n].At(i, j)) {
					return fmt.Sprintf("factor %d (%d,%d) %v vs %v", n, i, j, u.At(i, j), b.Factors[n].At(i, j))
				}
			}
		}
	}
	return ""
}
