package core

import (
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// TestPooledKernelsSteadyStateAllocFree pins the pool runtime's core
// guarantee: repeated same-shape MTTKRP calls on a retained dst and pool
// reuse the pool's workspaces and allocate nothing.
func TestPooledKernelsSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.Random(rng, 30, 20, 25, 15)
	u := make([]mat.View, 4)
	for k := 0; k < 4; k++ {
		u[k] = mat.RandomDense(x.Dim(k), 16, rng)
	}
	pool := parallel.NewPool(4)
	defer pool.Close()
	for _, tc := range []struct {
		name   string
		method Method
		n      int
	}{
		{"onestep-ext", MethodOneStep, 0},
		{"onestep-int", MethodOneStep, 1},
		{"twostep-right", MethodTwoStep, 1},
		{"twostep-left", MethodTwoStep, 2},
	} {
		dst := mat.NewDense(x.Dim(tc.n), 16)
		opts := Options{Threads: 4, Pool: pool}
		ComputeInto(dst, tc.method, x, u, tc.n, opts) // warmup
		ComputeInto(dst, tc.method, x, u, tc.n, opts)
		allocs := testing.AllocsPerRun(20, func() {
			ComputeInto(dst, tc.method, x, u, tc.n, opts)
		})
		t.Logf("%s: %.1f allocs/op", tc.name, allocs)
		if allocs > 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

// TestSweepAllSteadyStateAllocFree pins the same guarantee for the
// two-pass CP-ALS sweep: intermediates, per-mode results and contraction
// scratch all live in the pool's workspace.
func TestSweepAllSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pool := parallel.NewPool(4)
	defer pool.Close()
	for _, dims := range [][]int{{30, 28, 26, 24}, {13, 11, 9, 7, 5}, {14, 12}} {
		x := tensor.Random(rng, dims...)
		u := make([]mat.View, len(dims))
		for k := range u {
			u[k] = mat.RandomDense(x.Dim(k), 10, rng)
		}
		opts := Options{Threads: 4, Pool: pool}
		noop := func(int, mat.View) {}
		SweepAll(x, u, opts, noop) // warmup
		SweepAll(x, u, opts, noop)
		allocs := testing.AllocsPerRun(10, func() {
			SweepAll(x, u, opts, noop)
		})
		t.Logf("%v: %.1f allocs/op", dims, allocs)
		if allocs > 0 {
			t.Errorf("%v: %v allocs/op, want 0", dims, allocs)
		}
	}
}
