package cpd

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// The multi-sweep (core.SweepAll, two tensor passes per sweep) is the
// default dense ALS path; these tests compare it against the paper's
// per-mode hybrid, selected by an explicit MethodTwoStep.

func TestMultiSweepMatchesRegularALS(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][]int{{8, 9, 7}, {6, 5, 4, 5}, {12, 11}} {
		x := tensor.Random(rng, dims...)
		reg, err := ALS(x, Config{Rank: 3, MaxIters: 5, Tol: -1, Seed: 4, Threads: 2, Method: core.MethodTwoStep})
		if err != nil {
			t.Fatal(err)
		}
		ms, err := ALS(x, Config{Rank: 3, MaxIters: 5, Tol: -1, Seed: 4, Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i := range reg.FitHistory {
			if math.Abs(reg.FitHistory[i]-ms.FitHistory[i]) > 1e-6 {
				t.Errorf("dims=%v sweep %d: fit %v (per-mode) vs %v (multi-sweep)",
					dims, i, reg.FitHistory[i], ms.FitHistory[i])
			}
		}
	}
}

func TestMultiSweepRecoversExactLowRank(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, _ := plantedTensor(rng, []int{10, 9, 8, 7}, 2)
	res, err := ALS(x, Config{Rank: 2, MaxIters: 200, Tol: 1e-12, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit < 0.9999 {
		t.Errorf("multi-sweep fit = %v after %d iters", res.Fit, res.Iters)
	}
}

func TestMultiSweepBreakdown(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := tensor.Random(rng, 8, 8, 8)
	var bd core.Breakdown
	res, err := ALS(x, Config{Rank: 3, MaxIters: 3, Tol: -1, Threads: 2, Breakdown: &bd})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IterTimes) != 3 {
		t.Errorf("iter times = %d", len(res.IterTimes))
	}
	var sweeps time.Duration
	for _, d := range res.IterTimes {
		sweeps += d
	}
	if bd.Total() <= 0 || bd.Total() > sweeps {
		t.Errorf("breakdown total %v, want in (0, %v]", bd.Total(), sweeps)
	}
}

// TestALSSweepsAllocFree pins that every sweep after the first allocates
// nothing: a run of 6 sweeps allocates exactly what a run of 2 does (the
// difference would be 4 sweeps' garbage), on both sweep paths.
func TestALSSweepsAllocFree(t *testing.T) {
	pool := parallel.NewPool(2)
	defer pool.Close()
	x := tensor.Random(rand.New(rand.NewSource(4)), 14, 12, 10, 8)
	for _, method := range []core.Method{core.MethodAuto, core.MethodTwoStep} {
		allocs := func(sweeps int) float64 {
			cfg := Config{Rank: 5, MaxIters: sweeps, Tol: -1, Seed: 2, Threads: 2, Pool: pool, Method: method}
			return testing.AllocsPerRun(5, func() {
				if _, err := ALS(x, cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
		if two, six := allocs(2), allocs(6); six != two {
			t.Errorf("method %v: %v allocs with 6 sweeps vs %v with 2, want equal", method, six, two)
		}
	}
}
