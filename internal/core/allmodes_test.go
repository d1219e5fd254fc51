package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// TestSweepAllMatchesPerModeCalls verifies the recomputation-avoidance
// scheme computes exactly the per-mode MTTKRPs of an ALS sweep, including
// the mid-sweep factor updates: after each mode's result is delivered, the
// test mutates that factor (as ALS would) and checks the next mode's
// result against a fresh per-mode computation with the current factors.
func TestSweepAllMatchesPerModeCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][]int{{4, 5}, {4, 5, 6}, {3, 4, 2, 5}, {2, 3, 2, 3, 2}, {1, 4, 3}, {2, 2, 2, 2, 2, 2}} {
		x, u := randomProblem(rng, dims, 4)
		// Shadow copy that receives the same simulated updates, used to
		// compute the expected per-mode results independently.
		shadow := make([]mat.View, len(u))
		for i := range u {
			shadow[i] = u[i].Clone()
		}
		modeSeen := -1
		SweepAll(x, u, Options{Threads: 2}, func(n int, m mat.View) {
			if n != modeSeen+1 {
				t.Fatalf("dims=%v: modes out of order: got %d after %d", dims, n, modeSeen)
			}
			modeSeen = n
			want := Naive(x, shadow, n)
			if !mat.ApproxEqual(m, want, 1e-10) {
				t.Fatalf("dims=%v mode=%d: sweep result differs from per-mode MTTKRP (%g)",
					dims, n, mat.MaxAbsDiff(m, want))
			}
			// Simulate the ALS factor update: overwrite with new values.
			fresh := mat.RandomDense(u[n].R, u[n].C, rng)
			u[n] = fresh
			shadow[n] = fresh.Clone()
		})
		if modeSeen != len(dims)-1 {
			t.Fatalf("dims=%v: only %d modes delivered", dims, modeSeen+1)
		}
	}
}

func TestSweepAllWithoutUpdatesMatchesCompute(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, u := randomProblem(rng, []int{5, 4, 3, 4}, 6)
	// If the callback does not update factors, every mode must equal the
	// plain MTTKRP with the original factors.
	SweepAll(x, u, Options{Threads: 1}, func(n int, m mat.View) {
		want := Naive(x, u, n)
		if !mat.ApproxEqual(m, want, 1e-10) {
			t.Errorf("mode %d: mismatch %g", n, mat.MaxAbsDiff(m, want))
		}
	})
}

func TestSweepAllBreakdown(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, u := randomProblem(rng, []int{8, 9, 10}, 5)
	var bd Breakdown
	count := 0
	SweepAll(x, u, Options{Threads: 2, Breakdown: &bd}, func(int, mat.View) { count++ })
	if count != 3 {
		t.Fatalf("delivered %d modes", count)
	}
	if bd.Get(PhaseGEMM) <= 0 || bd.Get(PhaseGEMV) <= 0 || bd.Total() <= 0 {
		t.Errorf("breakdown not populated: %v", &bd)
	}
}

// TestSweepAllBreakdownExcludesUpdate pins that the Breakdown total covers
// the sweep's own work only: time the caller spends inside update (the ALS
// solve, normalization and Gram) belongs to the caller, not the kernel.
func TestSweepAllBreakdownExcludesUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, u := randomProblem(rng, []int{6, 5, 4}, 3)
	const spin = 2 * time.Millisecond
	var bd Breakdown
	start := time.Now()
	SweepAll(x, u, Options{Threads: 2, Breakdown: &bd}, func(int, mat.View) {
		for s := time.Now(); time.Since(s) < spin; {
		}
	})
	wall := time.Since(start)
	if wall < 3*spin {
		t.Fatalf("sweep wall %v shorter than its 3 callbacks", wall)
	}
	if got, max := bd.Total(), wall-3*spin; got <= 0 || got > max {
		t.Errorf("breakdown total %v, want in (0, %v]: wall %v minus 3 callbacks of %v", got, max, wall, spin)
	}
}

// TestDeriveMatchesTTVBits pins the arena-resident derivation to the
// reference tensor.TTV chain bit for bit: contracting every mode of an
// intermediate column except one, highest mode first, with TTV's loop
// order and zero-skip.
func TestDeriveMatchesTTVBits(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pool := parallel.NewPool(3)
	defer pool.Close()
	for _, dims := range [][]int{{7}, {4, 5}, {3, 1, 4}, {2, 3, 2, 3}, {5, 4, 3, 2, 2}} {
		const c = 5
		size := 1
		for _, d := range dims {
			size *= d
		}
		inter := mat.FromColMajor(make([]float64, size*c), size, c)
		inter.Randomize(rng)
		u := make([]mat.View, len(dims))
		for k, d := range dims {
			u[k] = mat.RandomDense(d, c, rng)
			u[k].Set(0, 1, 0) // exercise the zero-skip
		}
		ws := pool.Acquire()
		f := ws.Frame("core.derive", newDeriveFrame).(*deriveFrame)
		f.ws, f.dims = ws, append(f.dims[:0], dims...)
		for mode := range dims {
			got := deriveFromIntermediate(pool, 3, f, inter, u, 0, len(dims), mode)
			for col := 0; col < c; col++ {
				sub := tensor.FromData(inter.Data[col*size:(col+1)*size], dims...)
				for k := len(dims) - 1; k >= 0; k-- {
					if k == mode {
						continue
					}
					v := make([]float64, dims[k])
					for i := range v {
						v[i] = u[k].At(i, col)
					}
					sub = sub.TTV(k, v)
				}
				for i, want := range sub.Data() {
					if math.Float64bits(got.At(i, col)) != math.Float64bits(want) {
						t.Fatalf("dims=%v mode=%d (%d,%d): %v, TTV chain %v", dims, mode, i, col, got.At(i, col), want)
					}
				}
			}
		}
		ws.Release()
	}
}

func TestSplitPointBalances(t *testing.T) {
	cases := []struct {
		dims []int
		want int
	}{
		{[]int{10, 10}, 1},
		{[]int{10, 10, 10}, 1},     // 10+100 = 110 beats 100+10 tie; s=1 found first
		{[]int{10, 10, 10, 10}, 2}, // 100+100 minimal
		{[]int{2, 100, 2}, 2},      // 200+2 vs 2+200: tie, first wins... s=1: 2+200; s=2: 200+2 -> s=1
	}
	for _, c := range cases {
		x := tensor.New(c.dims...)
		got := splitPoint(x)
		// Verify optimality rather than the exact index (ties allowed).
		bestCost := x.SizeLeft(got-1)*x.Dim(got-1) + x.Size()/(x.SizeLeft(got-1)*x.Dim(got-1))
		for s := 1; s < len(c.dims); s++ {
			left := x.SizeLeft(s-1) * x.Dim(s-1)
			if cost := left + x.Size()/left; cost < bestCost {
				t.Errorf("dims=%v: splitPoint %d cost %d beaten by s=%d cost %d",
					c.dims, got, bestCost, s, cost)
			}
		}
	}
}

// Property: for random shapes and random mid-sweep updates, SweepAll
// agrees with per-mode computation throughout.
func TestSweepAllQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		order := rng.Intn(4) + 2
		dims := make([]int, order)
		for i := range dims {
			dims[i] = rng.Intn(4) + 1
		}
		x, u := randomProblem(rng, dims, rng.Intn(4)+1)
		ok := true
		SweepAll(x, u, Options{Threads: rng.Intn(3) + 1}, func(n int, m mat.View) {
			if !mat.ApproxEqual(m, Naive(x, u, n), 1e-9) {
				ok = false
			}
			u[n] = mat.RandomDense(u[n].R, u[n].C, rng)
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
