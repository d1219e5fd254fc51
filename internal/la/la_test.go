package la

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

// randomSPD builds A = BᵀB + εI, guaranteed symmetric positive definite.
func randomSPD(n int, rng *rand.Rand) mat.View {
	b := mat.RandomDense(n+2, n, rng)
	a := SymMatMul(b.T(), b)
	for i := 0; i < n; i++ {
		a.Add(i, i, 0.1)
	}
	return a
}

func TestCholeskyReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 5, 10, 25} {
		a := randomSPD(n, rng)
		l, err := Cholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		llt := SymMatMul(l, l.T())
		if !mat.ApproxEqual(a, llt, 1e-10) {
			t.Errorf("n=%d: LLᵀ != A, maxdiff %g", n, mat.MaxAbsDiff(a, llt))
		}
		// L must be lower triangular.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if l.At(i, j) != 0 {
					t.Fatalf("n=%d: L(%d,%d) = %v not zero", n, i, j, l.At(i, j))
				}
			}
		}
	}
}

// TestCholeskyIntoReusesDirtyBuffer pins that the buffer-writing form
// yields Cholesky's matrix bit for bit whatever the buffer held, with
// zero allocations, and that PinvSolveGramInto matches PinvSolveGram.
func TestCholeskyIntoReusesDirtyBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 3, 10} {
		a := randomSPD(n, rng)
		want, err := Cholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		l := mat.NewDense(n, n)
		l.Fill(math.NaN())
		if allocs := testing.AllocsPerRun(5, func() {
			if err := CholeskyInto(l, a); err != nil {
				t.Fatal(err)
			}
		}); allocs > 0 {
			t.Errorf("n=%d: CholeskyInto %v allocs/op, want 0", n, allocs)
		}
		for i, v := range l.Data {
			if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
				t.Fatalf("n=%d: entry %d is %v, Cholesky %v", n, i, v, want.Data[i])
			}
		}

		m := mat.RandomDense(7, n, rng)
		got := PinvSolveGramInto(a, m.Clone(), l)
		ref := PinvSolveGram(a, m.Clone())
		if mat.MaxAbsDiff(got, ref) != 0 {
			t.Errorf("n=%d: PinvSolveGramInto differs from PinvSolveGram by %g", n, mat.MaxAbsDiff(got, ref))
		}
	}
	if err := CholeskyInto(mat.NewDense(2, 2), mat.FromRowMajor([]float64{1, 2, 2, 1}, 2, 2)); err == nil {
		t.Error("expected failure for indefinite matrix")
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := mat.FromRowMajor([]float64{1, 2, 2, 1}, 2, 2) // eigenvalues 3, -1
	if _, err := Cholesky(a); err == nil {
		t.Error("expected failure for indefinite matrix")
	}
	z := mat.NewDense(2, 2) // zero matrix: semidefinite, not definite
	if _, err := Cholesky(z); err == nil {
		t.Error("expected failure for zero matrix")
	}
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 8
	a := randomSPD(n, rng)
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	xTrue := mat.RandomDense(n, 3, rng)
	b := SymMatMul(a, xTrue)
	CholeskySolveInPlace(l, b)
	if !mat.ApproxEqual(b, xTrue, 1e-9) {
		t.Errorf("solve wrong: maxdiff %g", mat.MaxAbsDiff(b, xTrue))
	}
}

func TestJacobiEigenReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 3, 6, 12, 30} {
		a := randomSPD(n, rng)
		w, v := JacobiEigen(a)
		// A·V = V·diag(w)
		av := SymMatMul(a, v)
		vd := v.Clone()
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				vd.Set(i, j, v.At(i, j)*w[j])
			}
		}
		if !mat.ApproxEqual(av, vd, 1e-9) {
			t.Errorf("n=%d: AV != VΛ, maxdiff %g", n, mat.MaxAbsDiff(av, vd))
		}
		// V orthogonal: VᵀV = I.
		vtv := SymMatMul(v.T(), v)
		eye := mat.NewDense(n, n)
		for i := 0; i < n; i++ {
			eye.Set(i, i, 1)
		}
		if !mat.ApproxEqual(vtv, eye, 1e-10) {
			t.Errorf("n=%d: V not orthogonal", n)
		}
	}
}

func TestJacobiEigenKnownValues(t *testing.T) {
	a := mat.FromRowMajor([]float64{2, 1, 1, 2}, 2, 2)
	w, _ := JacobiEigen(a)
	// Eigenvalues are 1 and 3 in some order.
	lo, hi := math.Min(w[0], w[1]), math.Max(w[0], w[1])
	if math.Abs(lo-1) > 1e-12 || math.Abs(hi-3) > 1e-12 {
		t.Errorf("eigenvalues %v, want {1, 3}", w)
	}
}

func TestPinvSolveGramPDPath(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := 6
	h := randomSPD(c, rng)
	xTrue := mat.RandomDense(20, c, rng)
	m := SymMatMul(xTrue, h) // M = X·H
	got := PinvSolveGram(h, m)
	if !mat.ApproxEqual(got, xTrue, 1e-8) {
		t.Errorf("PD gram solve wrong: maxdiff %g", mat.MaxAbsDiff(got, xTrue))
	}
}

func TestPinvSolveGramSingularFallback(t *testing.T) {
	// H singular: rank 1.
	h := mat.FromRowMajor([]float64{1, 1, 1, 1}, 2, 2)
	m := mat.FromRowMajor([]float64{2, 2, 4, 4}, 2, 2)
	got := PinvSolveGram(h, m.Clone())
	// X = M·H†; H† = H/4 for this rank-1 H (H² = 2H ⇒ H† = H/4).
	want := mat.FromRowMajor([]float64{1, 1, 2, 2}, 2, 2)
	if !mat.ApproxEqual(got, want, 1e-10) {
		t.Errorf("singular fallback wrong:\n%v want\n%v", got, want)
	}
}

// Property: for random PSD H (possibly singular), X = M·H† satisfies the
// Penrose condition X·H·H† = X ⇔ (M H†) H H† = M H†.
func TestPinvPenroseQuick(t *testing.T) {
	f := func(seed int64, rank8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := 5
		rank := int(rank8%5) + 1
		b := mat.RandomDense(rank, c, rng)
		h := SymMatMul(b.T(), b) // PSD with rank ≤ rank
		m := mat.RandomDense(7, c, rng)
		x := PinvSolveGram(h, m.Clone())
		// y = (X·H)·H†
		xh := SymMatMul(x, h)
		y := PinvSolveGram(h, xh)
		return mat.ApproxEqual(y, x, 1e-6)
	}
	// Deterministic source: the property's error bound scales with the
	// condition number of H's nonzero spectrum, which is unbounded over
	// fully random draws — time-seeded generation makes the test flaky on
	// unlucky near-collinear B (observed on the seed tree). Fixed seeds
	// keep the 60 cases reproducible.
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(42))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestNonSquarePanics(t *testing.T) {
	for i, fn := range []func(){
		func() { _, _ = Cholesky(mat.NewDense(2, 3)) },
		func() { JacobiEigen(mat.NewDense(2, 3)) },
		func() { PinvSolveGram(mat.NewDense(2, 3), mat.NewDense(2, 2)) },
		func() { PinvSolveGram(mat.NewDense(3, 3), mat.NewDense(2, 2)) },
		func() { SymMatMul(mat.NewDense(2, 3), mat.NewDense(2, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}
