// Package la provides the small dense solvers CP-ALS needs on top of the
// BLAS kernels: Cholesky factorization, a symmetric Jacobi
// eigendecomposition, and a Gram-system solver with pseudo-inverse
// fallback. All matrices here are C×C where C is the CP rank (tens at
// most), so the routines favour robustness and clarity over blocking.
package la

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mat"
)

// ErrNotPositiveDefinite reports that a Cholesky factorization failed.
var ErrNotPositiveDefinite = errors.New("la: matrix not positive definite")

// Cholesky computes the lower-triangular factor L with A = L·Lᵀ for a
// symmetric positive-definite A, writing L into a fresh row-major matrix.
// Only the lower triangle of A is read.
func Cholesky(a mat.View) (mat.View, error) {
	l := mat.NewDense(a.R, a.R)
	if err := CholeskyInto(l, a); err != nil {
		return mat.View{}, err
	}
	return l, nil
}

// CholeskyInto is Cholesky writing L into the caller's n×n buffer l,
// whatever it held: the strict upper triangle is zeroed, so l ends up
// exactly the matrix Cholesky returns. On failure l's contents are
// unspecified.
func CholeskyInto(l, a mat.View) error {
	n := a.R
	if a.C != n {
		panic(fmt.Sprintf("la: cholesky of non-square %dx%d", a.R, a.C))
	}
	if l.R != n || l.C != n {
		panic(fmt.Sprintf("la: cholesky factor buffer is %dx%d, want %dx%d", l.R, l.C, n, n))
	}
	// Relative pivot threshold: treat near-singular matrices as failures so
	// callers fall back to the pseudo-inverse instead of dividing by noise.
	maxDiag := 0.0
	for i := 0; i < n; i++ {
		if d := math.Abs(a.At(i, i)); d > maxDiag {
			maxDiag = d
		}
	}
	tol := 1e-13 * float64(n) * maxDiag
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for p := 0; p < j; p++ {
			d -= l.At(j, p) * l.At(j, p)
		}
		if d <= tol || math.IsNaN(d) {
			return ErrNotPositiveDefinite
		}
		d = math.Sqrt(d)
		l.Set(j, j, d)
		for i := 0; i < j; i++ {
			l.Set(i, j, 0)
		}
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for p := 0; p < j; p++ {
				s -= l.At(i, p) * l.At(j, p)
			}
			l.Set(i, j, s/d)
		}
	}
	return nil
}

// CholeskySolveInPlace solves L·Lᵀ·x = b for each column b of rhs,
// overwriting rhs with the solutions. L must be the lower-triangular
// Cholesky factor.
func CholeskySolveInPlace(l mat.View, rhs mat.View) {
	n := l.R
	if rhs.R != n {
		panic("la: cholesky solve dimension mismatch")
	}
	for j := 0; j < rhs.C; j++ {
		// Forward substitution: L·y = b.
		for i := 0; i < n; i++ {
			s := rhs.At(i, j)
			for p := 0; p < i; p++ {
				s -= l.At(i, p) * rhs.At(p, j)
			}
			rhs.Set(i, j, s/l.At(i, i))
		}
		// Back substitution: Lᵀ·x = y.
		for i := n - 1; i >= 0; i-- {
			s := rhs.At(i, j)
			for p := i + 1; p < n; p++ {
				s -= l.At(p, i) * rhs.At(p, j)
			}
			rhs.Set(i, j, s/l.At(i, i))
		}
	}
}

// JacobiEigen computes the eigendecomposition A = V·diag(w)·Vᵀ of a
// symmetric matrix by cyclic Jacobi rotations. V's columns are the
// eigenvectors. The input is not modified.
func JacobiEigen(a mat.View) (w []float64, v mat.View) {
	n := a.R
	if a.C != n {
		panic(fmt.Sprintf("la: eigen of non-square %dx%d", a.R, a.C))
	}
	// Work on a copy, symmetrized to wash out representation asymmetry.
	s := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s.Set(i, j, 0.5*(a.At(i, j)+a.At(j, i)))
		}
	}
	v = mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}
	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += s.At(i, j) * s.At(i, j)
			}
		}
		if off <= 1e-30 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := s.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := s.At(p, p), s.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				sn := t * c
				rotate(s, v, p, q, c, sn)
			}
		}
	}
	w = make([]float64, n)
	for i := range w {
		w[i] = s.At(i, i)
	}
	return w, v
}

// rotate applies the Jacobi rotation J(p,q,θ) to s (two-sided) and v
// (right side).
func rotate(s, v mat.View, p, q int, c, sn float64) {
	n := s.R
	for k := 0; k < n; k++ {
		skp, skq := s.At(k, p), s.At(k, q)
		s.Set(k, p, c*skp-sn*skq)
		s.Set(k, q, sn*skp+c*skq)
	}
	for k := 0; k < n; k++ {
		spk, sqk := s.At(p, k), s.At(q, k)
		s.Set(p, k, c*spk-sn*sqk)
		s.Set(q, k, sn*spk+c*sqk)
	}
	for k := 0; k < n; k++ {
		vkp, vkq := v.At(k, p), v.At(k, q)
		v.Set(k, p, c*vkp-sn*vkq)
		v.Set(k, q, sn*vkp+c*vkq)
	}
}

// PinvSolveGram solves X·H ≈ M for X given a symmetric positive
// semidefinite Gram matrix H (C×C) and M (I×C), i.e. X = M·H†. It first
// attempts a Cholesky solve (the fast path: H = ⊛ UᵀU is PD whenever the
// factors have full column rank) and falls back to an eigendecomposition
// pseudo-inverse when H is singular or indefinite, exactly as Matlab's
// pinv-based `cp_als` update M·H† behaves. The result overwrites m's
// buffer and is also returned.
func PinvSolveGram(h mat.View, m mat.View) mat.View {
	return PinvSolveGramInto(h, m, mat.NewDense(h.R, h.R))
}

// PinvSolveGramInto is PinvSolveGram with a caller-owned C×C scratch l for
// the Cholesky factor, so the fast path allocates nothing; only the
// pseudo-inverse fallback allocates.
func PinvSolveGramInto(h, m, l mat.View) mat.View {
	c := h.R
	if h.C != c || m.C != c {
		panic("la: gram solve dimension mismatch")
	}
	if err := CholeskyInto(l, h); err == nil {
		// X·H = M  ⇒  H·Xᵀ = Mᵀ (H symmetric); solve per row of M.
		CholeskySolveInPlace(l, m.T())
		return m
	}
	// Pseudo-inverse fallback: H† = V diag(w†) Vᵀ.
	w, v := JacobiEigen(h)
	wmax := 0.0
	for _, x := range w {
		if math.Abs(x) > wmax {
			wmax = math.Abs(x)
		}
	}
	tol := 1e-12 * wmax * float64(c)
	// X = M V diag(w†) Vᵀ, computed row-by-row with small temporaries.
	tmp := make([]float64, c)
	for i := 0; i < m.R; i++ {
		// tmp = (row · V) * w†
		for j := 0; j < c; j++ {
			s := 0.0
			for p := 0; p < c; p++ {
				s += m.At(i, p) * v.At(p, j)
			}
			if math.Abs(w[j]) > tol {
				tmp[j] = s / w[j]
			} else {
				tmp[j] = 0
			}
		}
		// row = tmp · Vᵀ
		for j := 0; j < c; j++ {
			s := 0.0
			for p := 0; p < c; p++ {
				s += tmp[p] * v.At(j, p)
			}
			m.Set(i, j, s)
		}
	}
	return m
}

// SymMatMul returns A·B for small square matrices (test and fit-computation
// helper; not performance critical).
func SymMatMul(a, b mat.View) mat.View {
	if a.C != b.R {
		panic("la: matmul dimension mismatch")
	}
	out := mat.NewDense(a.R, b.C)
	for i := 0; i < a.R; i++ {
		for j := 0; j < b.C; j++ {
			s := 0.0
			for p := 0; p < a.C; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}
