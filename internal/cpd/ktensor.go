// Package cpd implements the CP (CANDECOMP/PARAFAC) decomposition via
// alternating least squares on top of the MTTKRP kernels of package core,
// mirroring the structure of Section 2.2 of the paper: per mode, an MTTKRP,
// a Hadamard product of Gram matrices, and a (pseudo-inverse) linear solve.
package cpd

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/blas"
	"repro/internal/mat"
	"repro/internal/tensor"
)

// KTensor is a rank-C Kruskal tensor Y = ⟦λ; U⁰, …, U^{N-1}⟧: a sum of C
// rank-1 terms with component weights λ and unit-scaled factor matrices.
type KTensor struct {
	Lambda  []float64
	Factors []mat.View
}

// NewKTensor wraps weights and factors; factor k must be I_k × C.
func NewKTensor(lambda []float64, factors []mat.View) *KTensor {
	c := len(lambda)
	for k, u := range factors {
		if u.C != c {
			panic(fmt.Sprintf("cpd: factor %d has %d columns, want rank %d", k, u.C, c))
		}
	}
	return &KTensor{Lambda: lambda, Factors: factors}
}

// RandomKTensor draws factors with uniform [0,1) entries and unit weights.
func RandomKTensor(rng *rand.Rand, dims []int, c int) *KTensor {
	f := make([]mat.View, len(dims))
	for k, d := range dims {
		f[k] = mat.RandomDense(d, c, rng)
	}
	lambda := make([]float64, c)
	for i := range lambda {
		lambda[i] = 1
	}
	return &KTensor{Lambda: lambda, Factors: f}
}

// Rank returns the number of components C.
func (k *KTensor) Rank() int { return len(k.Lambda) }

// Order returns the number of modes N.
func (k *KTensor) Order() int { return len(k.Factors) }

// Dims returns the tensor dimensions implied by the factors.
func (k *KTensor) Dims() []int {
	dims := make([]int, len(k.Factors))
	for i, u := range k.Factors {
		dims[i] = u.R
	}
	return dims
}

// Full reconstructs the dense tensor Y(i₀,…,i_{N-1}) = Σ_c λ_c ∏ U^k(i_k,c).
// Intended for small tensors (tests, examples); cost is O(I·C·N).
func (k *KTensor) Full() *tensor.Dense {
	dims := k.Dims()
	y := tensor.New(dims...)
	idx := make([]int, len(dims))
	data := y.Data()
	for l := range data {
		y.MultiIndex(l, idx)
		s := 0.0
		for c := 0; c < k.Rank(); c++ {
			p := k.Lambda[c]
			for m, u := range k.Factors {
				p *= u.At(idx[m], c)
			}
			s += p
		}
		data[l] = s
	}
	return y
}

// NormSquared returns ‖Y‖² = λᵀ (⊛_k U_kᵀU_k) λ without forming Y.
func (k *KTensor) NormSquared() float64 {
	c := k.Rank()
	h := onesMatrix(c)
	for _, u := range k.Factors {
		g := gram(1, u)
		hadamardInPlace(h, g)
	}
	s := 0.0
	for i := 0; i < c; i++ {
		for j := 0; j < c; j++ {
			s += k.Lambda[i] * h.At(i, j) * k.Lambda[j]
		}
	}
	return s
}

// Norm returns ‖Y‖ = sqrt(max(NormSquared, 0)).
func (k *KTensor) Norm() float64 {
	return math.Sqrt(math.Max(k.NormSquared(), 0))
}

// Normalize rescales every factor column to unit 2-norm, absorbing the
// scales into Lambda. Zero columns keep weight 0.
func (k *KTensor) Normalize() {
	for c := 0; c < k.Rank(); c++ {
		for _, u := range k.Factors {
			nrm := blas.Nrm2(u.Col(c))
			if nrm == 0 {
				continue
			}
			blas.Scal(1/nrm, u.Col(c))
			k.Lambda[c] *= nrm
		}
	}
}

// Arrange sorts components by decreasing |λ| (in-place, stable).
func (k *KTensor) Arrange() {
	c := k.Rank()
	order := make([]int, c)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return math.Abs(k.Lambda[order[a]]) > math.Abs(k.Lambda[order[b]])
	})
	newLambda := make([]float64, c)
	for i, o := range order {
		newLambda[i] = k.Lambda[o]
	}
	for _, u := range k.Factors {
		fresh := mat.NewDense(u.R, c)
		for i, o := range order {
			blas.CopyVec(u.Col(o), fresh.Col(i))
		}
		u.CopyFrom(fresh)
	}
	copy(k.Lambda, newLambda)
}

// Clone deep-copies the KTensor.
func (k *KTensor) Clone() *KTensor {
	f := make([]mat.View, len(k.Factors))
	for i, u := range k.Factors {
		f[i] = u.Clone()
	}
	return &KTensor{Lambda: append([]float64(nil), k.Lambda...), Factors: f}
}

// gram computes G = UᵀU (C×C) with t workers.
func gram(t int, u mat.View) mat.View {
	g := mat.NewDense(u.C, u.C)
	blas.GemmOn(nil, t, 1, u.T(), u, 0, g)
	return g
}

// hadamardInPlace computes h ∗= g elementwise.
func hadamardInPlace(h, g mat.View) {
	for i := 0; i < h.R; i++ {
		blas.Had(h.ContiguousRow(i), g.ContiguousRow(i), h.ContiguousRow(i))
	}
}

func onesMatrix(c int) mat.View {
	h := mat.NewDense(c, c)
	h.Fill(1)
	return h
}
