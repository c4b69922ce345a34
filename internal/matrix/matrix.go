// Package matrix provides the small dense symmetric-matrix utilities the
// SDP layer needs: storage, Gram-matrix assembly, and a cyclic Jacobi
// eigendecomposition used to verify positive semidefiniteness of relaxation
// solutions in tests (the defining property of the matrix X in Eq. (2)).
package matrix

import (
	"fmt"
	"math"
)

// Sym is a dense symmetric n×n matrix stored as the full square for simple
// indexing. Set maintains symmetry.
type Sym struct {
	N int
	a []float64
}

// NewSym returns a zero symmetric matrix of order n.
func NewSym(n int) *Sym {
	if n < 0 {
		panic("matrix: negative order")
	}
	return &Sym{N: n, a: make([]float64, n*n)}
}

// At returns element (i, j).
func (m *Sym) At(i, j int) float64 { return m.a[i*m.N+j] }

// Set assigns element (i, j) and mirrors it to (j, i).
func (m *Sym) Set(i, j int, v float64) {
	m.a[i*m.N+j] = v
	m.a[j*m.N+i] = v
}

// Gram builds the Gram matrix X = VᵀV of the r-dimensional row vectors in
// vecs: X[i][j] = vecs[i]·vecs[j]. This is exactly how the low-rank SDP
// solver materializes its solution matrix.
func Gram(vecs [][]float64) *Sym {
	n := len(vecs)
	m := NewSym(n)
	for i := 0; i < n; i++ {
		if len(vecs[i]) != len(vecs[0]) {
			panic(fmt.Sprintf("matrix: ragged vector set (row %d)", i))
		}
		for j := i; j < n; j++ {
			m.Set(i, j, Dot(vecs[i], vecs[j]))
		}
	}
	return m
}

// Dot returns the inner product of two equal-length vectors.
//
// Small lengths — the SDP factorization ranks, K up to ~8 — are unrolled.
// The unrolled sums keep the generic loop's left-to-right association
// (Go never reassociates floating-point expressions), so the result is
// bit-identical to the fallback loop and the solver's deterministic
// trajectory does not depend on which case dispatched.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("matrix: dot length mismatch")
	}
	switch len(a) {
	case 2:
		return a[0]*b[0] + a[1]*b[1]
	case 3:
		return a[0]*b[0] + a[1]*b[1] + a[2]*b[2]
	case 4:
		return a[0]*b[0] + a[1]*b[1] + a[2]*b[2] + a[3]*b[3]
	case 5:
		return a[0]*b[0] + a[1]*b[1] + a[2]*b[2] + a[3]*b[3] + a[4]*b[4]
	case 6:
		return a[0]*b[0] + a[1]*b[1] + a[2]*b[2] + a[3]*b[3] + a[4]*b[4] + a[5]*b[5]
	case 7:
		return a[0]*b[0] + a[1]*b[1] + a[2]*b[2] + a[3]*b[3] + a[4]*b[4] + a[5]*b[5] + a[6]*b[6]
	case 8:
		return a[0]*b[0] + a[1]*b[1] + a[2]*b[2] + a[3]*b[3] + a[4]*b[4] + a[5]*b[5] + a[6]*b[6] + a[7]*b[7]
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// AxpyPair applies the two symmetric gradient contributions of one edge
// (u, v) in a single pass over the rank: gu += a·vv and gv += a·vu. The
// gradient edge walk used to traverse three rows per edge (dot already
// touched vu and vv; two separate axpy calls re-read them and wrote gu
// and gv); fusing the writes halves the axpy-side row traffic. gu and gv
// must not alias (the endpoints of an edge are distinct vertices, so
// their gradient rows are disjoint); vu/vv are read-only, so the
// element-wise interleaving is bit-identical to two sequential Axpy
// calls.
func AxpyPair(gu, gv []float64, a float64, vu, vv []float64) {
	switch len(gu) {
	case 2:
		gu[0] += a * vv[0]
		gv[0] += a * vu[0]
		gu[1] += a * vv[1]
		gv[1] += a * vu[1]
	case 3:
		gu[0] += a * vv[0]
		gv[0] += a * vu[0]
		gu[1] += a * vv[1]
		gv[1] += a * vu[1]
		gu[2] += a * vv[2]
		gv[2] += a * vu[2]
	case 4:
		gu[0] += a * vv[0]
		gv[0] += a * vu[0]
		gu[1] += a * vv[1]
		gv[1] += a * vu[1]
		gu[2] += a * vv[2]
		gv[2] += a * vu[2]
		gu[3] += a * vv[3]
		gv[3] += a * vu[3]
	case 5:
		gu[0] += a * vv[0]
		gv[0] += a * vu[0]
		gu[1] += a * vv[1]
		gv[1] += a * vu[1]
		gu[2] += a * vv[2]
		gv[2] += a * vu[2]
		gu[3] += a * vv[3]
		gv[3] += a * vu[3]
		gu[4] += a * vv[4]
		gv[4] += a * vu[4]
	case 6:
		gu[0] += a * vv[0]
		gv[0] += a * vu[0]
		gu[1] += a * vv[1]
		gv[1] += a * vu[1]
		gu[2] += a * vv[2]
		gv[2] += a * vu[2]
		gu[3] += a * vv[3]
		gv[3] += a * vu[3]
		gu[4] += a * vv[4]
		gv[4] += a * vu[4]
		gu[5] += a * vv[5]
		gv[5] += a * vu[5]
	case 7:
		gu[0] += a * vv[0]
		gv[0] += a * vu[0]
		gu[1] += a * vv[1]
		gv[1] += a * vu[1]
		gu[2] += a * vv[2]
		gv[2] += a * vu[2]
		gu[3] += a * vv[3]
		gv[3] += a * vu[3]
		gu[4] += a * vv[4]
		gv[4] += a * vu[4]
		gu[5] += a * vv[5]
		gv[5] += a * vu[5]
		gu[6] += a * vv[6]
		gv[6] += a * vu[6]
	case 8:
		gu[0] += a * vv[0]
		gv[0] += a * vu[0]
		gu[1] += a * vv[1]
		gv[1] += a * vu[1]
		gu[2] += a * vv[2]
		gv[2] += a * vu[2]
		gu[3] += a * vv[3]
		gv[3] += a * vu[3]
		gu[4] += a * vv[4]
		gv[4] += a * vu[4]
		gu[5] += a * vv[5]
		gv[5] += a * vu[5]
		gu[6] += a * vv[6]
		gv[6] += a * vu[6]
		gu[7] += a * vv[7]
		gv[7] += a * vu[7]
	default:
		for i := range gu {
			gu[i] += a * vv[i]
			gv[i] += a * vu[i]
		}
	}
}

// AxpyIntoNormSq writes dst = src + a·x element-wise and returns the
// squared norm of the freshly written dst, accumulated left to right — the
// line-search trial step (restore + axpy + Dot(dst,dst)) in one row pass
// instead of three. Each written element is src[i] + a·x[i], the exact
// expression `copy(dst, src); Axpy(dst, a, x)` evaluates, and the norm
// accumulation visits elements in Dot's order, so the result is
// bit-identical to the unfused sequence. dst must not alias x.
func AxpyIntoNormSq(dst, src []float64, a float64, x []float64) float64 {
	switch len(dst) {
	case 2:
		y0 := src[0] + a*x[0]
		y1 := src[1] + a*x[1]
		dst[0], dst[1] = y0, y1
		return y0*y0 + y1*y1
	case 3:
		y0 := src[0] + a*x[0]
		y1 := src[1] + a*x[1]
		y2 := src[2] + a*x[2]
		dst[0], dst[1], dst[2] = y0, y1, y2
		return y0*y0 + y1*y1 + y2*y2
	case 4:
		y0 := src[0] + a*x[0]
		y1 := src[1] + a*x[1]
		y2 := src[2] + a*x[2]
		y3 := src[3] + a*x[3]
		dst[0], dst[1], dst[2], dst[3] = y0, y1, y2, y3
		return y0*y0 + y1*y1 + y2*y2 + y3*y3
	case 5:
		y0 := src[0] + a*x[0]
		y1 := src[1] + a*x[1]
		y2 := src[2] + a*x[2]
		y3 := src[3] + a*x[3]
		y4 := src[4] + a*x[4]
		dst[0], dst[1], dst[2], dst[3], dst[4] = y0, y1, y2, y3, y4
		return y0*y0 + y1*y1 + y2*y2 + y3*y3 + y4*y4
	case 6:
		y0 := src[0] + a*x[0]
		y1 := src[1] + a*x[1]
		y2 := src[2] + a*x[2]
		y3 := src[3] + a*x[3]
		y4 := src[4] + a*x[4]
		y5 := src[5] + a*x[5]
		dst[0], dst[1], dst[2], dst[3], dst[4], dst[5] = y0, y1, y2, y3, y4, y5
		return y0*y0 + y1*y1 + y2*y2 + y3*y3 + y4*y4 + y5*y5
	case 7:
		y0 := src[0] + a*x[0]
		y1 := src[1] + a*x[1]
		y2 := src[2] + a*x[2]
		y3 := src[3] + a*x[3]
		y4 := src[4] + a*x[4]
		y5 := src[5] + a*x[5]
		y6 := src[6] + a*x[6]
		dst[0], dst[1], dst[2], dst[3], dst[4], dst[5], dst[6] = y0, y1, y2, y3, y4, y5, y6
		return y0*y0 + y1*y1 + y2*y2 + y3*y3 + y4*y4 + y5*y5 + y6*y6
	case 8:
		y0 := src[0] + a*x[0]
		y1 := src[1] + a*x[1]
		y2 := src[2] + a*x[2]
		y3 := src[3] + a*x[3]
		y4 := src[4] + a*x[4]
		y5 := src[5] + a*x[5]
		y6 := src[6] + a*x[6]
		y7 := src[7] + a*x[7]
		dst[0], dst[1], dst[2], dst[3], dst[4], dst[5], dst[6], dst[7] = y0, y1, y2, y3, y4, y5, y6, y7
		return y0*y0 + y1*y1 + y2*y2 + y3*y3 + y4*y4 + y5*y5 + y6*y6 + y7*y7
	}
	s := 0.0
	for i := range dst {
		y := src[i] + a*x[i]
		dst[i] = y
		s += y * y
	}
	return s
}

// AxpyNormSq is AxpyIntoNormSq's in-place form: dst += a·x, returning the
// squared norm of the updated dst — the Riemannian projection's axpy +
// gnorm accumulation fused into one pass. Same bit-identity argument.
func AxpyNormSq(dst []float64, a float64, x []float64) float64 {
	return AxpyIntoNormSq(dst, dst, a, x)
}

// Eigenvalues computes all eigenvalues of the symmetric matrix with the
// cyclic Jacobi method. The input is not modified. Results are sorted
// ascending. Intended for the small matrices (n up to a few hundred) that
// appear per decomposition-graph component.
func (m *Sym) Eigenvalues() []float64 {
	n := m.N
	if n == 0 {
		return nil
	}
	a := make([]float64, len(m.a))
	copy(a, m.a)
	at := func(i, j int) float64 { return a[i*n+j] }
	set := func(i, j int, v float64) { a[i*n+j] = v }

	off := func() float64 {
		s := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				s += at(i, j) * at(i, j)
			}
		}
		return s
	}
	const tol = 1e-22
	for sweep := 0; sweep < 100 && off() > tol*float64(n*n); sweep++ {
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := at(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := at(p, p), at(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				// Rotate rows/cols p and q.
				for k := 0; k < n; k++ {
					akp, akq := at(k, p), at(k, q)
					set(k, p, c*akp-s*akq)
					set(k, q, s*akp+c*akq)
				}
				for k := 0; k < n; k++ {
					apk, aqk := at(p, k), at(q, k)
					set(p, k, c*apk-s*aqk)
					set(q, k, s*apk+c*aqk)
				}
			}
		}
	}
	ev := make([]float64, n)
	for i := 0; i < n; i++ {
		ev[i] = at(i, i)
	}
	// Insertion sort: n is small.
	for i := 1; i < n; i++ {
		v := ev[i]
		j := i - 1
		for j >= 0 && ev[j] > v {
			ev[j+1] = ev[j]
			j--
		}
		ev[j+1] = v
	}
	return ev
}

// MinEigenvalue returns the smallest eigenvalue (0 for an empty matrix).
func (m *Sym) MinEigenvalue() float64 {
	ev := m.Eigenvalues()
	if len(ev) == 0 {
		return 0
	}
	return ev[0]
}

// IsPSD reports whether the matrix is positive semidefinite within tol.
func (m *Sym) IsPSD(tol float64) bool { return m.MinEigenvalue() >= -tol }
