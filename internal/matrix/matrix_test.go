package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestSymSetAt(t *testing.T) {
	m := NewSym(3)
	m.Set(0, 2, 5)
	if m.At(0, 2) != 5 || m.At(2, 0) != 5 {
		t.Fatalf("symmetry broken: %v %v", m.At(0, 2), m.At(2, 0))
	}
}

func TestEigen2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	m := NewSym(2)
	m.Set(0, 0, 2)
	m.Set(1, 1, 2)
	m.Set(0, 1, 1)
	ev := m.Eigenvalues()
	if math.Abs(ev[0]-1) > 1e-9 || math.Abs(ev[1]-3) > 1e-9 {
		t.Fatalf("eigenvalues = %v, want [1 3]", ev)
	}
}

func TestEigenDiagonal(t *testing.T) {
	m := NewSym(4)
	for i, v := range []float64{4, -1, 2, 0} {
		m.Set(i, i, v)
	}
	ev := m.Eigenvalues()
	want := []float64{-1, 0, 2, 4}
	for i := range want {
		if math.Abs(ev[i]-want[i]) > 1e-12 {
			t.Fatalf("eigenvalues = %v, want %v", ev, want)
		}
	}
}

func TestEigenTraceAndPSD(t *testing.T) {
	// Random Gram matrices are PSD; eigenvalue sum equals trace.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(8)
		r := 1 + rng.Intn(4)
		vecs := make([][]float64, n)
		for i := range vecs {
			vecs[i] = make([]float64, r)
			for j := range vecs[i] {
				vecs[i][j] = rng.NormFloat64()
			}
		}
		g := Gram(vecs)
		if !g.IsPSD(1e-8) {
			t.Fatalf("Gram matrix not PSD (min ev %v)", g.MinEigenvalue())
		}
		trace := 0.0
		for i := 0; i < n; i++ {
			trace += g.At(i, i)
		}
		sum := 0.0
		for _, ev := range g.Eigenvalues() {
			sum += ev
		}
		if math.Abs(trace-sum) > 1e-7*(1+math.Abs(trace)) {
			t.Fatalf("trace %v != eigenvalue sum %v", trace, sum)
		}
	}
}

func TestNotPSD(t *testing.T) {
	m := NewSym(2)
	m.Set(0, 1, 1) // eigenvalues ±1
	if m.IsPSD(1e-9) {
		t.Fatal("indefinite matrix reported PSD")
	}
}

func TestGramUnitVectors(t *testing.T) {
	// The four coloring vectors of Fig. 3: pairwise inner product −1/3.
	s2, s6 := math.Sqrt(2), math.Sqrt(6)
	vecs := [][]float64{
		{0, 0, 1},
		{0, 2 * s2 / 3, -1.0 / 3},
		{s6 / 3, -s2 / 3, -1.0 / 3},
		{-s6 / 3, -s2 / 3, -1.0 / 3},
	}
	g := Gram(vecs)
	for i := 0; i < 4; i++ {
		if math.Abs(g.At(i, i)-1) > 1e-12 {
			t.Fatalf("vector %d not unit: %v", i, g.At(i, i))
		}
		for j := i + 1; j < 4; j++ {
			if math.Abs(g.At(i, j)+1.0/3) > 1e-12 {
				t.Fatalf("inner product (%d,%d) = %v, want -1/3", i, j, g.At(i, j))
			}
		}
	}
}

func TestDotNorm(t *testing.T) {
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Fatal("Dot wrong")
	}
	if v := []float64{3, 4}; math.Abs(math.Sqrt(Dot(v, v))-5) > 1e-12 {
		t.Fatal("norm wrong")
	}
}

func TestPanics(t *testing.T) {
	cases := []func(){
		func() { NewSym(-1) },
		func() { Dot([]float64{1}, []float64{1, 2}) },
		func() { Gram([][]float64{{1, 2}, {1}}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestEmptyMatrix(t *testing.T) {
	m := NewSym(0)
	if ev := m.Eigenvalues(); ev != nil {
		t.Fatalf("empty eigenvalues = %v", ev)
	}
	if m.MinEigenvalue() != 0 {
		t.Fatal("empty MinEigenvalue != 0")
	}
}

// genericDot is the pre-unrolling reference: the plain left-to-right loop.
func genericDot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// genericAxpy is the plain loop dst += a·x the fused kernels must match.
func genericAxpy(dst []float64, a float64, x []float64) {
	for i := range dst {
		dst[i] += a * x[i]
	}
}

// TestFixedRankKernelsBitIdentical pins the unrolled Dot/AxpyPair/AxpyNormSq
// dispatch cases against their generic loops bit-for-bit, across every
// length the switch handles plus the fallback — the determinism contract
// the SDP trajectory rests on. Inputs mix magnitudes and signs so any
// reassociation would actually move bits.
func TestFixedRankKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for n := 1; n <= 12; n++ {
		for trial := 0; trial < 50; trial++ {
			a := make([]float64, n)
			b := make([]float64, n)
			for i := range a {
				a[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(7)-3))
				b[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(7)-3))
			}
			if got, want := Dot(a, b), genericDot(a, b); got != want {
				t.Fatalf("n=%d: Dot = %b, generic loop = %b", n, got, want)
			}

			w := (rng.Float64() - 0.5) * 4
			gu := make([]float64, n)
			gv := make([]float64, n)
			ru := make([]float64, n)
			rv := make([]float64, n)
			for i := range gu {
				gu[i] = (rng.Float64() - 0.5) * 8
				gv[i] = (rng.Float64() - 0.5) * 8
				ru[i], rv[i] = gu[i], gv[i]
			}
			AxpyPair(gu, gv, w, a, b)
			genericAxpy(ru, w, b)
			genericAxpy(rv, w, a)
			for i := range gu {
				if gu[i] != ru[i] || gv[i] != rv[i] {
					t.Fatalf("n=%d: AxpyPair[%d] = (%b,%b), want (%b,%b)", n, i, gu[i], gv[i], ru[i], rv[i])
				}
			}

			// AxpyIntoNormSq vs copy + axpy + Dot(dst,dst): the fused trial
			// step must write the same bytes and return the same norm².
			out := make([]float64, n)
			refOut := make([]float64, n)
			copy(refOut, gv)
			genericAxpy(refOut, w, a)
			s := AxpyIntoNormSq(out, gv, w, a)
			for i := range out {
				if out[i] != refOut[i] {
					t.Fatalf("n=%d: AxpyIntoNormSq[%d] = %b, want %b", n, i, out[i], refOut[i])
				}
			}
			if want := Dot(refOut, refOut); s != want {
				t.Fatalf("n=%d: AxpyIntoNormSq norm² = %b, want %b", n, s, want)
			}
			// In-place form (the Riemannian projection's fused pass).
			inPlace := make([]float64, n)
			refIn := make([]float64, n)
			copy(inPlace, gu)
			copy(refIn, gu)
			genericAxpy(refIn, w, b)
			s = AxpyNormSq(inPlace, w, b)
			for i := range inPlace {
				if inPlace[i] != refIn[i] {
					t.Fatalf("n=%d: AxpyNormSq[%d] = %b, want %b", n, i, inPlace[i], refIn[i])
				}
			}
			if want := Dot(refIn, refIn); s != want {
				t.Fatalf("n=%d: AxpyNormSq norm² = %b, want %b", n, s, want)
			}
		}
	}
}

// BenchmarkDotFixedRank measures the unrolled Dot at the SDP's working
// ranks next to a just-past-the-switch length (the generic loop). CI's
// bench-smoke job publishes the lines; a regression here taxes every edge
// of every gradient iteration.
func BenchmarkDotFixedRank(b *testing.B) {
	for _, n := range []int{3, 4, 6, 8, 16} {
		a := make([]float64, n)
		c := make([]float64, n)
		for i := range a {
			a[i] = float64(i+1) * 0.375
			c[i] = float64(n-i) * 0.25
		}
		b.Run(fmt.Sprintf("rank%d", n), func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += Dot(a, c)
			}
			if sink == math.Inf(1) {
				b.Fatal("unreachable: keeps sink live")
			}
		})
	}
}
