package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// equalGraphs reports whether two graphs are byte-identical: same vertex
// count, same edge-kind totals, and the same row contents for every vertex
// and edge kind.
func equalGraphs(a, b *Graph) bool {
	aRows, aCounts := kindRows(a)
	bRows, bCounts := kindRows(b)
	if a.N() != b.N() || aCounts != bCounts {
		return false
	}
	for kind := range aRows {
		for v := 0; v < a.N(); v++ {
			if !slices.Equal(aRows[kind](v), bRows[kind](v)) {
				return false
			}
		}
	}
	return true
}

// randomEdges returns m random pairs over n vertices, possibly duplicated
// (both directions), the multiset both construction paths must agree on.
func randomEdges(rng *rand.Rand, n, m int) [][2]int {
	pairs := make([][2]int, 0, m)
	for len(pairs) < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if rng.Intn(4) == 0 {
			u, v = v, u // exercise both orientations
		}
		pairs = append(pairs, [2]int{u, v})
		if rng.Intn(3) == 0 { // duplicate pressure: Build must compact
			pairs = append(pairs, [2]int{u, v})
		}
	}
	return pairs
}

// TestBuilderMatchesMutable is the representation-equivalence property: for
// random edge multisets, the CSR two-pass build and the legacy per-insert
// representation (mutable_ref_test.go) produce identical graphs — row
// contents, edge counts, duplicate handling.
func TestBuilderMatchesMutable(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := 200
	if testing.Short() {
		cases = 40
	}
	for it := 0; it < cases; it++ {
		n := 2 + rng.Intn(60)
		kinds := [numKinds][][2]int{
			kindConflict: randomEdges(rng, n, rng.Intn(4*n)),
			kindStitch:   randomEdges(rng, n, rng.Intn(n)),
			kindFriend:   randomEdges(rng, n, rng.Intn(2*n)),
		}
		ref := newMutableRef(n)
		bld := NewBuilder(n)
		for kind, pairs := range kinds {
			for _, p := range pairs {
				ref.add(kind, p[0], p[1])
				addKind(bld, kind, p[0], p[1])
			}
		}
		if diff := refMismatch(bld.Build(nil), ref); diff != "" {
			t.Fatalf("iteration %d: CSR build differs from the per-insert reference (n=%d, %d/%d/%d pairs): %s",
				it, n, len(kinds[0]), len(kinds[1]), len(kinds[2]), diff)
		}
	}
}

// TestBuilderPairsMatchSingles: the bulk pair interface (the streamed
// build's shard drain) is equivalent to per-edge appends in any order.
func TestBuilderPairsMatchSingles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 40
	conf := randomEdges(rng, n, 120)

	single := NewBuilder(n)
	for _, p := range conf {
		single.AddConflict(p[0], p[1])
	}

	// Split the same multiset into shards appended in reverse order.
	bulk := NewBuilder(n)
	flat := make([]int32, 0, 2*len(conf))
	for _, p := range conf {
		flat = append(flat, int32(p[0]), int32(p[1]))
	}
	half := (len(flat) / 2) &^ 1
	bulk.AddConflictPairs(flat[half:])
	bulk.AddConflictPairs(flat[:half])

	if !equalGraphs(single.Build(nil), bulk.Build(nil)) {
		t.Fatal("bulk pair append differs from per-edge append")
	}
}

// TestBuilderArenaRows: rows are full-capacity views into one id array,
// so a caller appending to a row reallocates it instead of clobbering the
// next row.
func TestBuilderArenaRows(t *testing.T) {
	bld := NewBuilder(4)
	bld.AddConflict(0, 1)
	bld.AddConflict(0, 2)
	bld.AddConflict(1, 2)
	g := bld.Build(nil)
	before := append([]int32(nil), g.ConflictNeighbors(1)...)
	row := append(g.ConflictNeighbors(0), 3)
	if got := g.ConflictNeighbors(1); !reflect.DeepEqual(got, before) {
		t.Fatalf("neighbor row of 1 changed by an append to row 0: %v -> %v", before, got)
	}
	if want := []int32{1, 2}; !reflect.DeepEqual(g.ConflictNeighbors(0), want) {
		t.Fatalf("row 0 = %v, want %v", g.ConflictNeighbors(0), want)
	}
	if want := []int32{1, 2, 3}; !reflect.DeepEqual(row, want) {
		t.Fatalf("appended row = %v, want %v", row, want)
	}
}

// TestBuilderScratchArena: building through a scratch arena returns the
// transient offsets and produces the same graph.
func TestBuilderScratchArena(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 50
	conf := randomEdges(rng, n, 200)
	mk := func(sc Int32Arena) *Graph {
		b := NewBuilder(n)
		for _, p := range conf {
			b.AddConflict(p[0], p[1])
		}
		return b.Build(sc)
	}
	if !equalGraphs(mk(nil), mk(&countingArena{})) {
		t.Fatal("scratch-fed build differs from allocating build")
	}
	ca := &countingArena{}
	mk(ca)
	if ca.got == 0 || ca.got != ca.put {
		t.Fatalf("arena leases not balanced: %d leased, %d returned", ca.got, ca.put)
	}
}

type countingArena struct{ got, put int }

func (c *countingArena) Int32s(n int) []int32 { c.got++; return make([]int32, n) }
func (c *countingArena) PutInt32s([]int32)    { c.put++ }

// BenchmarkDenseHub pins the O(deg²) dense-hub fix: building a graph whose
// vertex 0 neighbors everyone — with every edge inserted twice, the dedup
// pressure that made the old linear `contains` scan quadratic — through the
// legacy per-insert representation (mutable_ref_test.go) versus the CSR
// builder. The builder's sort+compact build is
// near-linear in the edge count; regressions show up as a superlinear gap
// between the /size=... variants.
func BenchmarkDenseHub(b *testing.B) {
	for _, size := range []int{1 << 10, 1 << 12, 1 << 14} {
		b.Run("mutable/size="+itoa(size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := newMutableRef(size)
				for v := 1; v < size; v++ {
					r.add(kindConflict, 0, v)
					r.add(kindConflict, v, 0) // duplicate: dedup probe on the hub row
				}
			}
		})
		b.Run("builder/size="+itoa(size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bld := NewBuilder(size)
				for v := 1; v < size; v++ {
					bld.AddConflict(0, v)
					bld.AddConflict(v, 0)
				}
				bld.Build(nil)
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestVertexCapacityGuards: the Builder must reject vertex counts outside
// the int32 id range before any allocation happens, with a clear diagnosis
// — the silent-overflow bugfix of the million-feature hardening pass — and
// must range-check edge endpoints as ints, before narrowing them to int32
// could alias an out-of-range id onto a real vertex.
func TestVertexCapacityGuards(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	for _, n := range []int{-1, MaxVertices + 1} {
		mustPanic(fmt.Sprintf("NewBuilder(%d)", n), func() { NewBuilder(n) })
	}
	// 1<<32+1 narrows to vertex 1; only a 64-bit int can hold it.
	var wide int64 = 1<<32 + 1
	if int64(int(wide)) != wide {
		return
	}
	for name, add := range map[string]func(*Builder, int, int){
		"AddConflict": (*Builder).AddConflict,
		"AddStitch":   (*Builder).AddStitch,
		"AddFriend":   (*Builder).AddFriend,
	} {
		mustPanic(name+"(1<<32+1, 0)", func() { add(NewBuilder(3), int(wide), 0) })
		mustPanic(name+"(0, 1<<32+1)", func() { add(NewBuilder(3), 0, int(wide)) })
	}
}
