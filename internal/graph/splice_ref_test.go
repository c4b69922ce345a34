package graph

// Differential check of BuildSpliced against the construction it replaced
// in ApplyEdits, kept here verbatim as spliceReference: every prior pair of
// two surviving vertices remapped through oldToNew into a Builder next to
// the fresh pairs, then one Build. For any prior graph, any monotonic
// vertex maps and any fresh pairs with a rebuilt endpoint, both must
// produce DeepEqual graphs — offsets, rows and edge counts — and the
// splice must hand back every array it leased.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// spliceReference is ApplyEdits' remap-through-Builder graph rebuild: the
// builder's fresh pairs plus every prior pair of two surviving vertices,
// remapped, built from scratch. It reads b without consuming it.
func spliceReference(b *Builder, prev *Graph, oldToNew []int32) *Graph {
	bld := NewBuilder(b.n)
	bld.conf, bld.stit, bld.friend = slices.Clone(b.conf), slices.Clone(b.stit), slices.Clone(b.friend)
	for of := 0; of < prev.N(); of++ {
		i := int(oldToNew[of])
		if i < 0 {
			continue
		}
		for _, ow := range prev.ConflictNeighbors(of) {
			if j := oldToNew[ow]; int(ow) > of && j >= 0 {
				bld.AddConflict(i, int(j))
			}
		}
		for _, ow := range prev.StitchNeighbors(of) {
			if j := oldToNew[ow]; int(ow) > of && j >= 0 {
				bld.AddStitch(i, int(j))
			}
		}
		for _, ow := range prev.FriendNeighbors(of) {
			if j := oldToNew[ow]; int(ow) > of && j >= 0 {
				bld.AddFriend(i, int(j))
			}
		}
	}
	return bld.Build(nil)
}

// spliceMaps walks the prior vertices in order and derives monotonic
// inverse maps from one step code per vertex: code&3 is 0 keep, 1 lose,
// 2 insert rebuilt vertices and keep, 3 insert rebuilt vertices and lose,
// and code>>2 (mod 4) is the number of rebuilt vertices inserted. extra
// rebuilt vertices are appended after the last prior one.
func spliceMaps(nOld int, code func(o int) int, extra int) (newToOld, oldToNew []int32) {
	oldToNew = make([]int32, nOld)
	newToOld = []int32{}
	for o := 0; o < nOld; o++ {
		c := code(o)
		if c&2 != 0 {
			for r := 0; r < (c>>2)%4; r++ {
				newToOld = append(newToOld, -1)
			}
		}
		oldToNew[o] = -1
		if c&1 == 0 {
			oldToNew[o] = int32(len(newToOld))
			newToOld = append(newToOld, int32(o))
		}
	}
	for r := 0; r < extra; r++ {
		newToOld = append(newToOld, -1)
	}
	return newToOld, oldToNew
}

// checkSplice runs BuildSpliced on b and compares it with the reference.
func checkSplice(t testing.TB, b *Builder, prev *Graph, newToOld, oldToNew []int32) {
	t.Helper()
	want := spliceReference(b, prev, oldToNew)
	ca := &countingArena{}
	got := b.BuildSpliced(prev, newToOld, oldToNew, ca)
	if ca.got != ca.put {
		t.Fatalf("arena leases not balanced: %d leased, %d returned", ca.got, ca.put)
	}
	if !reflect.DeepEqual(got, want) {
		diff := ""
		gr, gc := kindRows(got)
		wr, wc := kindRows(want)
		if gc != wc {
			diff = fmt.Sprintf("edge counts %v, reference %v", gc, wc)
		}
		for kind := range gr {
			for v := 0; v < want.N() && diff == ""; v++ {
				if !reflect.DeepEqual(gr[kind](v), wr[kind](v)) {
					diff = fmt.Sprintf("kind %d row %d = %v, reference %v", kind, v, gr[kind](v), wr[kind](v))
				}
			}
		}
		t.Fatalf("spliced graph differs from the remap-through-Builder reference (newToOld %v): %s\n got  %+v\n want %+v",
			newToOld, diff, got, want)
	}
	rows, _ := kindRows(got)
	for kind, row := range rows {
		for v := 0; v < got.N(); v++ {
			if r := row(v); cap(r) != len(r) {
				t.Fatalf("kind %d row %d has spare capacity %d", kind, v, cap(r)-len(r))
			}
		}
	}
}

// addFresh records a fresh pair of the given kind when it is a legal one
// for a splice — distinct endpoints, at least one of them rebuilt — and
// reports whether it did.
func addFresh(b *Builder, newToOld []int32, kind, u, v int) bool {
	if u == v || (newToOld[u] >= 0 && newToOld[v] >= 0) {
		return false
	}
	addKind(b, kind, u, v)
	return true
}

func TestSpliceMatchesBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	type shape struct {
		name  string
		code  func(o int) int
		extra int
	}
	for trial := 0; trial < 400; trial++ {
		nOld := rng.Intn(50)
		prev, _ := randomGraph(rng, nOld, rng.Intn(3*nOld+1))
		if trial%7 == 0 { // an empty edge kind in the prior graph
			prev.stit, prev.nStit = csr{}, 0
		}
		cut, span := rng.Intn(nOld+1), 1+rng.Intn(8)
		shapes := []shape{
			{"random", func(int) int { return rng.Intn(16) }, rng.Intn(3)},
			{"sparse edits", func(int) int {
				if rng.Intn(10) == 0 {
					return rng.Intn(16)
				}
				return 0
			}, 0},
			{"removed run", func(o int) int {
				if o >= cut && o < cut+span {
					return 1
				}
				return 0
			}, 0},
			{"rebuilt block", func(o int) int {
				if o == cut {
					return 2 | 4*(1+rng.Intn(3))
				}
				return 0
			}, 0},
			{"pure shift", func(o int) int {
				if o == 0 {
					return 2 | 4*(1+rng.Intn(3))
				}
				return 0
			}, 0},
			{"identity", func(int) int { return 0 }, 0},
			{"all rebuilt", func(int) int { return 3 | 4*rng.Intn(4) }, rng.Intn(3)},
			{"n = 0", func(int) int { return 1 }, 0},
		}
		for _, sh := range shapes {
			newToOld, oldToNew := spliceMaps(nOld, sh.code, sh.extra)
			n := len(newToOld)
			b := NewBuilder(n)
			var rebuilt []int
			for i, o := range newToOld {
				if o < 0 {
					rebuilt = append(rebuilt, i)
				}
			}
			for k := 0; len(rebuilt) > 0 && n > 1 && k < 4*len(rebuilt); k++ {
				kind := rng.Intn(numKinds)
				if trial%5 == 0 && kind == kindFriend {
					continue // an empty fresh kind
				}
				u := rebuilt[rng.Intn(len(rebuilt))]
				v := rng.Intn(n)
				if rng.Intn(3) == 0 {
					v = rebuilt[rng.Intn(len(rebuilt))] // rebuilt–rebuilt
				}
				if rng.Intn(2) == 0 {
					u, v = v, u
				}
				if addFresh(b, newToOld, kind, u, v) && rng.Intn(3) == 0 {
					addKind(b, kind, v, u) // a duplicate, reversed
				}
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("trial %d, %s: panic %v", trial, sh.name, r)
					}
				}()
				checkSplice(t, b, prev, newToOld, oldToNew)
			}()
		}
	}
}

// TestSpliceRejectsBadInput: maps that are not monotonic inverses, maps of
// the wrong length and fresh pairs between two reused vertices panic
// instead of splicing a graph that is not the edit's.
func TestSpliceRejectsBadInput(t *testing.T) {
	prev, _ := randomGraph(rand.New(rand.NewSource(2)), 6, 10)
	identity := []int32{0, 1, 2, 3, 4, 5}
	cases := map[string]struct {
		newToOld, oldToNew []int32
		fresh              [2]int
	}{
		"short newToOld":   {identity[:5], identity, [2]int{-1, -1}},
		"short oldToNew":   {identity, identity[:5], [2]int{-1, -1}},
		"not monotonic":    {[]int32{0, 1, 2, 4, 3, 5}, []int32{0, 1, 2, 4, 3, 5}, [2]int{-1, -1}},
		"not inverse":      {[]int32{0, 1, 2, 3, 4, -1}, []int32{0, 1, 2, 3, 4, 5}, [2]int{-1, -1}},
		"inverse one way":  {[]int32{0, 1, 2, 3, 4, 5}, []int32{0, 1, 2, 3, 4, -1}, [2]int{-1, -1}},
		"reused–reused":    {identity, identity, [2]int{1, 2}},
		"past the new end": {[]int32{0, 1, 2, 3, 4, -1}, []int32{0, 1, 2, 3, 4, 6}, [2]int{-1, -1}},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("BuildSpliced did not panic")
				}
			}()
			b := NewBuilder(len(identity))
			if c.fresh[0] >= 0 {
				b.AddConflict(c.fresh[0], c.fresh[1])
			}
			b.BuildSpliced(prev, c.newToOld, c.oldToNew, nil)
		})
	}
}

// FuzzSpliceMatchesBuilder decodes a prior graph, an edit and fresh pairs
// from the fuzz bytes: byte 0's low nibble is the prior vertex count
// (0..15), then 3-byte [kind, u, v] prior edge records up to a 0xFF
// separator, then one spliceMaps step code per prior vertex (missing codes
// keep the vertex) — the byte after them is the number of rebuilt vertices
// appended (mod 4) — and then 3-byte [kind, u, v] fresh pair records, of
// which those without a rebuilt endpoint are skipped.
func FuzzSpliceMatchesBuilder(f *testing.F) {
	f.Add([]byte{6, 0, 0, 1, 0, 1, 2, 1, 2, 3, 2, 3, 4, 0, 4, 5, 0xFF, 0, 1, 0, 6, 0, 0, 1, 0, 2, 1, 1, 3, 2, 2, 4})
	f.Add([]byte{4, 0, 0, 1, 0, 2, 3, 0xFF, 0, 0, 0, 0, 0})
	f.Add([]byte{5, 0, 0, 4, 1, 1, 3, 0xFF, 3, 3, 3, 3, 3, 2, 0, 0, 1, 1, 1, 2})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		nOld := int(data[0] & 0x0F)
		data = data[1:]
		b := NewBuilder(nOld)
		for len(data) >= 3 && data[0] != 0xFF {
			if nOld > 1 {
				if u, v := int(data[1])%nOld, int(data[2])%nOld; u != v {
					addKind(b, int(data[0])%numKinds, u, v)
				}
			}
			data = data[3:]
		}
		if len(data) > 0 && data[0] == 0xFF {
			data = data[1:]
		}
		prev := b.Build(nil)
		codes := data[:min(nOld, len(data))]
		data = data[len(codes):]
		extra := 0
		if len(data) > 0 {
			extra, data = int(data[0])%4, data[1:]
		}
		newToOld, oldToNew := spliceMaps(nOld, func(o int) int {
			if o < len(codes) {
				return int(codes[o])
			}
			return 0
		}, extra)
		n := len(newToOld)
		fresh := NewBuilder(n)
		for ; len(data) >= 3 && n > 0; data = data[3:] {
			addFresh(fresh, newToOld, int(data[0])%numKinds, int(data[1])%n, int(data[2])%n)
		}
		checkSplice(t, fresh, prev, newToOld, oldToNew)
	})
}
