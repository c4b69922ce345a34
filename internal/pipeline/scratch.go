package pipeline

import "sync"

// Scratch is one worker's reusable scratch memory for the hot solve path.
// A Scratch is single-goroutine property: the division pipeline hands each
// worker its own and threads it through the Dispatch stage into the
// engines, so nothing here is locked. Buffers handed out by a Scratch are
// valid until they are put back (Ints/Int32s) or until the next
// ResetFloats (arena slices); the dispatch discipline — solve one piece,
// consume its outputs, then start the next — guarantees a piece's scratch
// memory is never recycled while still referenced.
//
// All methods are nil-safe: a nil *Scratch allocates fresh buffers and
// discards returns, so callers can thread scratch optionally without
// branching.
type Scratch struct {
	ints   [][]int
	int32s [][]int32
	int64s [][]int64

	// Float arena: one growing backing array carved left to right;
	// ResetFloats reclaims every carved slice at once. The SDP engine
	// resets at the start of each solve and carves its matrix workspace
	// (factor rows, gradients, line-search saves) from it.
	floats []float64
	off    int
}

// maxFreelist bounds each typed freelist: a worker juggles at most a
// handful of live buffers per piece (network arrays, index maps, color
// slices), so anything deeper only pins memory.
const maxFreelist = 16

// Ints returns a length-n int slice with undefined contents. Callers that
// need zeroing (none today — color slices are filled with Uncolored
// immediately) must do it themselves.
func (s *Scratch) Ints(n int) []int {
	if s == nil {
		return make([]int, n)
	}
	for i := len(s.ints) - 1; i >= 0; i-- {
		if cap(s.ints[i]) >= n {
			b := s.ints[i][:n]
			s.ints[i] = s.ints[len(s.ints)-1]
			s.ints = s.ints[:len(s.ints)-1]
			return b
		}
	}
	return make([]int, n)
}

// PutInts returns a slice obtained from Ints for reuse. Putting a slice
// the scratch did not hand out is allowed (the division pipeline adopts
// engine-returned color slices whose contents it has already consumed);
// the only contract is that the caller no longer references it.
func (s *Scratch) PutInts(b []int) {
	if s == nil || cap(b) == 0 || len(s.ints) >= maxFreelist {
		return
	}
	s.ints = append(s.ints, b[:0])
}

// Int32s returns a zeroed length-n int32 slice (visit stamps and index
// maps rely on the zero state).
func (s *Scratch) Int32s(n int) []int32 {
	if s == nil {
		return make([]int32, n)
	}
	for i := len(s.int32s) - 1; i >= 0; i-- {
		if cap(s.int32s[i]) >= n {
			b := s.int32s[i][:n]
			s.int32s[i] = s.int32s[len(s.int32s)-1]
			s.int32s = s.int32s[:len(s.int32s)-1]
			clear(b)
			return b
		}
	}
	return make([]int32, n)
}

// PutInt32s returns a slice obtained from Int32s for reuse.
func (s *Scratch) PutInt32s(b []int32) {
	if s == nil || cap(b) == 0 || len(s.int32s) >= maxFreelist {
		return
	}
	s.int32s = append(s.int32s, b[:0])
}

// Int64s returns a zeroed length-n int64 slice.
func (s *Scratch) Int64s(n int) []int64 {
	if s == nil {
		return make([]int64, n)
	}
	for i := len(s.int64s) - 1; i >= 0; i-- {
		if cap(s.int64s[i]) >= n {
			b := s.int64s[i][:n]
			s.int64s[i] = s.int64s[len(s.int64s)-1]
			s.int64s = s.int64s[:len(s.int64s)-1]
			clear(b)
			return b
		}
	}
	return make([]int64, n)
}

// PutInt64s returns a slice obtained from Int64s for reuse.
func (s *Scratch) PutInt64s(b []int64) {
	if s == nil || cap(b) == 0 || len(s.int64s) >= maxFreelist {
		return
	}
	s.int64s = append(s.int64s, b[:0])
}

// ResetFloats reclaims the whole float arena. Every slice previously
// returned by Floats becomes reusable memory; the caller must be done
// with all of them.
func (s *Scratch) ResetFloats() {
	if s != nil {
		s.off = 0
	}
}

// Floats carves a zeroed length-n float64 slice from the arena. When the
// backing array is exhausted it is regrown (old carvings stay valid —
// they keep referencing the previous backing), so a sequence of takes is
// always safe; steady-state solves of similar size never allocate.
func (s *Scratch) Floats(n int) []float64 {
	if s == nil {
		return make([]float64, n)
	}
	if s.off+n > len(s.floats) {
		grow := 2 * (s.off + n)
		s.floats = make([]float64, grow)
		s.off = 0
	}
	b := s.floats[s.off : s.off+n : s.off+n]
	s.off += n
	clear(b)
	return b
}

// ScratchPool is a sync.Pool of per-worker Scratch arenas. The zero value
// is NOT usable; a nil *ScratchPool is — Get returns nil (callers then
// allocate fresh via the nil-safe Scratch methods) and Put discards, which
// makes a nil pool the unpooled baseline of the allocation benchmarks.
type ScratchPool struct {
	p sync.Pool
}

// NewScratchPool returns a pool whose scratches retain their buffers
// across Get/Put cycles (and across GC survivors, per sync.Pool).
func NewScratchPool() *ScratchPool {
	return &ScratchPool{p: sync.Pool{New: func() any { return new(Scratch) }}}
}

// Get leases a scratch arena; pair with Put.
func (p *ScratchPool) Get() *Scratch {
	if p == nil {
		return nil
	}
	return p.p.Get().(*Scratch)
}

// Put returns a scratch to the pool. The caller must not use it (or any
// buffer obtained from it) afterwards.
func (p *ScratchPool) Put(s *Scratch) {
	if p == nil || s == nil {
		return
	}
	s.ResetFloats()
	p.p.Put(s)
}
