// Package pipeline is a fixture stub of the real scratch arena: the
// analyzer matches Scratch by name plus defining-package path tail, so
// this stub exercises the same code paths as mpl/internal/pipeline.
package pipeline

// Scratch is a pooled arena leased to exactly one goroutine at a time.
type Scratch struct {
	buf []int
}

// Ints carves an int slice from the arena.
func (s *Scratch) Ints(n int) []int {
	s.buf = append(s.buf[:0], make([]int, n)...)
	return s.buf
}

// ScratchPool hands out arenas.
type ScratchPool struct{}

// Get leases an arena.
func (p *ScratchPool) Get() *Scratch { return &Scratch{} }

// Put returns an arena to the pool.
func (p *ScratchPool) Put(s *Scratch) { _ = s }

// Env mirrors the real pipeline.Env: pool and budget are shared by design,
// so carrying them in a struct (or capturing them in goroutines) is fine —
// only the leased Scratch itself is single-goroutine.
type Env struct {
	Scratch *ScratchPool
	Budget  *Budget
}

// Budget is a stub of the shared parallelism budget.
type Budget struct{}

// TryAcquire claims an idle-worker slot if one is free.
func (b *Budget) TryAcquire() bool { return b != nil }

// Release returns a claimed slot.
func (b *Budget) Release() {}

// Fan is a stub of the module's one goroutine boundary: body(0) runs
// inline, the others on new goroutines.
func Fan(n int, body func(w int)) {
	for w := 0; w < n || w == 0; w++ {
		body(w)
	}
}
