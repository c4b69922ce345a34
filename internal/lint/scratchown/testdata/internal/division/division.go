// Package division is a scratchown fixture exercising every ownership
// rule of DESIGN.md §9 against the pipeline stub.
package division

import "fix/internal/pipeline"

// holder breaks rule 1: a field outlives the lease.
type holder struct {
	sc *pipeline.Scratch // want `pipeline.Scratch stored in a struct field outlives its lease`
}

// pools holding pools is fine — pools are shared by design.
type worker struct {
	pool *pipeline.ScratchPool
}

// GoCapture breaks rule 2: the goroutine borrows the caller's lease.
func GoCapture(pool *pipeline.ScratchPool) {
	sc := pool.Get()
	go func() {
		_ = sc.Ints(8) // want `goroutine captures pipeline.Scratch sc from its enclosing scope`
	}()
	pool.Put(sc)
}

// GoArg breaks rule 2 by parameter instead of capture.
func GoArg(pool *pipeline.ScratchPool) {
	sc := pool.Get()
	go use(sc) // want `pipeline.Scratch passed into a goroutine`
}

func use(sc *pipeline.Scratch) { _ = sc.Ints(4) }

// Runner is the sanctioned shape: each goroutine leases its own arena.
func Runner(pool *pipeline.ScratchPool) {
	go func() {
		sc := pool.Get()
		defer pool.Put(sc)
		_ = sc.Ints(8)
	}()
}

// Send breaks rule 4: a channel send hands the lease to the receiver.
func Send(pool *pipeline.ScratchPool, ch chan *pipeline.Scratch) {
	sc := pool.Get()
	ch <- sc // want `pipeline.Scratch sent on a channel`
}

// HandOff is the same send under a documented handoff protocol.
func HandOff(pool *pipeline.ScratchPool, ch chan *pipeline.Scratch) {
	sc := pool.Get()
	//lint:ignore scratchown fixture: documented handoff protocol — the send transfers the lease and the sender never touches sc again
	ch <- sc
}

// UseAfterPut breaks rule 3: the arena belongs to the next lessee.
func UseAfterPut(pool *pipeline.ScratchPool) []int {
	sc := pool.Get()
	_ = sc.Ints(4)
	pool.Put(sc)
	return sc.Ints(8) // want `sc used after being returned to its pool with Put`
}

// DeferPut is the idiomatic release: exempt from rule 3.
func DeferPut(pool *pipeline.ScratchPool) []int {
	sc := pool.Get()
	defer pool.Put(sc)
	return sc.Ints(4)
}

// Release is fine: reassignment starts a fresh lease.
func Release(pool *pipeline.ScratchPool) []int {
	sc := pool.Get()
	pool.Put(sc)
	sc = pool.Get()
	defer pool.Put(sc)
	return sc.Ints(4)
}
