package pipeline

import (
	"sync"
	"sync/atomic"
)

// Fan is the module's one goroutine boundary: every worker pool runs its
// workers through it. It calls body(0), …, body(n-1) concurrently and
// returns once every call has returned. body(0) runs on the calling
// goroutine and the others on n-1 new goroutines, so at most n bodies are
// live at once and n ≤ 1 spawns nothing: body(0) runs alone, inline. That
// n ≤ 1 rule is every caller's serial mode; none forks on it.
//
// Workers usually share a Cursor over their items and stop when it passes
// the end, so the item-to-worker assignment is scheduling-dependent;
// output stays deterministic only if each item writes its own slot. A body
// is a goroutine body for the scratch-ownership rules (DESIGN.md §9): it
// leases its own arena and never captures the caller's, which qpldvet's
// scratchown checks at every call.
func Fan(n int, body func(w int)) {
	var wg sync.WaitGroup
	for w := 1; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(w)
		}()
	}
	body(0)
	wg.Wait()
}

// Cursor hands out the indices 0, 1, 2, … across goroutines, each exactly
// once. The zero value starts at 0.
type Cursor struct {
	next atomic.Int64
}

// Next claims the next index. Indices past a caller's item count are the
// caller's stop signal.
func (c *Cursor) Next() int {
	return int(c.next.Add(1)) - 1
}
