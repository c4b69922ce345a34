// Package service is a lockdiscipline fixture: the counter's field is
// annotated `guarded by mu`, so every access must hold c.mu.
package service

import (
	"sync"

	"fix/internal/pipeline"
)

// Counter is the annotated struct under test.
type Counter struct {
	mu sync.Mutex
	n  int // guarded by mu
}

// Inc is the plain lock/access/unlock shape.
func (c *Counter) Inc() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

// Bad reads the guarded field with no lock at all.
func (c *Counter) Bad() int {
	return c.n // want `c\.n is guarded by c\.mu but accessed without holding it`
}

// DeferStyle holds via a deferred unlock — held for the rest of the body.
func (c *Counter) DeferStyle() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// incLocked documents its precondition machine-readably: callers hold c.mu.
//
//lint:holds mu
func (c *Counter) incLocked() {
	c.n++
}

// AfterUnlock releases and then touches the field again.
func (c *Counter) AfterUnlock() int {
	c.mu.Lock()
	n := c.n
	c.mu.Unlock()
	return n + c.n // want `c\.n is guarded by c\.mu but accessed without holding it`
}

// Branch shows path-sensitivity: the early-unlock path returns, so the
// surviving path still holds the lock at the read.
func (c *Counter) Branch(early bool) int {
	c.mu.Lock()
	if early {
		c.mu.Unlock()
		return 0
	}
	n := c.n
	c.mu.Unlock()
	return n
}

// MaybeUnlock merges a held path with an unlocked one: after the if, the
// lock is held only on one way in, so the read is a finding.
func (c *Counter) MaybeUnlock(early bool) int {
	c.mu.Lock()
	if early {
		c.mu.Unlock()
	}
	n := c.n // want `c\.n is guarded by c\.mu but accessed without holding it`
	if !early {
		c.mu.Unlock()
	}
	return n
}

// Goroutine bodies start with nothing held, whatever the spawner holds.
func (c *Counter) Spawn() {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() {
		c.n++ // want `c\.n is guarded by c\.mu but accessed without holding it`
	}()
}

// FanOut shows that a pipeline.Fan body, a goroutine body, does not
// inherit the lock its caller holds, even though body 0 runs inline.
func (c *Counter) FanOut() {
	c.mu.Lock()
	defer c.mu.Unlock()
	pipeline.Fan(2, func(int) {
		c.n++ // want `c\.n is guarded by c\.mu but accessed without holding it`
	})
}

// FanLocked is the sanctioned shape: each body takes the lock itself.
func (c *Counter) FanLocked() {
	pipeline.Fan(2, func(int) {
		c.mu.Lock()
		c.n++
		c.mu.Unlock()
	})
}

// Snapshot is a deliberately racy read with its contract argument.
func (c *Counter) Snapshot() int {
	//lint:ignore lockdiscipline fixture: monotonic gauge read, torn values are acceptable and documented
	return c.n
}

// Box is a generic annotated struct: its methods see the instantiated
// receiver type Box[V], whose fields resolve to the same declaration.
type Box[V any] struct {
	mu sync.Mutex
	v  V // guarded by mu
}

// Set is the plain shape on a generic receiver.
func (b *Box[V]) Set(v V) {
	b.mu.Lock()
	b.v = v
	b.mu.Unlock()
}

// Peek reads the guarded field of a generic struct with no lock.
func (b *Box[V]) Peek() V {
	return b.v // want `b\.v is guarded by b\.mu but accessed without holding it`
}
