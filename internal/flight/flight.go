// Package flight is the one cache-entry lifecycle every memoising layer of
// the decomposer shares: the service's session and graph caches and core's
// shape store. A Cache is a bounded LRU of completed values plus a map of
// in-flight fills, in the idiom of Go's singleflight
// (golang.org/x/sync/singleflight): one caller owns a key's fill, callers
// arriving meanwhile wait for it, and only a fill that asks to be kept is
// stored and shared. A degraded or failed fill reflects its owner's
// deadline, not a waiter's, so its waiters retry and one becomes the next
// owner; a waiter whose own deadline ends first is sent back to answer by
// itself (Bypass).
//
// In-flight fills live outside the LRU, so the capacity bound can never
// evict one, and a waiter reads a kept value from the fill it waited on,
// so it is served even if the stored copy was evicted meanwhile.
package flight

import (
	"container/list"
	"context"
	"sync"
)

// Outcome reports how Do resolved a key.
type Outcome int

const (
	// Miss: this caller ran the fill (always, when the cache is disabled).
	Miss Outcome = iota
	// Hit: the value is a kept fill's, read from the LRU or from the
	// in-flight fill this caller waited on. It is shared: read-only.
	Hit
	// Bypass: ctx ended while this caller waited on another caller's fill.
	// No value is returned; the caller answers by itself, uncached.
	Bypass
)

// Entry is one stored key/value pair, as handed to an eviction hook.
type Entry[V any] struct {
	Key   string
	Value V
}

// call is one in-flight fill. The owner writes v and kept before closing
// done; waiters read them only after done is closed. waiters counts the
// callers that have parked on done (under Cache.mu).
type call[V any] struct {
	done    chan struct{}
	v       V
	kept    bool
	waiters int
}

// Cache is a bounded, single-flight store of values keyed by string. Safe
// for concurrent use; the zero value is not usable, call New.
type Cache[V any] struct {
	capacity int              // < 0: caching and de-duplication disabled
	onEvict  func(e Entry[V]) // nil, or called without mu for each eviction

	mu        sync.Mutex
	ll        *list.List               // guarded by mu; front = most recent, Value = *Entry[V]
	items     map[string]*list.Element // guarded by mu; stored values only
	calls     map[string]*call[V]      // guarded by mu; in-flight fills, outside the bound
	evictions uint64                   // guarded by mu
}

// New returns a cache storing at most capacity completed values (least
// recently used evicted first). A negative capacity disables it: nothing
// is stored and Do runs every fill without de-duplication. onEvict, when
// non-nil, receives each entry the bound pushes out, called outside the
// cache's lock so it may block (the session store spills to disk there).
func New[V any](capacity int, onEvict func(e Entry[V])) *Cache[V] {
	return &Cache[V]{
		capacity: capacity,
		onEvict:  onEvict,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		calls:    make(map[string]*call[V]),
	}
}

// Do returns the value for key, running fill at most once across
// concurrent callers. fill reports whether its value may be kept: only a
// kept value (keep true and err nil) is stored and shared. When a fill is
// not kept, its waiters retry and one of them owns the next fill. A waiter
// whose ctx ends before the fill completes returns Bypass at once. The
// owner gets fill's own results with outcome Miss, kept or not.
func (c *Cache[V]) Do(ctx context.Context, key string, fill func() (v V, keep bool, err error)) (V, Outcome, error) {
	if c.capacity < 0 {
		v, _, err := fill()
		return v, Miss, err
	}
	for {
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			c.ll.MoveToFront(el)
			v := el.Value.(*Entry[V]).Value
			c.mu.Unlock()
			return v, Hit, nil
		}
		cl, waiting := c.calls[key]
		if waiting {
			cl.waiters++
		} else {
			cl = &call[V]{done: make(chan struct{})}
			c.calls[key] = cl
		}
		c.mu.Unlock()
		if !waiting {
			return c.own(key, cl, fill)
		}
		select {
		case <-cl.done:
		case <-ctx.Done():
			var zero V
			return zero, Bypass, nil
		}
		if cl.kept {
			return cl.v, Hit, nil
		}
	}
}

// own runs fill as the key's owner and completes the flight: a kept value
// is stored, then waiters wake. The completion is deferred so a panicking
// fill still releases its waiters (unkept: they retry).
func (c *Cache[V]) own(key string, cl *call[V], fill func() (V, bool, error)) (V, Outcome, error) {
	defer func() {
		var evicted []Entry[V]
		c.mu.Lock()
		delete(c.calls, key)
		if cl.kept {
			evicted = c.storeLocked(key, cl.v)
		}
		c.mu.Unlock()
		close(cl.done)
		c.evicted(evicted)
	}()
	v, keep, err := fill()
	cl.v, cl.kept = v, keep && err == nil
	return v, Miss, err
}

// Get returns the stored value for key, refreshing its recency. In-flight
// fills are not visible to Get.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*Entry[V]).Value, true
}

// storeLocked inserts key, then evicts least-recently-used entries beyond
// the bound, returning them for the hook. Only a fill's owner stores, and
// Do never starts a fill for a stored key, so key is never present yet.
//
//lint:holds mu
func (c *Cache[V]) storeLocked(key string, v V) (evicted []Entry[V]) {
	c.items[key] = c.ll.PushFront(&Entry[V]{Key: key, Value: v})
	for c.ll.Len() > c.capacity {
		e := c.ll.Remove(c.ll.Back()).(*Entry[V])
		delete(c.items, e.Key)
		c.evictions++
		evicted = append(evicted, *e)
	}
	return evicted
}

// evicted runs the eviction hook; called without mu.
func (c *Cache[V]) evicted(es []Entry[V]) {
	if c.onEvict == nil {
		return
	}
	for _, e := range es {
		c.onEvict(e)
	}
}

// Waiters reports how many callers have parked on key's current in-flight
// fill (0 when none is in flight), so a test can release a planted fill
// only once a waiter has provably parked on it.
func (c *Cache[V]) Waiters(key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cl, ok := c.calls[key]; ok {
		return cl.waiters
	}
	return 0
}

// Len reports the number of stored values; in-flight fills are not
// counted.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Evictions reports how many stored values the bound has pushed out.
func (c *Cache[V]) Evictions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}
