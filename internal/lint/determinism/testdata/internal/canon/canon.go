// Package canon is a determinism fixture for the shape-cache pattern: its
// import path ends in internal/canon, so the solver-path rules apply. The
// real shape store (an internal/flight.Cache) holds maps keyed by labeled
// encodings; the contract is that those maps are only read through keyed
// lookups — ranging over one and letting the order escape would make cache
// behavior (eviction, reporting) depend on Go's randomized map order.
package canon

import (
	"fmt"
	"sort"
)

// cache mirrors the shape-cache shape: entries keyed by encoded form.
type cache struct {
	reps map[string][]int
}

// Lookup is the sanctioned access pattern: a keyed read, never a range.
func (c *cache) Lookup(enc string) ([]int, bool) {
	colors, ok := c.reps[enc]
	return colors, ok
}

// Store is likewise keyed; no iteration order exists to leak.
func (c *cache) Store(enc string, colors []int) {
	c.reps[enc] = colors
}

// Len folds to a single order-independent count — no finding.
func (c *cache) Len() int {
	n := 0
	for range c.reps {
		n++
	}
	return n
}

// DumpUnsorted is the forbidden shape: emitting entries in map-iteration
// order makes the dump bytes nondeterministic.
func (c *cache) DumpUnsorted() {
	for enc, colors := range c.reps {
		fmt.Printf("%x: %v\n", enc, colors) // want `output emitted while ranging over a map`
	}
}

// KeysUnsorted lets map-iteration order escape through the return value.
func (c *cache) KeysUnsorted() []string {
	var keys []string
	for enc := range c.reps {
		keys = append(keys, enc) // want `slice keys accumulates map-iteration order and is returned`
	}
	return keys
}

// KeysSorted is the sanctioned escape: collect, sort, then return.
func (c *cache) KeysSorted() []string {
	var keys []string
	for enc := range c.reps {
		keys = append(keys, enc)
	}
	sort.Strings(keys)
	return keys
}
