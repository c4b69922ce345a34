package pipeline

// Env bundles the cross-cutting machinery one decomposition run threads
// through its layers (core → division → portfolio → sdp): the scratch-arena
// pool workers lease their per-goroutine arenas from, and the shared
// parallelism budget that keeps component-level division workers and
// restart-level SDP goroutines inside a single worker allowance. The zero
// value disables both — every buffer request allocates and nested
// parallelism never engages — so callers can thread an Env optionally.
type Env struct {
	// Scratch is the per-worker arena pool; each division worker (and each
	// SDP restart runner) leases one arena for its own lifetime. Nil disables pooling.
	Scratch *ScratchPool
	// Budget is the run's shared goroutine budget (Options.Workers slots).
	// Nil means no budget: nested fan-outs stay serial.
	Budget *Budget
}

// Budget is the shared parallelism budget of one decomposition run: a
// fixed pool of idle-worker slots sized to the run's worker count.
//
// The accounting is deliberately one-directional. Every slot starts owned
// by a (current or future) division worker, so a fresh Budget has no free
// slots. A worker that runs out of components for good returns its slot
// with Free — the component queue is pre-filled and closed before workers
// start, so a drained queue means no job will ever arrive for it again.
// Nested parallelism (the SDP restart fan-out) claims only freed slots
// with TryAcquire, never blocking, and hands them back with Release. The
// invariant follows directly: every claimed slot corresponds to a worker
// that has already exited, so running division workers plus claimed extra
// goroutines never exceed the slot count. This is exactly the shape of
// the one-huge-component workload — component parallelism has nothing
// left to do, the idle slots drain into the budget, and the lone SDP
// solve fans its restarts out across them.
//
// All methods are nil-safe: a nil *Budget never grants a slot and
// discards returns, so serial runs thread no budget at all.
type Budget struct {
	slots chan struct{}
}

// NewBudget returns a budget of n slots, all initially owned by workers
// (none free). n ≤ 1 returns nil — a run with at most one worker has no
// idle slots to share, so the no-op budget serves it.
func NewBudget(n int) *Budget {
	if n <= 1 {
		return nil
	}
	return &Budget{slots: make(chan struct{}, n)}
}

// Free returns one slot to the budget — a worker going permanently idle.
func (b *Budget) Free() {
	if b == nil {
		return
	}
	select {
	case b.slots <- struct{}{}:
	default:
		// Freeing beyond capacity indicates a bookkeeping bug somewhere;
		// dropping the slot errs in the safe direction (under-parallelize,
		// never oversubscribe).
	}
}

// TryAcquire claims one free slot without blocking. It reports false when
// no slot is free (or the budget is nil), in which case the caller stays
// serial — the cheap, always-correct degradation.
func (b *Budget) TryAcquire() bool {
	if b == nil {
		return false
	}
	select {
	case <-b.slots:
		return true
	default:
		return false
	}
}

// Release hands back a slot claimed with TryAcquire.
func (b *Budget) Release() { b.Free() }
