// Package sdp is a scratchown fixture for the per-restart arena-lease
// pattern of the parallel SDP fan-out (DESIGN.md §14): the caller's arena
// keeps the factor blocks carved before any concurrency, and every extra
// restart runner leases its own workspace arena inside its goroutine.
// Capturing the caller's lease in a runner is the rule-2 violation the
// pattern exists to avoid.
package sdp

import "fix/internal/pipeline"

// RestartFanOut is the sanctioned shape: blocks carved serially from the
// caller's lease, runner workspaces leased per goroutine from the shared
// pool (pool and budget captures are fine — they are shared by design).
func RestartFanOut(sc *pipeline.Scratch, env pipeline.Env) {
	_ = sc.Ints(64) // factor blocks: carved before any concurrency
	for env.Budget.TryAcquire() {
		go func() {
			defer env.Budget.Release()
			rsc := env.Scratch.Get()
			defer env.Scratch.Put(rsc)
			_ = rsc.Ints(32) // runner-owned workspace
		}()
	}
}

// RestartBorrow hands the caller's lease to a runner — rule 2.
func RestartBorrow(sc *pipeline.Scratch, env pipeline.Env) {
	for env.Budget.TryAcquire() {
		go func() {
			defer env.Budget.Release()
			_ = sc.Ints(32) // want `goroutine captures pipeline.Scratch sc from its enclosing scope`
		}()
	}
}

// FanRestarts is the sanctioned shape through pipeline.Fan: runner 0
// descends with a workspace carved from the caller's lease before the
// fan-out, and every other runner leases its own arena inside its body.
func FanRestarts(sc *pipeline.Scratch, env pipeline.Env) {
	ws0 := sc.Ints(32) // carved before any concurrency
	pipeline.Fan(3, func(w int) {
		if w == 0 {
			_ = ws0
			return
		}
		rsc := env.Scratch.Get()
		defer env.Scratch.Put(rsc)
		_ = rsc.Ints(32)
	})
}

// FanBorrow hands the caller's lease to every Fan body — rule 2, exactly
// as a `go` statement would.
func FanBorrow(sc *pipeline.Scratch) {
	pipeline.Fan(2, func(int) {
		_ = sc.Ints(32) // want `goroutine captures pipeline.Scratch sc from its enclosing scope`
	})
}
