package service

// The durable half of the session store (DESIGN.md §13): how Service uses
// internal/store. Three flows, all no-ops without Config.Store:
//
//   - persistEdits: a successful DecomposeIncremental logs its edit batch
//     (rooting the chain with a base snapshot if the log has never seen
//     the base) before the successor session is registered in memory;
//   - spill: a session the LRU pushes out is snapshotted to disk
//     instead of dropped, unless the log can already replay it;
//   - rehydrate / fullFromStore: a miss in the session cache loads the
//     nearest snapshot and replays the log tail through core.ApplyEdits —
//     the exact operation the incremental-≡-scratch equivalence harness
//     proves identical to a fresh solve.
//
// Store failures never fail the request: the solve result is valid with or
// without durability, so errors are counted (Stats.StoreErrors) and the
// request proceeds. Corrupt persisted state is never served — every
// rehydrated session is verified (coloring against its own graph, replay
// step against the logged post-edit hash) and a session that fails
// verification is treated as absent.

import (
	"context"
	"fmt"

	"mpl/internal/core"
	"mpl/internal/flight"
	"mpl/internal/store"
)

// storeError counts one failed durable-store operation.
func (s *Service) storeError() {
	s.mu.Lock()
	s.stats.StoreErrors++
	s.mu.Unlock()
}

// snapOf builds the durable snapshot of a session. The field copies are
// shallow: the session is immutable and AppendSnapshot encodes
// synchronously, retaining nothing.
func snapOf(sess *session) *store.Snapshot {
	return &store.Snapshot{
		Layout:    sess.layout,
		Colors:    sess.res.Colors,
		Conflicts: sess.res.Conflicts,
		Stitches:  sess.res.Stitches,
		Proven:    sess.res.Proven,
	}
}

// persistEdits logs the edit batch deriving succ from base, rooting the
// chain with a snapshot of base if the log cannot replay it (full solves
// are persisted lazily — on eviction or on first derivation — so the first
// batch off a fresh solve lands here with an unrooted base). When the
// chain's replay depth hits the snapshot policy, or the edit record cannot
// be logged at all, a snapshot of the successor re-roots it.
func (s *Service) persistEdits(base, succ *session, edits []core.Edit) {
	st := s.cfg.Store
	if st == nil {
		return
	}
	if !st.Has(succ.sig, base.hash) {
		if err := st.AppendSnapshot(succ.sig, base.hash, snapOf(base)); err != nil {
			s.storeError()
		}
	}
	needSnapshot, err := st.AppendEdits(succ.sig, base.hash, succ.hash, edits)
	if err != nil {
		// The base could not be rooted (or vanished under retention
		// between the probe and the append): fall back to snapshotting the
		// successor outright — dearer on disk, but the session survives.
		s.storeError()
		needSnapshot = true
	}
	if needSnapshot {
		if err := st.AppendSnapshot(succ.sig, succ.hash, snapOf(succ)); err != nil {
			s.storeError()
		}
	}
}

// spill is the session store's eviction hook: it persists a session the
// LRU pushed out, so eviction demotes a session from memory to disk
// instead of destroying it. Sessions the log already replays (rooted by
// persistEdits, or spilled before and rehydrated since) are skipped.
// Called without any lock held — spilling writes to disk.
func (s *Service) spill(e flight.Entry[*session]) {
	st, sess := s.cfg.Store, e.Value
	if st == nil || st.Has(sess.sig, sess.hash) {
		return
	}
	if err := st.AppendSnapshot(sess.sig, sess.hash, snapOf(sess)); err != nil {
		s.storeError()
		return
	}
	s.mu.Lock()
	s.stats.Spills++
	s.mu.Unlock()
}

// sessionFromSnapshot reconstructs a servable session from a persisted
// snapshot: the decomposition graph is rebuilt deterministically (through
// the graph cache, so repeated rehydrations under one process build once)
// and the persisted coloring is verified against it — the objective values
// must reproduce exactly, or the snapshot is rejected as corrupt.
func (s *Service) sessionFromSnapshot(ctx context.Context, snap *store.Snapshot, sig string, opts core.Options) (*session, error) {
	lh := LayoutHash(snap.Layout)
	dg, err := s.graphFor(ctx, lh, snap.Layout, opts)
	if err != nil {
		return nil, err
	}
	nopts := opts.Normalize()
	res := &core.Result{
		Graph:     dg,
		Colors:    append([]int(nil), snap.Colors...),
		Conflicts: snap.Conflicts,
		Stitches:  snap.Stitches,
		Proven:    snap.Proven,
		K:         nopts.K,
		Alpha:     nopts.Alpha,
		// Recording the requesting options is sound: the store keys
		// sessions by optionsSig, which covers every field ApplyEdits
		// compares (it ignores only the worker counts, as the signature
		// does).
		Options: nopts,
	}
	conflicts, stitches, err := core.VerifySolution(res)
	if err != nil {
		return nil, err
	}
	if conflicts != snap.Conflicts || stitches != snap.Stitches {
		return nil, fmt.Errorf("service: persisted session does not verify: logged cn=%d st=%d, coloring has cn=%d st=%d",
			snap.Conflicts, snap.Stitches, conflicts, stitches)
	}
	return &session{hash: lh, sig: sig, layout: snap.Layout, res: res}, nil
}

// rehydrate reconstructs the session for hash from the durable log:
// nearest snapshot, then the edit tail replayed through core.ApplyEdits
// under the service's regular concurrency lanes. It returns (nil, nil)
// when the log has nothing replayable — including anything that fails
// verification — and an error only when the caller's context died
// mid-replay (a degraded replay must never be registered as a session).
func (s *Service) rehydrate(ctx context.Context, hash, sig string, opts core.Options) (*session, error) {
	chain, err := s.cfg.Store.Lookup(sig, hash)
	if err != nil {
		s.storeError()
		return nil, nil
	}
	if chain == nil {
		return nil, nil
	}
	sess, err := s.sessionFromSnapshot(ctx, chain.Snap, sig, opts)
	if err != nil {
		s.storeError()
		return nil, nil
	}
	if len(chain.Batches) == 0 && sess.hash != hash {
		// The snapshot's geometry does not hash to the key it was filed
		// under; replay-step checks catch this for chained sessions.
		s.storeError()
		return nil, nil
	}
	for i, batch := range chain.Batches {
		var res *core.Result
		plan, err := core.PlanEdits(sess.layout, batch)
		if err == nil {
			res, _, err = s.applyEdits(ctx, sess, plan, opts)
		}
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			s.storeError()
			return nil, nil
		}
		if res.Degraded > 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("service: session replay degraded without cancellation")
		}
		resL := plan.Layout()
		h := LayoutHash(resL)
		if h != chain.Hashes[i] {
			// The replayed geometry diverged from what the log recorded:
			// corrupt chain, do not serve it.
			s.storeError()
			return nil, nil
		}
		sess = &session{hash: h, sig: sig, layout: resL, res: res}
	}
	s.mu.Lock()
	s.stats.Rehydrations++
	s.mu.Unlock()
	return sess, nil
}

// fullFromStore serves a full (non-incremental) solve from the durable log
// when the requested hash is persisted as a snapshot with no replay tail:
// the graph is rebuilt and the coloring verified, skipping only the solve
// itself, and the verified session is the one the cache keeps. Deeper
// chains are left to rehydrate — replaying edit batches to answer a
// request that already carries the full layout can cost more than the
// solve it saves.
func (s *Service) fullFromStore(ctx context.Context, lh, sig string, opts core.Options) *session {
	st := s.cfg.Store
	if st == nil {
		return nil
	}
	chain, err := st.Lookup(sig, lh)
	if err != nil {
		s.storeError()
		return nil
	}
	if chain == nil || len(chain.Batches) != 0 {
		return nil
	}
	sess, err := s.sessionFromSnapshot(ctx, chain.Snap, sig, opts)
	if err != nil || sess.hash != lh {
		s.storeError()
		return nil
	}
	s.mu.Lock()
	s.stats.Rehydrations++
	s.mu.Unlock()
	return sess
}
