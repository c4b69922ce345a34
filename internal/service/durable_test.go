package service

// Tests of the durable session layer (Config.Store): restart recovery via
// snapshot + log replay, spill-on-eviction, full-solve rehydration, the
// snapshot re-rooting policy, and the never-serve-corrupt-state guarantee.
// Replay correctness leans on the incremental-≡-scratch equivalence the
// core package proves: every rehydrated result here is compared against a
// from-scratch solve of the same geometry.

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"mpl/internal/core"
	"mpl/internal/store"
)

func openTestStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// sameSolution asserts byte-identical colorings and objective values — the
// replay-vs-scratch equivalence bar.
func sameSolution(t *testing.T, what string, got, want *core.Result) {
	t.Helper()
	if !slices.Equal(got.Colors, want.Colors) {
		t.Fatalf("%s: colors differ from the from-scratch reference", what)
	}
	if got.Conflicts != want.Conflicts || got.Stitches != want.Stitches {
		t.Fatalf("%s: objectives %d/%d, reference %d/%d", what, got.Conflicts, got.Stitches, want.Conflicts, want.Stitches)
	}
}

// TestDurableRestartIncremental is the restart story end to end: solve,
// advance the session twice, drop every in-memory structure (a restart),
// and chain a further batch from the pre-crash hash without re-sending the
// layout. The rehydrated chain must solve to exactly what a never-crashed
// from-scratch pipeline produces.
func TestDurableRestartIncremental(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	l := denseRow("row", 8)
	opts := core.Options{K: 4, Algorithm: core.AlgLinear}
	batches := [][]core.Edit{
		{{Op: core.EditMove, Feature: 1, DX: 20, DY: 0}},
		{{Op: core.EditRemove, Feature: 0}},
		{{Op: core.EditMove, Feature: 3, DX: 0, DY: 40}},
	}

	st := openTestStore(t, dir)
	svcA := New(Config{Store: st})
	if _, _, err := svcA.Decompose(ctx, l, opts); err != nil {
		t.Fatal(err)
	}
	hash := LayoutHash(l)
	for _, b := range batches[:2] {
		_, nh, _, _, err := svcA.DecomposeIncremental(ctx, hash, b, opts)
		if err != nil {
			t.Fatal(err)
		}
		hash = nh
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh Service over a fresh Store on the same directory.
	st2 := openTestStore(t, dir)
	svcB := New(Config{Store: st2})
	resB, nh, estats, cached, err := svcB.DecomposeIncremental(ctx, hash, batches[2], opts)
	if err != nil {
		t.Fatalf("incremental from pre-restart hash: %v", err)
	}
	if cached || estats == nil {
		t.Fatalf("post-restart batch must be a fresh incremental solve (cached=%v)", cached)
	}
	stats := svcB.StatsSnapshot()
	if stats.Rehydrations == 0 {
		t.Fatalf("no rehydration recorded: %+v", stats)
	}
	if stats.Store == nil || stats.Store.LiveSessions == 0 {
		t.Fatalf("store stats not surfaced: %+v", stats.Store)
	}

	// From-scratch reference on a volatile service.
	cur := l
	for _, b := range batches {
		next, err := core.EditLayout(cur, b)
		if err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	if LayoutHash(cur) != nh {
		t.Fatalf("post-restart chain landed on %.12s, reference geometry is %.12s", nh, LayoutHash(cur))
	}
	ref, _, err := New(Config{}).Decompose(ctx, cur, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameSolution(t, "rehydrated chain", resB, ref)
}

// TestDurableSpillOnEviction: sessions pushed out of the LRU land on disk
// and rehydrate on demand within the same process.
func TestDurableSpillOnEviction(t *testing.T) {
	ctx := context.Background()
	st := openTestStore(t, t.TempDir())
	svc := New(Config{CacheSize: 2, Store: st})
	opts := core.Options{K: 4, Algorithm: core.AlgLinear}

	rows := []int{4, 5, 6, 7}
	for _, n := range rows {
		if _, _, err := svc.Decompose(ctx, denseRow("row", n), opts); err != nil {
			t.Fatal(err)
		}
	}
	stats := svc.StatsSnapshot()
	if stats.Spills == 0 {
		t.Fatalf("no session spilled despite evictions: %+v", stats)
	}
	first := denseRow("row", rows[0])
	if !st.Has(optionsSig(opts), LayoutHash(first)) {
		t.Fatal("evicted session is not on disk")
	}

	// Incremental from the evicted base: rehydrated, not ErrNoSession.
	edits := []core.Edit{{Op: core.EditRemove, Feature: 0}}
	res, _, _, _, err := svc.DecomposeIncremental(ctx, LayoutHash(first), edits, opts)
	if err != nil {
		t.Fatalf("incremental from spilled session: %v", err)
	}
	after := svc.StatsSnapshot()
	if after.Rehydrations == 0 {
		t.Fatalf("no rehydration recorded: %+v", after)
	}
	newL, err := core.EditLayout(first, edits)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := New(Config{}).Decompose(ctx, newL, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameSolution(t, "spill-rehydrated session", res, ref)
}

// TestDurableFullSolveFromDisk: after a restart, a full Decompose of a
// snapshotted layout is answered from the log (graph rebuild plus
// verification, no solve) — and still registers a session.
func TestDurableFullSolveFromDisk(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	opts := core.Options{K: 4, Algorithm: core.AlgLinear}
	l1, l2 := denseRow("a", 6), denseRow("b", 7)

	st := openTestStore(t, dir)
	svcA := New(Config{CacheSize: 1, Store: st})
	if _, _, err := svcA.Decompose(ctx, l1, opts); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svcA.Decompose(ctx, l2, opts); err != nil {
		t.Fatal(err) // evicts and spills l1's session
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openTestStore(t, dir)
	svcB := New(Config{Store: st2})
	res, cached, err := svcB.Decompose(ctx, l1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("fresh process: nothing should be in the memory cache")
	}
	stats := svcB.StatsSnapshot()
	if stats.Rehydrations != 1 {
		t.Fatalf("full solve did not come from the store: %+v", stats)
	}
	ref, _, err := New(Config{}).Decompose(ctx, l1, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameSolution(t, "disk-served full solve", res, ref)
	// The rehydrated state is a session: edits chain straight off it.
	if _, _, _, _, err := svcB.DecomposeIncremental(ctx, LayoutHash(l1), []core.Edit{{Op: core.EditRemove, Feature: 0}}, opts); err != nil {
		t.Fatalf("incremental after disk-served solve: %v", err)
	}
}

// TestRehydratedSessionServesFullRequest: after a restart, a chain request
// rehydrates its base from the log into the session cache, and a full
// request of that base geometry is then a hit — no solve, no second
// rehydration — because the cached session is the cached result.
func TestRehydratedSessionServesFullRequest(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	l := denseRow("rehy-full", 8)
	opts := core.Options{K: 4, Algorithm: core.AlgLinear}
	first := []core.Edit{{Op: core.EditMove, Feature: 1, DX: 20, DY: 0}}
	st := openTestStore(t, dir)
	svcA := New(Config{Store: st})
	if _, _, err := svcA.Decompose(ctx, l, opts); err != nil {
		t.Fatal(err)
	}
	_, hash, _, _, err := svcA.DecomposeIncremental(ctx, LayoutHash(l), first, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	svc := New(Config{Store: openTestStore(t, dir)})
	if _, _, _, _, err := svc.DecomposeIncremental(ctx, hash, []core.Edit{{Op: core.EditRemove, Feature: 0}}, opts); err != nil {
		t.Fatalf("chain from the logged hash: %v", err)
	}
	before := svc.StatsSnapshot()
	if before.Rehydrations != 1 {
		t.Fatalf("Rehydrations = %d after the chain request, want 1", before.Rehydrations)
	}
	base, err := core.EditLayout(l, first)
	if err != nil {
		t.Fatal(err)
	}
	res, cached, err := svc.Decompose(ctx, base, opts)
	if err != nil {
		t.Fatal(err)
	}
	after := svc.StatsSnapshot()
	if !cached || after.Misses != before.Misses || after.Rehydrations != before.Rehydrations {
		t.Fatalf("full request of the rehydrated geometry: cached=%v misses %d->%d rehydrations %d->%d, want a hit with both unchanged",
			cached, before.Misses, after.Misses, before.Rehydrations, after.Rehydrations)
	}
	ref, _, err := New(Config{}).Decompose(ctx, base, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameSolution(t, "full request served by a rehydrated session", res, ref)
}

// TestDurableSnapshotReroot: when a chain reaches the store's
// snapshot-every depth (8), the service re-roots it with a successor
// snapshot, bounding the replay a future rehydration pays.
func TestDurableSnapshotReroot(t *testing.T) {
	const snapshotEvery = 8
	ctx := context.Background()
	st := openTestStore(t, t.TempDir())
	svc := New(Config{Store: st})
	opts := core.Options{K: 4, Algorithm: core.AlgLinear}
	l := denseRow("row", 2*snapshotEvery)
	if _, _, err := svc.Decompose(ctx, l, opts); err != nil {
		t.Fatal(err)
	}
	hash := LayoutHash(l)
	for i := 0; i < snapshotEvery; i++ {
		_, nh, _, _, err := svc.DecomposeIncremental(ctx, hash, []core.Edit{{Op: core.EditRemove, Feature: 0}}, opts)
		if err != nil {
			t.Fatal(err)
		}
		hash = nh
	}
	// Depth 8 hit the policy: the deepest session must be directly
	// replayable (snapshot, no edit tail).
	ch, err := st.Lookup(optionsSig(opts), hash)
	if err != nil || ch == nil {
		t.Fatalf("deepest session not in the log: %v, %v", ch, err)
	}
	if len(ch.Batches) != 0 {
		t.Fatalf("chain was not re-rooted: replay depth %d", len(ch.Batches))
	}
	if ss := st.StatsSnapshot(); ss.Snapshots < 2 {
		t.Fatalf("expected root + re-root snapshots, got %+v", ss)
	}
}

// TestDurableCorruptSnapshotNotServed: a well-framed snapshot whose
// coloring does not verify against its own geometry is treated as absent —
// ErrNoSession, a StoreErrors tick, and never a corrupt session.
func TestDurableCorruptSnapshotNotServed(t *testing.T) {
	ctx := context.Background()
	st := openTestStore(t, t.TempDir())
	opts := core.Options{K: 4, Algorithm: core.AlgLinear}
	l := denseRow("row", 5)
	// All-same-color is wrong for a dense row (adjacent features conflict),
	// so the claimed zero objective cannot verify.
	bogus := &store.Snapshot{Layout: l, Colors: make([]int, len(l.Features)), Conflicts: 0, Stitches: 0, Proven: true}
	if err := st.AppendSnapshot(optionsSig(opts), LayoutHash(l), bogus); err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Store: st})
	_, _, _, _, err := svc.DecomposeIncremental(ctx, LayoutHash(l), []core.Edit{{Op: core.EditRemove, Feature: 0}}, opts)
	if !errors.Is(err, ErrNoSession) {
		t.Fatalf("err = %v, want ErrNoSession", err)
	}
	if stats := svc.StatsSnapshot(); stats.StoreErrors == 0 || stats.Rehydrations != 0 {
		t.Fatalf("corrupt snapshot not accounted as a store error: %+v", stats)
	}
}

// TestDurableDisabledIsVolatile: without Config.Store every durable path is
// inert — the zero-value behavior is byte-identical to before the store
// existed.
func TestDurableDisabledIsVolatile(t *testing.T) {
	ctx := context.Background()
	svc := New(Config{})
	opts := core.Options{K: 4, Algorithm: core.AlgLinear}
	l := denseRow("row", 6)
	if _, _, err := svc.Decompose(ctx, l, opts); err != nil {
		t.Fatal(err)
	}
	stats := svc.StatsSnapshot()
	if stats.Store != nil || stats.Rehydrations != 0 || stats.Spills != 0 || stats.StoreErrors != 0 {
		t.Fatalf("volatile service reports durable activity: %+v", stats)
	}
}

// TestConcurrentRehydrateReplaysOnce: concurrent batches against a base
// that exists only on disk share one rehydration through the session
// store's flight — one log-tail replay, one Rehydrations tally — and every
// batch answers identically.
func TestConcurrentRehydrateReplaysOnce(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	l := denseRow("rehy", 8)
	opts := core.Options{K: 4, Algorithm: core.AlgLinear}
	st := openTestStore(t, dir)
	svcA := New(Config{Store: st})
	if _, _, err := svcA.Decompose(ctx, l, opts); err != nil {
		t.Fatal(err)
	}
	hash := LayoutHash(l)
	for _, b := range [][]core.Edit{
		{{Op: core.EditMove, Feature: 1, DX: 20, DY: 0}},
		{{Op: core.EditRemove, Feature: 0}},
	} {
		_, nh, _, _, err := svcA.DecomposeIncremental(ctx, hash, b, opts)
		if err != nil {
			t.Fatal(err)
		}
		hash = nh
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// A restarted service: the base lives only in the log (snapshot plus a
	// replay tail).
	svc := New(Config{Store: openTestStore(t, dir)})
	const n = 8
	batch := []core.Edit{{Op: core.EditMove, Feature: 3, DX: 0, DY: 40}}
	results := make([]*core.Result, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], _, _, _, errs[i] = svc.DecomposeIncremental(ctx, hash, batch, opts)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("batch %d: %v", i, errs[i])
		}
		sameSolution(t, "concurrent rehydrated batch", results[i], results[0])
	}
	if got := svc.StatsSnapshot().Rehydrations; got != 1 {
		t.Fatalf("Rehydrations = %d for %d concurrent batches on one base, want 1", got, n)
	}
}
