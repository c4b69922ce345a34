package service

// Tests of the incremental (ECO) session layer, including the concurrency
// stress test of the ISSUE acceptance list: one session hammered with
// concurrent identical and conflicting edit batches under -race, asserting
// single-flight deduplication and that no torn *Result is ever served.

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"mpl/internal/coloring"
	"mpl/internal/core"
	"mpl/internal/geom"
	"mpl/internal/synth"
)

func TestIncrementalSessionRoundTrip(t *testing.T) {
	s := New(Config{})
	ctx := context.Background()
	l, err := synth.GenerateByName("C432", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{K: 4, Algorithm: core.AlgLinear}
	if _, _, err := s.Decompose(ctx, l, opts); err != nil {
		t.Fatal(err)
	}
	base := LayoutHash(l)

	edits := []core.Edit{{Op: core.EditMove, Feature: 2, DX: 20, DY: 0}}
	res, nh, es, cached, err := s.DecomposeIncremental(ctx, base, edits, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cached || es == nil {
		t.Fatalf("first batch must be a fresh incremental solve (cached=%v, stats=%v)", cached, es)
	}

	// The session result must equal a from-scratch service solve of the
	// same post-edit geometry — and hit its cache entry.
	newL, err := core.EditLayout(l, edits)
	if err != nil {
		t.Fatal(err)
	}
	if LayoutHash(newL) != nh {
		t.Fatalf("returned hash %.12s does not match post-edit layout %.12s", nh, LayoutHash(newL))
	}
	ref, refCached, err := s.Decompose(ctx, newL, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !refCached {
		t.Fatal("a full request for the post-edit geometry must hit the incremental result's cache entry")
	}
	if ref.Conflicts != res.Conflicts || ref.Stitches != res.Stitches {
		t.Fatalf("incremental %d/%d != cached reference %d/%d", res.Conflicts, res.Stitches, ref.Conflicts, ref.Stitches)
	}

	// An identical repeat batch is a pure cache hit (no new ApplyEdits).
	res2, nh2, es2, cached, err := s.DecomposeIncremental(ctx, base, edits, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !cached || es2 != nil || nh2 != nh || res2.Conflicts != res.Conflicts {
		t.Fatalf("repeat batch: cached=%v stats=%v hash=%.12s", cached, es2, nh2)
	}

	// The new state is itself a session: chain a follow-up batch from it.
	_, _, es3, cached, err := s.DecomposeIncremental(ctx, nh, []core.Edit{{Op: core.EditRemove, Feature: 0}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cached || es3 == nil {
		t.Fatal("chained batch from the advanced session must solve incrementally")
	}
	if st := s.StatsSnapshot(); st.Incremental != 2 || st.Size < 3 {
		t.Fatalf("stats = %+v, want 2 incremental solves and ≥3 sessions", st)
	}
}

func TestIncrementalUnknownSession(t *testing.T) {
	s := New(Config{})
	_, _, _, _, err := s.DecomposeIncremental(context.Background(), "deadbeef", nil, core.Options{K: 4})
	if !errors.Is(err, ErrNoSession) {
		t.Fatalf("err = %v, want ErrNoSession", err)
	}
}

func TestIncrementalBadEditsRejected(t *testing.T) {
	s := New(Config{})
	ctx := context.Background()
	l := denseRow("row", 6)
	opts := core.Options{K: 4, Algorithm: core.AlgLinear}
	if _, _, err := s.Decompose(ctx, l, opts); err != nil {
		t.Fatal(err)
	}
	_, _, _, _, err := s.DecomposeIncremental(ctx, LayoutHash(l), []core.Edit{{Op: core.EditRemove, Feature: 99}}, opts)
	if err == nil || errors.Is(err, ErrNoSession) {
		t.Fatalf("out-of-range edit: err = %v, want a validation error", err)
	}
	if _, _, _, _, err := s.DecomposeIncremental(ctx, LayoutHash(l), nil, core.Options{K: 1}); err == nil {
		t.Fatal("K=1 must be rejected")
	}
}

// checkIntact asserts a served result is internally consistent — its Colors
// validate and recount to exactly the advertised objective. A torn result
// (colors from one solve, counts or graph from another) cannot pass this.
func checkIntact(t *testing.T, res *core.Result, k int) {
	t.Helper()
	if err := coloring.Validate(res.Graph.G, res.Colors, k); err != nil {
		t.Errorf("torn result: %v", err)
		return
	}
	conf, stit := coloring.Count(res.Graph.G, res.Colors)
	if conf != res.Conflicts || stit != res.Stitches {
		t.Errorf("torn result: colors recount to %d/%d, result says %d/%d", conf, stit, res.Conflicts, res.Stitches)
	}
	if vc, vs, err := core.VerifySolution(res); err != nil || vc != res.Conflicts || vs != res.Stitches {
		t.Errorf("torn result: geometry recount %d/%d (err %v), result says %d/%d", vc, vs, err, res.Conflicts, res.Stitches)
	}
}

// TestIncrementalConcurrencyStress hammers one session with concurrent
// identical and conflicting edit batches. Run under -race (CI always does):
// the assertions are (a) identical batches dedupe to one ApplyEdits via
// single-flight, (b) every served result — shared or not — is intact, and
// (c) every successor session is live and consistent afterwards.
func TestIncrementalConcurrencyStress(t *testing.T) {
	s := New(Config{Workers: 4, CacheSize: 256})
	ctx := context.Background()
	l, err := synth.GenerateByName("C499", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{K: 4, Algorithm: core.AlgSDPGreedy, Seed: 1}
	if _, _, err := s.Decompose(ctx, l, opts); err != nil {
		t.Fatal(err)
	}
	base := LayoutHash(l)

	// Phase 1: G identical batches → exactly one incremental solve.
	const identical = 16
	same := []core.Edit{{Op: core.EditMove, Feature: 1, DX: 0, DY: 40}}
	var wg sync.WaitGroup
	results := make([]*core.Result, identical)
	hashes := make([]string, identical)
	for i := 0; i < identical; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, nh, _, _, err := s.DecomposeIncremental(ctx, base, same, opts)
			if err != nil {
				t.Error(err)
				return
			}
			results[i], hashes[i] = res, nh
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if st := s.StatsSnapshot(); st.Incremental != 1 {
		t.Fatalf("stats = %+v, want exactly 1 incremental solve for %d identical batches", st, identical)
	}
	for i := 0; i < identical; i++ {
		if hashes[i] != hashes[0] || results[i].Conflicts != results[0].Conflicts || results[i].Stitches != results[0].Stitches {
			t.Fatalf("caller %d diverged: %q %d/%d vs %q %d/%d", i,
				hashes[i][:12], results[i].Conflicts, results[i].Stitches,
				hashes[0][:12], results[0].Conflicts, results[0].Stitches)
		}
		checkIntact(t, results[i], 4)
	}

	// Phase 2: conflicting batches from the same base, concurrently, mixed
	// with repeats of the phase-1 batch. Every batch derives its own
	// successor state; nothing may tear.
	const conflicting = 12
	type out struct {
		edits []core.Edit
		res   *core.Result
		hash  string
	}
	outs := make([]out, conflicting)
	for i := 0; i < conflicting; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var edits []core.Edit
			switch i % 3 {
			case 0:
				edits = []core.Edit{{Op: core.EditMove, Feature: i + 1, DX: 20 * (i + 1), DY: 0}}
			case 1:
				edits = []core.Edit{{Op: core.EditRemove, Feature: i}}
			default:
				x := 5000 + 100*i
				edits = []core.Edit{{Op: core.EditAdd, Shape: geom.NewPolygon(geom.Rect{X0: x, Y0: 0, X1: x + 20, Y1: 20})}}
			}
			res, nh, _, _, err := s.DecomposeIncremental(ctx, base, edits, opts)
			if err != nil {
				t.Error(err)
				return
			}
			outs[i] = out{edits: edits, res: res, hash: nh}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := range outs {
		checkIntact(t, outs[i].res, 4)
		// The successor session must be live and answer follow-ups whose
		// reference solve (a fresh scratch run of the same geometry through
		// an independent Service) agrees exactly.
		follow := []core.Edit{{Op: core.EditMove, Feature: 0, DX: 0, DY: 20}}
		res, nh, _, _, err := s.DecomposeIncremental(ctx, outs[i].hash, follow, opts)
		if err != nil {
			t.Fatalf("batch %d follow-up: %v", i, err)
		}
		checkIntact(t, res, 4)
		stepL, err := core.EditLayout(l, outs[i].edits)
		if err != nil {
			t.Fatal(err)
		}
		refL, err := core.EditLayout(stepL, follow)
		if err != nil {
			t.Fatal(err)
		}
		if LayoutHash(refL) != nh {
			t.Fatalf("batch %d follow-up hash mismatch", i)
		}
		ref, err := core.Decompose(refL, opts)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Conflicts != res.Conflicts || ref.Stitches != res.Stitches {
			t.Fatalf("batch %d follow-up: incremental chain says %d/%d, scratch says %d/%d",
				i, res.Conflicts, res.Stitches, ref.Conflicts, ref.Stitches)
		}
	}
}

// TestSessionRecoveryAfterEviction: the documented recovery for a lost
// session ("re-send the full layout via Decompose") works once the LRU
// bound has pushed the session out: the chain request answers
// ErrNoSession, the full request re-solves and reopens the session, and
// the chain then proceeds.
func TestSessionRecoveryAfterEviction(t *testing.T) {
	s := New(Config{CacheSize: 1})
	ctx := context.Background()
	l := denseRow("row", 8)
	opts := core.Options{K: 4, Algorithm: core.AlgLinear}
	if _, _, err := s.Decompose(ctx, l, opts); err != nil {
		t.Fatal(err)
	}
	// A second layout fills the one-entry cache, evicting l's session.
	if _, _, err := s.Decompose(ctx, denseRow("other", 5), opts); err != nil {
		t.Fatal(err)
	}
	edits := []core.Edit{{Op: core.EditRemove, Feature: 0}}
	if _, _, _, _, err := s.DecomposeIncremental(ctx, LayoutHash(l), edits, opts); !errors.Is(err, ErrNoSession) {
		t.Fatalf("evicted session: err = %v, want ErrNoSession", err)
	}
	if _, cached, err := s.Decompose(ctx, l, opts); err != nil || cached {
		t.Fatalf("recovery request: cached=%v err=%v, want a fresh solve", cached, err)
	}
	if _, _, _, _, err := s.DecomposeIncremental(ctx, LayoutHash(l), edits, opts); err != nil {
		t.Fatalf("incremental after recovery: %v", err)
	}
}

// TestIncrementalDegradedNotCachedNotSessioned: a dead deadline yields a
// best-effort answer but must leave neither a cache entry nor a session.
func TestIncrementalDegradedNotCachedNotSessioned(t *testing.T) {
	s := New(Config{})
	ctx := context.Background()
	l := denseGrid(8)
	opts := core.Options{K: 4, Algorithm: core.AlgSDPBacktrack}
	if _, _, err := s.Decompose(ctx, l, opts); err != nil {
		t.Fatal(err)
	}
	before := s.StatsSnapshot()
	dead, cancel := context.WithCancel(ctx)
	cancel()
	// Move an interior contact: the dense component must be re-solved, and
	// under a dead context that re-solve degrades.
	edits := []core.Edit{{Op: core.EditMove, Feature: 27, DX: 10, DY: 0}}
	res, nh, _, _, err := s.DecomposeIncremental(dead, LayoutHash(l), edits, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded == 0 {
		t.Skip("dead context still solved at full quality (tiny component); nothing to assert")
	}
	st := s.StatsSnapshot()
	if st.Size != before.Size {
		t.Fatalf("degraded incremental result was cached or sessioned: %+v -> %+v", before, st)
	}
	// A healthy retry must run fresh, not inherit the degraded answer.
	res2, _, _, cached, err := s.DecomposeIncremental(ctx, LayoutHash(l), edits, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cached || res2.Degraded != 0 {
		t.Fatalf("healthy retry: cached=%v degraded=%d", cached, res2.Degraded)
	}
	if LayoutHash(l) == nh {
		t.Fatal("sanity: edit did not change the layout hash")
	}
}

// TestFullAndIncrementalShareOneFlight: a full Decompose of geometry L′
// and an incremental batch reaching L′ from a live base key the same
// result-cache entry, so together they cost exactly one solve — whichever
// arrives first owns it and the other hits — return identical colors, and
// register one session.
func TestFullAndIncrementalShareOneFlight(t *testing.T) {
	s := New(Config{})
	ctx := context.Background()
	l := denseRow("share", 12)
	opts := core.Options{K: 4, Algorithm: core.AlgLinear}
	if _, _, err := s.Decompose(ctx, l, opts); err != nil {
		t.Fatal(err)
	}
	edits := []core.Edit{{Op: core.EditMove, Feature: 5, DX: 10, DY: 0}}
	lp, err := core.EditLayout(l, edits)
	if err != nil {
		t.Fatal(err)
	}
	before := s.StatsSnapshot()

	var full, inc *core.Result
	var fullErr, incErr error
	var newHash string
	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		<-start
		full, _, fullErr = s.Decompose(ctx, lp, opts)
	}()
	go func() {
		defer wg.Done()
		<-start
		inc, newHash, _, _, incErr = s.DecomposeIncremental(ctx, LayoutHash(l), edits, opts)
	}()
	close(start)
	wg.Wait()
	if fullErr != nil || incErr != nil {
		t.Fatalf("full: %v, incremental: %v", fullErr, incErr)
	}
	if newHash != LayoutHash(lp) {
		t.Fatal("sanity: the batch did not reach L′")
	}
	if !slices.Equal(full.Colors, inc.Colors) {
		t.Fatal("full and incremental answers for one geometry differ")
	}
	st := s.StatsSnapshot()
	if st.Misses != before.Misses+1 || st.Hits != before.Hits+1 {
		t.Fatalf("misses %d->%d hits %d->%d, want one solve and one hit",
			before.Misses, st.Misses, before.Hits, st.Hits)
	}
	if st.Size != before.Size+1 {
		t.Fatalf("sessions %d->%d, want exactly one new session", before.Size, st.Size)
	}
}
