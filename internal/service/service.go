// Package service is the serving layer over the decomposition pipeline: a
// layout-hash keyed LRU session cache with single-flight deduplication —
// each entry is both the cached result and the session edits chain from —
// a decomposition-graph cache shared by algorithm sweeps, and a
// bounded-concurrency batch runner. It exists
// so callers with many or repeated layouts (the HTTP API of `qpld serve`,
// the table sweeps of cmd/evaluate) get concurrency and caching without
// re-implementing either, while cancellation flows straight through to
// core.DecomposeGraphContext.
//
// Sessions make edits first-class: every successful full-quality Decompose
// caches an immutable session (layout + result) under its layout hash,
// and DecomposeIncremental advances a session by an edit batch through
// core.ApplyEdits — re-solving only the dirty region — registering the
// post-edit state as a new session. Because a session is keyed by the
// geometry it decomposed (not by a mutable "current state"), concurrent
// conflicting edit batches never race: each derives its own successor state
// from the same immutable base.
package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"mpl/internal/core"
	"mpl/internal/division"
	"mpl/internal/flight"
	"mpl/internal/geom"
	"mpl/internal/layout"
	"mpl/internal/pipeline"
	"mpl/internal/store"
)

// ErrNoSession is returned by DecomposeIncremental when the base layout
// hash has no live session — the client must (re)send the full layout via
// Decompose first. Wrapped; test with errors.Is.
var ErrNoSession = errors.New("service: no session for base layout hash")

// Config sizes a Service. The zero value is usable.
type Config struct {
	// CacheSize caps the number of cached sessions (each one full-quality
	// result with its layout) and, independently, of cached decomposition
	// graphs; 0 means 128, negative disables caching.
	CacheSize int
	// Workers caps concurrently running decompositions across all callers;
	// 0 means GOMAXPROCS.
	Workers int
	// DefaultTimeout, when positive, bounds each decomposition that arrives
	// with a context carrying no earlier deadline.
	DefaultTimeout time.Duration
	// Store, when non-nil, makes sessions durable (DESIGN.md §13): edit
	// batches are logged before the successor session is registered, a
	// session evicted from the LRU is spilled to disk instead of dropped,
	// and a session miss rehydrates from the nearest persisted snapshot by
	// replaying the log tail through core.ApplyEdits. Nil (the zero value)
	// keeps sessions purely in-memory. The caller owns the Store's
	// lifecycle and must not Close it while the Service is in use.
	Store *store.Store
}

func (c Config) withDefaults() Config {
	if c.CacheSize == 0 {
		c.CacheSize = 128
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	Hits        uint64 // result served from cache (including waits on an in-flight solve)
	Misses      uint64 // result required a solve
	Evictions   uint64 // sessions dropped by the LRU policy
	GraphHits   uint64 // graph builds avoided by the graph cache
	Incremental uint64 // incremental (ApplyEdits) solves actually executed
	Size        int    // current session-cache entry count (stored sessions; in-flight solves excluded)
	// Rehydrations counts sessions reconstructed from the durable store
	// (nearest snapshot plus log-tail replay); Spills counts sessions
	// written to the durable store on LRU eviction; StoreErrors counts
	// durable-store operations that failed — the request itself still
	// succeeded, but durability of the affected session is degraded until
	// a later spill or snapshot lands. All zero without Config.Store.
	Rehydrations uint64
	Spills       uint64
	StoreErrors  uint64
	// Store carries the durable session store's own counters (log size,
	// compactions, recovery events); nil without Config.Store.
	Store *store.Stats
	// Stats is the division telemetry of every solve this service
	// executed, folded with division.Stats.Add (cache hits add nothing —
	// no piece was solved):
	//   - Engines: engine name → pieces colored. Fixed-engine requests
	//     land in one bucket; auto requests spread across the engines the
	//     portfolio picked, plus "fallback" for deadline-degraded pieces.
	//   - Stages: keyed by the pipeline.Stage* names, division and merge
	//     stages from each solve's Result, build stages from the graph
	//     builds this service actually ran (cache-hit graphs add nothing —
	//     the build they reuse was recorded when it happened).
	//   - Shapes: the shape-tier counters (DESIGN.md §11). Distinct sums
	//     per-run distinct-shape counts, so a shape two solves both touch
	//     is counted by each.
	//   - Balance: worker contributions sum, busy-time extremes are the
	//     lifetime max/min over all runs' workers. A MaxBusy far above
	//     MinBusy flags workloads whose parallel Dispatch is dominated by
	//     straggler components.
	// Components is not folded and stays zero.
	division.Stats
}

// Service runs decompositions with caching and bounded concurrency. Safe
// for concurrent use.
//
// Both caches share one entry lifecycle, internal/flight: one caller owns
// a key's fill, the rest wait for it, and only full-quality or rehydrated
// sessions and successful builds are kept. Each resolve tallies its
// outcome exactly once (Hit → Hits, Miss or Bypass → Misses; a graph Hit →
// GraphHits).
type Service struct {
	cfg      Config
	sem      chan struct{}              // full-quality solves
	fbSem    chan struct{}              // fallback solves for requests whose deadline expired while queued
	graphs   *flight.Cache[*core.Graph] // graphKey -> decomposition graph
	sessions *flight.Cache[*session]    // resultKey -> session (immutable once stored)

	mu    sync.Mutex
	stats Stats // guarded by mu
}

// session is one servable decomposition state: the layout geometry and the
// full-quality result computed for it under one options key. All fields
// are immutable after the session is stored — DecomposeIncremental derives
// new sessions instead of updating old ones, so readers never see torn
// state and conflicting edit batches cannot race. hash and sig are the
// components of the session's cache key (LayoutHash of layout, optionsSig
// of the options that produced res), kept so the durable store can spill
// and chain sessions without re-deriving either.
type session struct {
	hash   string
	sig    string
	layout *layout.Layout
	res    *core.Result
}

// newSession is the session a full solve of the caller's l under sig
// registers. The layout is snapshotted (O(features), outside any lock) to
// shield the session from later caller-side appends to the feature slice. (Callers mutating feature
// geometry in place would already have broken the hash-keyed caches; that
// contract is unchanged.)
func newSession(lh, sig string, l *layout.Layout, res *core.Result) *session {
	snap := &layout.Layout{
		Name:     l.Name,
		Process:  l.Process,
		Features: append([]geom.Polygon(nil), l.Features...),
	}
	return &session{hash: lh, sig: sig, layout: snap, res: res}
}

// New returns a Service with the given configuration.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:    cfg,
		sem:    make(chan struct{}, cfg.Workers),
		fbSem:  make(chan struct{}, cfg.Workers),
		graphs: flight.New[*core.Graph](cfg.CacheSize, nil),
	}
	s.sessions = flight.New(cfg.CacheSize, s.spill)
	return s
}

// withDefaultTimeout bounds ctx by Config.DefaultTimeout when it carries
// no deadline of its own.
func (s *Service) withDefaultTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.cfg.DefaultTimeout > 0 {
		if _, has := ctx.Deadline(); !has {
			return context.WithTimeout(ctx, s.cfg.DefaultTimeout)
		}
	}
	return ctx, func() {}
}

// checkOptions rejects options no engine can honor: K below 2, and a
// negative or non-finite stitch weight, under which the branch-and-bound
// prune (and so a Proven answer) no longer holds. Zero values mean the
// defaults.
func checkOptions(opts core.Options) error {
	if opts.K != 0 && opts.K < 2 {
		return fmt.Errorf("service: K must be >= 2, got %d", opts.K)
	}
	if opts.Alpha < 0 || math.IsNaN(opts.Alpha) || math.IsInf(opts.Alpha, 0) {
		return fmt.Errorf("service: alpha must be finite and >= 0, got %v", opts.Alpha)
	}
	return nil
}

// Decompose runs (or reuses) one decomposition. cached reports whether the
// result was served from the cache or by waiting on an identical in-flight
// solve. The returned Result has its own Colors slice, so callers may
// mutate it (e.g. BalanceMasks) without corrupting the cache.
func (s *Service) Decompose(ctx context.Context, l *layout.Layout, opts core.Options) (res *core.Result, cached bool, err error) {
	res, _, cached, err = s.DecomposeHashed(ctx, l, opts)
	return res, cached, err
}

// DecomposeHashed is Decompose, additionally returning the layout hash it
// keyed the run under — the session base for DecomposeIncremental — so
// callers building responses (qpld serve) don't re-hash the geometry.
func (s *Service) DecomposeHashed(ctx context.Context, l *layout.Layout, opts core.Options) (res *core.Result, layoutHash string, cached bool, err error) {
	if err := checkOptions(opts); err != nil {
		return nil, "", false, err
	}
	ctx, cancel := s.withDefaultTimeout(ctx)
	defer cancel()
	lh := LayoutHash(l)
	sig := optionsSig(opts)
	solve := func() (*session, error) {
		res, err := s.solve(ctx, lh, l, opts)
		return newSession(lh, sig, l, res), err
	}
	// A restart may have left this very solve on disk: a durable snapshot
	// of the requested hash with no replay tail reconstructs the session
	// (graph build + verification) without re-running the solve.
	fromStoreOrSolve := func() (*session, error) {
		if sess := s.fullFromStore(ctx, lh, sig, opts); sess != nil {
			return sess, nil
		}
		return solve()
	}
	res, cached, err = s.resolve(ctx, resultKey(lh, sig), fromStoreOrSolve, solve, nil)
	if err != nil {
		return nil, "", false, err
	}
	return res, lh, cached, nil
}

// resolve is the cache path both public methods share: it serves key
// through the session cache, running fill on a miss. fill returns the
// session it computed; a healthy one is persisted — the incremental path's
// write-ahead log hook — and kept before any waiter wakes; a degraded or
// failed one is not, so a later caller with a healthy deadline gets a
// full-quality run. A hit answers with the stored session's result, so
// re-sending the full layout of a lost session reopens it. A waiter whose
// deadline expires answers by itself through bypass, uncached, instead of
// turning a cache-key collision into an error. The returned Result has its
// own Colors slice.
func (s *Service) resolve(ctx context.Context, key string, fill, bypass func() (*session, error), persist func(*session)) (*core.Result, bool, error) {
	sess, out, err := s.sessions.Do(ctx, key, func() (*session, bool, error) {
		// An owner knows its outcome before it solves: a Miss.
		s.mu.Lock()
		s.stats.Misses++
		s.mu.Unlock()
		sess, err := fill()
		s.mu.Lock()
		s.recordSolve(sess.res)
		s.mu.Unlock()
		if err != nil || sess.res.Degraded > 0 {
			return sess, false, err
		}
		if persist != nil {
			persist(sess)
		}
		return sess, true, nil
	})
	switch out {
	case flight.Hit:
		s.mu.Lock()
		s.stats.Hits++
		s.mu.Unlock()
	case flight.Bypass:
		sess, err = bypass()
		s.mu.Lock()
		s.stats.Misses++
		s.recordSolve(sess.res)
		s.mu.Unlock()
	}
	if err != nil {
		return nil, false, err
	}
	return copyResult(sess.res), out == flight.Hit, nil
}

// recordSolve folds one executed solve's division telemetry into the
// service totals. Callers must hold s.mu.
//
//lint:holds mu
func (s *Service) recordSolve(res *core.Result) {
	if res != nil {
		s.stats.Add(res.DivisionStats)
	}
}

// fallbackLaneWait bounds how long an expired request may queue for the
// fallback lane. Every fallback solve is milliseconds-scale linear work, so
// a lane that stays full this long is saturated and the request is better
// failed than parked: its own context is already dead, and unbounded
// parking here would pin handler goroutines past serve's drain budget.
// A variable only so the saturation regression test can shorten it.
var fallbackLaneWait = 2 * time.Second

// acquireLane claims a solve slot: a full-quality slot while the context
// is alive, else the bounded fallback lane (under a cancelled context the
// pipeline takes the cheap linear-fallback path, so the caller still
// receives a valid degraded coloring instead of an error — but through a
// separate bounded semaphore, so an overload burst of expired requests
// cannot run unbounded graph builds). release is non-nil exactly when err
// is nil.
func (s *Service) acquireLane(ctx context.Context) (release func(), err error) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, nil
	case <-ctx.Done():
	}
	t := time.NewTimer(fallbackLaneWait)
	defer t.Stop()
	select {
	case s.fbSem <- struct{}{}:
		return func() { <-s.fbSem }, nil
	case <-t.C:
		return nil, fmt.Errorf("service: fallback lane saturated after %v: %w", fallbackLaneWait, ctx.Err())
	}
}

// solve acquires a concurrency slot, builds (or reuses) the decomposition
// graph, and colors it.
func (s *Service) solve(ctx context.Context, lh string, l *layout.Layout, opts core.Options) (*core.Result, error) {
	release, err := s.acquireLane(ctx)
	if err != nil {
		return nil, err
	}
	defer release()

	dg, err := s.graphFor(ctx, lh, l, opts)
	if err != nil {
		return nil, err
	}
	return core.DecomposeGraphContext(ctx, dg, opts)
}

// graphFor returns the decomposition graph for the layout, building it at
// most once per (layout, build options) across concurrent callers. Waiting
// on another caller's in-flight build is not interruptible: the build is
// already running, always terminates, and finishing the wait is the fastest
// route to any answer — including a degraded one. For the same reason the
// build itself runs uncancelled. A failed build is not kept, so its
// waiters retry and one of them builds afresh.
func (s *Service) graphFor(ctx context.Context, lh string, l *layout.Layout, opts core.Options) (*core.Graph, error) {
	build := opts.Normalize().Build
	ctx = context.WithoutCancel(ctx)
	g, out, err := s.graphs.Do(ctx, graphKey(lh, build), func() (*core.Graph, bool, error) {
		g, err := core.BuildGraphContext(ctx, l, build)
		if err != nil {
			return nil, false, err
		}
		s.mu.Lock()
		s.stats.AddStage(pipeline.StageBuild, g.Stats.Timing.Total)
		s.mu.Unlock()
		return g, true, nil
	})
	if out == flight.Hit {
		s.mu.Lock()
		s.stats.GraphHits++
		s.mu.Unlock()
	}
	return g, err
}

// DecomposeIncremental advances the session identified by baseHash (a
// LayoutHash previously returned alongside a Decompose or
// DecomposeIncremental of the same opts) by one edit batch, re-solving only
// the dirty region via core.ApplyEdits. It returns the post-edit result,
// the post-edit layout hash (the base for follow-up batches), the reuse
// statistics (nil when the result came from the cache), and whether it was
// cached.
//
// Identical concurrent batches are deduplicated through the session cache:
// the post-edit geometry is hashed first, so one caller applies the edits
// and the rest wait on its entry. Conflicting concurrent batches derive
// independent successor sessions from the same immutable base — there is
// no "current state" to race on. When baseHash has no live session
// (evicted, never created, or caching disabled) the call fails with
// ErrNoSession and the client re-sends the full layout via Decompose.
func (s *Service) DecomposeIncremental(ctx context.Context, baseHash string, edits []core.Edit, opts core.Options) (res *core.Result, newHash string, estats *core.EditStats, cached bool, err error) {
	if err := checkOptions(opts); err != nil {
		return nil, "", nil, false, err
	}
	ctx, cancel := s.withDefaultTimeout(ctx)
	defer cancel()
	sig := optionsSig(opts)
	base, err := s.session(ctx, baseHash, sig, opts)
	if err != nil {
		return nil, "", nil, false, err
	}

	// Hash the post-edit geometry up front: the session cache and
	// single-flight machinery then work exactly as for full solves. A miss
	// decomposes the same plan, so the batch is planned once.
	plan, err := core.PlanEdits(base.layout, edits)
	if err != nil {
		return nil, "", nil, false, err
	}
	newL := plan.Layout()
	newHash = LayoutHash(newL)
	// newL is built afresh by PlanEdits and held by nothing else, so the
	// session keeps it without a snapshot.
	apply := func() (*session, error) {
		r, es, err := s.applyEdits(ctx, base, plan, opts)
		estats = es
		return &session{hash: newHash, sig: sig, layout: newL, res: r}, err
	}
	// A healthy successor is persisted to the durable log BEFORE it is
	// registered in memory (write-ahead discipline: once a client can chain
	// from newHash, a crash must not lose the state it chains from).
	persist := func(succ *session) { s.persistEdits(base, succ, edits) }
	res, cached, err = s.resolve(ctx, resultKey(newHash, sig), apply, apply, persist)
	if err != nil {
		return nil, "", nil, false, err
	}
	return res, newHash, estats, cached, nil
}

// session returns the live session for hash under sig. With a durable
// store, a session the cache lost (evicted, or a restart) is rehydrated
// from the log as a fill of the session cache, so concurrent batches on one
// lost base share one replay, a base whose own solve is still in flight is
// waited for rather than replayed, and a later full request of the
// rehydrated geometry is a hit. An unreplayable base is not kept, and a
// waiter whose context ends first gets its context error, as a
// dead-context replay does. Only when the disk has nothing either is it
// truly no session.
func (s *Service) session(ctx context.Context, hash, sig string, opts core.Options) (*session, error) {
	key := resultKey(hash, sig)
	sess, _ := s.sessions.Get(key)
	if sess == nil && s.cfg.Store != nil {
		var out flight.Outcome
		var err error
		sess, out, err = s.sessions.Do(ctx, key, func() (*session, bool, error) {
			sess, err := s.rehydrate(ctx, hash, sig, opts)
			return sess, sess != nil, err
		})
		if out == flight.Bypass {
			return nil, ctx.Err()
		}
		if err != nil {
			return nil, err
		}
	}
	if sess == nil {
		return nil, fmt.Errorf("%w: %.16s…", ErrNoSession, hash)
	}
	return sess, nil
}

// applyEdits decomposes plan, an edit batch planned against sess's layout,
// incrementally from sess's result under the same concurrency discipline
// as solve: a full-quality slot when the deadline is alive, the bounded
// fallback lane when it expired while queued.
func (s *Service) applyEdits(ctx context.Context, sess *session, plan *core.EditPlan, opts core.Options) (*core.Result, *core.EditStats, error) {
	release, err := s.acquireLane(ctx)
	if err != nil {
		return nil, nil, err
	}
	defer release()
	s.mu.Lock()
	s.stats.Incremental++
	s.mu.Unlock()
	return plan.Apply(ctx, sess.res, opts)
}

// StatsSnapshot returns current cache statistics.
func (s *Service) StatsSnapshot() Stats {
	evictions, size := s.sessions.Evictions(), s.sessions.Len()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Evictions, st.Size = evictions, size
	st.Stats = division.Stats{} // a deep copy: the snapshot owns its maps
	st.Stats.Add(s.stats.Stats)
	if s.cfg.Store != nil {
		ss := s.cfg.Store.StatsSnapshot()
		st.Store = &ss
	}
	return st
}

// copyResult returns a shallow copy with an independent Colors slice (the
// only part of a Result its public API mutates, via BalanceMasks).
func copyResult(r *core.Result) *core.Result {
	cp := *r
	cp.Colors = append([]int(nil), r.Colors...)
	return &cp
}

// Request is one unit of batch work.
type Request struct {
	// Name labels the request in its Response (e.g. a circuit name).
	Name string
	// Layout is the layout to decompose.
	Layout *layout.Layout
	// Options configures the run.
	Options core.Options
}

// Response pairs a Request with its outcome, in the same slice position.
type Response struct {
	Name    string
	Result  *core.Result
	Cached  bool
	Err     error
	Elapsed time.Duration
}

// DecomposeAll runs every request through Decompose with at most
// Config.Workers solves in flight, returning responses in request order.
// Cancelling ctx degrades rather than abandons the work already picked
// up — requests already solving finish promptly via core's fallback path,
// with valid degraded results — while requests a worker has not yet
// started are not solved at all: their responses carry the context's
// error, so the batch returns as soon as the in-flight tail drains
// instead of grinding every remaining layout through a fallback solve.
func (s *Service) DecomposeAll(ctx context.Context, reqs []Request) []Response {
	out := make([]Response, len(reqs))
	workers := s.cfg.Workers
	if workers > len(reqs) {
		workers = len(reqs)
	}
	if workers < 1 {
		workers = 1
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := ctx.Err(); err != nil {
					out[i] = Response{Name: reqs[i].Name, Err: fmt.Errorf("service: batch cancelled before this request started: %w", err)}
					continue
				}
				t0 := time.Now()
				res, cached, err := s.Decompose(ctx, reqs[i].Layout, reqs[i].Options)
				out[i] = Response{
					Name:    reqs[i].Name,
					Result:  res,
					Cached:  cached,
					Err:     err,
					Elapsed: time.Since(t0),
				}
			}
		}()
	}
	for i := range reqs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}
