package service

// Regression tests for the service-layer bugfix sweep: the bounded
// fallback-lane wait and the hit/miss tally rules of the session cache (on
// both the full and the incremental path) and the graph cache.

import (
	"context"
	"errors"
	"testing"
	"time"

	"mpl/internal/core"
	"mpl/internal/flight"
)

// plantOwner stands in for a slow owner: it starts a fill of key on c that
// blocks until release is called with the fill's results, and returns once
// the flight is registered. The test must call release before it ends.
func plantOwner[V any](c *flight.Cache[V], key string) (release func(v V, keep bool, err error)) {
	started, done := make(chan struct{}), make(chan struct{})
	type fillResult struct {
		v    V
		keep bool
		err  error
	}
	results := make(chan fillResult)
	go func() {
		defer close(done)
		c.Do(context.Background(), key, func() (V, bool, error) {
			close(started)
			r := <-results
			return r.v, r.keep, r.err
		})
	}()
	<-started
	return func(v V, keep bool, err error) {
		results <- fillResult{v, keep, err}
		<-done
	}
}

// TestFallbackLaneSaturationBounded: with both the full-quality semaphore
// and the fallback lane full and the context already dead, the request must
// fail with the context's error after the bounded wait — not park forever
// on the lane.
func TestFallbackLaneSaturationBounded(t *testing.T) {
	old := fallbackLaneWait
	fallbackLaneWait = 50 * time.Millisecond
	t.Cleanup(func() { fallbackLaneWait = old })

	s := New(Config{Workers: 1})
	s.sem <- struct{}{}   // a full-quality solve is running
	s.fbSem <- struct{}{} // and the fallback lane is busy too
	defer func() { <-s.sem; <-s.fbSem }()

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, _, err := s.Decompose(dead, denseRow("sat", 4), core.Options{K: 4, Algorithm: core.AlgLinear})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the context error", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("saturated lane blocked for %v despite the bounded wait", waited)
	}

	// Once the lane frees up, the same dead-context request is served
	// (degraded), as before.
	<-s.fbSem
	defer func() { s.fbSem <- struct{}{} }()
	if _, _, err := s.Decompose(dead, denseRow("sat", 4), core.Options{K: 4, Algorithm: core.AlgLinear}); err != nil {
		t.Fatalf("free lane: %v", err)
	}
}

// TestWaiterDegradedRetalliedAsMiss: a waiter whose deadline expires while
// parked on someone else's in-flight solve runs its own uncached solve —
// which must count as a miss, not retain the optimistic hit tally.
func TestWaiterDegradedRetalliedAsMiss(t *testing.T) {
	s := New(Config{})
	l := denseRow("skew", 5)
	opts := core.Options{K: 4, Algorithm: core.AlgLinear}
	// An in-flight fill that outlives the request stands in for a slow owner.
	release := plantOwner(s.sessions, resultKey(LayoutHash(l), optionsSig(opts)))
	defer release(nil, false, nil)

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, cached, err := s.DecomposeHashed(dead, l, opts); err != nil || cached {
		t.Fatalf("cached=%v err=%v", cached, err)
	}
	st := s.StatsSnapshot()
	if st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 0/1 — the degraded waiter solved uncached", st.Hits, st.Misses)
	}
}

// TestIncrementalWaiterDegradedRetalliedAsMiss: DecomposeIncremental
// follows the same tally rule.
func TestIncrementalWaiterDegradedRetalliedAsMiss(t *testing.T) {
	s := New(Config{})
	ctx := context.Background()
	l := denseRow("skew2", 6)
	opts := core.Options{K: 4, Algorithm: core.AlgLinear}
	if _, _, err := s.Decompose(ctx, l, opts); err != nil {
		t.Fatal(err)
	}
	edits := []core.Edit{{Op: core.EditRemove, Feature: 0}}
	newL, err := core.EditLayout(l, edits)
	if err != nil {
		t.Fatal(err)
	}
	release := plantOwner(s.sessions, resultKey(LayoutHash(newL), optionsSig(opts)))
	defer release(nil, false, nil)
	before := s.StatsSnapshot()

	dead, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, _, cached, err := s.DecomposeIncremental(dead, LayoutHash(l), edits, opts); err != nil || cached {
		t.Fatalf("cached=%v err=%v", cached, err)
	}
	st := s.StatsSnapshot()
	if st.Hits != before.Hits || st.Misses != before.Misses+1 {
		t.Fatalf("hits %d->%d misses %d->%d, want unchanged/+1", before.Hits, st.Hits, before.Misses, st.Misses)
	}
}

// TestGraphHitRetalliedOnFailedBuild: a caller that waits on an in-flight
// graph build which then fails ends up building the graph itself — which
// must not count as a graph hit.
func TestGraphHitRetalliedOnFailedBuild(t *testing.T) {
	s := New(Config{})
	l := denseRow("gskew", 5)
	opts := core.Options{K: 4, Algorithm: core.AlgLinear}
	gk := graphKey(LayoutHash(l), opts.Normalize().Build)
	release := plantOwner(s.graphs, gk)

	done := make(chan error, 1)
	go func() {
		_, _, err := s.Decompose(context.Background(), l, opts)
		done <- err
	}()
	// Wait until the caller is parked on the planted build, then fail it.
	deadline := time.Now().Add(5 * time.Second)
	for s.graphs.Waiters(gk) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("caller never reached the graph wait")
		}
		time.Sleep(time.Millisecond)
	}
	release(nil, false, errors.New("synthetic build failure"))

	if err := <-done; err != nil {
		t.Fatalf("retry after failed in-flight build: %v", err)
	}
	if st := s.StatsSnapshot(); st.GraphHits != 0 {
		t.Fatalf("GraphHits = %d after a failed in-flight build, want 0", st.GraphHits)
	}
}
