package flight_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"mpl/internal/flight"
)

// fixed is a fill returning v, kept.
func fixed(v int) func() (int, bool, error) {
	return func() (int, bool, error) { return v, true, nil }
}

// unkept is a fill whose value must not be stored.
func unkept(v int) func() (int, bool, error) {
	return func() (int, bool, error) { return v, false, nil }
}

// plant starts an owner for key whose fill blocks until release is
// closed, and returns once the flight is registered.
func plant(c *flight.Cache[int], key string, fill func() (int, bool, error)) (release chan struct{}, done chan struct{}) {
	release, done = make(chan struct{}), make(chan struct{})
	started := make(chan struct{})
	go func() {
		defer close(done)
		c.Do(context.Background(), key, func() (int, bool, error) {
			close(started)
			<-release
			return fill()
		})
	}()
	<-started
	return release, done
}

// waitParked blocks until n callers have parked on key's in-flight fill.
func waitParked(t *testing.T, c *flight.Cache[int], key string, n int) {
	t.Helper()
	for c.Waiters(key) < n {
		runtime.Gosched()
	}
}

func TestFlightHitRequiresExactKey(t *testing.T) {
	c := flight.New[int](8, nil)
	ctx := context.Background()
	if v, out, err := c.Do(ctx, "class-a|enc-1", fixed(7)); v != 7 || out != flight.Miss || err != nil {
		t.Fatalf("first Do: got (%d, %v, %v), want (7, Miss, nil)", v, out, err)
	}
	if v, out, _ := c.Do(ctx, "class-a|enc-1", fixed(9)); v != 7 || out != flight.Hit {
		t.Fatalf("same key: got (%d, %v), want the stored 7 as a Hit", v, out)
	}
	// A sibling key (same class, another labelled encoding) must fill.
	if v, out, _ := c.Do(ctx, "class-a|enc-2", fixed(9)); v != 9 || out != flight.Miss {
		t.Fatalf("sibling key: got (%d, %v), want its own Miss", v, out)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2 stored entries", c.Len())
	}
}

func TestFlightUnkeptFillReleasesWithoutStoring(t *testing.T) {
	c := flight.New[int](8, nil)
	ctx := context.Background()
	if v, out, _ := c.Do(ctx, "k", unkept(3)); v != 3 || out != flight.Miss {
		t.Fatalf("owner gets its own value: got (%d, %v)", v, out)
	}
	if c.Len() != 0 {
		t.Fatal("an unkept fill was stored")
	}
	boom := errors.New("boom")
	if _, _, err := c.Do(ctx, "k", func() (int, bool, error) { return 1, true, boom }); err != boom {
		t.Fatalf("fill error not returned: %v", err)
	}
	if c.Len() != 0 {
		t.Fatal("a failed fill was stored despite keep=true")
	}
	if _, out, _ := c.Do(ctx, "k", fixed(4)); out != flight.Miss {
		t.Fatalf("after unkept fills the next caller must own the key, got %v", out)
	}
}

func TestFlightLRUBound(t *testing.T) {
	var evicted []string
	c := flight.New(2, func(e flight.Entry[int]) { evicted = append(evicted, e.Key) })
	ctx := context.Background()
	for i, k := range []string{"a", "b", "c"} {
		c.Do(ctx, k, fixed(i))
	}
	if c.Len() != 2 || c.Evictions() != 1 {
		t.Fatalf("Len=%d Evictions=%d, want 2/1", c.Len(), c.Evictions())
	}
	if len(evicted) != 1 || evicted[0] != "a" {
		t.Fatalf("evicted %v, want [a] (least recently used)", evicted)
	}
	if _, out, _ := c.Do(ctx, "a", unkept(0)); out != flight.Miss {
		t.Fatalf("evicted key: want Miss, got %v", out)
	}
	if _, out, _ := c.Do(ctx, "c", unkept(0)); out != flight.Hit {
		t.Fatal("recent key evicted")
	}
	// Get refreshes recency: "b" survives the next insertion, "c" goes.
	if v, ok := c.Get("b"); !ok || v != 1 {
		t.Fatalf("Get(b) = %d, %v", v, ok)
	}
	c.Do(ctx, "d", fixed(3))
	if _, ok := c.Get("c"); ok {
		t.Fatal("a kept fill did not evict the least recently used entry")
	}
	if len(evicted) != 2 || evicted[1] != "c" {
		t.Fatalf("evicted %v, want [a c]", evicted)
	}
}

// TestFlightSingleFlight: N concurrent callers of one key produce exactly
// one owner; every other caller gets the owner's value as a Hit.
func TestFlightSingleFlight(t *testing.T) {
	c := flight.New[int](8, nil)
	ctx := context.Background()
	const n = 16
	var fills atomic.Int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, out, _ := c.Do(ctx, "hot", func() (int, bool, error) {
				fills.Add(1)
				return 7, true, nil
			})
			if v != 7 || out == flight.Bypass {
				t.Errorf("got (%d, %v), want 7", v, out)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := fills.Load(); got != 1 {
		t.Fatalf("%d fills for one hot key, want 1", got)
	}
}

// TestFlightBypassOnCancelledWait: a waiter whose ctx ends while another
// fill is in flight bypasses instead of blocking.
func TestFlightBypassOnCancelledWait(t *testing.T) {
	c := flight.New[int](8, nil)
	release, done := plant(c, "k", fixed(1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, out, _ := c.Do(ctx, "k", fixed(2)); out != flight.Bypass {
		t.Fatalf("cancelled waiter: want Bypass, got %v", out)
	}
	close(release)
	<-done
	if v, out, _ := c.Do(context.Background(), "k", fixed(2)); v != 1 || out != flight.Hit {
		t.Fatalf("after the planted fill: got (%d, %v), want its kept 1", v, out)
	}
}

// TestFlightWaiterRetriesAfterUnkeptFill: waiters on a fill that is not
// kept do not receive its value; they retry and exactly one owns the next
// fill, whose kept value the rest share.
func TestFlightWaiterRetriesAfterUnkeptFill(t *testing.T) {
	c := flight.New[int](8, nil)
	release, done := plant(c, "k", unkept(-1))
	const n = 8
	var fills atomic.Int32
	var wg sync.WaitGroup
	results := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, _ := c.Do(context.Background(), "k", func() (int, bool, error) {
				fills.Add(1)
				return 5, true, nil
			})
			results[i] = v
		}(i)
	}
	waitParked(t, c, "k", n)
	close(release)
	<-done
	wg.Wait()
	if got := fills.Load(); got != 1 {
		t.Fatalf("%d retry fills, want exactly 1 new owner", got)
	}
	for i, v := range results {
		if v != 5 {
			t.Fatalf("caller %d got %d, want the retry owner's 5 (never the unkept -1)", i, v)
		}
	}
}

// TestFlightEvictedWhileWaitingStillServed: a waiter reads a kept value
// from the flight itself, so an entry evicted before the waiter wakes
// (here: capacity 0 evicts it as it is stored) is still delivered.
func TestFlightEvictedWhileWaitingStillServed(t *testing.T) {
	c := flight.New[int](0, nil)
	release, done := plant(c, "k", fixed(42))
	type answer struct {
		v   int
		out flight.Outcome
	}
	got := make(chan answer)
	go func() {
		v, out, _ := c.Do(context.Background(), "k", fixed(0))
		got <- answer{v, out}
	}()
	waitParked(t, c, "k", 1)
	close(release)
	<-done
	if a := <-got; a.v != 42 || a.out != flight.Hit {
		t.Fatalf("waiter got (%d, %v), want the evicted 42 as a Hit", a.v, a.out)
	}
	if c.Len() != 0 || c.Evictions() != 1 {
		t.Fatalf("capacity 0: Len=%d Evictions=%d, want 0/1", c.Len(), c.Evictions())
	}
}

// TestFlightDisabledNeverDeduplicates: a negative capacity stores nothing
// and runs every fill, even concurrent ones for one key.
func TestFlightDisabledNeverDeduplicates(t *testing.T) {
	c := flight.New[int](-1, nil)
	const n = 4
	var inFill atomic.Int32
	all := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, out, _ := c.Do(context.Background(), "k", func() (int, bool, error) {
				if inFill.Add(1) == n {
					close(all)
				}
				<-all // every caller is inside its own fill at once
				return 1, true, nil
			})
			if out != flight.Miss {
				t.Errorf("disabled cache: outcome %v, want Miss", out)
			}
		}()
	}
	wg.Wait()
	c.Do(context.Background(), "k", fixed(1))
	if _, ok := c.Get("k"); ok || c.Len() != 0 {
		t.Fatal("disabled cache stored a value")
	}
}

// TestFlightPanickingFillReleasesWaiters: a fill that panics completes
// its flight unkept on the way out, so a parked waiter retries instead of
// blocking forever.
func TestFlightPanickingFillReleasesWaiters(t *testing.T) {
	c := flight.New[int](8, nil)
	release, done := make(chan struct{}), make(chan struct{})
	started := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { recover() }()
		c.Do(context.Background(), "k", func() (int, bool, error) {
			close(started)
			<-release
			panic("fill failed")
		})
	}()
	<-started
	got := make(chan int)
	go func() {
		v, _, _ := c.Do(context.Background(), "k", fixed(6))
		got <- v
	}()
	waitParked(t, c, "k", 1)
	close(release)
	<-done
	if v := <-got; v != 6 {
		t.Fatalf("waiter got %d, want its own retry fill's 6", v)
	}
}
