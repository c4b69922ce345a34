package pipeline

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// goid reads the calling goroutine's id from its stack header
// ("goroutine 7 [running]:"); tests use it only to tell goroutines apart.
// It may run on a body's goroutine, so it reports with Errorf, not Fatalf.
func goid(t *testing.T) uint64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	var id uint64
	f := bytes.Fields(buf)
	err := strconv.ErrSyntax
	if len(f) >= 2 {
		id, err = strconv.ParseUint(string(f[1]), 10, 64)
	}
	if err != nil {
		t.Errorf("unexpected stack header %q: %v", buf, err)
	}
	return id
}

func TestFanCursorHandsOutEveryIndexOnce(t *testing.T) {
	for _, items := range []int{0, 1, 5, 100} {
		for _, workers := range []int{1, 2, 8} {
			claims := make([]atomic.Int32, items)
			calls := make([]atomic.Int32, workers)
			var cur Cursor
			Fan(workers, func(w int) {
				calls[w].Add(1)
				for i := cur.Next(); i < items; i = cur.Next() {
					claims[i].Add(1)
				}
			})
			for w := range calls {
				if c := calls[w].Load(); c != 1 {
					t.Errorf("items=%d workers=%d: body(%d) ran %d times, want 1", items, workers, w, c)
				}
			}
			for i := range claims {
				if c := claims[i].Load(); c != 1 {
					t.Errorf("items=%d workers=%d: index %d claimed %d times, want 1", items, workers, i, c)
				}
			}
		}
	}
}

func TestFanBoundsLiveBodies(t *testing.T) {
	const n = 8
	var live, peak atomic.Int32
	var all sync.WaitGroup // every body waits for the others: all n run at once
	all.Add(n)
	Fan(n, func(int) {
		l := live.Add(1)
		for {
			p := peak.Load()
			if l <= p || peak.CompareAndSwap(p, l) {
				break
			}
		}
		all.Done()
		all.Wait()
		live.Add(-1)
	})
	if p := peak.Load(); p != n {
		t.Errorf("peak live bodies %d, want exactly %d", p, n)
	}
	if l := live.Load(); l != 0 {
		t.Errorf("Fan returned with %d bodies still live", l)
	}
}

func TestFanRunsBodyZeroInline(t *testing.T) {
	caller := goid(t)
	for _, n := range []int{-1, 0, 1} {
		calls := 0
		Fan(n, func(w int) {
			calls++
			if w != 0 {
				t.Errorf("n=%d: body(%d), want only body(0)", n, w)
			}
			if id := goid(t); id != caller {
				t.Errorf("n=%d: body ran on goroutine %d, want the caller's %d", n, id, caller)
			}
		})
		if calls != 1 {
			t.Errorf("n=%d: body ran %d times, want once", n, calls)
		}
	}
	// With n > 1 body 0 still runs inline and every other body on a
	// goroutine of its own.
	ids := make([]uint64, 4)
	Fan(len(ids), func(w int) { ids[w] = goid(t) })
	seen := map[uint64]bool{}
	for w, id := range ids {
		if (id == caller) != (w == 0) || seen[id] {
			t.Errorf("body %d ran on goroutine %d (caller %d, all %v)", w, id, caller, ids)
		}
		seen[id] = true
	}
}
