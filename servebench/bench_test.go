package main

import (
	"bytes"
	"math"
	"os"
	"testing"
)

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	if v, ok := percentile(xs, 0.9); !ok || math.Abs(v-90.1) > 1e-9 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90.1, true", v, ok)
	}
	if _, ok := percentile(xs[:99], 0.9); ok {
		t.Error("p90 of 99 samples reported, but only 9 samples lie beyond it")
	}
	if v, ok := percentile(xs[:20], 0.5); !ok || v != 90.5 {
		t.Errorf("p50 of 81..100 = %v, %v; want 90.5, true", v, ok)
	}
	if _, ok := percentile(xs[:19], 0.5); ok {
		t.Error("p50 of 19 samples reported, but only 9 samples lie beyond it")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestParseProc(t *testing.T) {
	// The command name may contain spaces and parentheses.
	stat := []byte("4242 (qpld (serve) x) S 1 4242 4242 0 -1 4194304 1510 0 0 0 153 27 0 0 20 0 9 0 123 4567 89\n")
	if ticks, err := parseStatCPU(stat); err != nil || ticks != 180 {
		t.Errorf("parseStatCPU = %d, %v; want 180", ticks, err)
	}
	if _, err := parseStatCPU([]byte("4242 (qpld) S 1 2")); err == nil {
		t.Error("parseStatCPU accepted a truncated line")
	}
	status := []byte("Name:\tqpld\nVmPeak:\t 2000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 1000 kB\n")
	if kb, err := parseStatusKB(status, "VmHWM"); err != nil || kb != 123456 {
		t.Errorf("parseStatusKB(VmHWM) = %d, %v; want 123456", kb, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("parseStatusKB found a missing key")
	}
	// The live files of this process parse too.
	b, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		t.Skip("no /proc:", err)
	}
	if _, err := parseStatCPU(b); err != nil {
		t.Error(err)
	}
	if b, err = os.ReadFile("/proc/self/status"); err != nil {
		t.Fatal(err)
	}
	if kb, err := parseStatusKB(b, "VmHWM"); err != nil || kb <= 0 {
		t.Errorf("own VmHWM = %d, %v", kb, err)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "b", Start: 5, End: 9},
	}
	got := selfTimes(spans)
	if got[0] != 3 || got[1] != 3 || got[2] != 4 {
		t.Errorf("self times = %v, want [3 3 4]", got)
	}
}

func TestSampled(t *testing.T) {
	n := 0
	for i := 0; i < 100; i++ {
		if sampled(i, 100) {
			n++
		}
	}
	if n != recountSample+1 || !sampled(99, 100) || !sampled(0, 100) {
		t.Errorf("sampled %d of 100 (want 6 spaced + the last)", n)
	}
}

// TestPlanDeterministic: a seed fixes every request body, and another seed
// changes them.
func TestPlanDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, err := makePlan(w, 3, minRequests)
		if err != nil {
			t.Fatal(err)
		}
		b, err := makePlan(w, 3, minRequests)
		if err != nil {
			t.Fatal(err)
		}
		c, err := makePlan(w, 4, minRequests)
		if err != nil {
			t.Fatal(err)
		}
		// The traced replay regenerates only the requests it replays.
		short, err := makePlan(w, 3, 10)
		if err != nil {
			t.Fatal(err)
		}
		if n := w.timedCount(1); len(a.timed) != minRequests || len(b.timed) != minRequests || n < minRequests {
			t.Fatalf("%s: %d and %d timed requests, want %d; a 1 s run sends %d", w.name, len(a.timed), len(b.timed), minRequests, n)
		}
		for i := range a.timed {
			if !bytes.Equal(a.timed[i].body, b.timed[i].body) {
				t.Fatalf("%s: request %d differs between two generations of one seed", w.name, i)
			}
		}
		for i := range short.timed {
			if !bytes.Equal(a.timed[i].body, short.timed[i].body) {
				t.Fatalf("%s: request %d depends on the number of requests planned", w.name, i)
			}
		}
		if a.digest() != b.digest() || a.digest() == c.digest() {
			t.Errorf("%s: digests %.12s %.12s (same seed), %.12s (other seed)", w.name, a.digest(), b.digest(), c.digest())
		}
	}
}

// TestECOPlanPredictsCache: every fourth step of a branch undoes the
// move-only batch before it, and only those steps are predicted cached.
func TestECOPlanPredictsCache(t *testing.T) {
	w, _ := workloadByName("eco")
	p, err := makePlan(w, 7, minRequests)
	if err != nil {
		t.Fatal(err)
	}
	reqs := append(append([]request(nil), p.warm[1:]...), p.timed...)
	cached := 0
	for k, r := range reqs {
		if r.step != k%ecoBranch+1 {
			t.Fatalf("request %d is step %d of its branch, want %d", k, r.step, k%ecoBranch+1)
		}
		if r.cached != (r.step%4 == 0) {
			t.Fatalf("step %d predicted cached=%v", r.step, r.cached)
		}
		if r.cached {
			cached++
			if r.hash != reqs[k-2].hash {
				t.Fatalf("undo step %d lands on %.12s, not on step %d's %.12s", r.step, r.hash, r.step-2, reqs[k-2].hash)
			}
		}
		if r.step == 1 && r.base != p.warm[0].hash {
			t.Fatalf("branch starting at request %d edits %.12s, not the base", k, r.base)
		}
	}
	if want := len(reqs) / 4; cached != want {
		t.Errorf("%d cached steps of %d, want %d", cached, len(reqs), want)
	}
}

// TestPins: the committed pins still match the generators, so a change to
// the layout synthesizer or the request encoding cannot silently change a
// workload.
func TestPins(t *testing.T) {
	for _, w := range workloads {
		p, err := makePlan(w, 0, minRequests)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkPins(p); err != nil {
			t.Error(err)
		}
	}
}
