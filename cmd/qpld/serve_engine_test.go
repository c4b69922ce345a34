package main

// HTTP-level tests for the adaptive engine policy: the request field, the
// response echo + per-solve histogram, validation, and the /v1/stats
// aggregate engine histogram.

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// gridRequest is an n×n contact grid at 50 nm pitch: interior contacts keep
// conflict degree ≥ K after peeling, so pieces actually reach the solver
// and the response carries a real dispatch histogram (a plain row would
// peel away entirely and legitimately report none).
func gridRequest(name string, n int) decomposeRequest {
	var features [][]rectJSON
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			features = append(features, []rectJSON{{c * 50, r * 50, c*50 + 20, r*50 + 20}})
		}
	}
	return decomposeRequest{Name: name, K: 4, Layout: layoutJSON{Features: features}}
}

func TestServeEngineAuto(t *testing.T) {
	ts := testServer(t)
	req := gridRequest("auto-grid", 4)
	req.Engine = "auto"

	var resp decomposeResponse
	if r := postJSON(t, ts.URL+"/v1/decompose", req, &resp); r.StatusCode != http.StatusOK {
		t.Fatalf("status %d", r.StatusCode)
	}
	if resp.Engine != "auto" {
		t.Fatalf("engine echo = %q, want auto", resp.Engine)
	}
	if len(resp.Engines) == 0 {
		t.Fatalf("executed auto solve must report its dispatch histogram: %+v", resp)
	}
	if resp.Cached {
		t.Fatal("first solve cannot be cached")
	}

	// The identical request hits the cache; a cached answer solved nothing,
	// so it carries no fresh histogram.
	var resp2 decomposeResponse
	postJSON(t, ts.URL+"/v1/decompose", req, &resp2)
	if !resp2.Cached {
		t.Fatal("identical auto request must be served from cache")
	}
	if len(resp2.Engines) != 0 {
		t.Fatalf("cached response must omit the histogram, got %v", resp2.Engines)
	}
	if resp2.Conflicts != resp.Conflicts || resp2.Stitches != resp.Stitches {
		t.Fatalf("cached auto result differs: %d/%d vs %d/%d", resp2.Conflicts, resp2.Stitches, resp.Conflicts, resp.Stitches)
	}

	// /v1/stats aggregates the executed solve's histogram.
	r, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var stats struct {
		Engines map[string]uint64 `json:"engines"`
	}
	if err := json.NewDecoder(r.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Engines) == 0 {
		t.Fatal("/v1/stats engines histogram is empty after an executed solve")
	}
	sum := uint64(0)
	for name, n := range resp.Engines {
		if stats.Engines[name] < uint64(n) {
			t.Fatalf("stats histogram %v does not cover the solve's %v", stats.Engines, resp.Engines)
		}
		sum += uint64(n)
	}
	if sum == 0 {
		t.Fatal("solve histogram sums to zero")
	}
}

func TestServeEngineValidation(t *testing.T) {
	ts := testServer(t)

	bad := rowRequest("bad-engine", 4)
	bad.Engine = "bogus"
	if r := postJSON(t, ts.URL+"/v1/decompose", bad, nil); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown engine: status %d, want 400", r.StatusCode)
	}

	// The race policy is deleted: its old wire value is a rejected engine,
	// and the error points the client at auto.
	race := gridRequest("race-grid", 4)
	race.Engine = "race"
	var failed struct {
		Error string `json:"error"`
	}
	if r := postJSON(t, ts.URL+"/v1/decompose", race, &failed); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("race engine: status %d, want 400", r.StatusCode)
	}
	if !strings.Contains(failed.Error, `"auto"`) {
		t.Fatalf("race engine error %q does not name auto", failed.Error)
	}
}

func TestServeStageTimings(t *testing.T) {
	ts := testServer(t)
	req := gridRequest("stage-grid", 4)

	var resp decomposeResponse
	if r := postJSON(t, ts.URL+"/v1/decompose", req, &resp); r.StatusCode != http.StatusOK {
		t.Fatalf("status %d", r.StatusCode)
	}
	for _, name := range []string{"partition", "dispatch", "merge"} {
		if _, ok := resp.StageMs[name]; !ok {
			t.Errorf("executed solve must report stage %q: %v", name, resp.StageMs)
		}
	}
	if _, ok := resp.StageMs["build"]; ok {
		t.Errorf("full-solve response must not charge the (cacheable) graph build to one request: %v", resp.StageMs)
	}

	// A cached answer ran no stages.
	var resp2 decomposeResponse
	postJSON(t, ts.URL+"/v1/decompose", req, &resp2)
	if !resp2.Cached || len(resp2.StageMs) != 0 {
		t.Fatalf("cached response must omit stage timings: cached=%v stage_ms=%v", resp2.Cached, resp2.StageMs)
	}

	// /v1/stats aggregates stages across solves, including the build the
	// service itself ran.
	r, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var stats struct {
		Stages map[string]struct {
			WallMs float64 `json:"wall_ms"`
			Calls  int     `json:"calls"`
		} `json:"stages"`
	}
	if err := json.NewDecoder(r.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"build", "partition", "dispatch", "merge"} {
		if stats.Stages[name].Calls == 0 {
			t.Errorf("/v1/stats stages missing %q: %+v", name, stats.Stages)
		}
	}
}
