package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"mpl/internal/service"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := &server{
		svc:        service.New(service.Config{CacheSize: 32}),
		maxTimeout: 10 * time.Second,
		maxBody:    1 << 20,
	}
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	return ts
}

// rowRequest is a dense row of rects (30 nm gaps < the 80 nm QP coloring
// distance), so the decomposition has real conflict edges.
func rowRequest(name string, n int) decomposeRequest {
	features := make([][]rectJSON, n)
	for i := 0; i < n; i++ {
		x := i * 50
		features[i] = []rectJSON{{x, 0, x + 20, 200}}
	}
	return decomposeRequest{
		Name:      name,
		K:         4,
		Algorithm: "sdp-backtrack",
		Layout:    layoutJSON{Features: features},
	}
}

func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp
}

func TestServeDecompose(t *testing.T) {
	ts := testServer(t)
	req := rowRequest("row", 6)
	req.IncludeMasks = true

	var out decomposeResponse
	resp := postJSON(t, ts.URL+"/v1/decompose", req, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.K != 4 || out.Fragments == 0 {
		t.Fatalf("bad response: %+v", out)
	}
	if out.Cached {
		t.Fatal("first request must not be cached")
	}
	if len(out.Masks) != 4 {
		t.Fatalf("want 4 masks, got %d", len(out.Masks))
	}
	total := 0
	for _, m := range out.Masks {
		total += len(m)
	}
	if total < 6 {
		t.Fatalf("masks cover %d rects, want >= 6", total)
	}

	// Identical geometry again: served from cache.
	var out2 decomposeResponse
	postJSON(t, ts.URL+"/v1/decompose", req, &out2)
	if !out2.Cached {
		t.Fatal("second identical request must be cached")
	}
	if out2.Conflicts != out.Conflicts || out2.Stitches != out.Stitches {
		t.Fatalf("cached response differs: %+v vs %+v", out2, out)
	}
}

func TestServeBatch(t *testing.T) {
	ts := testServer(t)
	batch := batchRequest{Requests: []decomposeRequest{
		rowRequest("a", 4),
		rowRequest("b", 6),
		rowRequest("a-again", 4),            // same geometry as "a": cache or single-flight
		{Name: "bad", Layout: layoutJSON{}}, // no features: inline error
	}}
	var out batchResponse
	resp := postJSON(t, ts.URL+"/v1/decompose/batch", batch, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(out.Responses) != 4 {
		t.Fatalf("want 4 responses, got %d", len(out.Responses))
	}
	for i, name := range []string{"a", "b", "a-again", "bad"} {
		if out.Responses[i].Name != name {
			t.Fatalf("response %d: name %q, want %q (order must match request order)", i, out.Responses[i].Name, name)
		}
	}
	if out.Responses[0].Error != "" || out.Responses[1].Error != "" || out.Responses[2].Error != "" {
		t.Fatalf("unexpected errors: %+v", out.Responses)
	}
	if out.Responses[0].Conflicts != out.Responses[2].Conflicts {
		t.Fatal("identical geometry must give identical results")
	}
	if out.Responses[3].Error == "" {
		t.Fatal("featureless layout must report an inline error")
	}

	// The duplicate pair solved once (single-flight or cache).
	var stats map[string]any
	r, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if err := json.NewDecoder(r.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if misses := stats["cache_misses"].(float64); misses != 2 {
		t.Fatalf("cache_misses = %v, want 2 (a/b solved once each)", misses)
	}
}

// TestServeBatchFanOutBounded: a batch runs on at most -workers
// goroutines however many elements it holds. The first element is slow
// enough to keep the rest queued behind it; one goroutine per element
// would show them all as live goroutines at once.
func TestServeBatchFanOutBounded(t *testing.T) {
	srv := &server{
		svc:        service.New(service.Config{CacheSize: 32, Workers: 1}),
		maxTimeout: 30 * time.Second,
		maxBody:    8 << 20,
		workers:    1,
	}
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	const n = 300
	batch := batchRequest{Requests: make([]decomposeRequest, n)}
	batch.Requests[0] = gridRequest("slow", 12)
	for i := 1; i < n; i++ {
		batch.Requests[i] = rowRequest("row", 4)
	}
	base := runtime.NumGoroutine()
	peak := base
	done := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			if g := runtime.NumGoroutine(); g > peak {
				peak = g
			}
			select {
			case <-done:
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
	}()
	var out batchResponse
	resp := postJSON(t, ts.URL+"/v1/decompose/batch", batch, &out)
	close(done)
	<-sampled
	if resp.StatusCode != http.StatusOK || len(out.Responses) != n {
		t.Fatalf("status %d, %d responses", resp.StatusCode, len(out.Responses))
	}
	for i, r := range out.Responses {
		if r.Error != "" || r.Name != batch.Requests[i].Name {
			t.Fatalf("response %d: %+v", i, r)
		}
	}
	if grew := peak - base; grew > n/10 {
		t.Fatalf("a %d-element batch at -workers 1 peaked at %d extra goroutines", n, grew)
	}
}

func TestServeDeadlineStillAnswers(t *testing.T) {
	ts := testServer(t)
	req := rowRequest("row", 40)
	req.TimeoutMs = 1 // expires essentially immediately
	var out decomposeResponse
	resp := postJSON(t, ts.URL+"/v1/decompose", req, &out)
	// Either a valid (possibly degraded) coloring or a context error is
	// acceptable; a hang is not. A 200 must carry a complete response.
	if resp.StatusCode == http.StatusOK && out.Error == "" && out.Fragments == 0 {
		t.Fatalf("deadline response incomplete: %+v", out)
	}
}

func TestServeRejectsBadInput(t *testing.T) {
	ts := testServer(t)
	for name, body := range map[string]any{
		"no features": decomposeRequest{Layout: layoutJSON{}},
		"bad alg":     decomposeRequest{Algorithm: "magic", Layout: layoutJSON{Features: [][]rectJSON{{{0, 0, 10, 10}}}}},
		"bad rect":    decomposeRequest{Layout: layoutJSON{Features: [][]rectJSON{{{10, 10, 0, 0}}}}},
		"bad k":       decomposeRequest{K: 1, Layout: layoutJSON{Features: [][]rectJSON{{{0, 0, 10, 10}}}}},
		"huge k":      decomposeRequest{K: 1 << 30, Layout: layoutJSON{Features: [][]rectJSON{{{0, 0, 10, 10}}}}},
		"negative k":  decomposeRequest{K: -4, Layout: layoutJSON{Features: [][]rectJSON{{{0, 0, 10, 10}}}}},
		// Branch and bound's prune, and so a proven answer, needs α ≥ 0.
		"negative alpha":   decomposeRequest{Alpha: -1, Layout: layoutJSON{Features: [][]rectJSON{{{0, 0, 10, 10}}}}},
		"coordinate range": decomposeRequest{Layout: layoutJSON{Features: [][]rectJSON{{{1 << 30, 0, 1<<30 + 10, 10}}}}},
		// Rect arity: encoding/json into [4]int served [0,-5,10] as
		// (0,-5)-(10,0) and dropped the 99.
		"short rect": json.RawMessage(`{"layout":{"features":[[[0,-5,10]]]}}`),
		"long rect":  json.RawMessage(`{"layout":{"features":[[[0,0,10,10,99]]]}}`),
	} {
		resp := postJSON(t, ts.URL+"/v1/decompose", body, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	// A batch answers a malformed rect with a 400 for the whole body.
	for name, body := range map[string]string{
		"short rect": `{"requests":[{"layout":{"features":[[[0,-5,10]]]}}]}`,
		"long rect":  `{"requests":[{"layout":{"features":[[[0,0,10,10,99]]]}}]}`,
	} {
		resp := postJSON(t, ts.URL+"/v1/decompose/batch", json.RawMessage(body), nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("batch %s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestServeOversizedBodyIs413(t *testing.T) {
	ts := testServer(t) // -max-body 1 MiB
	big := rowRequest("big", 80000)
	var full decomposeResponse
	postJSON(t, ts.URL+"/v1/decompose", rowRequest("row", 4), &full)
	inc := incrementalRequest{Base: full.LayoutHash, K: 4, Name: strings.Repeat("x", 2<<20), Edits: []editJSON{{Op: "remove"}}}
	for _, tc := range []struct {
		path string
		body any
	}{
		{"/v1/decompose", big},
		{"/v1/decompose/batch", batchRequest{Requests: []decomposeRequest{big}}},
		{"/v1/decompose/incremental", inc},
	} {
		var out map[string]string
		resp := postJSON(t, ts.URL+tc.path, tc.body, &out)
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(out["error"], "max-body") {
			t.Errorf("%s: status %d %v, want 413", tc.path, resp.StatusCode, out)
		}
	}
	// Without a Content-Length the limit still trips while reading.
	buf, err := json.Marshal(big)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/decompose", "application/json", io.MultiReader(bytes.NewReader(buf)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("chunked body: status %d, want 413", resp.StatusCode)
	}
}

func TestServeClampsWorkers(t *testing.T) {
	// An absurd workers value is a performance knob abuse, not an error:
	// it must be clamped (identical results), never allocated verbatim.
	ts := testServer(t)
	req := rowRequest("row", 6)
	req.Workers = 1 << 30
	var out decomposeResponse
	resp := postJSON(t, ts.URL+"/v1/decompose", req, &out)
	if resp.StatusCode != http.StatusOK || out.Error != "" || out.Fragments == 0 {
		t.Fatalf("status %d, response %+v", resp.StatusCode, out)
	}
}

func TestServeHealthz(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestServeClientTimeoutHonoredWithoutServerCap(t *testing.T) {
	// -timeout 0 disables the server cap; the client's timeout_ms must
	// still bound the solve rather than being silently dropped.
	srv := &server{
		svc:     service.New(service.Config{CacheSize: 32}),
		maxBody: 8 << 20, // maxTimeout deliberately zero
	}
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	features := make([][]rectJSON, 0, 900)
	for r := 0; r < 30; r++ {
		for c := 0; c < 30; c++ {
			features = append(features, []rectJSON{{c * 50, r * 50, c*50 + 20, r*50 + 20}})
		}
	}
	req := decomposeRequest{
		K: 4, Algorithm: "sdp-backtrack", TimeoutMs: 1,
		Layout: layoutJSON{Features: features},
	}
	start := time.Now()
	var out decomposeResponse
	resp := postJSON(t, ts.URL+"/v1/decompose", req, &out)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Degraded == 0 {
		t.Fatalf("1 ms deadline on a 900-feature grid must degrade, got %+v", out)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("took %v; client deadline was dropped", elapsed)
	}
}

func TestServeIncremental(t *testing.T) {
	ts := testServer(t)

	// Open a session with a full decompose.
	var full decomposeResponse
	resp := postJSON(t, ts.URL+"/v1/decompose", rowRequest("row", 8), &full)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if full.LayoutHash == "" {
		t.Fatal("decompose response carries no layout_hash; incremental requests have no base")
	}

	// Advance it: remove the last rect of the row.
	inc := incrementalRequest{
		Base: full.LayoutHash, K: 4, Algorithm: "sdp-backtrack",
		Edits: []editJSON{{Op: "remove", Feature: 7}},
	}
	var out decomposeResponse
	resp = postJSON(t, ts.URL+"/v1/decompose/incremental", inc, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %+v", resp.StatusCode, out)
	}
	if out.LayoutHash == "" || out.LayoutHash == full.LayoutHash {
		t.Fatalf("incremental response hash %q must identify the post-edit state", out.LayoutHash)
	}
	if out.Incremental == nil || out.Incremental.Components == 0 {
		t.Fatalf("fresh incremental solve must report reuse stats: %+v", out)
	}
	if out.Fragments != full.Fragments-1 {
		t.Fatalf("fragments = %d, want %d", out.Fragments, full.Fragments-1)
	}

	// The same post-edit geometry requested as a full layout must agree —
	// and be served from the cache entry the incremental solve created.
	ref := rowRequest("ref", 7)
	var refOut decomposeResponse
	postJSON(t, ts.URL+"/v1/decompose", ref, &refOut)
	if !refOut.Cached {
		t.Fatal("full request for the post-edit geometry must hit the incremental cache entry")
	}
	if refOut.Conflicts != out.Conflicts || refOut.Stitches != out.Stitches {
		t.Fatalf("incremental %d/%d != full %d/%d", out.Conflicts, out.Stitches, refOut.Conflicts, refOut.Stitches)
	}

	// Chain a second batch from the new state.
	inc2 := incrementalRequest{
		Base: out.LayoutHash, K: 4, Algorithm: "sdp-backtrack",
		Edits: []editJSON{{Op: "add", Rects: []wireRect{{1000, 0, 1020, 200}}}},
	}
	var out2 decomposeResponse
	resp = postJSON(t, ts.URL+"/v1/decompose/incremental", inc2, &out2)
	// The added wire may itself be stitch-split, so expect at least one
	// extra fragment rather than exactly one.
	if resp.StatusCode != http.StatusOK || out2.Fragments <= out.Fragments {
		t.Fatalf("chained batch: status %d, %+v", resp.StatusCode, out2)
	}
}

func TestServeIncrementalErrors(t *testing.T) {
	ts := testServer(t)
	var full decomposeResponse
	postJSON(t, ts.URL+"/v1/decompose", rowRequest("row", 4), &full)

	cases := []struct {
		name string
		req  any
		code int
	}{
		{"unknown base", incrementalRequest{Base: "no-such-hash", K: 4, Edits: []editJSON{{Op: "remove"}}}, http.StatusNotFound},
		{"missing base", incrementalRequest{K: 4, Edits: []editJSON{{Op: "remove"}}}, http.StatusBadRequest},
		{"empty batch", incrementalRequest{Base: full.LayoutHash, K: 4}, http.StatusBadRequest},
		{"bad op", incrementalRequest{Base: full.LayoutHash, K: 4, Edits: []editJSON{{Op: "teleport"}}}, http.StatusBadRequest},
		{"bad rect", incrementalRequest{Base: full.LayoutHash, K: 4, Edits: []editJSON{{Op: "add", Rects: []wireRect{{5, 5, 0, 0}}}}}, http.StatusBadRequest},
		{"short rect", json.RawMessage(`{"base":"` + full.LayoutHash + `","k":4,"edits":[{"op":"add","rects":[[0,-5,10]]}]}`), http.StatusBadRequest},
		{"long rect", json.RawMessage(`{"base":"` + full.LayoutHash + `","k":4,"edits":[{"op":"add","rects":[[0,0,10,10,99]]}]}`), http.StatusBadRequest},
		{"null coordinate", json.RawMessage(`{"base":"` + full.LayoutHash + `","k":4,"edits":[{"op":"add","rects":[[null,0,10,10]]}]}`), http.StatusBadRequest},
		{"rect out of range", incrementalRequest{Base: full.LayoutHash, K: 4, Edits: []editJSON{{Op: "add", Rects: []wireRect{{0, 0, 10, 1 << 30}}}}}, http.StatusBadRequest},
		// Removed again within the batch, so only the wire check sees it.
		{"rect out of range, then removed", incrementalRequest{Base: full.LayoutHash, K: 4, Edits: []editJSON{{Op: "add", Rects: []wireRect{{0, 0, 10, 1 << 40}}}, {Op: "remove", Feature: 4}}}, http.StatusBadRequest},
		// A move that leaves the coordinate range is refused before it can
		// reach a session or the edit log.
		{"move out of range", incrementalRequest{Base: full.LayoutHash, K: 4, Edits: []editJSON{{Op: "move", Feature: 0, DX: 1 << 30}}}, http.StatusBadRequest},
		{"move too long", incrementalRequest{Base: full.LayoutHash, K: 4, Edits: []editJSON{{Op: "move", Feature: 0, DX: 1 << 40}, {Op: "move", Feature: 0, DX: -(1 << 40)}}}, http.StatusBadRequest},
		{"bad index", incrementalRequest{Base: full.LayoutHash, K: 4, Edits: []editJSON{{Op: "remove", Feature: 99}}}, http.StatusBadRequest},
		{"negative alpha", incrementalRequest{Base: full.LayoutHash, K: 4, Alpha: -1, Edits: []editJSON{{Op: "remove"}}}, http.StatusBadRequest},
		// Sessions are keyed by (geometry, options): other options → 404.
		{"other options", incrementalRequest{Base: full.LayoutHash, K: 4, Algorithm: "linear", Edits: []editJSON{{Op: "remove"}}}, http.StatusNotFound},
	}
	for _, tc := range cases {
		var out decomposeResponse
		resp := postJSON(t, ts.URL+"/v1/decompose/incremental", tc.req, &out)
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d (%+v)", tc.name, resp.StatusCode, tc.code, out)
		}
	}
}

// TestServeIgnoresMemoizeKey: `memoize` is no longer a request field, so a
// body carrying it (older clients, servebench's fullchip) decodes as an
// unknown key and gets the same response as one without it, on the full
// and the incremental endpoint alike. Each body goes to a fresh server so
// neither answer is a cache hit; only the wall-clock fields are dropped
// before the bytes are compared.
func TestServeIgnoresMemoizeKey(t *testing.T) {
	req := rowRequest("row", 8)
	req.IncludeMasks = true
	plain, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	answer := func(memoize bool) (full, inc []byte) {
		t.Helper()
		ts := testServer(t)
		body := plain
		if memoize {
			body = append([]byte(`{"memoize":true,`), plain[1:]...)
		}
		full = postRaw(t, ts.URL+"/v1/decompose", body)
		var out decomposeResponse
		if err := json.Unmarshal(full, &out); err != nil {
			t.Fatal(err)
		}
		if out.Cached {
			t.Fatal("a fresh server answered from its cache")
		}
		incBody := `{"base":"` + out.LayoutHash + `","k":4,"algorithm":"sdp-backtrack","include_masks":true,"edits":[{"op":"remove","feature":7}]}`
		if memoize {
			incBody = `{"memoize":true,` + incBody[1:]
		}
		return withoutTimings(t, full), withoutTimings(t, postRaw(t, ts.URL+"/v1/decompose/incremental", []byte(incBody)))
	}
	full, inc := answer(false)
	memoFull, memoInc := answer(true)
	if !bytes.Equal(full, memoFull) {
		t.Errorf("decompose answer changed with memoize:\n%s\n%s", memoFull, full)
	}
	if !bytes.Equal(inc, memoInc) {
		t.Errorf("incremental answer changed with memoize:\n%s\n%s", memoInc, inc)
	}
}

// postRaw posts body and returns the 200 response body.
func postRaw(t *testing.T, url string, body []byte) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	return out
}

// withoutTimings re-encodes a response without its wall-clock fields.
func withoutTimings(t *testing.T, body []byte) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "elapsed_ms")
	delete(m, "stage_ms")
	if inc, ok := m["incremental"].(map[string]any); ok {
		delete(inc, "build_ms")
		delete(inc, "solve_ms")
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
