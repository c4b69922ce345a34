// The serve subcommand exposes layout decomposition as an HTTP JSON API
// backed by internal/service: a layout-hash keyed LRU result cache,
// single-flight deduplication, and bounded solver concurrency. Every
// request runs under a deadline (client-supplied timeout_ms capped by the
// server's -timeout), and a request that overruns it still answers with a
// valid linear-fallback coloring marked "degraded".
//
// Endpoints:
//
//	POST /v1/decompose              decompose one layout (opens a session)
//	POST /v1/decompose/batch        decompose many layouts concurrently
//	POST /v1/decompose/incremental  advance a session by an ECO edit batch
//	GET  /v1/stats                  cache and concurrency statistics
//	GET  /healthz                   liveness probe
//
// Every decompose response carries the layout_hash of the geometry it
// colored; passing that hash as "base" to the incremental endpoint applies
// add/remove/move edits and re-solves only the dirty region
// (core.ApplyEdits), returning a new layout_hash for further batches.
//
// With -data-dir set, sessions are durable (internal/store): edit batches
// are logged before they are acknowledged, evicted sessions spill to disk,
// and after a restart an incremental request against a pre-crash hash
// rehydrates its session from the log instead of answering 404. Without
// the flag the server is exactly as volatile as before the store existed.
//
// The full request/response schema, error codes, and cache semantics are
// documented in docs/API.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"

	"mpl"
	"mpl/internal/benchrec"
	"mpl/internal/core"
	"mpl/internal/division"
	"mpl/internal/geom"
	"mpl/internal/layout"
	"mpl/internal/service"
	"mpl/internal/store"
)

// rectJSON is [x0, y0, x1, y1] in database units (nm).
type rectJSON [4]int

// layoutJSON is the wire form of a layout: one rectangle list per feature.
// The server never decodes into it — wire.go scans layouts straight into
// geom.Rects — so it and rectJSON document the schema for clients and
// encode the response masks.
type layoutJSON struct {
	Process  *processJSON `json:"process,omitempty"`
	Features [][]rectJSON `json:"features"`
}

type processJSON struct {
	MinWidth  int `json:"min_width"`
	MinSpace  int `json:"min_space"`
	HalfPitch int `json:"half_pitch"`
}

// decomposeRequest is the body of POST /v1/decompose (and one element of a
// batch request).
type decomposeRequest struct {
	Name      string `json:"name,omitempty"`
	K         int    `json:"k,omitempty"`         // default 4
	Algorithm string `json:"algorithm,omitempty"` // ilp, sdp-backtrack, sdp-greedy, linear
	// Engine selects the adaptive per-component policy: "auto" picks an
	// engine per component from its structure. Empty applies Algorithm
	// uniformly; auto ignores Algorithm.
	Engine       string  `json:"engine,omitempty"`
	Alpha        float64 `json:"alpha,omitempty"`
	Seed         int64   `json:"seed,omitempty"`
	Workers      int     `json:"workers,omitempty"`       // per-request component workers
	BuildWorkers int     `json:"build_workers,omitempty"` // graph-construction workers, capped by -build-workers
	// Memoize is deprecated and ignored: every solve answers
	// byte-identical repeats of already-solved pieces (standard cells)
	// from the server's process-wide shape tier. Still accepted, so
	// older clients keep working.
	Memoize      bool       `json:"memoize,omitempty"`
	TimeoutMs    int64      `json:"timeout_ms,omitempty"` // capped by the server's -timeout
	IncludeMasks bool       `json:"include_masks,omitempty"`
	Layout       layoutJSON `json:"layout"`
}

type decomposeResponse struct {
	Name      string `json:"name,omitempty"`
	K         int    `json:"k"`
	Algorithm string `json:"algorithm"`
	// Engine echoes the requested policy ("auto"; absent for fixed),
	// and Engines is this solve's per-engine dispatch histogram (engine
	// name → pieces colored; absent on cache hits — nothing was solved).
	Engine  string         `json:"engine,omitempty"`
	Engines map[string]int `json:"engines,omitempty"`
	// StageMs is this solve's per-stage wall time in milliseconds, keyed
	// by the canonical stage names (build/simplify/partition/dispatch/
	// stitch/merge). Absent on cache hits — nothing ran. Full solves omit
	// "build" (the graph may have come from the graph cache); incremental
	// solves include their dirty-region build.
	StageMs map[string]float64 `json:"stage_ms,omitempty"`
	// Shapes reports this solve's shape-tier traffic (absent on cache
	// hits).
	Shapes    *shapeJSON `json:"shapes,omitempty"`
	Fragments int        `json:"fragments"`
	Conflicts int        `json:"conflicts"`
	Stitches  int        `json:"stitches"`
	Proven    bool       `json:"proven"`
	Degraded  int        `json:"degraded"`
	Cached    bool       `json:"cached"`
	ElapsedMs float64    `json:"elapsed_ms"`
	// LayoutHash identifies the decomposed geometry; it is the session key
	// for POST /v1/decompose/incremental.
	LayoutHash  string           `json:"layout_hash,omitempty"`
	Incremental *incrementalJSON `json:"incremental,omitempty"`
	Masks       [][]rectJSON     `json:"masks,omitempty"`
	Error       string           `json:"error,omitempty"`
}

// shapeJSON is the wire form of one solve's (or the aggregate) shape-tier
// counters.
type shapeJSON struct {
	Hits     int `json:"hits"`
	Misses   int `json:"misses"`
	Distinct int `json:"distinct"`
}

// editJSON is the wire form of one ECO operation.
type editJSON struct {
	Op      string     `json:"op"` // "add", "remove", "move"
	Feature int        `json:"feature,omitempty"`
	Rects   []wireRect `json:"rects,omitempty"` // added feature geometry
	DX      int        `json:"dx,omitempty"`
	DY      int        `json:"dy,omitempty"`
}

// incrementalRequest is the body of POST /v1/decompose/incremental. The
// option fields must repeat the ones the base session was solved with —
// sessions are keyed by (geometry, options).
type incrementalRequest struct {
	Name         string     `json:"name,omitempty"`
	Base         string     `json:"base"` // layout_hash of the session to edit
	Edits        []editJSON `json:"edits"`
	K            int        `json:"k,omitempty"`
	Algorithm    string     `json:"algorithm,omitempty"`
	Engine       string     `json:"engine,omitempty"`
	Alpha        float64    `json:"alpha,omitempty"`
	Seed         int64      `json:"seed,omitempty"`
	Workers      int        `json:"workers,omitempty"`
	BuildWorkers int        `json:"build_workers,omitempty"`
	Memoize      bool       `json:"memoize,omitempty"` // deprecated, ignored (decomposeRequest.Memoize)
	TimeoutMs    int64      `json:"timeout_ms,omitempty"`
	IncludeMasks bool       `json:"include_masks,omitempty"`
}

// incrementalJSON reports what the dirty-region rebuild reused (absent on
// cache hits — a cached answer did no incremental work).
type incrementalJSON struct {
	RebuiltFeatures    int     `json:"rebuilt_features"`
	ReusedFragments    int     `json:"reused_fragments"`
	RebuiltFragments   int     `json:"rebuilt_fragments"`
	Components         int     `json:"components"`
	ResolvedComponents int     `json:"resolved_components"`
	CopiedComponents   int     `json:"copied_components"`
	BuildMs            float64 `json:"build_ms"`
	SolveMs            float64 `json:"solve_ms"`
}

type batchRequest struct {
	Requests []decomposeRequest `json:"requests"`
}

type batchResponse struct {
	Responses []decomposeResponse `json:"responses"`
}

func runServe(args []string) {
	fs := flag.NewFlagSet("qpld serve", flag.ExitOnError)
	addr := fs.String("addr", ":8470", "listen address")
	cacheSize := fs.Int("cache", 256, "LRU result-cache entries (negative disables caching)")
	workers := fs.Int("workers", 0, "max concurrent decompositions (0 = GOMAXPROCS)")
	buildWorkers := fs.Int("build-workers", 0, "graph-construction workers: default for requests and cap on their build_workers (0 = GOMAXPROCS)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request solve deadline cap")
	maxBody := fs.Int64("max-body", 64<<20, "maximum request body bytes")
	drain := fs.Duration("drain", 15*time.Second, "graceful-shutdown budget: how long in-flight requests may finish after SIGINT/SIGTERM before their contexts are cancelled")
	dataDir := fs.String("data-dir", "", "directory for durable sessions (empty = in-memory only; sessions do not survive restarts)")
	fs.Parse(args)

	bw := *buildWorkers
	if bw <= 0 {
		bw = runtime.GOMAXPROCS(0)
	}
	var st *store.Store
	if *dataDir != "" {
		var err error
		st, err = store.Open(*dataDir, store.Options{})
		if err != nil {
			log.Fatalf("open data dir %s: %v", *dataDir, err)
		}
		ss := st.StatsSnapshot()
		log.Printf("durable sessions in %s (%d replayable, %d log records; %d torn-tail truncations, %d orphans dropped at recovery)",
			st.Dir(), ss.LiveSessions, ss.WALRecords, ss.TornTail, ss.Orphans)
	}
	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	svc := service.New(service.Config{CacheSize: *cacheSize, Workers: w, Store: st})
	srv := &server{svc: svc, maxTimeout: *timeout, maxBody: *maxBody, workers: w, buildWorkers: bw}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving on %s (cache %d, workers %d, build workers %d, timeout cap %s, drain %s)", ln.Addr(), *cacheSize, w, bw, *timeout, *drain)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	err = serveUntil(ctx, srv.mux(), ln, *drain)
	if st != nil {
		// Closed only after the drain: in-flight requests may still append.
		if cerr := st.Close(); cerr != nil {
			log.Printf("close data dir: %v", cerr)
		}
	}
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("shut down cleanly")
}

// serveUntil runs the HTTP server on ln until ctx is cancelled (SIGINT or
// SIGTERM in production, the test harness's cancel in tests), then shuts
// down gracefully: the listener closes immediately — new connections are
// refused — while in-flight requests get up to drain to finish. If the
// drain budget expires first, every still-running request has its context
// cancelled, which the solve paths answer degraded-but-valid (their
// documented cancellation contract), and the server is then closed hard.
// Queued work never outlives shutdown: request contexts descend from a
// base context this function cancels on its way out.
func serveUntil(ctx context.Context, h http.Handler, ln net.Listener, drain time.Duration) error {
	baseCtx, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	hs := &http.Server{
		Handler:     h,
		BaseContext: func(net.Listener) context.Context { return baseCtx },
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err // listener failed before any shutdown was requested
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		// Drain budget exhausted: cancel the stragglers' contexts so their
		// solves degrade immediately, then close the connections.
		cancelBase()
		hs.Close()
		return fmt.Errorf("drain budget %s exhausted: %w", drain, err)
	}
	return nil
}

type server struct {
	svc        *service.Service
	maxTimeout time.Duration
	maxBody    int64
	// workers is the resolved -workers value: the number of goroutines a
	// batch runs its elements on (a zero value runs batches serially).
	workers int
	// buildWorkers is the resolved -build-workers value: the default for
	// requests that omit build_workers and the cap for those that set it.
	buildWorkers int
}

func (s *server) mux() *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("POST /v1/decompose", s.handleDecompose)
	m.HandleFunc("POST /v1/decompose/batch", s.handleBatch)
	m.HandleFunc("POST /v1/decompose/incremental", s.handleIncremental)
	m.HandleFunc("GET /v1/stats", s.handleStats)
	m.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	return m
}

// readBody reads the whole request body, at most maxBody bytes, into one
// buffer sized from Content-Length. A declared length past the limit fails
// before anything is read or allocated.
func (s *server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if r.ContentLength > s.maxBody {
		return nil, &http.MaxBytesError{Limit: s.maxBody}
	}
	size := r.ContentLength
	if size < 0 {
		size = min(s.maxBody, 64<<10)
	}
	// One spare byte lets the final read see EOF without regrowing.
	buf := make([]byte, 0, size+1)
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// bodyError answers a body that could not be read or decoded: 413 past
// -max-body, 400 otherwise.
func bodyError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		httpError(w, http.StatusRequestEntityTooLarge, "request body larger than -max-body (%d bytes)", tooLarge.Limit)
		return
	}
	httpError(w, http.StatusBadRequest, "bad request body: %v", err)
}

func (s *server) handleDecompose(w http.ResponseWriter, r *http.Request) {
	body, err := s.readBody(w, r)
	if err != nil {
		bodyError(w, err)
		return
	}
	req, err := decodeDecompose(body)
	if err != nil {
		bodyError(w, err)
		return
	}
	resp, err := s.decomposeOne(r.Context(), req)
	if err != nil {
		// Deadline/cancellation is load shedding, not a malformed request.
		code := http.StatusBadRequest
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			code = http.StatusServiceUnavailable
		}
		httpError(w, code, "%v", err)
		return
	}
	writeJSON(w, resp)
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, err := s.readBody(w, r)
	if err != nil {
		bodyError(w, err)
		return
	}
	reqs, err := decodeBatch(body)
	if err != nil {
		bodyError(w, err)
		return
	}
	if len(reqs) == 0 {
		httpError(w, http.StatusBadRequest, "empty batch")
		return
	}
	// Each element carries its own options and deadline (which starts when
	// the element does). At most s.workers goroutines pull element indices,
	// as service.DecomposeAll does, so a body of millions of tiny elements
	// cannot ask for millions of goroutines. Per-item failures are
	// reported inline so one bad layout cannot sink the batch.
	out := batchResponse{Responses: make([]decomposeResponse, len(reqs))}
	idx := make(chan int)
	var wg sync.WaitGroup
	for n := min(max(s.workers, 1), len(reqs)); n > 0; n-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				resp, err := s.decomposeOne(r.Context(), &reqs[i])
				if err != nil {
					resp = decomposeResponse{Name: reqs[i].opts.Name, Error: err.Error()}
				}
				out.Responses[i] = resp
			}
		}()
	}
	for i := range reqs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	writeJSON(w, out)
}

// maxK bounds client-requested mask counts: the paper evaluates K = 4 and
// 5, and beyond ~8 the per-component ILP/SDP models explode; an absurd K
// must be a 400, not an allocation storm.
const maxK = 16

// resolveOptions validates and clamps the shared option fields of full and
// incremental requests into a core.Options. Workers values are performance
// knobs, not semantic ones (results are identical at any value), so they
// are clamped rather than rejected — one request cannot demand an arbitrary
// goroutine count. Graph construction likewise: build_workers defaults to
// the server's -build-workers and is capped by it. Note the bound is per
// request — aggregate build goroutines can reach -workers × -build-workers
// when every in-flight request is in its build stage (builds are short
// relative to solves, so sustained overlap is rare); operators running high
// request concurrency on narrow machines should lower -build-workers (see
// docs/API.md).
func (s *server) resolveOptions(k int, algName, engine string, alpha float64, seed int64, workers, buildWorkers int) (core.Options, error) {
	if k < 0 || k > maxK {
		return core.Options{}, fmt.Errorf("k must be in [2, %d] (or 0 for the default 4), got %d", maxK, k)
	}
	if alpha < 0 || math.IsNaN(alpha) || math.IsInf(alpha, 0) {
		return core.Options{}, fmt.Errorf("alpha must be finite and >= 0 (or 0 for the default 0.1), got %v", alpha)
	}
	if workers < 0 {
		workers = 0
	}
	if limit := runtime.GOMAXPROCS(0); workers > limit {
		workers = limit
	}
	if buildWorkers <= 0 || buildWorkers > s.buildWorkers {
		buildWorkers = s.buildWorkers
	}
	if algName == "" {
		algName = "sdp-backtrack"
	}
	alg, err := mpl.ParseAlgorithm(algName)
	if err != nil {
		return core.Options{}, err
	}
	eng, err := core.ParseEngine(engine)
	if err != nil {
		return core.Options{}, err
	}
	return core.Options{
		K:         k,
		Algorithm: alg,
		Engine:    eng,
		Alpha:     alpha,
		Seed:      seed,
		Build:     core.BuildOptions{Workers: buildWorkers},
		Division:  division.Options{Workers: workers},
	}, nil
}

// requestCtx applies the effective deadline: the client's timeout_ms capped
// by the server's -timeout. The client deadline is honored even when the
// server cap is disabled (-timeout 0); the cap only ever shortens it.
func (s *server) requestCtx(ctx context.Context, timeoutMs int64) (context.Context, context.CancelFunc) {
	timeout := s.maxTimeout
	if timeoutMs > 0 {
		if t := time.Duration(timeoutMs) * time.Millisecond; timeout <= 0 || t < timeout {
			timeout = t
		}
	}
	if timeout > 0 {
		return context.WithTimeout(ctx, timeout)
	}
	return ctx, func() {}
}

// decomposeOne converts one decoded request into a service call.
func (s *server) decomposeOne(ctx context.Context, wr *wireRequest) (decomposeResponse, error) {
	req := &wr.opts
	opts, err := s.resolveOptions(req.K, req.Algorithm, req.Engine, req.Alpha, req.Seed, req.Workers, req.BuildWorkers)
	if err != nil {
		return decomposeResponse{}, err
	}
	if wr.layoutErr != nil {
		return decomposeResponse{}, wr.layoutErr
	}
	l := wr.layout
	ctx, cancel := s.requestCtx(ctx, req.TimeoutMs)
	defer cancel()

	t0 := time.Now()
	res, lh, cached, err := s.svc.DecomposeHashed(ctx, l, opts)
	if err != nil {
		return decomposeResponse{}, err
	}
	return newResponse(req.Name, opts, res, lh, cached, req.IncludeMasks, t0), nil
}

// newResponse builds the reply to one full or incremental solve that
// started at t0. A cached answer carries no per-solve telemetry (engines,
// stage times, shape traffic): nothing ran.
func newResponse(name string, opts core.Options, res *core.Result, layoutHash string, cached, includeMasks bool, t0 time.Time) decomposeResponse {
	resp := decomposeResponse{
		Name:       name,
		K:          res.K,
		Algorithm:  opts.Algorithm.String(),
		Engine:     opts.Engine,
		Fragments:  len(res.Graph.Fragments),
		Conflicts:  res.Conflicts,
		Stitches:   res.Stitches,
		Proven:     res.Proven,
		Degraded:   res.Degraded,
		Cached:     cached,
		ElapsedMs:  float64(time.Since(t0).Microseconds()) / 1000,
		LayoutHash: layoutHash,
	}
	if !cached {
		resp.Engines = res.DivisionStats.Engines
		resp.StageMs = benchrec.StageMsOf(res.DivisionStats.Stages)
		if sh := res.DivisionStats.Shapes; sh.Hits+sh.Misses > 0 {
			resp.Shapes = &shapeJSON{Hits: sh.Hits, Misses: sh.Misses, Distinct: sh.Distinct}
		}
	}
	if includeMasks {
		resp.Masks = masksToJSON(res)
	}
	return resp
}

// handleIncremental advances a session by an edit batch. An unknown base
// hash is 404 — the canonical client reaction is to re-send the full
// layout via /v1/decompose, which (re)opens the session.
func (s *server) handleIncremental(w http.ResponseWriter, r *http.Request) {
	body, err := s.readBody(w, r)
	if err != nil {
		bodyError(w, err)
		return
	}
	// Edit batches are small; encoding/json decodes them, with added
	// rects held to the scanner's exactly-four-integers rule (wireRect).
	var req incrementalRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		bodyError(w, err)
		return
	}
	if req.Base == "" {
		httpError(w, http.StatusBadRequest, "base layout hash is required")
		return
	}
	if len(req.Edits) == 0 {
		httpError(w, http.StatusBadRequest, "empty edit batch")
		return
	}
	opts, err := s.resolveOptions(req.K, req.Algorithm, req.Engine, req.Alpha, req.Seed, req.Workers, req.BuildWorkers)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	edits, err := editsFromJSON(req.Edits)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel := s.requestCtx(r.Context(), req.TimeoutMs)
	defer cancel()

	t0 := time.Now()
	res, newHash, estats, cached, err := s.svc.DecomposeIncremental(ctx, req.Base, edits, opts)
	if err != nil {
		code := http.StatusBadRequest
		switch {
		case errors.Is(err, service.ErrNoSession):
			code = http.StatusNotFound
		case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
			code = http.StatusServiceUnavailable
		}
		httpError(w, code, "%v", err)
		return
	}
	resp := newResponse(req.Name, opts, res, newHash, cached, req.IncludeMasks, t0)
	if estats != nil {
		resp.Incremental = &incrementalJSON{
			RebuiltFeatures:    estats.RebuiltFeatures,
			ReusedFragments:    estats.ReusedFragments,
			RebuiltFragments:   estats.RebuiltFragments,
			Components:         estats.Components,
			ResolvedComponents: estats.ResolvedComponents,
			CopiedComponents:   estats.CopiedComponents,
			BuildMs:            float64(estats.BuildTime.Microseconds()) / 1000,
			SolveMs:            float64(estats.SolveTime.Microseconds()) / 1000,
		}
	}
	writeJSON(w, resp)
}

// editsFromJSON converts wire edits to core.Edit ops. Added rects must lie
// in the layout coordinate range, and a move must be shorter than 2^31 on
// each axis: no single longer move can leave a feature in range, and the
// durable edit log stores values as int32 — an added rect or move a later
// edit of the batch undoes must still be replayable.
func editsFromJSON(in []editJSON) ([]core.Edit, error) {
	out := make([]core.Edit, 0, len(in))
	for i, e := range in {
		switch e.Op {
		case "add":
			var pg geom.Polygon
			for _, r := range e.Rects {
				rc := geom.Rect{X0: r[0], Y0: r[1], X1: r[2], Y1: r[3]}
				if err := layout.CheckRect(rc); err != nil {
					return nil, fmt.Errorf("edit %d: %v", i, err)
				}
				pg.Rects = append(pg.Rects, rc)
			}
			out = append(out, core.Edit{Op: core.EditAdd, Shape: pg})
		case "remove":
			out = append(out, core.Edit{Op: core.EditRemove, Feature: e.Feature})
		case "move":
			if lim := 2 * layout.CoordLimit; e.DX <= -lim || e.DX >= lim || e.DY <= -lim || e.DY >= lim {
				return nil, fmt.Errorf("edit %d: move (%d, %d) reaches past the coordinate range", i, e.DX, e.DY)
			}
			out = append(out, core.Edit{Op: core.EditMove, Feature: e.Feature, DX: e.DX, DY: e.DY})
		default:
			return nil, fmt.Errorf("edit %d: unknown op %q (want add, remove or move)", i, e.Op)
		}
	}
	return out, nil
}

func masksToJSON(res *core.Result) [][]rectJSON {
	masks := make([][]rectJSON, res.K)
	for c := range masks {
		masks[c] = []rectJSON{} // empty mask serializes as [], not null
	}
	for c, shapes := range res.Masks() {
		for _, pg := range shapes {
			for _, r := range pg.Rects {
				masks[c] = append(masks[c], rectJSON{r.X0, r.Y0, r.X1, r.Y1})
			}
		}
	}
	return masks
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.svc.StatsSnapshot()
	engines := st.Engines
	if engines == nil {
		engines = map[string]int{} // serialize as {}, not null
	}
	stages := make(map[string]map[string]any, len(st.Stages))
	for name, ss := range st.Stages {
		stages[name] = map[string]any{
			"wall_ms": float64(ss.Wall.Microseconds()) / 1000,
			"calls":   ss.Calls,
		}
	}
	out := map[string]any{
		"cache_hits":         st.Hits,
		"cache_misses":       st.Misses,
		"cache_evictions":    st.Evictions,
		"cache_size":         st.Size,
		"graph_hits":         st.GraphHits,
		"incremental_solves": st.Incremental,
		"sessions":           st.Sessions,
		"rehydrations":       st.Rehydrations,
		"spills":             st.Spills,
		"store_errors":       st.StoreErrors,
		"engines":            engines,
		"stages":             stages,
		"shapes": map[string]int{
			"hits":     st.Shapes.Hits,
			"misses":   st.Shapes.Misses,
			"distinct": st.Shapes.Distinct,
		},
		// Dispatch-imbalance gauge: per-worker busy-time extremes across
		// every solve this process executed (division.Balance merge
		// semantics — workers sum, max/min are lifetime extremes).
		"dispatch_balance": map[string]any{
			"workers":     st.Balance.Workers,
			"max_busy_ms": float64(st.Balance.MaxBusy.Microseconds()) / 1000,
			"min_busy_ms": float64(st.Balance.MinBusy.Microseconds()) / 1000,
		},
	}
	if ss := st.Store; ss != nil {
		out["store"] = map[string]any{
			"live_sessions": ss.LiveSessions,
			"wal_bytes":     ss.WALBytes,
			"wal_records":   ss.WALRecords,
			"snapshots":     ss.Snapshots,
			"edits":         ss.Edits,
			"compactions":   ss.Compactions,
			"torn_tail":     ss.TornTail,
			"orphans":       ss.Orphans,
		}
	}
	writeJSON(w, out)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		log.Printf("write response: %v", err)
	}
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
