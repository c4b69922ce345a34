// Command servebench is the repository's serving benchmark. It builds
// nothing itself: run.sh builds `qpld` from the checkout and this program,
// then runs it from the checkout root.
//
// One run launches the real `qpld serve` on 127.0.0.1 and drives it from a
// single closed-loop client over one keep-alive connection: each request is
// sent only after the previous reply has been read, as a layout flow or an
// ECO designer waits for each answer. All request bodies are built from
// --seed before the clock starts. With --trace 0 the run reports the
// end-to-end metrics; with --trace 1 it repeats the served run for the
// per-layer figures read from outside the process, then replays the same
// requests in fresh child processes of its own, with spans around each
// layer's public functions.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"
)

// setupsPerRun is how many times a --trace 0 run launches and warms the
// server; setup_s is their median, and the last one is measured. One setup
// lasts 0.1–1 s, so a single one would carry every scheduling hiccup.
const setupsPerRun = 5

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload: fullchip, dense-k5 or eco")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 20, "nominal length of the timed phase")
		trace   = flag.Int("trace", 0, "1 = report per-layer metrics (served run + traced replay)")
		bin     = flag.String("qpld", ".bench_build/qpld", "qpld binary built from the checkout")
		work    = flag.String("work", ".bench_build/work", "directory for data dirs and run records")
		pin     = flag.Int("pin", 0, "print the input pins of seeds 0..N-1 as JSON (e.g. -pin 32) and exit")
		replay  = flag.String("replay", "", "run one traced replay pass (service, layers or eco) in this process and write it to -out")
		passOut = flag.String("out", "", "file -replay writes its pass to")
	)
	flag.Parse()
	if *pin > 0 {
		return printPins(*pin)
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *replay != "" {
		return replayPass(w, *seed, *replay, *work, *passOut)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if _, err := os.Stat(*bin); err != nil {
		return fmt.Errorf("qpld binary: %w", err)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return err
	}

	t0 := time.Now()
	p, err := makePlan(w, *seed, w.timedCount(*seconds))
	if err != nil {
		return fmt.Errorf("generate %s inputs: %w", w.name, err)
	}
	pinErr := checkPins(p)
	logf("generated and pinned %d+%d requests in %.1fs", len(p.warm), len(p.timed), time.Since(t0).Seconds())

	setups := setupsPerRun
	if *trace == 1 {
		setups = 1
	}
	m, err := measure(p, *bin, *work, setups)
	if err != nil {
		return err
	}
	logf("setups %.2fs each, timed phase %d requests in %.1fs", m.setups, len(m.records), m.wall.Seconds())
	if pinErr != nil {
		m.failures = append(m.failures, pinErr.Error())
	}
	// Recount a fixed sample in process; every mismatch fails its request.
	t0 = time.Now()
	for _, f := range recount(p, m.records) {
		m.fail(f.i, f.msg)
	}
	logf("recount in %.1fs", time.Since(t0).Seconds())
	stem := filepath.Join(*work, fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace))
	if err := writeRecords(stem+"-requests.jsonl", m.records); err != nil {
		return err
	}

	var metrics map[string]metric
	if *trace == 1 {
		t0 = time.Now()
		tr, err := traceRun(p, *work)
		if err != nil {
			return err
		}
		logf("traced replay in %.1fs", time.Since(t0).Seconds())
		m.failures = append(m.failures, tr.Failures...)
		if err := tr.write(stem + "-spans.json"); err != nil {
			return err
		}
		metrics = layerMetrics(m, tr)
	} else {
		metrics = endToEndMetrics(m)
	}
	for _, f := range m.failures {
		logf("FAIL %s", f)
	}
	failed := 0
	for _, r := range m.records {
		if !r.OK {
			failed++
		}
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(m.failures) == 0, len(m.records), failed, metrics}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one timed request as observed by the client. The full list is
// written per run so distributions, not just medians, can be compared.
type record struct {
	I          int     `json:"i"`
	Step       int     `json:"step,omitempty"`
	Status     int     `json:"status"`
	LatencyMs  float64 `json:"latency_ms"`
	ElapsedMs  float64 `json:"elapsed_ms"`
	Cached     bool    `json:"cached"`
	Conflicts  int     `json:"conflicts"`
	Stitches   int     `json:"stitches"`
	Fragments  int     `json:"fragments"`
	Features   int     `json:"features"`
	Degraded   int     `json:"degraded"`
	LayoutHash string  `json:"layout_hash"`
	OK         bool    `json:"ok"`
}

// measurement is what one served run observed.
type measurement struct {
	setups   []float64 // seconds per setup
	records  []record
	wall     time.Duration // timed phase
	cpu      time.Duration // server CPU during the timed phase
	peakMB   float64
	before   serverStats
	after    serverStats
	failures []string
}

func (m *measurement) fail(i int, msg string) {
	m.records[i].OK = false
	m.failures = append(m.failures, fmt.Sprintf("request %d: %s", i, msg))
}

// measure launches and warms the server setups times (the last one stays
// up), runs the timed phase against it and shuts it down.
func measure(p *plan, bin, work string, setups int) (*measurement, error) {
	m := &measurement{}
	ctx := context.Background()
	var srv *server
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for i := 0; i < setups; i++ {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		dataDir := ""
		if p.w.eco {
			dataDir = filepath.Join(work, "data")
			if err := os.RemoveAll(dataDir); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if srv, err = startServer(bin, dataDir); err != nil {
			return nil, err
		}
		for j, r := range p.warm {
			status, raw, _, err := srv.post(ctx, r.path, r.body)
			if err != nil {
				return nil, fmt.Errorf("warm-up %d: %w", j, err)
			}
			if _, msg := checkReply(r, status, raw); msg != "" {
				return nil, fmt.Errorf("warm-up %d: %s", j, msg)
			}
		}
		m.setups = append(m.setups, time.Since(t0).Seconds())
	}

	var err error
	if m.before, err = srv.stats(ctx); err != nil {
		return nil, err
	}
	cpu0, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	type raw struct {
		status int
		body   []byte
		lat    time.Duration
		err    error
	}
	raws := make([]raw, len(p.timed))
	// The client allocates little per request; a collection mid-phase would
	// only add client-side noise to the latencies.
	gc := debug.SetGCPercent(-1)
	t0 := time.Now()
	for i, r := range p.timed {
		status, body, lat, err := srv.post(ctx, r.path, r.body)
		raws[i] = raw{status, body, lat, err}
	}
	m.wall = time.Since(t0)
	debug.SetGCPercent(gc)
	cpu1, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	m.cpu = cpu1 - cpu0
	if m.peakMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	if m.after, err = srv.stats(ctx); err != nil {
		return nil, err
	}
	srv.stop()
	srv = nil

	m.records = make([]record, len(p.timed))
	for i, r := range p.timed {
		rec := record{I: i, Step: r.step, Features: r.features, OK: true}
		x := raws[i]
		if x.err != nil {
			m.records[i] = rec
			m.fail(i, x.err.Error())
			continue
		}
		rec.Status, rec.LatencyMs = x.status, ms(x.lat)
		rep, msg := checkReply(r, x.status, x.body)
		rec.ElapsedMs, rec.Cached = rep.ElapsedMs, rep.Cached
		rec.Conflicts, rec.Stitches, rec.Fragments = rep.Conflicts, rep.Stitches, rep.Fragments
		rec.Degraded, rec.LayoutHash = rep.Degraded, rep.LayoutHash
		m.records[i] = rec
		if msg != "" {
			m.fail(i, msg)
		}
	}
	return m, nil
}

// checkReply is the per-response correctness gate: HTTP 200, no degraded
// pieces, and the cached flag and layout hash the plan predicts.
func checkReply(r request, status int, raw []byte) (reply, string) {
	var rep reply
	if err := json.Unmarshal(raw, &rep); err != nil {
		return rep, fmt.Sprintf("status %d, undecodable reply: %v", status, err)
	}
	switch {
	case status != 200:
		return rep, fmt.Sprintf("status %d: %s", status, rep.Error)
	case rep.Degraded != 0:
		return rep, fmt.Sprintf("%d degraded pieces", rep.Degraded)
	case rep.Cached != r.cached:
		return rep, fmt.Sprintf("cached=%v, want %v", rep.Cached, r.cached)
	case rep.LayoutHash != r.hash:
		return rep, fmt.Sprintf("layout_hash %.12s, want %.12s", rep.LayoutHash, r.hash)
	}
	return rep, ""
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// logf reports progress on standard error; standard output carries only
// the result line.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "servebench: "+format+"\n", args...)
}

// endToEndMetrics are the user-visible figures of the served run.
func endToEndMetrics(m *measurement) map[string]metric {
	lat := make([]float64, len(m.records))
	var features, conflicts, stitches float64
	for i, r := range m.records {
		lat[i] = r.LatencyMs
		features += float64(r.Features)
		conflicts += float64(r.Conflicts)
		stitches += float64(r.Stitches)
	}
	// timedCount guarantees the 100 samples p90 needs.
	p50, _ := percentile(lat, 0.5)
	p90, _ := percentile(lat, 0.9)
	n := float64(len(m.records))
	return map[string]metric{
		"setup_s":         {median(m.setups), "s"},
		"latency_p50_ms":  {p50, "ms"},
		"latency_p90_ms":  {p90, "ms"},
		"features_per_s":  {features / m.wall.Seconds(), "1/s"},
		"cpu_ms_per_req":  {ms(m.cpu) / n, "ms"},
		"peak_rss_mb":     {m.peakMB, "MiB"},
		"conflicts_total": {conflicts, "count"},
		"stitches_total":  {stitches, "count"},
	}
}

// engineSlugs maps the engine names of the /v1/stats histogram to metric
// name suffixes (metric names may not contain '+').
var engineSlugs = map[string]string{
	"ILP": "ilp", "SDP+Backtrack": "sdp-backtrack", "SDP+Greedy": "sdp-greedy",
	"Linear": "linear", "memo": "memo", "fallback": "fallback",
}

// layerMetrics combines the per-layer figures read from outside the served
// process with the traced replay's.
func layerMetrics(m *measurement, tr *traced) map[string]metric {
	out := tr.metrics()
	over := make([]float64, 0, len(m.records))
	cached := 0.0
	for _, r := range m.records {
		over = append(over, r.LatencyMs-r.ElapsedMs)
		if r.Cached {
			cached++
		}
	}
	out["serve.overhead_ms_p50"] = metric{median(over), "ms"}
	out["service.cache_hit_ratio"] = metric{cached / float64(len(m.records)), "ratio"}
	b, a := m.before, m.after
	out["canon.shape_hit_ratio"] = metric{ratio(a.Shapes.Hits-b.Shapes.Hits,
		a.Shapes.Hits-b.Shapes.Hits+a.Shapes.Misses-b.Shapes.Misses), "ratio"}
	for name, slug := range engineSlugs {
		out["portfolio.pieces."+slug] = metric{a.Engines[name] - b.Engines[name], "count"}
	}
	// The log only grows here: compaction needs two records per live
	// session, and eco appends about 1.1 (an edit record per miss, plus a
	// snapshot every 8 edits).
	perEdit := 0.0
	if a.Store != nil && b.Store != nil {
		perEdit = ratio(a.Store.WALBytes-b.Store.WALBytes, a.Store.Edits-b.Store.Edits)
	}
	out["store.wal_bytes_per_edit"] = metric{perEdit, "bytes"}
	return out
}

func writeRecords(path string, recs []record) error {
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}

//go:embed pins.json
var pinsJSON []byte

// pins maps workload → seed → request-list digest.
type pins map[string]map[string]string

// checkPins fails the run when the generated request list of a pinned seed
// has changed: a change to the generators must not silently change the
// workload. Unpinned seeds are checked through seed 0's sentinel.
func checkPins(p *plan) error {
	var pp pins
	if err := json.Unmarshal(pinsJSON, &pp); err != nil {
		return fmt.Errorf("pins.json: %w", err)
	}
	want := pp[p.w.name]
	if d, ok := want[fmt.Sprint(p.seed)]; ok {
		if got := p.digest(); got != d {
			return fmt.Errorf("input pin: %s seed %d digest %.16s, pinned %.16s", p.w.name, p.seed, got, d)
		}
		return nil
	}
	d, ok := want["0"]
	if !ok {
		return errors.New("input pin: no sentinel for " + p.w.name)
	}
	p0, err := makePlan(p.w, 0, minRequests)
	if err != nil {
		return err
	}
	if got := p0.digest(); got != d {
		return fmt.Errorf("input pin: %s seed 0 digest %.16s, pinned %.16s", p.w.name, got, d)
	}
	return nil
}

// printPins prints a pins.json covering seeds 0..n-1 of every workload.
func printPins(n int) error {
	pp := pins{}
	for _, w := range workloads {
		pp[w.name] = map[string]string{}
		for s := 0; s < n; s++ {
			p, err := makePlan(w, int64(s), minRequests)
			if err != nil {
				return err
			}
			pp[w.name][fmt.Sprint(s)] = p.digest()
		}
	}
	b, err := json.MarshalIndent(pp, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
