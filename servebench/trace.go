package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"mpl/internal/core"
	"mpl/internal/division"
	"mpl/internal/layout"
	"mpl/internal/pipeline"
	"mpl/internal/service"
	"mpl/internal/store"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the enclosing span's ID (0 for a request's root span). Pass
// names the replay pass that recorded it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Pass   string `json:"pass"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// traced is a replay: spans kept in memory and written once at the end,
// plus the counts the layers returned on the same requests.
type traced struct {
	t0    time.Time
	pass  string
	on    bool   // false during warm-up: calls run, nothing is recorded
	Spans []span `json:"spans"`
	// Vals holds one program-reported sample per request per metric;
	// Sums accumulates numerators and denominators of ratios.
	Vals     map[string][]float64 `json:"vals"`
	Sums     map[string]float64   `json:"sums"`
	Failures []string             `json:"failures"`
}

func newTraced(pass string) *traced {
	return &traced{t0: time.Now(), pass: pass, Vals: map[string][]float64{}, Sums: map[string]float64{}}
}

func (t *traced) begin(name string, parent, req int) int {
	if !t.on {
		return 0
	}
	t.Spans = append(t.Spans, span{ID: len(t.Spans) + 1, Parent: parent, Req: req, Pass: t.pass, Name: name,
		Start: int64(time.Since(t.t0))})
	return len(t.Spans)
}

func (t *traced) end(id int) {
	if id > 0 {
		t.Spans[id-1].End = int64(time.Since(t.t0))
	}
}

func (t *traced) val(name string, v float64) {
	if t.on {
		t.Vals[name] = append(t.Vals[name], v)
	}
}

func (t *traced) sum(name string, v float64) {
	if t.on {
		t.Sums[name] += v
	}
}

func (t *traced) fail(req int, format string, args ...any) {
	t.Failures = append(t.Failures, fmt.Sprintf("traced request %d: ", req)+fmt.Sprintf(format, args...))
}

// merge appends another pass's record, renumbering its spans after ours.
func (t *traced) merge(o *traced) {
	off := len(t.Spans)
	for _, s := range o.Spans {
		s.ID += off
		if s.Parent > 0 {
			s.Parent += off
		}
		t.Spans = append(t.Spans, s)
	}
	for k, v := range o.Vals {
		t.Vals[k] = append(t.Vals[k], v...)
	}
	for k, v := range o.Sums {
		t.Sums[k] += v
	}
	t.Failures = append(t.Failures, o.Failures...)
}

func (t *traced) write(path string) error {
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.Spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's duration minus the part of it its direct
// children cover (children never overlap: a pass is sequential).
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += time.Duration(s.End - s.Start)
		if s.Parent > 0 {
			self[s.Parent-1] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

// serviceInner are the layer calls the service makes on its serving path
// (verify is not one of them); the service's self time on a request is
// its whole call minus these calls, replayed on the same request.
var serviceInner = map[string]bool{
	"service.hash": true, "core.build": true, "core.color": true,
	"core.edit_layout": true, "core.apply_edits": true, "store.append": true,
}

// layerSpans are the span names reported as "<name>_ms" per-layer times.
var layerSpans = []string{
	"service.decompose", "service.incremental", "service.hash", "core.build", "core.color",
	"core.verify", "core.edit_layout", "core.apply_edits", "store.append",
}

// metrics reduces the trace: for each layer, the median over requests of
// its self time on that request; the service's self time; and the means of
// the program-reported figures, which are often 0 on most requests (a
// median would hide the rest). Layers a workload never calls report 0.
func (t *traced) metrics() map[string]metric {
	self := selfTimes(t.Spans)
	per := map[int]map[string]time.Duration{} // request → span name → self time
	for i, s := range t.Spans {
		if per[s.Req] == nil {
			per[s.Req] = map[string]time.Duration{}
		}
		per[s.Req][s.Name] += self[i]
	}
	samples := map[string][]float64{}
	for _, rt := range per {
		var svc, inner time.Duration
		for name, d := range rt {
			samples[name] = append(samples[name], ms(d))
			switch {
			case name == "service.decompose" || name == "service.incremental":
				svc += d
			case serviceInner[name]:
				inner += d
			}
		}
		if svc > 0 && inner > 0 {
			samples["service.self"] = append(samples["service.self"], ms(svc-inner))
		}
	}
	out := map[string]metric{}
	for _, name := range append(layerSpans, "service.self") {
		out[name+"_ms"] = metric{median(samples[name]), "ms"}
	}
	for name, unit := range valUnits {
		if xs, ok := t.Vals[name]; ok {
			out[name] = metric{mean(xs), unit}
		} else if _, ok := out[name]; !ok {
			out[name] = metric{0, unit}
		}
	}
	out["core.rebuilt_fragment_ratio"] = metric{ratio(t.Sums["rebuilt_fragments"], t.Sums["fragments"]), "ratio"}
	out["core.resolved_component_ratio"] = metric{ratio(t.Sums["resolved_components"], t.Sums["components"]), "ratio"}
	return out
}

// valUnits lists the program-reported per-request metrics. core.build_ms
// and core.color_ms appear here for eco, whose dirty-region build and solve
// run inside core.ApplyEdits and are read from its EditStats; fresh-layout
// workloads time them as spans instead.
var valUnits = map[string]string{
	"core.build_ms":                 "ms",
	"core.color_ms":                 "ms",
	"core.build_alloc_mb":           "MiB",
	"core.fragments":                "count",
	"division.solver_calls":         "count",
	"division.simplify_ms":          "worker-ms",
	"division.partition_ms":         "worker-ms",
	"division.dispatch_ms":          "worker-ms",
	"division.stitch_ms":            "worker-ms",
	"division.merge_ms":             "ms",
	"division.dispatch_busy_max_ms": "ms",
	"division.dispatch_busy_min_ms": "ms",
}

// divisionVals records a solve's program-reported division telemetry.
func (t *traced) divisionVals(ds division.Stats) {
	for _, stage := range []string{pipeline.StageSimplify, pipeline.StagePartition, pipeline.StageDispatch,
		pipeline.StageStitch, pipeline.StageMerge} {
		t.val("division."+stage+"_ms", ms(ds.Stages[stage].Wall))
	}
	t.val("division.dispatch_busy_max_ms", ms(ds.Balance.MaxBusy))
	t.val("division.dispatch_busy_min_ms", ms(ds.Balance.MinBusy))
	t.val("division.solver_calls", float64(ds.SolverCalls))
}

// Replay passes. A fresh-layout workload is replayed twice: once through
// the service (passService) and once through the layer calls the service
// makes (passLayers). Each pass runs in a process of its own, so each
// starts, like the server, from an empty process-wide shape cache and sees
// the warm-up and the requests in the server's order: a memoized
// workload's layer calls then solve exactly the pieces the service call
// solved. In one process, the first pass over a layout would fill the
// shape cache for the second. An eco step edits the previous state of
// both the service and the layer chain, and eco does not memoize, so eco
// runs as one pass (passECO).
const (
	passService = "service"
	passLayers  = "layers"
	passECO     = "eco"
)

// checkVals are recorded on every request by both fresh-layout passes, and
// must agree between them.
var checkVals = []string{"check.conflicts", "check.stitches", "check.fragments",
	"check.shape_hits", "check.shape_misses"}

// traceRun replays the first w.traced timed requests of p, after the
// warm-up, in child processes, and merges what the passes recorded.
func traceRun(p *plan, work string) (*traced, error) {
	passes := []string{passService, passLayers}
	if p.w.eco {
		passes = []string{passECO}
	}
	all := newTraced("")
	var got []*traced
	for _, pass := range passes {
		t, err := runPass(p, pass, work)
		if err != nil {
			return nil, err
		}
		all.merge(t)
		got = append(got, t)
	}
	if len(got) == 2 {
		for _, name := range checkVals {
			a, b := got[0].Vals[name], got[1].Vals[name]
			if len(a) != len(b) {
				all.fail(-1, "%s: %d service samples, %d layer samples", name, len(a), len(b))
				continue
			}
			for i := range a {
				if a[i] != b[i] {
					all.fail(i, "%s: service call %v, layer calls %v", name, a[i], b[i])
				}
			}
		}
	}
	return all, nil
}

// runPass runs one replay pass in a child process of this program and
// reads back what it recorded.
func runPass(p *plan, pass, work string) (*traced, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := filepath.Join(work, fmt.Sprintf("%s-seed%d-%s-pass.json", p.w.name, p.seed, pass))
	cmd := exec.Command(exe, "-replay", pass, "-workload", p.w.name,
		"-seed", strconv.FormatInt(p.seed, 10), "-work", work, "-out", out)
	// Standard output carries only the result line.
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("replay pass %s: %w", pass, err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		return nil, err
	}
	t := newTraced(pass)
	if err := json.Unmarshal(b, t); err != nil {
		return nil, fmt.Errorf("replay pass %s: %w", pass, err)
	}
	return t, nil
}

// replayPass is the child side of runPass: it replays one pass in this
// process and writes the record to out.
func replayPass(w workload, seed int64, pass, work, out string) error {
	p, err := makePlan(w, seed, w.traced)
	if err != nil {
		return err
	}
	t := newTraced(pass)
	switch pass {
	case passService, passLayers:
		err = t.replayFresh(p, pass)
	case passECO:
		err = t.replayECO(p, filepath.Join(work, "trace"))
	default:
		err = fmt.Errorf("unknown replay pass %q", pass)
	}
	if err != nil {
		return err
	}
	b, err := json.Marshal(t)
	if err != nil {
		return err
	}
	return os.WriteFile(out, b, 0o644)
}

// replayFresh replays a fresh-layout plan, warm-up first, through the
// service or through the layer calls, as pass says.
func (t *traced) replayFresh(p *plan, pass string) error {
	ctx := context.Background()
	opts := p.w.options()
	svc := service.New(service.Config{CacheSize: serveCache, Workers: serveWorkers})
	for k, r := range append(append([]request(nil), p.warm...), p.timed...) {
		t.on = k >= len(p.warm)
		req := k - len(p.warm)
		l, err := p.w.generate(r.layoutSeed)
		if err != nil {
			return err
		}
		root := t.begin("request", 0, req)
		var res *core.Result
		if pass == passService {
			res, err = t.serviceCall(ctx, svc, l, opts, r, req, root)
		} else {
			res, err = t.layerCalls(ctx, l, opts, r, req, root)
		}
		t.end(root)
		if err != nil {
			return err
		}
		t.val("check.conflicts", float64(res.Conflicts))
		t.val("check.stitches", float64(res.Stitches))
		t.val("check.fragments", float64(len(res.Graph.Fragments)))
		t.val("check.shape_hits", float64(res.DivisionStats.Shapes.Hits))
		t.val("check.shape_misses", float64(res.DivisionStats.Shapes.Misses))
	}
	return nil
}

func (t *traced) serviceCall(ctx context.Context, svc *service.Service, l *layout.Layout, opts core.Options, r request, req, root int) (*core.Result, error) {
	s := t.begin("service.decompose", root, req)
	res, h, cached, err := svc.DecomposeHashed(ctx, l, opts)
	t.end(s)
	if err != nil {
		return nil, fmt.Errorf("traced service decompose: %w", err)
	}
	if cached || h != r.hash {
		t.fail(req, "service cached=%v hash %.12s, want uncached %.12s", cached, h, r.hash)
	}
	return res, nil
}

// layerCalls makes the calls the service makes on a result-cache miss —
// hash, graph build, color assignment — and verifies the coloring.
func (t *traced) layerCalls(ctx context.Context, l *layout.Layout, opts core.Options, r request, req, root int) (*core.Result, error) {
	s := t.begin("service.hash", root, req)
	h := service.LayoutHash(l)
	t.end(s)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	s = t.begin("core.build", root, req)
	g, err := core.BuildGraphContext(ctx, l, opts.Normalize().Build)
	t.end(s)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, fmt.Errorf("traced build: %w", err)
	}
	s = t.begin("core.color", root, req)
	res, err := core.DecomposeGraphContext(ctx, g, opts)
	t.end(s)
	if err != nil {
		return nil, fmt.Errorf("traced color: %w", err)
	}
	s = t.begin("core.verify", root, req)
	cn, st, err := core.VerifySolution(res)
	t.end(s)

	t.val("core.build_alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
	t.val("core.fragments", float64(g.Stats.Fragments))
	t.divisionVals(res.DivisionStats)
	switch {
	case err != nil:
		t.fail(req, "verify: %v", err)
	case h != r.hash:
		t.fail(req, "replay hash %.12s, want %.12s", h, r.hash)
	case cn != res.Conflicts || st != res.Stitches:
		t.fail(req, "layers %d/%d, verify %d/%d", res.Conflicts, res.Stitches, cn, st)
	}
	return res, nil
}

// ecoState is one session state of the replayed layer chain.
type ecoState struct {
	hash string
	l    *layout.Layout
	res  *core.Result
}

// replayECO replays the session open and the eco steps, each through the
// service and then through the layer calls, which advance a chain of their
// own from the same base.
func (t *traced) replayECO(p *plan, dir string) error {
	ctx := context.Background()
	opts := p.w.options()
	sig := service.OptionsSig(opts)
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	svcStore, err := store.Open(filepath.Join(dir, "service"), store.Options{})
	if err != nil {
		return err
	}
	defer svcStore.Close()
	// The layer replay logs to its own store, the way the service's
	// persistEdits would.
	repStore, err := store.Open(filepath.Join(dir, "replay"), store.Options{})
	if err != nil {
		return err
	}
	defer repStore.Close()
	svc := service.New(service.Config{CacheSize: serveCache, Workers: serveWorkers, Store: svcStore})

	// The session open is the one full decompose of this workload.
	t.on = true
	root := t.begin("request", 0, -1)
	s := t.begin("service.decompose", root, -1)
	res0, h0, _, err := svc.DecomposeHashed(ctx, p.ecoBase, opts)
	t.end(s)
	t.end(root)
	if err != nil {
		return fmt.Errorf("traced session open: %w", err)
	}
	base := ecoState{h0, p.ecoBase, res0}
	cur := base
	recent := []ecoState{cur} // the last few states, for undo steps

	steps := append(append([]request(nil), p.warm[1:]...), p.timed...)
	for k, r := range steps {
		t.on = k >= len(p.warm)-1
		req := k - (len(p.warm) - 1)
		if r.base == base.hash {
			cur = base // a new branch
		}
		root := t.begin("request", 0, req)
		s := t.begin("service.incremental", root, req)
		sres, sh, _, scached, err := svc.DecomposeIncremental(ctx, r.base, r.edits, opts)
		t.end(s)
		if err != nil {
			return fmt.Errorf("traced service step %d: %w", r.step, err)
		}
		s = t.begin("core.edit_layout", root, req)
		next, err := core.EditLayout(cur.l, r.edits)
		t.end(s)
		if err != nil {
			return fmt.Errorf("traced edit step %d: %w", r.step, err)
		}
		s = t.begin("service.hash", root, req)
		h := service.LayoutHash(next)
		t.end(s)
		var res *core.Result
		if r.cached {
			for _, st := range recent {
				if st.hash == h {
					res = st.res
				}
			}
			if res == nil {
				return fmt.Errorf("traced step %d: undo reached no recent state", r.step)
			}
		} else {
			var es *core.EditStats
			s = t.begin("core.apply_edits", root, req)
			_, res, es, err = core.ApplyEdits(ctx, cur.l, cur.res, r.edits, opts)
			t.end(s)
			if err != nil {
				return fmt.Errorf("traced apply step %d: %w", r.step, err)
			}
			s = t.begin("store.append", root, req)
			err = persist(repStore, sig, cur, ecoState{h, next, res}, r.edits)
			t.end(s)
			if err != nil {
				return fmt.Errorf("traced store append step %d: %w", r.step, err)
			}
			s = t.begin("core.verify", root, req)
			cn, st, verr := core.VerifySolution(res)
			t.end(s)
			if verr != nil || cn != res.Conflicts || st != res.Stitches {
				t.fail(req, "verify %d/%d against %d/%d: %v", cn, st, res.Conflicts, res.Stitches, verr)
			}
			t.val("core.build_ms", ms(es.BuildTime))
			t.val("core.color_ms", ms(es.SolveTime))
			t.val("core.fragments", float64(es.ReusedFragments+es.RebuiltFragments))
			t.sum("rebuilt_fragments", float64(es.RebuiltFragments))
			t.sum("fragments", float64(es.ReusedFragments+es.RebuiltFragments))
			t.sum("resolved_components", float64(es.ResolvedComponents))
			t.sum("components", float64(es.Components))
			t.divisionVals(res.DivisionStats)
		}
		t.end(root)
		switch {
		case scached != r.cached || sh != r.hash || h != r.hash:
			t.fail(req, "service cached=%v hash %.12s, replay hash %.12s, want cached=%v %.12s", scached, sh, h, r.cached, r.hash)
		case sres.Conflicts != res.Conflicts || sres.Stitches != res.Stitches ||
			len(sres.Graph.Fragments) != len(res.Graph.Fragments):
			t.fail(req, "service %d/%d, layers %d/%d", sres.Conflicts, sres.Stitches, res.Conflicts, res.Stitches)
		}
		cur = ecoState{h, next, res}
		recent = append(recent, cur)
		if len(recent) > 3 {
			recent = recent[1:]
		}
	}
	return nil
}

// persist logs one edit batch the way the service does: root the base
// with a snapshot if the log cannot replay it, append the batch, and
// re-root with a snapshot of the successor when the chain is deep.
func persist(st *store.Store, sig string, base, next ecoState, edits []core.Edit) error {
	if !st.Has(sig, base.hash) {
		if err := st.AppendSnapshot(sig, base.hash, snapshot(base)); err != nil {
			return err
		}
	}
	need, err := st.AppendEdits(sig, base.hash, next.hash, edits)
	if err != nil {
		return err
	}
	if need {
		return st.AppendSnapshot(sig, next.hash, snapshot(next))
	}
	return nil
}

func snapshot(s ecoState) *store.Snapshot {
	return &store.Snapshot{Layout: s.l, Colors: s.res.Colors, Conflicts: s.res.Conflicts,
		Stitches: s.res.Stitches, Proven: s.res.Proven}
}
