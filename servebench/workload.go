package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"mpl"
	"mpl/internal/core"
	"mpl/internal/layout"
	"mpl/internal/service"
)

// workload is one traffic mix. Every workload sends layouts of one fixed
// size class, so per-request costs are comparable across seeds.
type workload struct {
	name    string
	circuit string // synth circuit class of every layout sent
	k       int
	// algorithm, engine and memoize are sent verbatim in every request;
	// empty algorithm means the serve default (sdp-backtrack).
	algorithm string
	engine    string
	memoize   bool
	eco       bool // incremental sessions instead of fresh layouts
	// perSecond is the nominal request rate on a 2-vCPU machine: a run of
	// --seconds s sends ceil(s*perSecond) timed requests (at least
	// minRequests). Fixing the count, not the duration, keeps the request
	// list — and so the quality totals — identical for a seed.
	perSecond float64
	warmup    int // requests sent after launch, before the clock starts
	traced    int // timed requests replayed by the traced run
}

// minRequests gives p90 its ten samples beyond (the percentile rule).
const minRequests = 100

// recountSample is how many evenly spaced timed requests, besides the last,
// every run recounts in process.
const recountSample = 6

var workloads = []workload{
	{name: "fullchip", circuit: "S38417", k: 4, engine: "auto", memoize: true,
		perSecond: 6.5, warmup: 4, traced: 16},
	{name: "dense-k5", circuit: "C6288", k: 5, algorithm: "sdp-backtrack",
		perSecond: 6.5, warmup: 4, traced: 16},
	{name: "eco", circuit: "C7552", k: 4, algorithm: "sdp-backtrack", eco: true,
		perSecond: 110, warmup: 8, traced: 200},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options is the core.Options a server resolves from this workload's
// requests (serve: seed 0, default alpha, workers capped at 2).
func (w workload) options() core.Options {
	alg := core.AlgSDPBacktrack
	if w.algorithm != "" {
		var err error
		if alg, err = core.ParseAlgorithm(w.algorithm); err != nil {
			panic(err) // the workload table is fixed
		}
	}
	o := core.Options{K: w.k, Algorithm: alg, Engine: w.engine, Memoize: w.memoize}
	o.Build.Workers = serveWorkers
	o.Division.Workers = serveWorkers
	return o
}

// timedCount is the number of timed requests a run of the given length
// sends.
func (w workload) timedCount(seconds int) int {
	n := int(math.Ceil(float64(seconds) * w.perSecond))
	if n < minRequests {
		n = minRequests
	}
	return n
}

// serveWorkers is both the server's -workers/-build-workers and every
// request's workers/build_workers: one per vCPU of the reference machine.
const serveWorkers = 2

// Layout seeds: timed request i of seed s uses s*seedStride+i, warm-up
// request j uses s*seedStride+warmOffset+j, so warm-up layouts are never
// in the timed list and runs with different seeds share no layout.
const (
	seedStride = 1_000_000
	warmOffset = 500_000
)

// request is one prepared HTTP call. Bodies are built before the clock
// starts; layouts are regenerated from layoutSeed when the in-process
// checks need them.
type request struct {
	path     string
	body     []byte
	features int
	// Predicted response fields; a mismatch fails the request.
	cached bool
	hash   string
	// layoutSeed regenerates a fresh-layout request's geometry.
	layoutSeed int64
	// eco only: the batch, the session state it edits, and its step
	// number within its branch.
	edits []core.Edit
	base  string
	step  int
	// keep is the post-edit geometry of a sampled eco step, kept for the
	// in-process recount.
	keep *layout.Layout
}

// plan is a workload's full request list for one seed.
type plan struct {
	w     workload
	seed  int64
	warm  []request
	timed []request
	// ecoBase is the session's initial layout (eco only).
	ecoBase *layout.Layout
}

// digest pins the generated request list: a hash over every warm-up and
// the first minRequests timed bodies, which every run length sends.
func (p *plan) digest() string {
	h := sha256.New()
	for _, r := range p.warm {
		h.Write([]byte(r.path))
		h.Write(r.body)
	}
	for _, r := range p.timed[:minRequests] {
		h.Write([]byte(r.path))
		h.Write(r.body)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// rectJSON, layoutJSON, editJSON and the request bodies below mirror the
// qpld serve wire format (docs/API.md).
type rectJSON [4]int

type layoutJSON struct {
	Process  *processJSON `json:"process,omitempty"`
	Features [][]rectJSON `json:"features"`
}

type processJSON struct {
	MinWidth  int `json:"min_width"`
	MinSpace  int `json:"min_space"`
	HalfPitch int `json:"half_pitch"`
}

type optionsJSON struct {
	K            int    `json:"k"`
	Algorithm    string `json:"algorithm,omitempty"`
	Engine       string `json:"engine,omitempty"`
	Memoize      bool   `json:"memoize,omitempty"`
	Workers      int    `json:"workers"`
	BuildWorkers int    `json:"build_workers"`
}

type decomposeBody struct {
	Name string `json:"name"`
	optionsJSON
	Layout layoutJSON `json:"layout"`
}

type editJSON struct {
	Op      string     `json:"op"`
	Feature int        `json:"feature,omitempty"`
	Rects   []rectJSON `json:"rects,omitempty"`
	DX      int        `json:"dx,omitempty"`
	DY      int        `json:"dy,omitempty"`
}

type incrementalBody struct {
	Name string `json:"name"`
	Base string `json:"base"`
	optionsJSON
	Edits []editJSON `json:"edits"`
}

func (w workload) optionsJSON() optionsJSON {
	return optionsJSON{K: w.k, Algorithm: w.algorithm, Engine: w.engine, Memoize: w.memoize,
		Workers: serveWorkers, BuildWorkers: serveWorkers}
}

func toLayoutJSON(l *layout.Layout) layoutJSON {
	lj := layoutJSON{Features: make([][]rectJSON, len(l.Features))}
	if p := l.Process; p != layout.DefaultProcess() {
		lj.Process = &processJSON{MinWidth: p.MinWidth, MinSpace: p.MinSpace, HalfPitch: p.HalfPitch}
	}
	for i, f := range l.Features {
		rs := make([]rectJSON, len(f.Rects))
		for j, r := range f.Rects {
			rs[j] = rectJSON{r.X0, r.Y0, r.X1, r.Y1}
		}
		lj.Features[i] = rs
	}
	return lj
}

func toEditsJSON(edits []core.Edit) []editJSON {
	out := make([]editJSON, len(edits))
	for i, e := range edits {
		switch e.Op {
		case core.EditAdd:
			rs := make([]rectJSON, len(e.Shape.Rects))
			for j, r := range e.Shape.Rects {
				rs[j] = rectJSON{r.X0, r.Y0, r.X1, r.Y1}
			}
			out[i] = editJSON{Op: "add", Rects: rs}
		case core.EditRemove:
			out[i] = editJSON{Op: "remove", Feature: e.Feature}
		default:
			out[i] = editJSON{Op: "move", Feature: e.Feature, DX: e.DX, DY: e.DY}
		}
	}
	return out
}

// generate returns the layout behind a fresh-layout request.
func (w workload) generate(layoutSeed int64) (*layout.Layout, error) {
	return mpl.GenerateBenchmarkSeeded(w.circuit, 1.0, layoutSeed)
}

// freshRequest prepares a /v1/decompose call for one generated layout.
func (w workload) freshRequest(name string, layoutSeed int64) (request, error) {
	l, err := w.generate(layoutSeed)
	if err != nil {
		return request{}, err
	}
	body, err := json.Marshal(decomposeBody{Name: name, optionsJSON: w.optionsJSON(), Layout: toLayoutJSON(l)})
	if err != nil {
		return request{}, err
	}
	return request{path: "/v1/decompose", body: body, features: len(l.Features),
		hash: service.LayoutHash(l), layoutSeed: layoutSeed}, nil
}

// makePlan generates a workload's warm-up and first n timed requests for
// one seed. The same seed always yields byte-identical bodies, and timed
// request i does not depend on n.
func makePlan(w workload, seed int64, n int) (*plan, error) {
	p := &plan{w: w, seed: seed}
	if w.eco {
		return p, p.makeECO(n)
	}
	for j := 0; j < w.warmup; j++ {
		r, err := w.freshRequest(fmt.Sprintf("warm-%d", j), seed*seedStride+warmOffset+int64(j))
		if err != nil {
			return nil, err
		}
		p.warm = append(p.warm, r)
	}
	for i := 0; i < n; i++ {
		r, err := w.freshRequest(fmt.Sprintf("req-%d", i), seed*seedStride+int64(i))
		if err != nil {
			return nil, err
		}
		p.timed = append(p.timed, r)
	}
	return p, nil
}

// ecoBranch is the length of one what-if branch. An ECO session here is
// the signed-off base layout plus edit branches of this many steps, each
// starting again from the base. Short branches keep every request close to
// the base geometry, so the per-step cost and the quality totals do not
// drift with a seed's random walk.
const ecoBranch = 100

// makeECO builds the eco requests: the session open (the first warm-up),
// then warm-up and timed edit batches, walked branch by branch. Steps are
// numbered from 1 within a branch; every step s with s%4 == 3 is a
// move-only batch and step s+1 undoes it exactly, landing on the geometry
// of step s-1 — a result-cache hit. Every other step reaches geometry the
// session has never had, checked here by hash, so the predicted cached flag
// is exact. The base is the committed C7552 benchmark layout for every seed;
// the seed draws the edits.
func (p *plan) makeECO(n int) error {
	w := p.w
	base, err := w.generate(0)
	if err != nil {
		return err
	}
	p.ecoBase = base
	open, err := json.Marshal(decomposeBody{Name: "open", optionsJSON: w.optionsJSON(), Layout: toLayoutJSON(base)})
	if err != nil {
		return err
	}
	baseHash := service.LayoutHash(base)
	p.warm = append(p.warm, request{path: "/v1/decompose", body: open, features: len(base.Features), hash: baseHash})
	seen := map[string]bool{baseHash: true}
	var (
		cur      *layout.Layout
		curHash  string
		hashes   []string // hashes[s] is the geometry after step s of the branch
		lastMove []core.Edit
	)
	rng := rand.New(rand.NewSource(p.seed))
	for k := 0; k < w.warmup+n; k++ {
		s := k%ecoBranch + 1
		if s == 1 {
			cur, curHash, hashes = base, baseHash, []string{baseHash}
		}
		var (
			edits  []core.Edit
			next   *layout.Layout
			hash   string
			cached = s%4 == 0
		)
		if cached {
			edits = undoMoves(lastMove)
			if next, err = core.EditLayout(cur, edits); err != nil {
				return fmt.Errorf("eco step %d: %w", k, err)
			}
			hash = service.LayoutHash(next)
			if hash != hashes[s-2] {
				return fmt.Errorf("eco step %d: undo did not restore the geometry of two steps before", k)
			}
		} else {
			// Draw until the batch reaches unseen, valid geometry; the draws
			// come from the seeded rng, so retries are deterministic too.
			for {
				if s%4 == 3 {
					edits = moveBatch(rng, cur)
				} else {
					edits = mixedBatch(rng, cur)
				}
				// The server rejects edits that leave an invalid layout.
				if next, err = core.EditLayout(cur, edits); err != nil || next.Validate() != nil {
					continue
				}
				if hash = service.LayoutHash(next); !seen[hash] {
					break
				}
			}
			seen[hash] = true
			if s%4 == 3 {
				lastMove = edits
			}
		}
		body, err := json.Marshal(incrementalBody{Name: fmt.Sprintf("step-%d", k), Base: curHash,
			optionsJSON: w.optionsJSON(), Edits: toEditsJSON(edits)})
		if err != nil {
			return err
		}
		r := request{path: "/v1/decompose/incremental", body: body, features: len(next.Features),
			cached: cached, hash: hash, edits: edits, base: curHash, step: s}
		if k < w.warmup {
			p.warm = append(p.warm, r)
		} else {
			if sampled(len(p.timed), n) {
				r.keep = next
			}
			p.timed = append(p.timed, r)
		}
		hashes = append(hashes, hash)
		cur, curHash = next, hash
	}
	return nil
}

// mixedBatch draws 1–3 add/remove/move ops in the shape of cmd/evaluate's
// edit replay: nudge a feature by up to three sites, drop one, or add a
// contact inside the die.
func mixedBatch(rng *rand.Rand, l *layout.Layout) []core.Edit {
	b := l.Bounds()
	w, h := max(b.Width(), 100), max(b.Height(), 100)
	cnt := len(l.Features)
	n := 1 + rng.Intn(3)
	edits := make([]core.Edit, 0, n)
	for i := 0; i < n; i++ {
		switch rng.Intn(3) {
		case 0:
			x, y := b.X0+rng.Intn(w), b.Y0+rng.Intn(h)
			edits = append(edits, core.Edit{Op: core.EditAdd, Shape: mpl.NewPolygon(mpl.Rect{X0: x, Y0: y, X1: x + 20, Y1: y + 20})})
			cnt++
		case 1:
			edits = append(edits, core.Edit{Op: core.EditRemove, Feature: rng.Intn(cnt)})
			cnt--
		default:
			edits = append(edits, randomMove(rng, cnt))
		}
	}
	return edits
}

// moveBatch draws 1–3 moves of distinct features, so the batch always
// changes the geometry and its undo is exact.
func moveBatch(rng *rand.Rand, l *layout.Layout) []core.Edit {
	n := 1 + rng.Intn(3)
	edits := make([]core.Edit, 0, n)
	used := map[int]bool{}
	for len(edits) < n {
		e := randomMove(rng, len(l.Features))
		if used[e.Feature] {
			continue
		}
		used[e.Feature] = true
		edits = append(edits, e)
	}
	return edits
}

// randomMove translates a random feature by a non-zero multiple of 20 nm,
// at most 60 nm per axis.
func randomMove(rng *rand.Rand, features int) core.Edit {
	e := core.Edit{Op: core.EditMove, Feature: rng.Intn(features)}
	for e.DX == 0 && e.DY == 0 {
		e.DX, e.DY = (rng.Intn(7)-3)*20, (rng.Intn(7)-3)*20
	}
	return e
}

// undoMoves reverses a move-only batch.
func undoMoves(moves []core.Edit) []core.Edit {
	out := make([]core.Edit, len(moves))
	for i, m := range moves {
		out[len(moves)-1-i] = core.Edit{Op: core.EditMove, Feature: m.Feature, DX: -m.DX, DY: -m.DY}
	}
	return out
}
