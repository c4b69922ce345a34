// Command evaluate regenerates the experimental tables of the DAC'14 QPLD
// paper on the synthetic benchmark suite:
//
//	evaluate -k 4              # Table 1: ILP vs SDP+Backtrack vs SDP+Greedy vs Linear
//	evaluate -k 5              # Table 2: SDP+Backtrack vs SDP+Greedy vs Linear
//	evaluate -ablation division   # GH-tree / peeling / biconnected on-off sweep
//	evaluate -ablation threshold  # Algorithm 1 t_th sweep
//	evaluate -json auto           # record a BENCH_<timestamp>.json trajectory entry
//	evaluate -json auto -edits 8  # …additionally replay ECO edit batches per circuit
//	evaluate -stages              # …print per-stage wall times under each table
//
// Per circuit and algorithm it prints the conflict number (cn#), stitch
// number (st#) and color-assignment CPU seconds (the solver stage of the
// Fig. 2 flow), then the avg and ratio rows in the paper's format. ILP rows
// whose time budget expires print "N/A", mirroring the paper's ">3600s"
// entries.
//
// The -json mode runs circuits one at a time (no batch concurrency, so wall
// times are uncontended) and writes per-stage graph-construction, division
// and solver timings plus cn#/st# to a benchmark-trajectory file; see
// EXPERIMENTS.md for how the recorded series is used.
//
// The -edits replay (with -json) generates deterministic random edit
// batches per circuit and, for each batch, times the incremental
// ApplyEdits path against a full from-scratch re-decomposition of the same
// post-edit layout, failing hard if the two disagree on conflicts or
// stitches — so every recorded speedup doubles as an equivalence check.
// -laydir reads circuits from committed .lay snapshots (benchmarks/)
// instead of synthesizing them, pinning replays to the exact bytes the
// golden regression test covers. -data-dir additionally write-ahead logs
// every replayed batch to a durable session store (internal/store, the
// same layer behind `qpld serve -data-dir`), recording per-batch logging
// cost and final log size — the price of durability, measured.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mpl"
	"mpl/internal/benchrec"
	"mpl/internal/division"
	"mpl/internal/pipeline"
	"mpl/internal/report"
	"mpl/internal/service"
	"mpl/internal/store"
)

// loadLayout resolves a circuit name to a layout: synthesized at -scale by
// default, read from -laydir (committed .lay snapshots, where -scale does
// not apply) when set. main rebinds it once flags are parsed.
var loadLayout = func(name string, scale float64) (*mpl.Layout, error) {
	return mpl.GenerateBenchmark(name, scale)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("evaluate: ")
	k := flag.Int("k", 4, "number of masks: 4 reproduces Table 1, 5 reproduces Table 2")
	scale := flag.Float64("scale", 1.0, "benchmark scale factor")
	seed := flag.Int64("seed", 1, "SDP random seed")
	ilpBudget := flag.Duration("ilp-budget", 60*time.Second, "ILP time budget per circuit (paper: 3600s)")
	circuits := flag.String("circuits", "", "comma-separated circuit subset (default: the table's own list)")
	algsFlag := flag.String("algs", "", "comma-separated algorithm subset (default: the table's own list; 'none' with -engine runs only the portfolio policies)")
	workers := flag.Int("workers", 1, "parallel component workers (deterministic for any value)")
	buildWorkers := flag.Int("build-workers", 1, "parallel graph-construction workers (deterministic for any value)")
	batchWorkers := flag.Int("batch-workers", 0, "concurrent circuit solves in table mode (0 = GOMAXPROCS)")
	engine := flag.String("engine", "", "adaptive engine policy to add to the sweep: auto (portfolio per-component dispatch instead of one fixed algorithm)")
	ablation := flag.String("ablation", "", "run an ablation instead of a table: division, threshold")
	jsonOut := flag.String("json", "", "write a benchmark-trajectory JSON instead of a table: a path, or 'auto' for BENCH_<timestamp>.json")
	jsonLabel := flag.String("json-label", "trajectory", "label stored in the -json record")
	edits := flag.Int("edits", 0, "with -json: replay this many random ECO edit batches per circuit with the first -algs engine, recording incremental vs from-scratch latency")
	stages := flag.Bool("stages", false, "after each table, print per-stage wall times (simplify/partition/dispatch/stitch/merge) per circuit and engine")
	laydir := flag.String("laydir", "", "read circuits from <dir>/<name>.lay instead of synthesizing them (-scale does not apply)")
	dataDir := flag.String("data-dir", "", "with -json -edits: write-ahead log every replayed batch to this durable session store (internal/store), recording the per-batch logging cost and the log counters in the trajectory entry")
	flag.Parse()

	if *laydir != "" {
		dir := *laydir
		loadLayout = func(name string, _ float64) (*mpl.Layout, error) {
			return mpl.ReadLayout(filepath.Join(dir, name+".lay"))
		}
	}
	names := circuitList(*circuits, *k)
	specs := sweepList(*algsFlag, *engine, *k)
	if *jsonOut != "" {
		if *ablation != "" {
			log.Fatal("-json and -ablation are mutually exclusive")
		}
		if *batchWorkers > 1 {
			// Trajectory wall times must be uncontended to be comparable.
			// (-batch-workers 1 requests exactly the sequential behavior
			// -json already guarantees, so it passes.)
			log.Fatal("-json runs circuits strictly sequentially; -batch-workers > 1 does not apply")
		}
		if *dataDir != "" && *edits == 0 {
			log.Fatal("-data-dir measures the durable replay; it requires -edits")
		}
		runJSON(names, *k, *scale, *seed, *ilpBudget, specs, *workers, *buildWorkers, *edits, *jsonOut, *jsonLabel, *dataDir)
		return
	}
	if *edits > 0 {
		log.Fatal("-edits requires -json (the replay is a trajectory recording)")
	}
	if *dataDir != "" {
		log.Fatal("-data-dir requires -json -edits (the durable replay is a trajectory recording)")
	}
	switch *ablation {
	case "":
		runTable(names, *k, *scale, *seed, *ilpBudget, specs, *workers, *buildWorkers, *batchWorkers, *stages)
	case "division":
		runDivisionAblation(names, *k, *scale, *seed, *workers, *buildWorkers)
	case "threshold":
		runThresholdAblation(names, *k, *scale, *seed, *workers, *buildWorkers)
	default:
		log.Fatalf("unknown ablation %q (want division or threshold)", *ablation)
	}
}

func circuitList(flagVal string, k int) []string {
	if flagVal != "" {
		var names []string
		for _, n := range strings.Split(flagVal, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
		return names
	}
	if k >= 5 {
		return mpl.PentupleSuite()
	}
	var names []string
	for _, s := range mpl.BenchmarkSuite() {
		names = append(names, s.Name)
	}
	return names
}

// buildGraph loads one circuit and builds its decomposition graph.
func buildGraph(name string, k int, scale float64, buildWorkers int) *mpl.DecompGraph {
	l, err := loadLayout(name, scale)
	if err != nil {
		log.Fatal(err)
	}
	g, err := mpl.BuildGraph(l, mpl.BuildOptions{K: k, Workers: buildWorkers})
	if err != nil {
		log.Fatal(err)
	}
	return g
}

// algList resolves the -algs flag, defaulting to the table's own columns.
// "none" selects no fixed algorithms, for sweeps that run only the -engine
// policies.
func algList(algsFlag string, k int) []mpl.Algorithm {
	var algs []mpl.Algorithm
	switch {
	case algsFlag == "none":
		return nil
	case algsFlag != "":
		for _, a := range strings.Split(algsFlag, ",") {
			alg, err := mpl.ParseAlgorithm(strings.TrimSpace(a))
			if err != nil {
				log.Fatal(err)
			}
			algs = append(algs, alg)
		}
	case k >= 5:
		algs = []mpl.Algorithm{mpl.SDPBacktrack, mpl.SDPGreedy, mpl.Linear}
	default:
		algs = []mpl.Algorithm{mpl.ILP, mpl.SDPBacktrack, mpl.SDPGreedy, mpl.Linear}
	}
	return algs
}

// sweepSpec is one column of a table or trajectory sweep: a fixed algorithm,
// or the adaptive engine policy (portfolio auto per-component dispatch).
type sweepSpec struct {
	label  string
	alg    mpl.Algorithm // used when engine is empty
	engine string        // "auto" or empty
}

// options builds the mpl.Options for this spec with the shared sweep knobs.
func (s sweepSpec) options(k int, seed int64, ilpBudget time.Duration, workers, buildWorkers int) mpl.Options {
	return mpl.Options{
		K:            k,
		Algorithm:    s.alg,
		Engine:       s.engine,
		Seed:         seed,
		ILPTimeLimit: ilpBudget,
		Build:        mpl.BuildOptions{K: k, Workers: buildWorkers},
		Division:     division.Options{Workers: workers},
	}
}

// deterministic reports whether the spec's results are wall-clock
// independent: fixed ILP rows depend on the time budget, so they cannot
// anchor an -edits equivalence check.
func (s sweepSpec) deterministic() bool {
	return s.engine == mpl.EngineAuto || s.alg != mpl.ILP
}

// sweepList combines -algs (fixed algorithms) and -engine (the adaptive
// policy) into the sweep's column list.
func sweepList(algsFlag, engineFlag string, k int) []sweepSpec {
	var specs []sweepSpec
	for _, a := range algList(algsFlag, k) {
		specs = append(specs, sweepSpec{label: a.String(), alg: a})
	}
	if engineFlag != "" {
		eng, err := mpl.ParseEngine(engineFlag)
		if err != nil || eng == "" {
			log.Fatalf("-engine: want auto; got %q", engineFlag)
		}
		// The portfolio dispatches to SDP+Backtrack defaults for its
		// middle tier, so the classic Algorithm field stays zero-valued.
		specs = append(specs, sweepSpec{label: eng, engine: eng})
	}
	if len(specs) == 0 {
		log.Fatal("-algs none without -engine leaves nothing to run")
	}
	return specs
}

func runTable(names []string, k int, scale float64, seed int64, ilpBudget time.Duration, specs []sweepSpec, workers, buildWorkers, batchWorkers int, showStages bool) {
	cols := make([]string, len(specs))
	hasBT := false
	for i, s := range specs {
		cols[i] = s.label
		hasBT = hasBT || (s.engine == "" && s.alg == mpl.SDPBacktrack)
	}
	baseline := cols[0]
	if hasBT {
		baseline = mpl.SDPBacktrack.String()
	}
	title := fmt.Sprintf("%d-patterning layout decomposition (synthetic suite, scale %.2f, seed %d)", k, scale, seed)
	tbl := report.New(title, cols, baseline)

	// All (circuit, algorithm) pairs are service solves, and the
	// per-layout graph cache builds each decomposition graph once for the
	// whole algorithm sweep. -batch-workers workers (pipeline.Fan) take the
	// pairs in row order from one cursor, and the service's lanes bound the
	// solves to the same count. The seeded SDP and linear engines give
	// identical cn#/st# at any -batch-workers; ILP rows keep the paper's
	// caveat — the -ilp-budget wall clock decides Proven/N/A, so CPU
	// contention from concurrent circuits can flip borderline rows (run
	// -batch-workers 1 for budget-faithful ILP columns).
	if batchWorkers <= 0 {
		batchWorkers = runtime.GOMAXPROCS(0)
	}
	svc := service.New(service.Config{
		Workers:   batchWorkers,
		CacheSize: len(names) * (len(specs) + 1),
	})
	layouts := make([]*mpl.Layout, len(names))
	for i, name := range names {
		l, err := loadLayout(name, scale)
		if err != nil {
			log.Fatal(err)
		}
		layouts[i] = l
	}
	out := make([]*mpl.Result, len(names)*len(specs))
	errs := make([]error, len(out))
	var cur pipeline.Cursor
	pipeline.Fan(min(batchWorkers, len(out)), func(int) {
		for i := cur.Next(); i < len(out); i = cur.Next() {
			opts := specs[i%len(specs)].options(k, seed, ilpBudget, workers, buildWorkers)
			out[i], _, errs[i] = svc.Decompose(context.Background(), layouts[i/len(specs)], opts)
		}
	})

	for ci, name := range names {
		cells := make([]report.Cell, 0, len(specs))
		fragments := 0
		for si, s := range specs {
			res := out[ci*len(specs)+si]
			if err := errs[ci*len(specs)+si]; err != nil {
				log.Fatalf("%s/%s: %v", name, s.label, err)
			}
			fragments = len(res.Graph.Fragments)
			// CPU(s) is color-assignment (solver) time, matching the
			// paper's column; division overhead is shared by all engines.
			cell := report.Cell{Conflicts: res.Conflicts, Stitches: res.Stitches, CPU: res.SolverTime.Seconds()}
			if s.engine == "" && s.alg == mpl.ILP && !res.Proven {
				cell.NA = true
				cell.CPU = ilpBudget.Seconds()
			}
			cells = append(cells, cell)
		}
		tbl.AddRow(name, fragments, cells)
		fmt.Fprintf(os.Stderr, "done %s\n", name)
	}
	if err := tbl.Write(os.Stdout); err != nil {
		log.Fatal(err)
	}
	if showStages {
		writeStageTable(os.Stdout, names, specs, out)
	}
}

// writeStageTable prints the per-stage wall-time breakdown of a finished
// sweep: one block per engine column, one row per circuit, one column per
// solve stage (the build stage is amortized by the service's graph cache
// across the whole sweep, so it is not a per-solve number; use -json for
// per-circuit build times).
func writeStageTable(w io.Writer, names []string, specs []sweepSpec, out []*mpl.Result) {
	stageCols := []string{pipeline.StageSimplify, pipeline.StagePartition, pipeline.StageDispatch, pipeline.StageStitch, pipeline.StageMerge}
	for si, s := range specs {
		fmt.Fprintf(w, "\nstage timings (ms, %s):\n%-10s", s.label, "circuit")
		for _, sc := range stageCols {
			fmt.Fprintf(w, " %10s", sc)
		}
		fmt.Fprintf(w, " %8s %8s %8s", "sh-hit", "sh-miss", "sh-dist")
		// Dispatch-imbalance gauge: workers that processed ≥1 component and
		// the busiest/idlest worker's busy wall (ms). A busy-max far above
		// busy-min means a straggler held the dispatch stage hostage.
		fmt.Fprintf(w, " %6s %9s %9s\n", "disp-w", "busy-max", "busy-min")
		for ci, name := range names {
			r := out[ci*len(specs)+si]
			ms := benchrec.StageMsOf(r.DivisionStats.Stages)
			fmt.Fprintf(w, "%-10s", name)
			for _, sc := range stageCols {
				fmt.Fprintf(w, " %10.3f", ms[sc])
			}
			sh := r.DivisionStats.Shapes
			fmt.Fprintf(w, " %8d %8d %8d", sh.Hits, sh.Misses, sh.Distinct)
			bal := r.DivisionStats.Balance
			fmt.Fprintf(w, " %6d %9.3f %9.3f\n",
				bal.Workers, benchrec.Ms(bal.MaxBusy), benchrec.Ms(bal.MinBusy))
		}
	}
}

// runDivisionAblation compares SDP+Backtrack with each division technique
// disabled in turn (the DESIGN.md §4 ablation).
func runDivisionAblation(names []string, k int, scale float64, seed int64, workers, buildWorkers int) {
	configs := []struct {
		name string
		opt  division.Options
	}{
		{"all-on", division.Options{}},
		{"no-peel", division.Options{DisablePeeling: true}},
		{"no-bicon", division.Options{DisableBiconnected: true}},
		{"no-ghtree", division.Options{DisableGHTree: true}},
	}
	cols := make([]string, len(configs))
	for i, c := range configs {
		cols[i] = c.name
	}
	title := fmt.Sprintf("division ablation, SDP+Backtrack, K=%d, scale %.2f", k, scale)
	tbl := report.New(title, cols, "all-on")
	for _, name := range names {
		g := buildGraph(name, k, scale, buildWorkers)
		cells := make([]report.Cell, 0, len(configs))
		for _, c := range configs {
			opt := c.opt
			opt.Workers = workers
			res, err := mpl.DecomposeGraph(g, mpl.Options{
				K: k, Algorithm: mpl.SDPBacktrack, Seed: seed, Division: opt,
			})
			if err != nil {
				log.Fatal(err)
			}
			// For division ablations the relevant cost is the whole
			// pipeline (division + assignment), not just the solver.
			cells = append(cells, report.Cell{
				Conflicts: res.Conflicts, Stitches: res.Stitches, CPU: res.AssignTime.Seconds(),
			})
		}
		tbl.AddRow(name, len(g.Fragments), cells)
	}
	if err := tbl.Write(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// runJSON records one benchmark-trajectory entry (internal/benchrec): per
// circuit, a timed graph build plus every requested engine, run strictly
// sequentially so wall times do not contend with each other. With edits > 0
// each circuit additionally replays that many ECO batches (first engine);
// with dataDir also set, every batch is write-ahead logged to a durable
// session store the way `qpld serve -data-dir` would log it, so the entry
// records what durability costs per batch and what the log grew to.
func runJSON(names []string, k int, scale float64, seed int64, ilpBudget time.Duration, specs []sweepSpec, workers, buildWorkers, edits int, outPath, label, dataDir string) {
	start := time.Now()
	if outPath == "auto" {
		outPath = benchrec.DefaultFilename(start)
	}
	if edits > 0 && !specs[0].deterministic() {
		log.Fatal("-edits replay needs a deterministic engine first in the sweep (its equivalence check cannot cover the wall-clock-budgeted ILP)")
	}
	var st *store.Store
	if dataDir != "" {
		// Production fsync discipline: the recorded per-batch cost must be
		// the one a durable server pays, not a no-sync approximation.
		var err error
		st, err = store.Open(dataDir, store.Options{})
		if err != nil {
			log.Fatal(err)
		}
		defer st.Close()
	}
	run := &benchrec.Run{
		Timestamp:    start.UTC().Format(time.RFC3339),
		Label:        label,
		GoVersion:    runtime.Version(),
		NumCPU:       runtime.NumCPU(),
		Maxprocs:     runtime.GOMAXPROCS(0),
		K:            k,
		Scale:        scale,
		Seed:         seed,
		BuildWorkers: buildWorkers,
		DivWorkers:   workers,
		ILPBudgetMs:  float64(ilpBudget.Milliseconds()),
	}
	for _, name := range names {
		l, err := loadLayout(name, scale)
		if err != nil {
			log.Fatal(err)
		}
		g, err := mpl.BuildGraph(l, mpl.BuildOptions{K: k, Workers: buildWorkers})
		if err != nil {
			log.Fatal(err)
		}
		c := benchrec.CircuitOf(name, g.Stats)
		var first *mpl.Result
		for _, s := range specs {
			o := s.options(k, seed, ilpBudget, workers, buildWorkers)
			o.Build = mpl.BuildOptions{} // graph already built above
			res, err := mpl.DecomposeGraph(g, o)
			if err != nil {
				log.Fatalf("%s/%s: %v", name, s.label, err)
			}
			if first == nil {
				first = res
			}
			c.Algorithms = append(c.Algorithms, benchrec.AlgorithmRunOf(s.label, res))
		}
		if edits > 0 {
			opts := specs[0].options(k, seed, ilpBudget, workers, buildWorkers)
			er, err := runEditReplay(name, l, first, opts, specs[0].label, edits, st)
			if err != nil {
				log.Fatal(err)
			}
			c.EditReplay = er
			fmt.Fprintf(os.Stderr, "  edits %s: %d batches, incremental %.2fms vs full %.2fms (%.1f×)\n",
				name, len(er.Batches), er.MeanIncrementalMs, er.MeanFullMs, er.Speedup)
		}
		run.Circuits = append(run.Circuits, c)
		fmt.Fprintf(os.Stderr, "done %s (build %.1fms, %d fragments)\n", name, c.BuildMs, c.Fragments)
	}
	if st != nil {
		run.Store = benchrec.StoreStatsOf(st.StatsSnapshot())
		fmt.Fprintf(os.Stderr, "durable log: %d sessions, %d records, %d bytes\n",
			run.Store.LiveSessions, run.Store.WALRecords, run.Store.WALBytes)
	}
	if err := run.WriteFile(outPath); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d circuits, %d engines, total %.1fs)\n",
		outPath, len(run.Circuits), len(specs), time.Since(start).Seconds())
}

// runEditReplay chains deterministic random edit batches over one circuit,
// timing the incremental ApplyEdits path against a full from-scratch
// re-decomposition of the identical post-edit layout, and fails hard if the
// two disagree — the recorded speedups double as equivalence evidence. With
// st non-nil every batch is additionally write-ahead logged under the same
// (options signature, layout hash) keys `qpld serve -data-dir` uses, and
// the logging wall time lands in the batch record.
func runEditReplay(name string, l *mpl.Layout, start *mpl.Result, opts mpl.Options, label string, batches int, st *store.Store) (*benchrec.EditReplay, error) {
	er := &benchrec.EditReplay{Algorithm: label}
	rng := rand.New(rand.NewSource(int64(len(name)*7919) + int64(name[0])))
	sig := service.OptionsSig(opts)
	curL, curRes := l, start
	for b := 0; b < batches; b++ {
		edits := replayBatch(rng, curL)
		t0 := time.Now()
		newL, incRes, es, err := mpl.ApplyEdits(curL, curRes, edits, opts)
		incMs := benchrec.Ms(time.Since(t0))
		if err != nil {
			return nil, fmt.Errorf("%s batch %d: %w", name, b, err)
		}
		var durableMs float64
		if st != nil {
			t := time.Now()
			if err := logReplayBatch(st, sig, curL, curRes, newL, incRes, edits); err != nil {
				return nil, fmt.Errorf("%s batch %d (durable log): %w", name, b, err)
			}
			durableMs = benchrec.Ms(time.Since(t))
		}
		t1 := time.Now()
		fullRes, err := mpl.Decompose(newL, opts)
		fullMs := benchrec.Ms(time.Since(t1))
		if err != nil {
			return nil, fmt.Errorf("%s batch %d (from scratch): %w", name, b, err)
		}
		if opts.Engine == mpl.EngineAuto && (!incRes.Proven || !fullRes.Proven) {
			// Auto is only deterministic while its ILP tier stays inside the
			// wall-clock budget; a truncated run would turn the equivalence
			// check into a coin flip, so fail it with the actual cause.
			return nil, fmt.Errorf("%s batch %d: the auto replay hit the ILP budget (unproven result); raise -ilp-budget so the equivalence check stays meaningful", name, b)
		}
		if incRes.Conflicts != fullRes.Conflicts || incRes.Stitches != fullRes.Stitches {
			return nil, fmt.Errorf("%s batch %d: EQUIVALENCE VIOLATION — incremental %d/%d, from-scratch %d/%d",
				name, b, incRes.Conflicts, incRes.Stitches, fullRes.Conflicts, fullRes.Stitches)
		}
		er.Batches = append(er.Batches, benchrec.EditBatch{
			Ops:                len(edits),
			IncrementalMs:      incMs,
			FullMs:             fullMs,
			RebuiltFragments:   es.RebuiltFragments,
			ResolvedComponents: es.ResolvedComponents,
			CopiedComponents:   es.CopiedComponents,
			DurableMs:          durableMs,
		})
		curL, curRes = newL, incRes
	}
	er.Summarize()
	if st != nil {
		// The chain must actually be replayable — a log that recorded every
		// batch but cannot produce the final session measured nothing.
		ch, err := st.Lookup(sig, service.LayoutHash(curL))
		if err != nil || ch == nil {
			return nil, fmt.Errorf("%s: final session not replayable from the durable log (%v)", name, err)
		}
	}
	return er, nil
}

// logReplayBatch persists one replayed batch with the write-ahead
// discipline internal/service uses: root the base with a snapshot if the
// log has never seen it, append the edit record, and re-root with a
// successor snapshot when the chain's replay depth hits the snapshot
// policy.
func logReplayBatch(st *store.Store, sig string, baseL *mpl.Layout, baseRes *mpl.Result, newL *mpl.Layout, newRes *mpl.Result, edits []mpl.Edit) error {
	snap := func(l *mpl.Layout, r *mpl.Result) *store.Snapshot {
		return &store.Snapshot{Layout: l, Colors: r.Colors, Conflicts: r.Conflicts, Stitches: r.Stitches, Proven: r.Proven}
	}
	baseHash, newHash := service.LayoutHash(baseL), service.LayoutHash(newL)
	if !st.Has(sig, baseHash) {
		if err := st.AppendSnapshot(sig, baseHash, snap(baseL, baseRes)); err != nil {
			return err
		}
	}
	needSnapshot, err := st.AppendEdits(sig, baseHash, newHash, edits)
	if err != nil {
		return err
	}
	if needSnapshot {
		return st.AppendSnapshot(sig, newHash, snap(newL, newRes))
	}
	return nil
}

// replayBatch generates 1–3 ECO-shaped ops: nudge a feature by up to a site
// pitch, drop one, or add a contact inside the die.
func replayBatch(rng *rand.Rand, l *mpl.Layout) []mpl.Edit {
	b := l.Bounds()
	w, h := b.Width(), b.Height()
	if w < 100 {
		w = 100
	}
	if h < 100 {
		h = 100
	}
	cnt := len(l.Features)
	n := 1 + rng.Intn(3)
	var edits []mpl.Edit
	for i := 0; i < n; i++ {
		op := rng.Intn(3)
		if cnt == 0 {
			op = 0
		}
		switch op {
		case 0:
			x, y := b.X0+rng.Intn(w), b.Y0+rng.Intn(h)
			edits = append(edits, mpl.Edit{Op: mpl.EditAdd, Shape: mpl.NewPolygon(mpl.Rect{X0: x, Y0: y, X1: x + 20, Y1: y + 20})})
			cnt++
		case 1:
			edits = append(edits, mpl.Edit{Op: mpl.EditRemove, Feature: rng.Intn(cnt)})
			cnt--
		default:
			edits = append(edits, mpl.Edit{
				Op: mpl.EditMove, Feature: rng.Intn(cnt),
				DX: (rng.Intn(7) - 3) * 20, DY: (rng.Intn(7) - 3) * 20,
			})
		}
	}
	return edits
}

// runThresholdAblation sweeps Algorithm 1's merge threshold t_th.
func runThresholdAblation(names []string, k int, scale float64, seed int64, workers, buildWorkers int) {
	ths := []float64{0.7, 0.8, 0.9, 0.99}
	cols := make([]string, len(ths))
	for i, t := range ths {
		cols[i] = fmt.Sprintf("tth=%.2f", t)
	}
	title := fmt.Sprintf("t_th ablation, SDP+Backtrack, K=%d, scale %.2f", k, scale)
	tbl := report.New(title, cols, "tth=0.90")
	for _, name := range names {
		g := buildGraph(name, k, scale, buildWorkers)
		cells := make([]report.Cell, 0, len(ths))
		for _, th := range ths {
			res, err := mpl.DecomposeGraph(g, mpl.Options{
				K: k, Algorithm: mpl.SDPBacktrack, Seed: seed, Threshold: th,
				Division: division.Options{Workers: workers},
			})
			if err != nil {
				log.Fatal(err)
			}
			cells = append(cells, report.Cell{
				Conflicts: res.Conflicts, Stitches: res.Stitches, CPU: res.SolverTime.Seconds(),
			})
		}
		tbl.AddRow(name, len(g.Fragments), cells)
	}
	if err := tbl.Write(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
