// Command benchgen generates the synthetic ISCAS-style benchmark layouts
// used to reproduce Tables 1 and 2 of the DAC'14 QPLD paper, writing one
// .lay file per circuit.
//
// Usage:
//
//	benchgen [-scale 1.0] [-seed 0] [-workers N] [-out dir] [-circuits C432,S38417]
//	benchgen -series 64k,256k,512k,1m [-series-base S38417] [-out dir]
//
// Generation is fully deterministic: for a fixed -scale and -seed the
// emitted files are byte-identical across runs and across any -workers
// value (TestBenchgenDeterministic pins this), and -seed 0 reproduces the
// committed benchmarks/*.lay bytes exactly. Non-zero seeds generate layout
// variants of each circuit (load testing, fuzz corpora) by mixing the seed
// into the circuit's name-derived base seed.
//
// -series emits a feature-count scale series of one circuit instead of the
// suite: each comma-separated target ("64k", "256k", "1m", or a plain
// number) becomes one <base>_<target>.lay whose scale factor is calibrated
// so the generated feature count lands near the target. The series feeds
// the million-feature build/solve scaling runs (cmd/evaluate -laydir) that
// EXPERIMENTS.md tracks; the files are generate-on-demand and never
// committed.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"mpl"
	"mpl/internal/pipeline"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchgen: ")
	scale := flag.Float64("scale", 1.0, "layout scale factor (1.0 = nominal size)")
	seed := flag.Int64("seed", 0, "extra generation seed (0 = the committed baseline bytes)")
	out := flag.String("out", "benchmarks", "output directory")
	circuits := flag.String("circuits", "", "comma-separated circuit names (default: all of Table 1)")
	binaryOut := flag.Bool("binary", false, "write the compact binary format (.layb) instead of text")
	workers := flag.Int("workers", 1, "circuits generated concurrently (output is identical at any value)")
	series := flag.String("series", "", "comma-separated feature-count targets (64k,256k,1m): emit a scale series of -series-base instead of the suite")
	seriesBase := flag.String("series-base", "S38417", "circuit the -series scale steps are derived from")
	flag.Parse()

	if *series != "" {
		if *circuits != "" {
			log.Fatal("-series and -circuits are mutually exclusive")
		}
		if err := runSeries(*seriesBase, *series, *seed, *out, *binaryOut, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}

	names := make([]string, 0, 15)
	if *circuits == "" {
		for _, s := range mpl.BenchmarkSuite() {
			names = append(names, s.Name)
		}
	} else {
		for _, n := range strings.Split(*circuits, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}
	if err := run(names, *scale, *seed, *workers, *out, *binaryOut, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run generates every named circuit into outDir, fanning the work across
// at most workers goroutines (pipeline.Fan). Each circuit's bytes depend
// only on (name, scale, seed) — never on scheduling — and status lines are
// collected and printed in input order, so the whole command is
// deterministic at any worker count. The first error wins; remaining work
// still drains.
func run(names []string, scale float64, seed int64, workers int, outDir string, binary bool, w io.Writer) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	type status struct {
		line string
		err  error
	}
	results := make([]status, len(names))
	var cur pipeline.Cursor
	pipeline.Fan(min(workers, len(names)), func(int) {
		for i := cur.Next(); i < len(names); i = cur.Next() {
			line, err := generateOne(names[i], scale, seed, outDir, binary)
			results[i] = status{line: line, err: err}
		}
	})

	for _, r := range results {
		if r.err != nil {
			return r.err
		}
		fmt.Fprint(w, r.line)
	}
	return nil
}

// runSeries emits one layout per feature-count target, scaling base so the
// generated feature count lands near each target. The calibration generates
// base once at scale 1 to measure its nominal feature count (feature counts
// grow linearly in scale), so the series needs no hard-coded per-circuit
// constants. Targets run sequentially in input order: series sizes are
// wildly uneven, so circuit-level parallelism buys nothing here, and the
// output bytes depend only on (base, target, seed) either way.
func runSeries(base, targets string, seed int64, outDir string, binary bool, w io.Writer) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	nominal, err := mpl.GenerateBenchmarkSeeded(base, 1.0, seed)
	if err != nil {
		return err
	}
	if len(nominal.Features) == 0 {
		return fmt.Errorf("series base %s has no features", base)
	}
	for _, tok := range strings.Split(targets, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		target, err := parseTarget(tok)
		if err != nil {
			return err
		}
		scale := float64(target) / float64(len(nominal.Features))
		name := fmt.Sprintf("%s_%s", base, tok)
		l, err := mpl.GenerateBenchmarkSeeded(base, scale, seed)
		if err != nil {
			return err
		}
		path := filepath.Join(outDir, name+".lay")
		write := l.WriteFile
		if binary {
			path = filepath.Join(outDir, name+".layb")
			write = l.WriteBinaryFile
		}
		if err := write(path); err != nil {
			return err
		}
		fmt.Fprintf(w, "%-14s %8d features (target %8d, scale %.3f) -> %s\n",
			name, len(l.Features), target, scale, path)
	}
	return nil
}

// parseTarget reads a feature-count target: a plain integer, or one with a
// k (thousand) or m (million) suffix, case-insensitive.
func parseTarget(s string) (int, error) {
	mult := 1
	switch {
	case strings.HasSuffix(s, "k"), strings.HasSuffix(s, "K"):
		mult, s = 1_000, s[:len(s)-1]
	case strings.HasSuffix(s, "m"), strings.HasSuffix(s, "M"):
		mult, s = 1_000_000, s[:len(s)-1]
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("bad series target %q (want e.g. 64k, 256k, 1m)", s)
	}
	return n * mult, nil
}

func generateOne(name string, scale float64, seed int64, outDir string, binary bool) (string, error) {
	l, err := mpl.GenerateBenchmarkSeeded(name, scale, seed)
	if err != nil {
		return "", err
	}
	path := filepath.Join(outDir, name+".lay")
	write := l.WriteFile
	if binary {
		path = filepath.Join(outDir, name+".layb")
		write = l.WriteBinaryFile
	}
	if err := write(path); err != nil {
		return "", err
	}
	return fmt.Sprintf("%-8s %7d features -> %s\n", name, len(l.Features), path), nil
}
