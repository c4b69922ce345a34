package main

import (
	"context"
	"fmt"

	"mpl/internal/core"
	"mpl/internal/layout"
)

// sampled reports whether timed request i of n is in the fixed recount
// sample: recountSample evenly spaced requests plus the last one (for eco,
// the final session state).
func sampled(i, n int) bool {
	if i == n-1 {
		return true
	}
	for j := 0; j < recountSample; j++ {
		if i == j*n/recountSample {
			return true
		}
	}
	return false
}

type failure struct {
	i   int
	msg string
}

// recount decomposes every sampled request's geometry from scratch in
// process, verifies the coloring against the geometry, and compares
// (conflicts, stitches, fragments) with what the server answered. For eco
// the from-scratch solve of a session state must equal the incremental
// answer the server built it from.
func recount(p *plan, recs []record) []failure {
	var out []failure
	opts := p.w.options()
	for i, r := range p.timed {
		if !sampled(i, len(p.timed)) || !recs[i].OK {
			continue
		}
		l := r.keep
		if l == nil {
			var err error
			if l, err = p.w.generate(r.layoutSeed); err != nil {
				out = append(out, failure{i, err.Error()})
				continue
			}
		}
		if msg := recountOne(l, opts, recs[i]); msg != "" {
			out = append(out, failure{i, msg})
		}
	}
	return out
}

func recountOne(l *layout.Layout, opts core.Options, rec record) string {
	res, err := core.DecomposeContext(context.Background(), l, opts)
	if err != nil {
		return "in-process decompose: " + err.Error()
	}
	cn, st, err := core.VerifySolution(res)
	if err != nil {
		return "in-process verify: " + err.Error()
	}
	if cn != res.Conflicts || st != res.Stitches {
		return fmt.Sprintf("in-process recount %d/%d, result says %d/%d", cn, st, res.Conflicts, res.Stitches)
	}
	if got, want := [3]int{rec.Conflicts, rec.Stitches, rec.Fragments}, [3]int{cn, st, len(res.Graph.Fragments)}; got != want {
		return fmt.Sprintf("served (conflicts, stitches, fragments) %v, from-scratch %v", got, want)
	}
	return ""
}
