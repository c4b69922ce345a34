// Command qpld decomposes one layout file for quadruple (or general K)
// patterning lithography and prints mask statistics, reproducing the flow
// of Fig. 2 of the DAC'14 paper.
//
// Usage:
//
//	qpld [-k 4] [-alg sdp-backtrack] [-alpha 0.1] [-verify] [-masks out.lay] input.lay
//	qpld serve [-addr :8470] [-cache 256] [-workers N] [-timeout 30s]
//
// Algorithms: ilp, sdp-backtrack, sdp-greedy, linear. The serve subcommand
// runs the HTTP JSON decomposition service (see serve.go).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"mpl"
	"mpl/internal/division"
	"mpl/internal/layout"
	"mpl/internal/viz"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("qpld: ")
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		runServe(os.Args[2:])
		return
	}
	k := flag.Int("k", 4, "number of masks (K-patterning)")
	algName := flag.String("alg", "sdp-backtrack", "color assignment algorithm: ilp, sdp-backtrack, sdp-greedy, linear")
	alpha := flag.Float64("alpha", 0.1, "stitch weight α")
	minS := flag.Int("mins", 0, "minimum coloring distance (0 = derive from process and K)")
	seed := flag.Int64("seed", 1, "random seed for the SDP solver")
	verify := flag.Bool("verify", false, "independently re-verify conflicts/stitches from geometry")
	masksOut := flag.String("masks", "", "write per-mask layouts to this file prefix (<prefix>-mask<i>.lay)")
	noStitch := flag.Bool("no-stitches", false, "disable stitch candidate generation")
	workers := flag.Int("workers", 1, "parallel component workers")
	balanceFlag := flag.Bool("balance", false, "rebalance mask density after assignment (cost-free rotations)")
	svgOut := flag.String("svg", "", "render the decomposition to this SVG file")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: qpld [flags] input.lay")
		flag.PrintDefaults()
		os.Exit(2)
	}
	alg, err := mpl.ParseAlgorithm(*algName)
	if err != nil {
		log.Fatal(err)
	}
	l, err := layout.ReadAny(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}

	res, err := mpl.Decompose(l, mpl.Options{
		K:         *k,
		Algorithm: alg,
		Alpha:     *alpha,
		Seed:      *seed,
		Build:     mpl.BuildOptions{MinS: *minS, DisableStitches: *noStitch},
		Division:  division.Options{Workers: *workers},
	})
	if err != nil {
		log.Fatal(err)
	}

	st := res.Graph.Stats
	fmt.Printf("layout      %s (%d features)\n", l.Name, st.Features)
	fmt.Printf("graph       %d fragments, %d conflict edges, %d stitch edges, %d friend edges\n",
		st.Fragments, st.ConflictEdges, st.StitchEdges, st.FriendEdges)
	fmt.Printf("division    %d components, %d peeled, %d blocks, %d GH pieces, %d solver calls\n",
		res.DivisionStats.Components, res.DivisionStats.Peeled, res.DivisionStats.Blocks,
		res.DivisionStats.GHComponents, res.DivisionStats.SolverCalls)
	fmt.Printf("assignment  %s, K=%d, alpha=%.2f\n", alg, res.K, res.Alpha)
	fmt.Printf("result      cn#=%d st#=%d assign=%.3fs (solver %.3fs) proven=%v\n",
		res.Conflicts, res.Stitches, res.AssignTime.Seconds(), res.SolverTime.Seconds(), res.Proven)
	if *balanceFlag {
		before, after := mpl.BalanceMasks(res)
		fmt.Printf("balance     density spread %.3f -> %.3f\n", before, after)
	}
	for c, m := range res.Masks() {
		fmt.Printf("mask %d      %d fragments\n", c, len(m))
	}

	if *verify {
		conf, stit, err := mpl.Verify(res)
		if err != nil {
			log.Fatal(err)
		}
		if conf != res.Conflicts || stit != res.Stitches {
			log.Fatalf("VERIFY FAILED: independent recount says cn#=%d st#=%d", conf, stit)
		}
		fmt.Println("verify      OK (independent geometric recount agrees)")
	}

	if *svgOut != "" {
		if err := viz.WriteResultFile(*svgOut, res); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote       %s\n", *svgOut)
	}

	if *masksOut != "" {
		for c, shapes := range res.Masks() {
			ml := mpl.NewLayout(fmt.Sprintf("%s-mask%d", l.Name, c))
			ml.Process = l.Process
			for _, s := range shapes {
				ml.Add(s)
			}
			path := fmt.Sprintf("%s-mask%d.lay", *masksOut, c)
			if err := ml.WriteFile(path); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote       %s\n", path)
		}
	}
}
