// Package pipeline holds the machinery the solve flow shares across
// layers. The DAC'14 flow (Fig. 2) is one conceptual pipeline —
//
//	Build → Simplify → Partition → Dispatch → Stitch → Merge
//
// — and both solve paths in this repository (from-scratch decomposition
// and incremental ECO re-decomposition) run these six stages over
// different inputs: the incremental path substitutes a dirty-region Build
// and Partition, nothing more (DESIGN.md §9). The package provides:
//
//   - the canonical stage names and StageStats, the per-stage wall-time
//     tally. Each stage is timed once, where it runs, into
//     division.Stats.Stages: internal/division times the regions it
//     interleaves per component, internal/core adds build (the builder's
//     own clock) and merge around it, and division.Stats.Add is the one
//     fold rule for every Stages map;
//   - Env and Budget, the scratch pool and shared parallelism budget one
//     run threads from core through division into the engines;
//   - Scratch / ScratchPool, sync.Pool-backed per-worker arenas for the
//     hot-path buffers that used to be re-allocated on every solve
//     (per-component color slices, SDP matrix workspace, spatial visit
//     stamps), so repeated service requests stop paying allocation and GC
//     cost for memory whose size is stable across requests.
//
// The package deliberately knows nothing about graphs, layouts or engines:
// scratch buffers are plain slices, and the consumers (internal/division,
// internal/core, internal/sdp) decide what lives in them.
package pipeline

import "time"

// Canonical stage names, in flow order. Every telemetry consumer — the
// division pipeline, /v1/stats, cmd/evaluate's stage columns, the BENCH
// trajectory — uses exactly these strings, so timings from different
// layers merge into one histogram.
const (
	// StageBuild is decomposition-graph construction: from-scratch
	// (core.BuildGraph) or the dirty-region incremental rebuild
	// (core.ApplyEdits).
	StageBuild = "build"
	// StageSimplify is low-degree vertex peeling — removing vertices that
	// can always be re-colored legally afterwards.
	StageSimplify = "simplify"
	// StagePartition is structural splitting: connected components,
	// biconnected blocks, GH-tree (K−1)-cut pieces, and — on the
	// incremental path — the dirty/copy-safe component diff.
	StagePartition = "partition"
	// StageDispatch is per-piece color assignment: engine selection
	// (fixed or auto) plus the engine solve itself.
	StageDispatch = "dispatch"
	// StageStitch is reassembly: block rotations at articulation vertices,
	// GH cut-edge rotations, and peel-stack pops.
	StageStitch = "stitch"
	// StageMerge is final assembly: validating the full coloring, counting
	// the objective (or applying incremental deltas), and building the
	// Result.
	StageMerge = "merge"
)

// StageNames lists the canonical stages in flow order (report columns).
var StageNames = []string{StageBuild, StageSimplify, StagePartition, StageDispatch, StageStitch, StageMerge}

// StageStats is the accumulated telemetry of one named stage.
type StageStats struct {
	// Wall is total wall-clock time inside the stage. Stages that run on
	// several division workers sum across goroutines (CPU time, not
	// elapsed time), matching how Result.SolverTime is reported.
	Wall time.Duration
	// Calls counts how many timed regions were folded into this bucket
	// (per-piece dispatch regions make this the piece count).
	Calls int
}
