package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strconv"
	"strings"

	"mpl/internal/core"
	"mpl/internal/layout"
	"mpl/internal/portfolio"
)

// LayoutHash returns a hex digest identifying the layout geometry: the
// process parameters and every feature's rectangles, in order. The layout
// name is deliberately excluded — it never influences a decomposition — so
// renamed copies of one layout share cache entries. Feature and rectangle
// order are preserved: reordering changes fragment indexing (and hence the
// Colors slice), so order-insensitive hashing would alias distinct results.
func LayoutHash(l *layout.Layout) string {
	h := sha256.New()
	// Every value is one little-endian int64. They go through one buffer
	// flushed in large writes: with one Write per value, call overhead
	// took longer than the hashing itself.
	var buf [4096]byte
	n := 0
	put := func(vals ...int) {
		if n+8*len(vals) > len(buf) {
			h.Write(buf[:n])
			n = 0
		}
		for _, v := range vals {
			binary.LittleEndian.PutUint64(buf[n:], uint64(int64(v)))
			n += 8
		}
	}
	put(l.Process.MinWidth, l.Process.MinSpace, l.Process.HalfPitch)
	put(len(l.Features))
	for _, f := range l.Features {
		put(len(f.Rects))
		for _, r := range f.Rects {
			put(r.X0, r.Y0, r.X1, r.Y1)
		}
	}
	h.Write(buf[:n])
	return hex.EncodeToString(h.Sum(nil))
}

// keyEnc builds the canonical option encoding of a cache key: an explicit
// field=value list, one entry per solve-affecting field. Every field is
// written through a value-typed formatter (ints, floats, bools), never
// through reflection or %#v — a %#v of a struct that later gains a pointer,
// func, or map field silently turns keys address-dependent (wrong hits
// across restarts, permanent misses within one process). The price of being
// explicit is that new Options fields must be added here consciously;
// TestOptionsKeyCoversEveryField fails until they are either encoded or
// recorded as deliberately key-neutral.
type keyEnc struct{ b strings.Builder }

func (e *keyEnc) int(name string, v int)     { e.str(name, strconv.Itoa(v)) }
func (e *keyEnc) int64(name string, v int64) { e.str(name, strconv.FormatInt(v, 10)) }
func (e *keyEnc) bool(name string, v bool)   { e.str(name, strconv.FormatBool(v)) }
func (e *keyEnc) float(name string, v float64) {
	e.str(name, strconv.FormatFloat(v, 'g', -1, 64))
}
func (e *keyEnc) str(name, v string) {
	e.b.WriteByte('|')
	e.b.WriteString(name)
	e.b.WriteByte('=')
	e.b.WriteString(v)
}

// encodeBuild writes every key-participating BuildOptions field. Workers is
// deliberately omitted: the parallel build produces an identical graph at
// any worker count.
func (e *keyEnc) encodeBuild(b core.BuildOptions) {
	e.int("b.mins", b.MinS)
	e.int("b.k", b.K)
	e.bool("b.nostitch", b.DisableStitches)
	// The stitch segment and per-feature cap are build constants now; they
	// were options whose zero value selected the same constants.
	e.b.WriteString("|b.minseg=0|b.maxstitch=0")
}

// encodeOptions writes every key-participating core.Options field. The
// caller normalizes first, so defaulted spellings encode identically; the
// Division and Build worker counts are key-neutral (deterministic results
// at any worker count) and are omitted.
func (e *keyEnc) encodeOptions(o core.Options) {
	e.int("k", o.K)
	e.int("alg", int(o.Algorithm))
	e.str("engine", o.Engine)
	// The pf.* fields hold the auto thresholds under an adaptive engine
	// and zeros under a fixed one, so durable sessions written by older
	// binaries keep their signatures; changing a threshold constant
	// re-keys every adaptive entry.
	var pf [4]int
	if o.Engine != core.EngineFixed {
		pf = [4]int{portfolio.ILPMaxN, portfolio.ILPMaxM, portfolio.BacktrackMaxN, portfolio.GreedyMaxN}
	}
	e.int("pf.ilpn", pf[0])
	e.int("pf.ilpm", pf[1])
	e.int("pf.btn", pf[2])
	e.int("pf.grn", pf[3])
	// race= held the race engine's budget. The engine is gone (a race
	// request is rejected), and the literal keeps every fixed and auto
	// signature byte-identical to those of older binaries.
	e.b.WriteString("|race=0")
	e.float("alpha", o.Alpha)
	e.float("tth", o.Threshold)
	e.int64("seed", o.Seed)
	e.int64("ilpbudget", int64(o.ILPTimeLimit))
	// Constant fields keep every signature byte-identical to those of
	// older binaries, whose durable sessions still rehydrate. The node
	// cap, SDP restarts and iterations, the GH-tree cap, the peeling
	// stitch degree and the linear engine's tuning (two copies) were
	// options whose zero value selected today's engine constants, and the
	// linear engine always ran with the run's K and α; unlike a pf.*
	// threshold, changing one of those constants re-keys nothing. Memoize
	// is a deprecated no-op that Normalize clears.
	e.b.WriteString("|btnodes=0|sdprestarts=0|sdpmaxiter=0|memo=false")
	e.encodeBuild(o.Build)
	e.int("d.k", o.Division.K)
	e.float("d.alpha", o.Division.Alpha)
	e.bool("d.nopeel", o.Division.DisablePeeling)
	e.bool("d.nobicon", o.Division.DisableBiconnected)
	e.bool("d.noght", o.Division.DisableGHTree)
	e.b.WriteString("|d.ghmaxn=0|d.maxstitchdeg=0")
	for _, prefix := range []string{"d.lin.", "lin."} {
		e.int(prefix+"k", o.K)
		e.float(prefix+"alpha", o.Alpha)
		e.str(prefix+"nofriend", "false")
		e.str(prefix+"fw", "0")
		e.str(prefix+"maxstitchdeg", "0")
		e.str(prefix+"order", "0")
	}
}

// optionsSig is the canonical encoding of every solve-affecting option —
// the options half of a resultKey, and the signature the durable session
// store (internal/store) keys sessions under. Two requests with the same
// signature are solve-equivalent: core.ApplyEdits accepts a persisted
// result recorded under one as the base for the other, because the only
// fields the signature omits are the result-neutral worker counts, which
// ApplyEdits also ignores.
func optionsSig(opts core.Options) string {
	opts = opts.Normalize()
	var e keyEnc
	e.encodeOptions(opts)
	return e.b.String()
}

// OptionsSig exposes the durable session signature to other writers of the
// session store (cmd/evaluate's durable replay): records they file under
// OptionsSig(opts) are the ones a Service configured with the same store
// will find.
func OptionsSig(opts core.Options) string { return optionsSig(opts) }

// resultKey keys the session cache, where each cached result lives with
// its session: layout geometry plus sig, the optionsSig of the request.
// optionsSig normalizes the options first, so default spellings ({} vs
// {K: 4}) share an entry, and the Division and Build worker counts never
// participate because worker count never changes the (deterministic)
// result, only how fast it arrives.
func resultKey(layoutHash, sig string) string {
	return layoutHash + sig
}

// graphKey keys the decomposition-graph cache: layout geometry plus the
// graph-construction options only, so algorithm sweeps over one layout
// (cmd/evaluate's tables) build each graph once.
func graphKey(layoutHash string, build core.BuildOptions) string {
	var e keyEnc
	e.encodeBuild(build)
	return layoutHash + "|g" + e.b.String()
}
