package service

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"mpl/internal/core"
	"mpl/internal/division"
)

// keyFields records, per option struct, every field the canonical cache-key
// encoder has consciously dealt with — either encoded (true) or deliberately
// key-neutral (false, with the reason in hash.go). When an option struct
// gains a field, TestOptionsKeyCoversEveryField fails until the field is
// added here AND to the encoder (or documented as neutral): the failure mode
// this guards against is a new field silently not participating in keys —
// wrong cache hits — or, under the old %#v scheme, a pointer/func field
// making keys address-dependent.
var keyFields = map[reflect.Type]map[string]bool{
	reflect.TypeOf(core.Options{}): {
		"K": true, "Algorithm": true, "Engine": true, "Alpha": true, "Threshold": true, "Seed": true,
		"ILPTimeLimit": true, "Build": true, "Division": true,
		// Memoize is a deprecated no-op, cleared by Normalize.
		"Memoize": false,
	},
	reflect.TypeOf(core.BuildOptions{}): {
		"MinS": true, "K": true, "DisableStitches": true,
		// Workers never changes the built graph, only wall clock.
		"Workers": false,
	},
	reflect.TypeOf(division.Options{}): {
		"K": true, "Alpha": true, "DisablePeeling": true,
		"DisableBiconnected": true, "DisableGHTree": true,
		// Workers never changes the (deterministic) coloring.
		"Workers": false,
	},
}

// TestOptionsKeyCoversEveryField walks every struct participating in cache
// keys and fails when a field exists that keyFields does not list — the
// guard that keeps resultKey/graphKey in sync with the option surface.
func TestOptionsKeyCoversEveryField(t *testing.T) {
	for typ, known := range keyFields {
		var missing, stale []string
		seen := map[string]bool{}
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Field(i).Name
			seen[name] = true
			if _, ok := known[name]; !ok {
				missing = append(missing, name)
			}
		}
		for name := range known {
			if !seen[name] {
				stale = append(stale, name)
			}
		}
		sort.Strings(missing)
		sort.Strings(stale)
		if len(missing) > 0 {
			t.Errorf("%v gained field(s) %s not consciously added to the cache key: encode them in hash.go (or record them as key-neutral) and extend keyFields",
				typ, strings.Join(missing, ", "))
		}
		if len(stale) > 0 {
			t.Errorf("%v: keyFields lists removed field(s) %s", typ, strings.Join(stale, ", "))
		}
	}
}

// TestResultKeyDistinguishesOptions: every encoded field must actually
// reach the key — flip each solve-affecting option and require a distinct
// key from the baseline.
func TestResultKeyDistinguishesOptions(t *testing.T) {
	base := core.Options{K: 4}
	variants := map[string]core.Options{
		"k":         {K: 3},
		"algorithm": {K: 4, Algorithm: core.AlgLinear},
		"engine":    {K: 4, Engine: core.EngineAuto},
		"alpha":     {K: 4, Alpha: 0.25},
		"threshold": {K: 4, Threshold: 0.5},
		"seed":      {K: 4, Seed: 9},
		"build":     {K: 4, Build: core.BuildOptions{DisableStitches: true}},
		"division":  {K: 4, Division: division.Options{DisableGHTree: true}},
	}
	bk := resultKey("lh", base)
	for name, o := range variants {
		if vk := resultKey("lh", o); vk == bk {
			t.Errorf("option %s does not reach the result key", name)
		}
	}
	// Worker counts are key-neutral by design, and so is the deprecated
	// Memoize.
	w := base
	w.Division.Workers = 8
	w.Build.Workers = 8
	if resultKey("lh", w) != bk {
		t.Error("worker counts must not affect the result key")
	}
	if resultKey("lh", core.Options{K: 4, Memoize: true}) != bk {
		t.Error("Memoize must not affect the result key")
	}
	// Default spellings share an entry through normalization.
	if resultKey("lh", core.Options{}) != bk {
		t.Error("{} and {K: 4} must normalize to one key")
	}
}

// TestOptionsSigPinned pins the durable session signatures byte for byte:
// sessions on disk are keyed by them, so any drift orphans every session
// written by an older binary. Memo-on sessions from before Memoize became
// a no-op were keyed with "memo=true" and answer 404 (clients re-send).
// The rows cover a fixed engine at both ends of the engine enum (alg=0,
// alg=3), the auto policy, whose pf.* fields carry its thresholds, and
// every option field at a non-default value. race=0 is a literal: it held
// the deleted race engine's budget, so every signature keeps its old bytes.
func TestOptionsSigPinned(t *testing.T) {
	const tail = "|alpha=0.1|tth=0.9|seed=0" +
		"|ilpbudget=60000000000|btnodes=0|sdprestarts=0|sdpmaxiter=0|memo=false" +
		"|b.mins=0|b.k=4|b.nostitch=false|b.minseg=0|b.maxstitch=0" +
		"|d.k=4|d.alpha=0.1|d.nopeel=false|d.nobicon=false|d.noght=false|d.ghmaxn=0|d.maxstitchdeg=0" +
		"|d.lin.k=4|d.lin.alpha=0.1|d.lin.nofriend=false|d.lin.fw=0|d.lin.maxstitchdeg=0|d.lin.order=0" +
		"|lin.k=4|lin.alpha=0.1|lin.nofriend=false|lin.fw=0|lin.maxstitchdeg=0|lin.order=0"
	const fixed = "|pf.ilpn=0|pf.ilpm=0|pf.btn=0|pf.grn=0|race=0"
	const adaptive = "|pf.ilpn=16|pf.ilpm=48|pf.btn=3000|pf.grn=20000"
	cases := []struct {
		opts core.Options
		want string
	}{
		{core.Options{K: 4}, "|k=4|alg=0|engine=" + fixed + tail},
		{core.Options{K: 4, Memoize: true}, "|k=4|alg=0|engine=" + fixed + tail},
		{core.Options{K: 4, Algorithm: core.AlgLinear}, "|k=4|alg=3|engine=" + fixed + tail},
		{core.Options{K: 4, Engine: core.EngineAuto}, "|k=4|alg=0|engine=auto" + adaptive + "|race=0" + tail},
		{core.Options{K: 5, Algorithm: core.AlgSDPGreedy, Alpha: 0.25, Threshold: 0.75, Seed: 7,
			ILPTimeLimit: 3 * time.Second,
			Build:        core.BuildOptions{MinS: 70, DisableStitches: true, Workers: 3},
			Division:     division.Options{DisablePeeling: true, DisableBiconnected: true, DisableGHTree: true, Workers: 3}},
			"|k=5|alg=2|engine=" + fixed + "|alpha=0.25|tth=0.75|seed=7" +
				"|ilpbudget=3000000000|btnodes=0|sdprestarts=0|sdpmaxiter=0|memo=false" +
				"|b.mins=70|b.k=5|b.nostitch=true|b.minseg=0|b.maxstitch=0" +
				"|d.k=5|d.alpha=0.25|d.nopeel=true|d.nobicon=true|d.noght=true|d.ghmaxn=0|d.maxstitchdeg=0" +
				"|d.lin.k=5|d.lin.alpha=0.25|d.lin.nofriend=false|d.lin.fw=0|d.lin.maxstitchdeg=0|d.lin.order=0" +
				"|lin.k=5|lin.alpha=0.25|lin.nofriend=false|lin.fw=0|lin.maxstitchdeg=0|lin.order=0"},
	}
	for _, c := range cases {
		if got := OptionsSig(c.opts); got != c.want {
			t.Errorf("OptionsSig(%+v) =\n%s\nwant\n%s", c.opts, got, c.want)
		}
	}
}

// TestGraphKeyDistinguishesBuildOptions mirrors the result-key check for
// the graph cache.
func TestGraphKeyDistinguishesBuildOptions(t *testing.T) {
	base := core.BuildOptions{K: 4}
	bk := graphKey("lh", base)
	variants := map[string]core.BuildOptions{
		"mins":     {K: 4, MinS: 70},
		"k":        {K: 5},
		"nostitch": {K: 4, DisableStitches: true},
	}
	for name, o := range variants {
		if vk := graphKey("lh", o); vk == bk {
			t.Errorf("build option %s does not reach the graph key", name)
		}
	}
	w := base
	w.Workers = 8
	if graphKey("lh", w) != bk {
		t.Error("build workers must not affect the graph key")
	}
	if graphKey("lh", base) == resultKey("lh", core.Options{K: 4}) {
		t.Error("graph and result keys must not collide")
	}
}
