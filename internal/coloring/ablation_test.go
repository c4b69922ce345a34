package coloring

import (
	"math/rand"
	"testing"

	"mpl/internal/graph"
)

// denseGraph builds a random dense component with friend edges, the regime
// where ordering and color-friendly rules matter.
func denseGraph(rng *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder(n)
	conflict := map[[2]int]bool{}
	for i := 0; i < 3*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddConflict(u, v)
			conflict[[2]int{min(u, v), max(u, v)}] = true
		}
	}
	for i := 0; i < n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !conflict[[2]int{min(u, v), max(u, v)}] {
			b.AddFriend(u, v)
		}
	}
	return b.Build(nil)
}

// TestAblationPeerSelection: peer selection (OrderAuto) must never do worse
// than the worst single order, and on aggregate must match or beat the best
// single order (it picks the best of the three before refinement, and
// refinement is monotone).
func TestAblationPeerSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	singles := []Order{OrderSequence, OrderDegree, OrderThreeRound}
	var autoTotal int
	bestSingleTotal := make(map[Order]int)
	for trial := 0; trial < 40; trial++ {
		g := denseGraph(rng, 12+rng.Intn(20))
		auto := Linear(g, LinearOptions{K: 4, Alpha: 0.1})
		ca, _ := Count(g, auto)
		autoTotal += ca
		worst := -1
		for _, ord := range singles {
			colors := Linear(g, LinearOptions{K: 4, Alpha: 0.1, Order: ord})
			c, _ := Count(g, colors)
			bestSingleTotal[ord] += c
			if c > worst {
				worst = c
			}
		}
		if ca > worst {
			t.Fatalf("trial %d: peer selection (%d conflicts) worse than the worst single order (%d)",
				trial, ca, worst)
		}
	}
	for _, ord := range singles {
		if autoTotal > bestSingleTotal[ord] {
			t.Errorf("aggregate: peer selection %d conflicts > %v alone %d",
				autoTotal, ord, bestSingleTotal[ord])
		}
	}
}

// TestAblationColorFriendly: with color-friendly hints enabled the
// aggregate conflict count over friend-rich graphs must not exceed the
// disabled variant (Definition 2's empirical rule).
func TestAblationColorFriendly(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	withTotal, withoutTotal := 0, 0
	for trial := 0; trial < 60; trial++ {
		g := denseGraph(rng, 10+rng.Intn(16))
		on := Linear(g, LinearOptions{K: 4, Alpha: 0.1})
		off := Linear(g, LinearOptions{K: 4, Alpha: 0.1, DisableColorFriendly: true})
		cOn, _ := Count(g, on)
		cOff, _ := Count(g, off)
		withTotal += cOn
		withoutTotal += cOff
	}
	if withTotal > withoutTotal+3 {
		t.Fatalf("color-friendly rules hurt overall: %d conflicts with vs %d without",
			withTotal, withoutTotal)
	}
	t.Logf("conflicts with friends: %d, without: %d", withTotal, withoutTotal)
}

func TestOrderString(t *testing.T) {
	for o, want := range map[Order]string{
		OrderAuto: "peer-selection", OrderSequence: "sequence",
		OrderDegree: "degree", OrderThreeRound: "3round", Order(9): "unknown",
	} {
		if o.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(o), o.String(), want)
		}
	}
}

// TestForcedOrdersValid: every forced order yields a complete valid coloring.
func TestForcedOrdersValid(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	g := denseGraph(rng, 30)
	for _, ord := range []Order{OrderSequence, OrderDegree, OrderThreeRound} {
		colors := Linear(g, LinearOptions{K: 4, Alpha: 0.1, Order: ord})
		if err := Validate(g, colors, 4); err != nil {
			t.Fatalf("%v: %v", ord, err)
		}
	}
}
