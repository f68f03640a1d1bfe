package coalesce

import (
	"fmt"
	"testing"

	"github.com/ignorecomply/consensus/internal/graph"
	"github.com/ignorecomply/consensus/internal/rng"
)

// refWalksAfter is the map-based WalksAfter the generation-stamped one
// replaced, kept as the oracle: a fresh hash set per step.
func refWalksAfter(tb *Table, T int) int {
	n := tb.g.N()
	positions := make([]int, 0, n)
	for u := 0; u < n; u++ {
		positions = append(positions, u)
	}
	for t := 0; t < T; t++ {
		seen := make(map[int]struct{}, len(positions))
		next := positions[:0]
		for _, u := range positions {
			v := tb.y[t][u]
			if _, dup := seen[v]; !dup {
				seen[v] = struct{}{}
				next = append(next, v)
			}
		}
		positions = next
	}
	return len(positions)
}

// refOpinionsAfter is the map-based count of distinct opinions after a
// horizon-T backward Voter run, kept as the oracle.
func refOpinionsAfter(tb *Table, T int) int {
	n := tb.g.N()
	opinions := make([]int, n)
	next := make([]int, n)
	for u := range opinions {
		opinions[u] = u
	}
	for tPrime := 1; tPrime <= T; tPrime++ {
		row := tb.y[T-tPrime]
		for u := 0; u < n; u++ {
			next[u] = opinions[row[u]]
		}
		opinions, next = next, opinions
	}
	distinct := make(map[int]struct{}, n)
	for _, o := range opinions {
		distinct[o] = struct{}{}
	}
	return len(distinct)
}

// e5Graphs returns E5's five topologies at (about) n nodes. Where a
// topology cannot be built at n it is left out: the ring needs n >= 3,
// the star n >= 2, E5's 8×(n/8) torus n >= 24 (it has 8·⌊n/8⌋ nodes), and
// a random 3-regular graph an even n >= 4 (an odd n uses n+1).
func e5Graphs(t *testing.T, n int, r *rng.RNG) map[string]graph.Graph {
	t.Helper()
	gs := map[string]graph.Graph{"complete": graph.NewComplete(n)}
	if n >= 2 {
		gs["star"] = graph.NewStar(n)
	}
	if n >= 3 {
		gs["ring"] = graph.NewRing(n)
	}
	if n >= 24 {
		gs["torus"] = graph.NewTorus(8, n/8)
	}
	if n >= 4 {
		m := n + n%2
		rr, err := graph.NewRandomRegular(m, 3, r)
		if err != nil {
			t.Fatalf("random-3-regular at n=%d: %v", m, err)
		}
		gs["random-3-regular"] = rr
	}
	return gs
}

// TestCurveMatchesMapReference: every point of Curve — the one-pass walk
// counts and the per-horizon backward Voter runs — equals the map-based
// references of the walk and opinion counts, on E5's topologies, at the
// smallest sizes and at sizes on both sides of a power of two, for
// horizons 0..200 and several seeds. WalksAfter agrees too.
func TestCurveMatchesMapReference(t *testing.T) {
	const horizon = 200
	for _, n := range []int{1, 2, 3, 64, 257} {
		for _, seed := range []uint64{1, 2, 3} {
			r := rng.New(seed)
			for name, g := range e5Graphs(t, n, r) {
				t.Run(fmt.Sprintf("%s/n=%d/seed=%d", name, n, seed), func(t *testing.T) {
					tb, err := NewTable(g, horizon, r)
					if err != nil {
						t.Fatal(err)
					}
					curve, err := tb.Curve(horizon)
					if err != nil {
						t.Fatal(err)
					}
					if len(curve) != horizon+1 {
						t.Fatalf("curve has %d points, want %d", len(curve), horizon+1)
					}
					for T, pt := range curve {
						w, o := refWalksAfter(tb, T), refOpinionsAfter(tb, T)
						if pt.T != T || pt.Walks != w || pt.Opinions != o {
							t.Fatalf("T=%d: curve %+v, reference walks %d opinions %d", T, pt, w, o)
						}
					}
					for _, T := range []int{0, 1, horizon / 2, horizon} {
						w, err := tb.WalksAfter(T)
						if err != nil {
							t.Fatal(err)
						}
						if w != curve[T].Walks {
							t.Fatalf("T=%d: WalksAfter %d, curve %+v", T, w, curve[T])
						}
					}
				})
			}
		}
	}
}

// TestVerifyAllocsFlatInHorizon pins Verify's allocations: a fixed number
// of buffers per call, none per step or per horizon, so a 4× longer
// horizon allocates exactly as often.
func TestVerifyAllocsFlatInHorizon(t *testing.T) {
	r := rng.New(5)
	g := graph.NewComplete(128)
	allocs := func(horizon int) float64 {
		tb, err := NewTable(g, horizon, r)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if mismatch, err := tb.Verify(horizon); err != nil || mismatch != nil {
				t.Fatalf("Verify(%d) = %v, %v", horizon, mismatch, err)
			}
		})
	}
	short, long := allocs(50), allocs(200)
	if short != long {
		t.Fatalf("Verify allocates %v times at horizon 50 but %v at 200: allocations grow with the horizon", short, long)
	}
	if long > 8 {
		t.Fatalf("Verify allocates %v times per call, want a handful of buffers", long)
	}
}
