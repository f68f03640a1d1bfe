package graph

import (
	"testing"

	"github.com/ignorecomply/consensus/internal/rng"
)

// TestNeighborZeroAllocs: Neighbor and RandomNeighbor run once per sample
// in the graph engine's inner loop, so every topology's lookup must be
// allocation-free.
func TestNeighborZeroAllocs(t *testing.T) {
	adj, err := newAdjacency([][]int{{1, 2}, {0, 2}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		g    Graph
	}{
		{"complete", NewComplete(64)},
		{"ring", NewRing(64)},
		{"torus", NewTorus(8, 8)},
		{"star", NewStar(64)},
		{"adjacency", adj},
	}
	r := rng.New(47)
	for _, tc := range graphs {
		t.Run(tc.name, func(t *testing.T) {
			sink := 0
			avg := testing.AllocsPerRun(100, func() {
				for u := 0; u < tc.g.N(); u++ {
					sink += tc.g.Neighbor(u%tc.g.N(), 0)
					sink += RandomNeighbor(tc.g, u%tc.g.N(), r)
				}
			})
			if avg != 0 {
				t.Errorf("%s neighbor lookups allocate %.2f times, want 0", tc.name, avg)
			}
			_ = sink
		})
	}
}
