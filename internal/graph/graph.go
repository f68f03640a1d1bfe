// Package graph provides the interaction topologies for the Voter /
// coalescing-random-walk duality (Lemma 4, which holds for any graph) and
// for cross-checking the complete-graph processes.
//
// The paper's consensus processes run on the complete graph with Uniform
// Pull: each sample is uniform over all n nodes (including the sampler),
// matching the Voter process function α_i = c_i/n (Eq. 1). Complete models
// exactly that. The remaining topologies exist to exercise Lemma 4 in its
// full generality.
package graph

import (
	"errors"
	"fmt"

	"github.com/ignorecomply/consensus/internal/rng"
)

// Graph is a finite graph on vertex set {0, ..., N()-1} with adjacency
// exposed positionally: Neighbor(u, i) is the i-th neighbor of u for
// 0 <= i < Degree(u). Self-loops are allowed (the complete graph with
// Uniform Pull has them by convention).
type Graph interface {
	// N returns the number of vertices.
	N() int
	// Degree returns the number of neighbor slots of u.
	Degree(u int) int
	// Neighbor returns the i-th neighbor of u.
	Neighbor(u, i int) int
}

// RandomNeighbor returns a uniformly random neighbor of u.
//
//consensus:hotpath
func RandomNeighbor(g Graph, u int, r *rng.RNG) int {
	return g.Neighbor(u, r.IntN(g.Degree(u)))
}

// Complete is the complete graph with self-loops: every vertex's neighbor
// list is all n vertices, so a uniform pull is a uniform node sample.
type Complete struct {
	n int
}

// NewComplete returns the complete graph (with self-loops) on n vertices.
func NewComplete(n int) *Complete {
	if n <= 0 {
		panic("graph: NewComplete requires n > 0")
	}
	return &Complete{n: n}
}

func (g *Complete) N() int         { return g.n }
func (g *Complete) Degree(int) int { return g.n }

//consensus:hotpath
func (g *Complete) Neighbor(_, i int) int { return i }

// Ring is the cycle graph C_n (degree 2; n must be >= 3).
type Ring struct {
	n int
}

// NewRing returns the cycle on n >= 3 vertices.
func NewRing(n int) *Ring {
	if n < 3 {
		panic("graph: NewRing requires n >= 3")
	}
	return &Ring{n: n}
}

func (g *Ring) N() int         { return g.n }
func (g *Ring) Degree(int) int { return 2 }

//consensus:hotpath
func (g *Ring) Neighbor(u, i int) int {
	if i == 0 {
		return (u + 1) % g.n
	}
	return (u - 1 + g.n) % g.n
}

// Torus is the rows x cols 2D torus (degree 4).
type Torus struct {
	rows, cols int
}

// NewTorus returns the rows x cols torus; both dimensions must be >= 3 so
// that all four neighbors are distinct.
func NewTorus(rows, cols int) *Torus {
	if rows < 3 || cols < 3 {
		panic("graph: NewTorus requires dimensions >= 3")
	}
	return &Torus{rows: rows, cols: cols}
}

func (g *Torus) N() int         { return g.rows * g.cols }
func (g *Torus) Degree(int) int { return 4 }

//consensus:hotpath
func (g *Torus) Neighbor(u, i int) int {
	r, c := u/g.cols, u%g.cols
	switch i {
	case 0:
		r = (r + 1) % g.rows
	case 1:
		r = (r - 1 + g.rows) % g.rows
	case 2:
		c = (c + 1) % g.cols
	default:
		c = (c - 1 + g.cols) % g.cols
	}
	return r*g.cols + c
}

// Star is the star graph: vertex 0 is the hub adjacent to all leaves.
type Star struct {
	n int
}

// NewStar returns the star on n >= 2 vertices with hub 0.
func NewStar(n int) *Star {
	if n < 2 {
		panic("graph: NewStar requires n >= 2")
	}
	return &Star{n: n}
}

func (g *Star) N() int { return g.n }

func (g *Star) Degree(u int) int {
	if u == 0 {
		return g.n - 1
	}
	return 1
}

//consensus:hotpath
func (g *Star) Neighbor(u, i int) int {
	if u == 0 {
		return i + 1
	}
	return 0
}

// Adjacency is an explicit adjacency-list graph.
type Adjacency struct {
	adj [][]int
}

// NewAdjacency wraps explicit adjacency lists (copied). Every vertex must
// have at least one neighbor and all indices must be in range.
func NewAdjacency(adj [][]int) (*Adjacency, error) {
	n := len(adj)
	if n == 0 {
		return nil, errors.New("graph: empty adjacency")
	}
	cp := make([][]int, n)
	for u, nb := range adj {
		if len(nb) == 0 {
			return nil, fmt.Errorf("graph: vertex %d has no neighbors", u)
		}
		cp[u] = append([]int(nil), nb...)
		for _, v := range nb {
			if v < 0 || v >= n {
				return nil, fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", u, v)
			}
		}
	}
	return &Adjacency{adj: cp}, nil
}

func (g *Adjacency) N() int           { return len(g.adj) }
func (g *Adjacency) Degree(u int) int { return len(g.adj[u]) }

//consensus:hotpath
func (g *Adjacency) Neighbor(u, i int) int { return g.adj[u][i] }

// NewRandomRegular samples a simple d-regular graph on n vertices via the
// configuration (pairing) model with rejection of self-loops and multi-edges.
// n*d must be even and d < n. Each attempt shuffles the n·d stubs and pairs
// them in order; an attempt succeeds with probability about
// exp(-(d²-1)/4), so for small d the expected number of attempts is O(1),
// and the attempt budget makes failure explicit rather than unbounded.
//
// An attempt allocates nothing: neighbours are placed into one flat n·d
// array reused across attempts, and a multi-edge is caught by scanning
// the at most d neighbours already placed for one endpoint. The returned
// graph's lists are windows of that array, in pairing order.
func NewRandomRegular(n, d int, r *rng.RNG) (*Adjacency, error) {
	if d <= 0 || d >= n {
		return nil, fmt.Errorf("graph: invalid degree %d for n = %d", d, n)
	}
	if n*d%2 != 0 {
		return nil, fmt.Errorf("graph: n*d = %d must be even", n*d)
	}
	const maxAttempts = 500
	stubs := make([]int, n*d)
	swap := func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] }
	nb := make([]int, n*d) // vertex u's neighbours fill nb[u*d : u*d+deg[u]]
	deg := make([]int, n)
	for attempt := 0; attempt < maxAttempts; attempt++ {
		for i := range stubs {
			stubs[i] = i / d
		}
		r.Shuffle(len(stubs), swap)
		clear(deg)
		if pairStubs(stubs, nb, deg, d) {
			adj := make([][]int, n)
			for u := range adj {
				adj[u] = nb[u*d : (u+1)*d : (u+1)*d]
			}
			return &Adjacency{adj: adj}, nil
		}
	}
	return nil, fmt.Errorf("graph: failed to sample a simple %d-regular graph on %d vertices", d, n)
}

// pairStubs joins consecutive stubs into edges, recording each in both
// endpoints' rows of nb, and reports false at the first self-loop or
// repeated edge.
func pairStubs(stubs, nb, deg []int, d int) bool {
	for i := 0; i < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u == v {
			return false
		}
		row := nb[u*d : u*d+deg[u]]
		for _, w := range row {
			if w == v {
				return false
			}
		}
		nb[u*d+deg[u]] = v
		deg[u]++
		nb[v*d+deg[v]] = u
		deg[v]++
	}
	return true
}

// IsConnected reports whether g is connected (BFS from vertex 0).
func IsConnected(g Graph) bool {
	n := g.N()
	if n == 0 {
		return false
	}
	visited := make([]bool, n)
	queue := []int{0}
	visited[0] = true
	count := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for i := 0; i < g.Degree(u); i++ {
			v := g.Neighbor(u, i)
			if !visited[v] {
				visited[v] = true
				count++
				queue = append(queue, v)
			}
		}
	}
	return count == n
}
