// Package coalesce implements coalescing random walks and the
// shared-randomness duality coupling with the Voter process (Lemma 4,
// Figure 1).
//
// In the coalescing process, one walk starts on every node; walks move
// synchronously to uniformly random neighbors and merge when they meet.
// T^k_C is the first time at most k walks remain. Lemma 4 constructs, for
// any graph, a coupling through shared per-node random choices Y_t(u) under
// which T^k_V = T^k_C exactly: running the coalescence arrows forward in
// time and the Voter pulls backward over the same table yields identical
// counts. This package implements both processes over an explicit Y table
// (Table) and as standalone fresh-randomness simulations.
package coalesce

import (
	"errors"

	"github.com/ignorecomply/consensus/internal/graph"
	"github.com/ignorecomply/consensus/internal/rng"
)

// Process is a coalescing-random-walk simulation with fresh randomness.
type Process struct {
	g        graph.Graph
	occupied []int  // nodes currently holding at least one walk
	scratch  []bool // per-node occupancy scratch
}

// New returns a coalescing process with one walk on every node of g.
func New(g graph.Graph) *Process {
	n := g.N()
	p := &Process{
		g:        g,
		occupied: make([]int, n),
		scratch:  make([]bool, n),
	}
	for i := range p.occupied {
		p.occupied[i] = i
	}
	return p
}

// Walks returns the number of remaining (coalesced) walks.
func (p *Process) Walks() int { return len(p.occupied) }

// Step moves every walk to a uniformly random neighbor; walks landing on
// the same node coalesce. Walks currently on the same node move together
// (they have already coalesced), matching the per-node choices Y_t(u) of
// the duality coupling.
func (p *Process) Step(r *rng.RNG) {
	next := p.occupied[:0]
	for _, u := range p.occupied {
		v := graph.RandomNeighbor(p.g, u, r)
		if !p.scratch[v] {
			p.scratch[v] = true
			next = append(next, v)
		}
	}
	p.occupied = next
	for _, v := range p.occupied {
		p.scratch[v] = false
	}
}

// RunUntil steps until at most k walks remain, returning the number of
// steps (T^k_C). It fails if maxSteps is exhausted first.
//
//lint:testhelper T^k_C, the paper's coalescence time, which only the Eq. 18 bound test measures
func (p *Process) RunUntil(k int, r *rng.RNG, maxSteps int) (int, error) {
	if k < 1 {
		return 0, errors.New("coalesce: k must be >= 1")
	}
	steps := 0
	for p.Walks() > k {
		if steps >= maxSteps {
			return steps, errors.New("coalesce: step budget exhausted")
		}
		p.Step(r)
		steps++
	}
	return steps, nil
}
