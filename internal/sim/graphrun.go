package sim

import (
	"errors"
	"fmt"

	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/core"
	"github.com/ignorecomply/consensus/internal/graph"
	"github.com/ignorecomply/consensus/internal/rng"
)

// graphState mirrors agentsState for the graph engine: the only difference
// is the sampling step — uniform neighbors on g instead of uniform nodes —
// so the round snapshot is the previous node-state array itself rather than
// an alias table over the counts.
type graphState struct {
	c     *config.Config
	g     graph.Graph
	nodes []int
	next  []int
	h     int // samples per node

	// regularDeg is the common vertex degree when g is regular, else 0.
	// On a regular topology neighbor indices for a whole chunk of nodes
	// are one batched uniform fill (rng.FillIntN); irregular graphs fall
	// back to one draw per sample.
	regularDeg int

	// Sequential path (p == 1).
	rule  core.NodeRule
	r     *rng.RNG
	buf   []int // sampleChunk·h strided sample buffer
	tally []int

	// Sharded path (p > 1).
	pool *shardPool
}

func newGraphState(rule core.NodeRule, factory core.Factory, g graph.Graph, c *config.Config, nodes []int, r *rng.RNG, o options) (*graphState, error) {
	st := &graphState{
		c:          c,
		g:          g,
		nodes:      nodes,
		next:       make([]int, len(nodes)),
		h:          rule.Samples(),
		regularDeg: regularDegree(g),
		rule:       rule,
		r:          r,
	}
	p := o.shardCount(len(nodes), factory)
	if p == 1 {
		st.buf = make([]int, sampleChunk*st.h)
		return st, nil
	}

	su, err := newShardSetup(rule, factory, p, o.engine, r)
	if err != nil {
		return nil, err
	}
	st.pool = newShardPool(len(nodes), p, func(s, lo, hi int, tally []int) {
		graphShardRound(st, su.rules[s], su.streams[s], su.bufs[s], lo, hi, tally)
	})
	return st, nil
}

// regularDegree returns the common degree of g when every vertex has the
// same one (complete, ring, torus, random-regular), and 0 otherwise. One
// O(n) scan at engine construction buys the batched fill on every round.
func regularDegree(g graph.Graph) int {
	d := g.Degree(0)
	for u := 1; u < g.N(); u++ {
		if g.Degree(u) != d {
			return 0
		}
	}
	return d
}

// graphShardRound runs one round over the vertex range [lo, hi), tallying
// next-state counts in the same pass. On a regular topology the neighbor
// indices for a chunk of nodes come from one batched uniform fill, then
// are resolved index → neighbor → color in place.
//
//consensus:hotpath
func graphShardRound(st *graphState, rule core.NodeRule, r *rng.RNG, buf []int, lo, hi int, tally []int) {
	h := st.h
	for base := lo; base < hi; base += sampleChunk {
		end := base + sampleChunk
		if end > hi {
			end = hi
		}
		chunk := buf[:(end-base)*h]
		if st.regularDeg > 0 {
			r.FillIntN(st.regularDeg, chunk)
			for i := base; i < end; i++ {
				samples := chunk[(i-base)*h : (i-base+1)*h]
				for j, idx := range samples {
					samples[j] = st.nodes[st.g.Neighbor(i, idx)]
				}
				nxt := rule.Update(st.nodes[i], samples, r)
				st.next[i] = nxt
				tally[nxt]++
			}
			continue
		}
		for i := base; i < end; i++ {
			samples := chunk[(i-base)*h : (i-base+1)*h]
			for j := range samples {
				samples[j] = st.nodes[graph.RandomNeighbor(st.g, i, r)]
			}
			nxt := rule.Update(st.nodes[i], samples, r)
			st.next[i] = nxt
			tally[nxt]++
		}
	}
}

//consensus:hotpath
func (st *graphState) step(int) {
	counts := st.c.CountsView()
	if st.pool == nil {
		st.tally = resizeInts(st.tally, len(counts))
		clear(st.tally)
		graphShardRound(st, st.rule, st.r, st.buf, 0, len(st.nodes), st.tally)
		st.nodes, st.next = st.next, st.nodes
		copy(counts, st.tally)
		return
	}
	st.pool.step(len(counts))
	st.nodes, st.next = st.next, st.nodes
	st.pool.merge(counts)
}

func (st *graphState) close() {
	if st.pool != nil {
		st.pool.close()
	}
}

func runGraph(rule core.NodeRule, factory core.Factory, g graph.Graph, colors []int, r *rng.RNG, o options) (*Result, error) {
	if o.behaviors != nil {
		return nil, errors.New("sim: node behaviors need the agents engine")
	}
	if len(colors) != g.N() {
		return nil, fmt.Errorf("sim: %d colors for %d vertices", len(colors), g.N())
	}
	c, err := config.FromNodes(colors)
	if err != nil {
		return nil, fmt.Errorf("sim: invalid colors: %w", err)
	}
	// Map vertex -> slot using the first-appearance order of FromNodes.
	slotOf := make(map[int]int, c.Slots())
	for s := 0; s < c.Slots(); s++ {
		slotOf[c.Label(s)] = s
	}
	nodes := make([]int, len(colors))
	for u, col := range colors {
		nodes[u] = slotOf[col]
	}

	st, err := newGraphState(rule, factory, g, c, nodes, r, o)
	if err != nil {
		return nil, err
	}
	defer st.close()
	return runLoop(c, r, o, func(round int) int {
		st.step(round)
		return 1
	}, func() *config.Config { return c }, func() []int { return st.nodes })
}

// graphStartColors expands a configuration into per-vertex colors in slot
// order: the first Count(0) vertices get Label(0), and so on. On a
// complete graph placement is irrelevant; on a structured topology this is
// the natural "contiguous blocks" start.
func graphStartColors(start *config.Config) []int {
	out := make([]int, 0, start.N())
	for s := 0; s < start.Slots(); s++ {
		label := start.Label(s)
		for i := 0; i < start.Count(s); i++ {
			out = append(out, label)
		}
	}
	return out
}
