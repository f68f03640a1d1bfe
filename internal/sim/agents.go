package sim

import (
	"errors"

	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/core"
	"github.com/ignorecomply/consensus/internal/graph"
	"github.com/ignorecomply/consensus/internal/rng"
)

// agentsState is the engine room of one per-node run — agents, graph and
// lockstep cluster runs alike: the population arrays, the round's sampling
// snapshot, and, when sharded, the worker pool with per-shard rule
// instances, random streams and strided sample buffers.
//
// A uniform node pull (agents, lockstep cluster, and the graph engine on a
// *graph.Complete, whose self-loops make a neighbor pull a node pull) is
// a categorical color draw from the alias table over the counts, rebuilt
// in place every round. Any other topology pulls through its neighbor
// table, against the previous node states.
type agentsState struct {
	c     *config.Config
	nodes []int // current per-node slot assignment
	next  []int
	alias *rng.Alias // uniform node pulls; nil when nb is set
	nb    *neighbors // sparse topology; nil for uniform node pulls
	h     int        // samples per node (the max over groups when heterogeneous)

	// Sequential path (p == 1): the run's own stream, chunk buffer and
	// next-count tally.
	rule  core.NodeRule
	r     *rng.RNG
	buf   []int // sampleChunk·h strided sample buffer
	tally []int

	// Sharded path (p > 1).
	pool *shardPool

	// Heterogeneous population (WithNodeBehaviors), nil otherwise.
	behav *behaviorRT
	round int // current round, set by step before the shard dispatch
}

// behaviorRT is the runtime form of a behavior table: flat per-group
// arrays indexed by group, plus per-shard per-group rule instances.
type behaviorRT struct {
	assign   []int
	stubborn []bool
	join     []int
	hs       []int             // per-group sample count (<= agentsState.h)
	rules    [][]core.NodeRule // [shard][group]
}

// newBehaviorRT resolves a behavior table for p shards: every group gets
// one rule instance per shard (its own factory, or the run's rule with the
// same per-shard instancing contract as newShardSetup). The returned h is
// the max sample count over the groups; every node's h samples are drawn
// regardless of its group, so random-stream consumption is independent of
// the group layout.
func newBehaviorRT(b *behaviors, rule core.NodeRule, factory core.Factory, p int, e Engine) (*behaviorRT, int, error) {
	rt := &behaviorRT{
		assign:   b.assign,
		stubborn: make([]bool, len(b.groups)),
		join:     make([]int, len(b.groups)),
		hs:       make([]int, len(b.groups)),
		rules:    make([][]core.NodeRule, p),
	}
	for s := 0; s < p; s++ {
		rt.rules[s] = make([]core.NodeRule, len(b.groups))
		for g, bg := range b.groups {
			switch {
			case bg.Factory != nil:
				made := bg.Factory()
				if made == nil {
					return nil, 0, errors.New("sim: behavior group factory returned a nil rule")
				}
				nr, err := asNodeRule(made, e)
				if err != nil {
					return nil, 0, err
				}
				rt.rules[s][g] = nr
			case s == 0 || factory == nil:
				rt.rules[s][g] = rule
			default:
				nr, err := newInstance(factory, e, rule.Samples())
				if err != nil {
					return nil, 0, err
				}
				rt.rules[s][g] = nr
			}
		}
	}
	h := 0
	for g, bg := range b.groups {
		rt.stubborn[g] = bg.Stubborn
		rt.join[g] = bg.JoinRound
		rt.hs[g] = rt.rules[0][g].Samples()
		if rt.hs[g] > h {
			h = rt.hs[g]
		}
	}
	return rt, h, nil
}

// newAgentsState builds the run state. factory, when non-nil, provides a
// fresh rule instance per shard; otherwise all shards share rule.
func newAgentsState(rule core.NodeRule, factory core.Factory, start *config.Config, r *rng.RNG, o options) (*agentsState, error) {
	c := start.Clone()
	st := &agentsState{
		c:     c,
		nodes: c.Nodes(),
		next:  make([]int, c.N()),
		h:     rule.Samples(),
		rule:  rule,
		r:     r,
	}
	if _, complete := o.graph.(*graph.Complete); o.graph == nil || complete {
		st.alias = rng.NewAliasCounts(c.CountsView())
	} else {
		st.nb = newNeighbors(o.graph)
	}
	p := o.shardCount(c.N(), factory)
	if o.behaviors != nil {
		if err := o.behaviors.validate(c.N()); err != nil {
			return nil, err
		}
		rt, h, err := newBehaviorRT(o.behaviors, rule, factory, p, o.engine)
		if err != nil {
			return nil, err
		}
		st.behav = rt
		st.h = h
	}
	if p == 1 {
		st.buf = make([]int, sampleChunk*st.h)
		return st, nil
	}

	if st.behav != nil {
		// Same stream/buffer derivation as newShardSetup, but the rules
		// live in the behavior table and the buffers are sized for the
		// max group sample count.
		streams := make([]*rng.RNG, p)
		bufs := make([][]int, p)
		for s := 0; s < p; s++ {
			streams[s] = r.Derive(uint64(s))
			bufs[s] = make([]int, sampleChunk*st.h)
		}
		st.pool = newShardPool(c.N(), p, func(s, lo, hi int, tally []int) {
			agentsShardRoundHetero(st, st.behav.rules[s], streams[s], bufs[s], lo, hi, tally)
		})
		return st, nil
	}

	su, err := newShardSetup(rule, factory, p, o.engine, r)
	if err != nil {
		return nil, err
	}
	st.pool = newShardPool(c.N(), p, func(s, lo, hi int, tally []int) {
		agentsShardRound(st, su.rules[s], su.streams[s], su.bufs[s], lo, hi, tally)
	})
	return st, nil
}

// agentsShardRound runs one round over the node range [lo, hi): it fills
// the strided sample buffer one chunk of nodes at a time, applies the
// per-node updates, and tallies the next-state counts in the same pass. A
// uniform node pull is a categorical color draw, so one batched alias fill
// is the whole sampling step; on a regular topology one batched
// neighbor-index fill is resolved in place. An irregular topology draws
// one IntN(deg) per sample, in chunks of one node, so that each node's
// draws come just before its Update's.
//
//consensus:hotpath
func agentsShardRound(st *agentsState, rule core.NodeRule, r *rng.RNG, buf []int, lo, hi int, tally []int) {
	h := st.h
	nb := st.nb
	nodesPerChunk := sampleChunk
	if nb != nil && nb.d == 0 {
		nodesPerChunk = 1
	}
	for base := lo; base < hi; base += nodesPerChunk {
		end := base + nodesPerChunk
		if end > hi {
			end = hi
		}
		chunk := buf[:(end-base)*h]
		switch {
		case nb == nil:
			st.alias.DrawN(r, chunk)
		case nb.d > 0:
			r.FillIntN(nb.d, chunk)
			nb.resolve(st.nodes, chunk, base, h)
		default:
			nb.draw(st.nodes, base, chunk, r)
		}
		for i := base; i < end; i++ {
			samples := chunk[(i-base)*h : (i-base+1)*h]
			nxt := rule.Update(st.nodes[i], samples, r)
			st.next[i] = nxt
			tally[nxt]++
		}
	}
}

// agentsShardRoundHetero is agentsShardRound for a heterogeneous
// population: every node's st.h samples are drawn exactly as in the
// homogeneous path (so the random streams are consumed identically
// whatever the group layout), then each node applies its group's rule on
// its group's sample-count prefix — or holds its opinion when the group is
// stubborn or has not joined yet. Held nodes still occupy the
// configuration, so everyone keeps sampling them.
//
//consensus:hotpath
func agentsShardRoundHetero(st *agentsState, rules []core.NodeRule, r *rng.RNG, buf []int, lo, hi int, tally []int) {
	h := st.h
	b := st.behav
	round := st.round
	for base := lo; base < hi; base += sampleChunk {
		end := base + sampleChunk
		if end > hi {
			end = hi
		}
		chunk := buf[:(end-base)*h]
		st.alias.DrawN(r, chunk)
		for i := base; i < end; i++ {
			g := b.assign[i]
			nxt := st.nodes[i]
			if !b.stubborn[g] && round >= b.join[g] {
				off := (i - base) * h
				nxt = rules[g].Update(nxt, chunk[off:off+b.hs[g]], r)
			}
			st.next[i] = nxt
			tally[nxt]++
		}
	}
}

// step advances the population by one synchronous round. Every node (in
// every shard) samples against an immutable snapshot of the previous
// round: the alias table rebuilt from the previous configuration (a
// uniform node pull is a categorical color draw with probabilities
// counts/n), or, on a sparse topology, the previous node states.
//
//consensus:hotpath
func (st *agentsState) step(round int) {
	st.round = round
	counts := st.c.CountsView()
	if st.alias != nil {
		st.alias.ResetCounts(counts)
	}
	if st.pool == nil {
		st.tally = resizeInts(st.tally, len(counts))
		clear(st.tally)
		if st.behav != nil {
			agentsShardRoundHetero(st, st.behav.rules[0], st.r, st.buf, 0, len(st.nodes), st.tally)
		} else {
			agentsShardRound(st, st.rule, st.r, st.buf, 0, len(st.nodes), st.tally)
		}
		st.nodes, st.next = st.next, st.nodes
		copy(counts, st.tally)
		return
	}
	st.pool.step(len(counts))
	st.nodes, st.next = st.next, st.nodes
	st.pool.merge(counts)
}

// close releases the worker pool, if any.
func (st *agentsState) close() {
	if st.pool != nil {
		st.pool.close()
	}
}

func runAgents(rule core.NodeRule, factory core.Factory, start *config.Config, r *rng.RNG, o options) (*Result, error) {
	st, err := newAgentsState(rule, factory, start, r, o)
	if err != nil {
		return nil, err
	}
	defer st.close()
	return runLoop(st.c, r, o, func(round int) int {
		st.step(round)
		return 1
	}, func() *config.Config { return st.c }, func() []int { return st.nodes })
}

// neighbors is a sparse topology flattened once per run, so the round body
// reads slices only. On a regular graph vertex u's neighbors are
// adj[u·d : (u+1)·d]; otherwise (d == 0) they are adj[off[u] : off[u+1]].
type neighbors struct {
	adj []int
	off []int // irregular only
	d   int   // the common degree of a regular graph, else 0
}

// newNeighbors reads g's adjacency through the graph.Graph interface.
func newNeighbors(g graph.Graph) *neighbors {
	n := g.N()
	nb := &neighbors{off: make([]int, n+1), d: g.Degree(0)}
	for u := 0; u < n; u++ {
		deg := g.Degree(u)
		if deg != nb.d {
			nb.d = 0
		}
		nb.off[u+1] = nb.off[u] + deg
	}
	nb.adj = make([]int, nb.off[n])
	for u := 0; u < n; u++ {
		row := nb.adj[nb.off[u]:nb.off[u+1]]
		for i := range row {
			row[i] = g.Neighbor(u, i)
		}
	}
	if nb.d > 0 {
		nb.off = nil
	}
	return nb
}

// resolve maps the chunk of nodes from base, filled with neighbor indices
// in [0, d), to the colors of those neighbors in nodes.
//
//consensus:hotpath
func (nb *neighbors) resolve(nodes, chunk []int, base, h int) {
	d := nb.d
	for u := base; len(chunk) > 0; u++ {
		row := nb.adj[u*d : (u+1)*d]
		for j, idx := range chunk[:h] {
			chunk[j] = nodes[row[idx]]
		}
		chunk = chunk[h:]
	}
}

// draw fills samples with the colors of uniform neighbors of the
// irregular-graph vertex u, one IntN(deg u) per sample.
//
//consensus:hotpath
func (nb *neighbors) draw(nodes []int, u int, samples []int, r *rng.RNG) {
	row := nb.adj[nb.off[u]:nb.off[u+1]]
	for j := range samples {
		samples[j] = nodes[row[r.IntN(len(row))]]
	}
}
