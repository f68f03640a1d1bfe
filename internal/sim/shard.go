package sim

import (
	"sync"

	"github.com/ignorecomply/consensus/internal/core"
	"github.com/ignorecomply/consensus/internal/rng"
)

// sampleChunk is the number of nodes whose samples are drawn per batched
// fill: each engine walks its node range in chunks of this many nodes,
// fills a strided sample buffer (node i's samples at [i·h, (i+1)·h)) with
// one rng.Alias.DrawN / rng.RNG.FillIntN call, and then applies the
// per-node updates, tallying next-state counts in the same pass. Large
// enough to amortize the RNG dispatch, small enough to stay in L1.
const sampleChunk = 256

// shardSetup is the per-shard state of the agents kernel, which runs the
// agents, graph and zero-latency cluster engines: one rule instance, one
// derived random stream and one strided sample buffer (sampleChunk·h
// entries) per shard.
type shardSetup struct {
	rules   []core.NodeRule
	streams []*rng.RNG
	bufs    [][]int
	h       int
}

// newShardSetup resolves the per-shard state for p shards. Shard 0 runs the
// primary rule instance; the rest get fresh factory instances when a
// factory is available, and otherwise share the primary (whose Update must
// then be concurrency-safe). Streams are derived up front from the run's
// stream in shard order, so the assignment is a pure function of (seed, p).
func newShardSetup(rule core.NodeRule, factory core.Factory, p int, e Engine, r *rng.RNG) (*shardSetup, error) {
	su := &shardSetup{
		rules:   make([]core.NodeRule, p),
		streams: make([]*rng.RNG, p),
		bufs:    make([][]int, p),
		h:       rule.Samples(),
	}
	su.rules[0] = rule
	for s := 0; s < p; s++ {
		if s > 0 {
			if factory == nil {
				su.rules[s] = rule
			} else {
				nr, err := newInstance(factory, e, su.h)
				if err != nil {
					return nil, err
				}
				su.rules[s] = nr
			}
		}
		su.streams[s] = r.Derive(uint64(s))
		su.bufs[s] = make([]int, sampleChunk*su.h)
	}
	return su, nil
}

// shardPool fans one round of per-node work out over p contiguous shards of
// the population [0, n). The workers are persistent for the lifetime of one
// run — launched once, released by close — so a round costs only one
// channel send per shard plus the barrier wait, with zero steady-state
// allocations.
//
// Every shard owns a tally slice for the next-state counts it produces;
// step sizes and zeroes the tallies, releases the workers, and blocks until
// all shards reach the round barrier; merge then folds the per-shard
// tallies into the global counts. Shards must only read state that is
// immutable for the duration of the round (the previous node states and the
// round's alias table) and write disjoint ranges plus their own tally.
type shardPool struct {
	p      int
	bounds []int   // p+1 shard boundaries over [0, n)
	tally  [][]int // per-shard next-state counts, merged at the barrier
	start  []chan struct{}
	wg     sync.WaitGroup
	body   func(s, lo, hi int, tally []int)
}

// newShardPool launches p persistent workers over a population of n nodes.
// body runs one round of shard s over node range [lo, hi), tallying
// next-state counts into tally; it runs concurrently with the other shards.
func newShardPool(n, p int, body func(s, lo, hi int, tally []int)) *shardPool {
	sp := &shardPool{
		p:      p,
		bounds: make([]int, p+1),
		tally:  make([][]int, p),
		start:  make([]chan struct{}, p),
		body:   body,
	}
	for s := 0; s <= p; s++ {
		sp.bounds[s] = s * n / p
	}
	for s := 0; s < p; s++ {
		sp.start[s] = make(chan struct{}, 1)
		go sp.worker(s)
	}
	return sp
}

func (sp *shardPool) worker(s int) {
	lo, hi := sp.bounds[s], sp.bounds[s+1]
	for range sp.start[s] {
		sp.body(s, lo, hi, sp.tally[s])
		sp.wg.Done()
	}
}

// step runs one round: it sizes every shard's tally for k color slots (the
// slot space may grow mid-run under an injecting adversary), releases the
// workers, and blocks until all shards hit the round barrier.
//
//consensus:hotpath
func (sp *shardPool) step(k int) {
	for s := range sp.tally {
		t := sp.tally[s]
		if cap(t) < k {
			t = make([]int, k) //lint:alloc cold path: slot space grew (injecting adversary)
		} else {
			t = t[:k]
			clear(t)
		}
		sp.tally[s] = t
	}
	sp.wg.Add(sp.p)
	for _, ch := range sp.start {
		ch <- struct{}{}
	}
	sp.wg.Wait()
}

// merge folds the per-shard tallies of the last step into counts.
//
//consensus:hotpath
func (sp *shardPool) merge(counts []int) {
	clear(counts)
	for _, t := range sp.tally {
		for i, v := range t {
			counts[i] += v
		}
	}
}

// resizeInts returns buf with exactly n elements, reusing capacity.
func resizeInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// close releases the workers. The pool must not be stepped afterwards.
func (sp *shardPool) close() {
	for _, ch := range sp.start {
		close(ch)
	}
}
