package rules

import (
	"github.com/ignorecomply/consensus/internal/core"
	"github.com/ignorecomply/consensus/internal/rng"
)

// ChunkUpdate applies a rule's per-node update to a chunk of nodes whose
// samples are already drawn: node i of the chunk has own color own[i] and
// samples samples[i·h : (i+1)·h], writes its next color to next[i] and
// counts it in tally. Nodes are updated in order, so the words a rule draws
// from r (3-Majority's tie picks) follow node order, exactly as a per-node
// Update loop draws them.
type ChunkUpdate func(own, samples, next, tally []int, r *rng.RNG)

// ChunkUpdater resolves rule's chunk update once, for one run or shard.
// 3-Majority gets a loop with its law inlined; every other rule gets a loop
// over its own Update. Either form gives the same next colors, tally and
// random stream as calling rule.Update node by node.
func ChunkUpdater(rule core.NodeRule) ChunkUpdate {
	if _, ok := rule.(*ThreeMajority); ok {
		return threeMajorityChunk
	}
	return updateLoop{rule: rule, h: rule.Samples()}.updateEach
}

// threeMajorityChunk is the chunk form of ThreeMajority.Update.
//
//consensus:hotpath
func threeMajorityChunk(_, samples, next, tally []int, r *rng.RNG) {
	samples = samples[:3*len(next)]
	for i := range next {
		s := samples[3*i : 3*i+3]
		c, ok := majorityOfThree(s[0], s[1], s[2])
		if !ok {
			c = anyOfThree(s, r)
		}
		next[i] = c
		tally[c]++
	}
}

// updateLoop is the generic chunk form: one Update call per node.
type updateLoop struct {
	rule core.NodeRule
	h    int
}

// updateEach applies u.rule's Update to every node of the chunk in order.
//
//consensus:hotpath
func (u updateLoop) updateEach(own, samples, next, tally []int, r *rng.RNG) {
	h := u.h
	for i, o := range own {
		c := u.rule.Update(o, samples[i*h:(i+1)*h], r)
		next[i] = c
		tally[c]++
	}
}
