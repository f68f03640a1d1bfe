package rules

import (
	"fmt"
	"slices"
	"testing"

	"github.com/ignorecomply/consensus/internal/core"
	"github.com/ignorecomply/consensus/internal/rng"
)

// chunkRules are the per-node rules the chunk tests cover: 3-Majority,
// the one rule with its own chunk form, and rules that take the generic
// updateEach loop, including ones that read their own color (2-Choices,
// 2-Median) or draw from r (5-Majority's ties, LazyVoter's coin).
func chunkRules() []core.NodeRule {
	return []core.NodeRule{
		NewThreeMajority(), NewVoter(), NewTwoChoices(), NewHMajority(5),
		NewLazyVoter(0.5), NewTwoMedian(),
	}
}

// TestChunkUpdaterMatchesUpdate: on random chunks, the chunk form gives
// the same next colors, the same tally and the same stream position as a
// per-node Update loop. Chunk sizes 1, 2, 255 and 256 are run, plus a
// tail chunk: a 100-node window at offset 156 of 256-node arrays, whose
// nodes outside the window must stay untouched. Colors are 2 to 16, so
// 3-Majority meets few ties at k = 2 and mostly ties at k = 16.
func TestChunkUpdaterMatchesUpdate(t *testing.T) {
	type window struct{ lo, hi int }
	windows := []window{{0, 1}, {0, 2}, {0, 255}, {0, 256}, {156, 256}}
	for _, rule := range chunkRules() {
		h := rule.Samples()
		update := ChunkUpdater(rule)
		for _, k := range []int{2, 3, 5, 8, 16} {
			for wi, w := range windows {
				t.Run(fmt.Sprintf("%s/k=%d/%d-%d", rule.Name(), k, w.lo, w.hi), func(t *testing.T) {
					seed := uint64(1000*k + wi)
					src := rng.New(seed)
					own := make([]int, 256)
					src.FillIntN(k, own)
					samples := make([]int, (w.hi-w.lo)*h)
					src.FillIntN(k, samples)

					want := filled(256, -1)
					wantTally := make([]int, k)
					rw := rng.New(seed + 1)
					for i := w.lo; i < w.hi; i++ {
						off := (i - w.lo) * h
						c := rule.Update(own[i], samples[off:off+h], rw)
						want[i] = c
						wantTally[c]++
					}

					got := filled(256, -1)
					gotTally := make([]int, k)
					rg := rng.New(seed + 1)
					update(own[w.lo:w.hi], samples, got[w.lo:w.hi], gotTally, rg)

					if !slices.Equal(got, want) {
						t.Errorf("next differs from the per-node loop:\n got %v\nwant %v", got, want)
					}
					if !slices.Equal(gotTally, wantTally) {
						t.Errorf("tally %v, per-node loop %v", gotTally, wantTally)
					}
					if g, w := rg.Uint64(), rw.Uint64(); g != w {
						t.Errorf("stream position differs after the chunk: next word %#x, per-node loop %#x", g, w)
					}
				})
			}
		}
	}
}

// TestChunkUpdateZeroAllocs: both chunk forms — threeMajorityChunk, and
// updateEach over a rule's own Update — update a full chunk without
// allocating.
func TestChunkUpdateZeroAllocs(t *testing.T) {
	for _, rule := range []core.NodeRule{NewThreeMajority(), NewTwoChoices()} {
		h := rule.Samples()
		update := ChunkUpdater(rule)
		own := make([]int, 256)
		samples := make([]int, 256*h)
		rng.New(3).FillIntN(8, samples)
		next := make([]int, 256)
		tally := make([]int, 8)
		r := rng.New(4)
		if avg := testing.AllocsPerRun(50, func() { update(own, samples, next, tally, r) }); avg != 0 {
			t.Errorf("%s chunk update allocates %.2f times, want 0", rule.Name(), avg)
		}
	}
}

// filled returns n copies of v.
func filled(n, v int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// TestMajorityOfThreeMatchesDefinition checks the branch-free decision
// against the rule as stated — a color that two samples share, else a
// tie — on every triple over seven colors, negative ones included.
func TestMajorityOfThreeMatchesDefinition(t *testing.T) {
	for s0 := -3; s0 <= 3; s0++ {
		for s1 := -3; s1 <= 3; s1++ {
			for s2 := -3; s2 <= 3; s2++ {
				want, wantOK := 0, true
				switch {
				case s0 == s1 || s0 == s2:
					want = s0
				case s1 == s2:
					want = s1
				default:
					wantOK = false
				}
				c, ok := majorityOfThree(s0, s1, s2)
				if ok != wantOK || (ok && c != want) {
					t.Errorf("majorityOfThree(%d, %d, %d) = %d, %v; want %d, %v", s0, s1, s2, c, ok, want, wantOK)
				}
			}
		}
	}
}
