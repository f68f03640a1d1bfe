package rules

import (
	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/core"
	"github.com/ignorecomply/consensus/internal/rng"
)

// UndecidedLabel is the reserved color label for the "undecided" state of
// the Undecided-State Dynamics. It is not a real color: validity and
// consensus bookkeeping exclude it.
const UndecidedLabel = -1

// Undecided is the Undecided-State Dynamics of [BCN+15] discussed in §1.1:
// each node samples one node per round. A decided node that sees a decided
// node of a *different* color becomes undecided (it keeps its color when it
// sees its own color or an undecided node). An undecided node adopts the
// sampled node's color if that node is decided, and stays undecided
// otherwise.
//
// The paper notes the k = n pathology: started from the n-color
// configuration, a constant fraction of nodes goes undecided immediately
// and the dynamics can fail to preserve any color.
//
// The batch step is exact and O(k): with u undecided nodes, a decided node
// of color j stays decided with probability (c_j + u)/n (keepers_j ~
// binomial), and the u undecided nodes resolve by one multinomial over
// (c_1, ..., c_k, u)/n.
type Undecided struct {
	probs []float64
	dist  []int
	next  []int
}

var _ core.Rule = (*Undecided)(nil)

// NewUndecided returns an Undecided-State Dynamics rule.
func NewUndecided() *Undecided { return &Undecided{} }

// Name implements core.Rule.
func (u *Undecided) Name() string { return "undecided" }

// Prepare ensures c has an undecided slot (label UndecidedLabel), appending
// one with zero support if missing, and returns its slot index. Step calls
// it implicitly; callers only need it to inspect the undecided count.
func (u *Undecided) Prepare(c *config.Config) int {
	if s := undecidedSlot(c); s >= 0 {
		return s
	}
	// Rebuild with one extra slot. This happens at most once per run.
	counts := append(c.CountsCopy(), 0)
	labels := append(c.LabelsCopy(), UndecidedLabel)
	rebuilt, err := config.NewLabeled(counts, labels)
	if err != nil {
		panic("rules: Undecided.Prepare: " + err.Error())
	}
	*c = *rebuilt
	return len(counts) - 1
}

// Step implements core.Rule.
func (u *Undecided) Step(c *config.Config, r *rng.RNG) {
	us := u.Prepare(c)
	counts := c.CountsView()
	k := len(counts)
	n := c.N()
	fn := float64(n)
	undec := counts[us]

	u.probs = resizeFloats(u.probs, k)
	u.dist = resizeInts(u.dist, k)
	u.next = resizeInts(u.next, k)
	clear(u.next)

	// Decided groups: keep with probability (c_j + u)/n, else go undecided.
	newUndecided := 0
	for j, cj := range counts {
		if j == us || cj == 0 {
			continue
		}
		keep := r.Binomial(cj, (float64(cj)+float64(undec))/fn)
		u.next[j] += keep
		newUndecided += cj - keep
	}
	// Undecided group: adopt a decided sample's color, or stay undecided.
	if undec > 0 {
		for j, cj := range counts {
			u.probs[j] = float64(cj) / fn
			if j == us {
				u.probs[j] = float64(undec) / fn
			}
		}
		r.Multinomial(undec, u.probs, u.dist)
		for j := 0; j < k; j++ {
			if j == us {
				newUndecided += u.dist[j]
				continue
			}
			u.next[j] += u.dist[j]
		}
	}
	u.next[us] = newUndecided
	copy(counts, u.next)
}

func undecidedSlot(c *config.Config) int {
	for s := 0; s < c.Slots(); s++ {
		if c.Label(s) == UndecidedLabel {
			return s
		}
	}
	return -1
}
