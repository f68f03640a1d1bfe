package coalesce

import (
	"errors"

	"github.com/ignorecomply/consensus/internal/graph"
	"github.com/ignorecomply/consensus/internal/rng"
)

// Table is the shared randomness of the Lemma 4 coupling: Y[t][u] is the
// node that u pulls from in step t (a uniformly random neighbor of u,
// fixed once). The coalescing process reads the table forward in time; the
// horizon-T Voter process reads it backward (Figure 1).
type Table struct {
	g graph.Graph
	y [][]int
}

// NewTable draws a table of `horizon` rounds of per-node choices for g.
func NewTable(g graph.Graph, horizon int, r *rng.RNG) (*Table, error) {
	if horizon < 0 {
		return nil, errors.New("coalesce: negative horizon")
	}
	n := g.N()
	y := make([][]int, horizon)
	for t := range y {
		row := make([]int, n)
		for u := 0; u < n; u++ {
			row[u] = graph.RandomNeighbor(g, u, r)
		}
		y[t] = row
	}
	return &Table{g: g, y: y}, nil
}

// Horizon returns the number of recorded rounds.
func (tb *Table) Horizon() int { return len(tb.y) }

// Choice returns Y_t(u).
func (tb *Table) Choice(t, u int) int { return tb.y[t][u] }

// WalksAfter runs the coalescing process for T steps over the table
// (forward: the walk at u in step t moves to Y_t(u); co-located walks have
// coalesced and move together) and returns the number of remaining walks.
func (tb *Table) WalksAfter(T int) (int, error) {
	if T < 0 || T > len(tb.y) {
		return 0, errors.New("coalesce: T outside table horizon")
	}
	return tb.walkCounts(T)[T], nil
}

// walkCounts runs the coalescing process forward over the first T rows of
// the table and returns the walk count after every step: walks[t] is what
// WalksAfter(t) reports, for t = 0..T.
func (tb *Table) walkCounts(T int) []int {
	n := tb.g.N()
	positions := make([]int, n)
	for u := range positions {
		positions[u] = u
	}
	seen := newMarks(n)
	walks := make([]int, T+1)
	walks[0] = n
	for t := 0; t < T; t++ {
		// Move every occupied node along Y_t and keep distinct images.
		seen.reset()
		row := tb.y[t]
		next := positions[:0]
		for _, u := range positions {
			if v := row[u]; seen.add(v) {
				next = append(next, v)
			}
		}
		positions = next
		walks[t+1] = len(positions)
	}
	return walks
}

// OpinionsAfter runs the horizon-T Voter process backward over the table
// (Eq. 11: in Voter round t' node u adopts the opinion of Y_{T-t'}(u),
// starting from pairwise distinct opinions) and returns the number of
// distinct opinions after T rounds.
func (tb *Table) OpinionsAfter(T int) (int, error) {
	if T < 0 || T > len(tb.y) {
		return 0, errors.New("coalesce: T outside table horizon")
	}
	return newVoter(tb.g.N()).opinionsAfter(tb, T), nil
}

// voter holds the buffers of the backward Voter runs, so that Curve can
// run one per horizon without allocating.
type voter struct {
	opinions, next []int
	distinct       marks
}

func newVoter(n int) *voter {
	return &voter{
		opinions: make([]int, n),
		next:     make([]int, n),
		distinct: newMarks(n),
	}
}

// opinionsAfter is OpinionsAfter(T) for a T inside the table's horizon.
func (vt *voter) opinionsAfter(tb *Table, T int) int {
	opinions, next := vt.opinions, vt.next
	for u := range opinions {
		opinions[u] = u
	}
	for tPrime := 1; tPrime <= T; tPrime++ {
		row := tb.y[T-tPrime]
		for u, v := range row {
			next[u] = opinions[v]
		}
		opinions, next = next, opinions
	}
	vt.distinct.reset()
	count := 0
	for _, o := range opinions {
		if vt.distinct.add(o) {
			count++
		}
	}
	return count
}

// marks is a set over 0..n-1 that empties in O(1): v is in the set iff
// seen[v] == gen, so reset starts a new generation instead of clearing.
type marks struct {
	seen []int
	gen  int
}

func newMarks(n int) marks { return marks{seen: make([]int, n)} }

// reset empties the set; call it before the first add.
func (m *marks) reset() { m.gen++ }

// add inserts v and reports whether it was absent.
func (m *marks) add(v int) bool {
	if m.seen[v] == m.gen {
		return false
	}
	m.seen[v] = m.gen
	return true
}

// DualityPoint compares the two processes at one horizon.
type DualityPoint struct {
	T        int
	Walks    int
	Opinions int
}

// Curve evaluates the coupling at every horizon 0..maxT, returning one
// point per horizon. Lemma 4 asserts Walks == Opinions at every point.
// The walk counts come from one forward pass (the horizon-T count is that
// pass after T steps, exactly what WalksAfter(T) recomputes); the opinion
// counts stay one backward Voter run per horizon, so the two sides of the
// identity remain independent computations: O(maxT·n) and O(maxT²·n).
func (tb *Table) Curve(maxT int) ([]DualityPoint, error) {
	if maxT > tb.Horizon() {
		return nil, errors.New("coalesce: maxT exceeds table horizon")
	}
	if maxT < 0 {
		return []DualityPoint{}, nil
	}
	walks := tb.walkCounts(maxT)
	vt := newVoter(tb.g.N())
	out := make([]DualityPoint, 0, maxT+1)
	for T := 0; T <= maxT; T++ {
		out = append(out, DualityPoint{T: T, Walks: walks[T], Opinions: vt.opinionsAfter(tb, T)})
	}
	return out, nil
}

// Verify checks Walks == Opinions for every horizon up to maxT, returning
// the first mismatching point if any.
func (tb *Table) Verify(maxT int) (*DualityPoint, error) {
	curve, err := tb.Curve(maxT)
	if err != nil {
		return nil, err
	}
	for i := range curve {
		if curve[i].Walks != curve[i].Opinions {
			return &curve[i], nil
		}
	}
	return nil, nil
}
