// Package config models the system state of a consensus process: the
// configuration vector c ∈ N₀^k with Σ c_i = n, where c_i is the number of
// nodes supporting color i (paper §2.1).
//
// A Config tracks counts per color slot plus a label per slot (the original
// color identity), so that compaction — dropping extinct colors for speed —
// never loses track of which initial colors survive. Labels are what make
// validity checks possible under Byzantine corruption (paper §5).
package config

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Config is a consensus configuration: counts[s] nodes currently support the
// color labeled labels[s]. The invariant Σ counts = n holds at all times.
// Config is not safe for concurrent mutation.
type Config struct {
	n      int
	counts []int
	labels []int
}

// New returns a configuration with the given support counts; slot s is
// labeled s. It returns an error if counts is empty, any entry is negative,
// or all entries are zero.
func New(counts []int) (*Config, error) {
	n, err := total(counts)
	if err != nil {
		return nil, err
	}
	c := &Config{n: n, counts: slices.Clone(counts), labels: make([]int, len(counts))}
	for i := range c.labels {
		c.labels[i] = i
	}
	return c, nil
}

// NewLabeled returns a configuration with explicit color labels per slot.
// Labels must be pairwise distinct and len(labels) == len(counts).
func NewLabeled(counts, labels []int) (*Config, error) {
	if len(counts) > 0 && len(counts) != len(labels) {
		return nil, fmt.Errorf("config: %d counts but %d labels", len(counts), len(labels))
	}
	n, err := total(counts)
	if err != nil {
		return nil, err
	}
	seen := make(map[int]struct{}, len(labels))
	for _, l := range labels {
		if _, dup := seen[l]; dup {
			return nil, fmt.Errorf("config: duplicate label %d", l)
		}
		seen[l] = struct{}{}
	}
	return &Config{n: n, counts: slices.Clone(counts), labels: slices.Clone(labels)}, nil
}

// total returns Σ counts, or an error if counts is empty, any entry is
// negative, or all entries are zero.
func total(counts []int) (int, error) {
	if len(counts) == 0 {
		return 0, errors.New("config: empty counts")
	}
	n := 0
	for i, c := range counts {
		if c < 0 {
			return 0, fmt.Errorf("config: negative count %d in slot %d", c, i)
		}
		n += c
	}
	if n == 0 {
		return 0, errors.New("config: all counts are zero")
	}
	return n, nil
}

// FromNodes builds a configuration from a per-node color assignment. Colors
// may be arbitrary non-negative ints; slots are created in order of first
// appearance and labeled with the node colors.
func FromNodes(nodes []int) (*Config, error) {
	if len(nodes) == 0 {
		return nil, errors.New("config: no nodes")
	}
	slotOf := make(map[int]int)
	var counts, labels []int
	for _, col := range nodes {
		s, ok := slotOf[col]
		if !ok {
			s = len(counts)
			slotOf[col] = s
			counts = append(counts, 0)
			labels = append(labels, col)
		}
		counts[s]++
	}
	return NewLabeled(counts, labels)
}

// Clone returns a deep copy.
func (c *Config) Clone() *Config {
	out := &Config{
		n:      c.n,
		counts: make([]int, len(c.counts)),
		labels: make([]int, len(c.labels)),
	}
	copy(out.counts, c.counts)
	copy(out.labels, c.labels)
	return out
}

// N returns the number of nodes.
func (c *Config) N() int { return c.n }

// Slots returns the number of tracked color slots (including extinct ones).
func (c *Config) Slots() int { return len(c.counts) }

// Count returns the support of slot s.
func (c *Config) Count(s int) int { return c.counts[s] }

// Label returns the color label of slot s.
func (c *Config) Label(s int) int { return c.labels[s] }

// CountsView returns the live counts slice. Simulators mutate it in place
// for speed; callers must preserve Σ counts = n and must not resize it.
// External consumers should use CountsCopy.
func (c *Config) CountsView() []int { return c.counts }

// CountsCopy returns a copy of the counts slice.
func (c *Config) CountsCopy() []int {
	out := make([]int, len(c.counts))
	copy(out, c.counts)
	return out
}

// LabelsCopy returns a copy of the labels slice.
func (c *Config) LabelsCopy() []int {
	out := make([]int, len(c.labels))
	copy(out, c.labels)
	return out
}

// Remaining returns the number of colors with positive support (the k the
// paper's T^κ reduction times count).
//
//consensus:hotpath
func (c *Config) Remaining() int {
	k := 0
	for _, v := range c.counts {
		if v > 0 {
			k++
		}
	}
	return k
}

// IsConsensus reports whether exactly one color has positive support.
func (c *Config) IsConsensus() bool { return c.Remaining() == 1 }

// Max returns the slot and support of the most common color. Ties resolve to
// the lowest slot.
func (c *Config) Max() (slot, support int) {
	slot = -1
	for s, v := range c.counts {
		if v > support {
			slot, support = s, v
		}
	}
	return slot, support
}

// Bias returns the difference between the supports of the most and second
// most common colors (paper footnote 3). With one color it equals that
// color's support.
func (c *Config) Bias() int {
	first, second := 0, 0
	for _, v := range c.counts {
		if v > first {
			first, second = v, first
		} else if v > second {
			second = v
		}
	}
	return first - second
}

// SortedDesc returns the counts sorted in non-increasing order (a copy).
// This is the c↓ vector used throughout the majorization framework.
func (c *Config) SortedDesc() []int {
	out := c.CountsCopy()
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

// Fractions writes x = c/n into out (len must equal Slots) and returns it;
// pass nil to allocate.
func (c *Config) Fractions(out []float64) []float64 {
	if out == nil {
		out = make([]float64, len(c.counts))
	}
	if len(out) != len(c.counts) {
		panic("config: Fractions length mismatch")
	}
	fn := float64(c.n)
	for i, v := range c.counts {
		out[i] = float64(v) / fn
	}
	return out
}

// L2Squared returns ‖c/n‖₂² = Σ x_i², the quantity in the 3-Majority
// process function (Eq. 2).
func (c *Config) L2Squared() float64 {
	fn := float64(c.n)
	sum := 0.0
	for _, v := range c.counts {
		x := float64(v) / fn
		sum += x * x
	}
	return sum
}

// Entropy returns the Shannon entropy (nats) of the color distribution.
func (c *Config) Entropy() float64 {
	fn := float64(c.n)
	h := 0.0
	for _, v := range c.counts {
		if v == 0 {
			continue
		}
		x := float64(v) / fn
		h -= x * math.Log(x)
	}
	return h
}

// Compact removes extinct color slots in place, preserving the relative
// order of the surviving slots (and therefore any ordering semantics the
// labels carry, e.g. for 2-Median). The batch and hybrid engines call it
// after every round in which a color died.
//
//consensus:hotpath
func (c *Config) Compact() {
	w := 0
	for s, v := range c.counts {
		if v == 0 {
			continue
		}
		c.counts[w] = v
		c.labels[w] = c.labels[s]
		w++
	}
	c.counts = c.counts[:w]
	c.labels = c.labels[:w]
}

// Nodes expands the configuration into a per-node slot assignment of length
// n, in slot order. Agent-based simulators use this as their initial state.
func (c *Config) Nodes() []int {
	out := make([]int, 0, c.n)
	for s, v := range c.counts {
		for i := 0; i < v; i++ {
			out = append(out, s)
		}
	}
	return out
}

// CheckInvariant verifies Σ counts = n and non-negativity. Simulators call
// it in tests after every round.
func (c *Config) CheckInvariant() error {
	sum := 0
	for s, v := range c.counts {
		if v < 0 {
			return fmt.Errorf("config: negative count %d in slot %d", v, s)
		}
		sum += v
	}
	if sum != c.n {
		return fmt.Errorf("config: counts sum to %d, want n = %d", sum, c.n)
	}
	if len(c.counts) != len(c.labels) {
		return fmt.Errorf("config: %d counts but %d labels", len(c.counts), len(c.labels))
	}
	return nil
}

// String renders a short human-readable summary.
func (c *Config) String() string {
	return fmt.Sprintf("config{n=%d k=%d max=%d bias=%d}", c.n, c.Remaining(), func() int {
		_, m := c.Max()
		return m
	}(), c.Bias())
}
