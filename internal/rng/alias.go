package rng

import "math/bits"

// Alias is a Vose alias table for O(1) sampling from a fixed categorical
// distribution. Build once with NewAlias (O(k)), then Draw repeatedly; when
// the distribution changes every round, Reset or ResetCounts rebuild the
// table in place without allocating once the table has reached its
// steady-state capacity.
//
// The agent-based simulators use it to draw n node samples per round from
// the color-frequency distribution. Draw only reads the table, so a single
// Alias may be shared by many goroutines drawing concurrently (each with
// its own RNG), as the sharded engines do; Reset/ResetCounts must not run
// concurrently with Draw.
type Alias struct {
	cols []aliasColumn

	// Build scratch, retained across Reset calls so steady-state rebuilds
	// are allocation-free.
	scaled  []float64
	small   []int
	large   []int
	weights []float64
}

// NewAlias builds an alias table over weights (non-negative, not all zero).
// Weights need not be normalized.
func NewAlias(weights []float64) *Alias {
	a := &Alias{}
	a.Reset(weights)
	return a
}

// NewAliasCounts builds an alias table over non-negative integer counts.
func NewAliasCounts(counts []int) *Alias {
	a := &Alias{}
	a.ResetCounts(counts)
	return a
}

// Reset rebuilds the table over weights in place, reusing the receiver's
// storage. It panics under the same conditions as NewAlias.
//
//consensus:hotpath
func (a *Alias) Reset(weights []float64) {
	k := len(weights)
	if k == 0 {
		panic("rng: NewAlias requires at least one weight")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("rng: NewAlias weights must be non-negative")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: NewAlias requires a positive weight")
	}

	a.cols = grow(a.cols, k)
	a.scaled = grow(a.scaled, k)
	// Scaled probabilities: mean 1. Every column starts out keeping its
	// own index outright; the small ones get a threshold and an alias
	// below.
	for i, w := range weights {
		a.scaled[i] = w * float64(k) / total
		a.cols[i] = aliasColumn{keep: keepAll, alias: i}
	}
	small := a.small[:0]
	large := a.large[:0]
	for i, s := range a.scaled {
		if s < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		l := small[len(small)-1]
		small = small[:len(small)-1]
		g := large[len(large)-1]
		large = large[:len(large)-1]

		a.cols[l] = aliasColumn{keep: keepThreshold(a.scaled[l]), alias: g}
		a.scaled[g] = (a.scaled[g] + a.scaled[l]) - 1
		if a.scaled[g] < 1 {
			small = append(small, g)
		} else {
			large = append(large, g)
		}
	}
	// Numerical leftovers, small or large, keep their own index outright.
	a.small = small[:0]
	a.large = large[:0]
}

// ResetCounts rebuilds the table over non-negative integer counts in place.
//
//consensus:hotpath
func (a *Alias) ResetCounts(counts []int) {
	a.weights = grow(a.weights, len(counts))
	for i, c := range counts {
		if c > 0 {
			a.weights[i] = float64(c)
		} else {
			a.weights[i] = 0
		}
	}
	a.Reset(a.weights)
}

// Draw returns an index sampled from the table's distribution.
//
// One draw consumes exactly one 64-bit word: the high bits pick the column
// (via the 128-bit multiply hi = ⌊u·k/2^64⌋) and the multiply's remainder —
// uniform within the chosen column — provides the 53-bit fraction for the
// keep-or-alias compare. Using the remainder rather than the raw low bits
// of u matters: for k > 2^11 the raw low bits are correlated with the
// column, while the remainder lo = u·k mod 2^64 walks an evenly spaced grid
// over the full range conditional on hi. Column and fraction are each
// exact to within k/2^64 — far below the float64 error already present in
// the table probabilities themselves.
//
//consensus:hotpath
func (a *Alias) Draw(r *RNG) int {
	hi, lo := bits.Mul64(r.Uint64(), uint64(len(a.cols)))
	return a.cols[hi].pick(int(hi), lo)
}

// DrawN fills dst with independent samples from the table's distribution.
// It draws exactly like Draw — same stream, bit-identical results — but
// keeps the generator in locals and amortizes the table bounds checks
// across the batch; the per-node engines feed their strided sample buffers
// through it.
//
//consensus:hotpath
func (a *Alias) DrawN(r *RNG, dst []int) {
	cols := a.cols
	k := uint64(len(cols))
	g := r.pcg
	for j := range dst {
		hi, lo := bits.Mul64(g.next(), k)
		dst[j] = cols[hi].pick(int(hi), lo)
	}
	r.pcg = g
}

// aliasColumn is one column of an Alias table: a draw landing in column i
// keeps i when its 53-bit fraction is below keep, and takes alias
// otherwise.
type aliasColumn struct {
	keep  uint64
	alias int
}

// pick returns the index a draw landing in column i selects, given the
// low half lo of its multiply. The select is a mask, not a branch: which
// way it goes is a coin flip the CPU cannot predict. Both the fraction
// and keep are below 2⁵³+1, so their difference's sign bit is the compare.
//
//consensus:hotpath
func (c aliasColumn) pick(i int, lo uint64) int {
	kept := int(int64(lo>>11-c.keep) >> 63) // -1 below keep, else 0
	return c.alias ^ ((i ^ c.alias) & kept)
}

// keepAll is the threshold of a column that always keeps: every 53-bit
// fraction is below it.
const keepAll = 1 << 53

// keepThreshold returns the integer threshold ⌈p·2⁵³⌉ of a keep
// probability p in [0, 1]: for every 53-bit integer x, x < keepThreshold(p)
// exactly when float64(x)·2⁻⁵³ < p. Scaling by 2⁵³ is exact (subnormal p
// included), and x < y for an integer x and a real y exactly when
// x < ⌈y⌉, so the integer compare decides every draw as the float compare
// would. The ceiling is the truncation, plus one unless y is an integer;
// both conversions are exact up to 2⁵³. Against a mask on the float bit
// patterns, the integer compare saves DrawN a conversion per draw.
//
//consensus:hotpath
func keepThreshold(p float64) uint64 {
	y := p * 0x1p53
	t := int64(y)
	if float64(t) < y {
		t++
	}
	return uint64(t)
}

// Len returns the number of categories in the table.
func (a *Alias) Len() int { return len(a.cols) }

// grow returns buf resized to n, reallocated only when its capacity is
// short.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
