package rng

import (
	"math/bits"
	"sync"
)

// tallyTrialsPerLive is the trials-per-live-slot bound at or below which
// Multinomial draws trial by trial. A one-word alias draw costs a few ns
// and building the table about 10 ns per live slot, against ~100 ns for a
// conditional binomial, so at this bound the per-trial path still runs
// about twice as fast (BenchmarkMultinomial on either side of it): the
// bound keeps a margin rather than sitting at break-even.
const tallyTrialsPerLive = 9

// tallyColumn is one column of the per-trial multinomial's alias table: a
// draw landing in it takes slot when its fraction is below keep and alias
// otherwise. Slot and alias are probs indices, so a draw tallies straight
// into out with one table read.
type tallyColumn struct {
	keep        float64
	slot, alias int32
}

// tallyScratch is the per-trial multinomial's working storage, one column
// and one Vose work-list entry per live (positive-probability) slot: 20
// bytes per live slot, nothing per dead one.
type tallyScratch struct {
	cols []tallyColumn
	work []int32
}

// tallyPool recycles tally scratch across calls, rounds and runs. The
// scratch is rewritten before it is read, so which one a call gets never
// shows in a result; pooling keeps the allocation at the widest support
// seen rather than one table per replica.
var tallyPool = sync.Pool{New: func() any { return new(tallyScratch) }}

// multinomialTally draws Mult(n, probs) into out as n alias draws over the
// live slots plus a tally. out must be zeroed; live counts the positive
// entries of probs (at least one), total is their sum, and len(probs) must
// fit the table's int32 slot indices. A slot of non-positive probability
// has no column, so it never receives a trial.
//
// The table is Vose's alias method: columns scaled to mean 1 are split into
// small (< 1) and large ones, and each small column is topped up from a
// large one, which becomes its alias. One draw takes one 64-bit word, as
// Alias.Draw does: the multiply's high bits pick the column and its
// remainder is the fraction compared with keep.
//
//consensus:hotpath
func (r *RNG) multinomialTally(n int, probs []float64, total float64, live int, out []int) {
	s := tallyPool.Get().(*tallyScratch)
	if cap(s.cols) < live {
		s.grow(live)
	}
	cols, work := s.cols[:live], s.work[:live]

	// Scale to mean 1; small columns stack from the front of work, large
	// ones from the back.
	scale := float64(live) / total
	j, small, large := 0, 0, live
	for i, p := range probs {
		if p <= 0 {
			continue
		}
		w := p * scale
		cols[j] = tallyColumn{keep: w, slot: int32(i), alias: int32(i)}
		if w < 1 {
			work[small] = int32(j)
			small++
		} else {
			large--
			work[large] = int32(j)
		}
		j++
	}
	for small > 0 && large < live {
		small--
		l, g := work[small], work[large]
		cols[l].alias = cols[g].slot
		cols[g].keep = (cols[g].keep + cols[l].keep) - 1
		if cols[g].keep < 1 {
			large++
			work[small] = g
			small++
		}
	}
	// Columns left small by rounding keep their own slot outright (large
	// ones already do: keep >= 1).
	for _, l := range work[:small] {
		cols[l].keep = 1
	}

	k := uint64(live)
	g := r.pcg
	for t := 0; t < n; t++ {
		hi, lo := bits.Mul64(g.next(), k)
		c := &cols[hi]
		slot := c.slot
		if float64(lo>>11)*0x1p-53 >= c.keep {
			slot = c.alias
		}
		out[slot]++
	}
	r.pcg = g
	tallyPool.Put(s)
}

// grow sizes the scratch for live slots; a cold path, taken only when a
// wider support than any before reaches the pooled scratch.
func (s *tallyScratch) grow(live int) {
	s.cols = make([]tallyColumn, live)
	s.work = make([]int32, live)
}
