package rng

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestAliasDistribution(t *testing.T) {
	r := New(20)
	weights := []float64{1, 3, 0, 6}
	a := newAlias(weights)
	const draws = 200000
	counts := make([]int, len(weights))
	for i := 0; i < draws; i++ {
		counts[a.draw(r)]++
	}
	if counts[2] != 0 {
		t.Fatalf("zero-weight category drawn %d times", counts[2])
	}
	total := 10.0
	for i, w := range weights {
		want := w / total
		got := float64(counts[i]) / draws
		if math.Abs(got-want) > 0.01 {
			t.Errorf("category %d: frequency %.4f, want %.4f", i, got, want)
		}
	}
}

func TestAliasSingleCategory(t *testing.T) {
	r := New(21)
	a := newAlias([]float64{5})
	for i := 0; i < 10; i++ {
		if got := a.draw(r); got != 0 {
			t.Fatalf("single-category alias drew %d", got)
		}
	}
}

func TestAliasCounts(t *testing.T) {
	r := New(22)
	a := NewAliasCounts([]int{0, 10, 10})
	const draws = 50000
	counts := make([]int, 3)
	for i := 0; i < draws; i++ {
		counts[a.draw(r)]++
	}
	if counts[0] != 0 {
		t.Fatalf("zero-count category drawn %d times", counts[0])
	}
	if got := float64(counts[1]) / draws; math.Abs(got-0.5) > 0.015 {
		t.Errorf("category 1 frequency %.4f, want 0.5", got)
	}
}

func TestAliasLen(t *testing.T) {
	if got := newAlias([]float64{1, 2, 3}).Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
}

func TestAliasEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty weights")
		}
	}()
	newAlias(nil)
}

func TestAliasNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative weight")
		}
	}()
	newAlias([]float64{1, -1})
}

func TestAliasAllZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on all-zero weights")
		}
	}()
	newAlias([]float64{0, 0})
}

// TestAliasDrawNMatchesDraw: DrawN is specified as the batched form of
// Draw — same stream, bit-identical samples. Two RNGs with the same seed
// must therefore produce identical sequences through either entry point.
func TestAliasDrawNMatchesDraw(t *testing.T) {
	weights := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	a := newAlias(weights)
	const n = 4096
	r1, r2 := New(77), New(77)
	batched := make([]int, n)
	a.DrawN(r1, batched)
	for i := 0; i < n; i++ {
		if got := a.draw(r2); got != batched[i] {
			t.Fatalf("draw %d: DrawN=%d Draw=%d (streams diverged)", i, batched[i], got)
		}
	}
}

// TestAliasDrawNLargeK guards the fraction/column decorrelation for tables
// wider than 2^11 columns: the Mul64 remainder must keep the probability
// compare unbiased even when the raw low bits of the draw word would be
// pinned by the column choice.
func TestAliasDrawNLargeK(t *testing.T) {
	const k = 1 << 14
	weights := make([]float64, k)
	// Half the mass on even columns, spread so every column's alias slot
	// is exercised.
	for i := range weights {
		if i%2 == 0 {
			weights[i] = 3
		} else {
			weights[i] = 1
		}
	}
	a := newAlias(weights)
	r := New(78)
	buf := make([]int, 1<<18)
	a.DrawN(r, buf)
	even := 0
	for _, v := range buf {
		if v%2 == 0 {
			even++
		}
	}
	got := float64(even) / float64(len(buf))
	// Want 3/4; 8 sigma of binomial noise at 2^18 draws is ~0.0068.
	if math.Abs(got-0.75) > 0.0068 {
		t.Fatalf("even-column frequency %.4f, want 0.75 (biased fraction compare)", got)
	}
}

// TestAliasDrawNZeroAllocs: the batched and scalar draws, the column
// select (aliasColumn.pick) and the threshold conversion (keepThreshold)
// allocate nothing.
func TestAliasDrawNZeroAllocs(t *testing.T) {
	a := NewAliasCounts([]int{5, 1, 3, 7})
	r := New(79)
	dst := make([]int, 1024)
	if avg := testing.AllocsPerRun(20, func() { a.DrawN(r, dst) }); avg != 0 {
		t.Fatalf("DrawN allocates %.2f times per batch, want 0", avg)
	}
	sink := 0
	if avg := testing.AllocsPerRun(20, func() {
		c := aliasColumn{keep: keepThreshold(0.3), alias: 2}
		sink += a.draw(r) + c.pick(1, r.Uint64())
	}); avg != 0 {
		t.Fatalf("Draw, pick and keepThreshold allocate %.2f times, want 0", avg)
	}
	_ = sink
}

// TestKeepThreshold: the integer threshold decides every 53-bit fraction x
// as the float compare float64(x)·2⁻⁵³ < p does, checked where the two
// could part: at x = keep−1 and x = keep, for p at both ends of [0, 1], a
// subnormal, and probabilities that are not multiples of 2⁻⁵³.
func TestKeepThreshold(t *testing.T) {
	for _, p := range []float64{
		0, 0x1p-53, 5e-324, 0x1p-1022, 0x1p-54, 3 * 0x1p-55,
		0.3, 1.0 / 3, 0.5, 1 - 0x1p-53, 1,
	} {
		keep := keepThreshold(p)
		for _, x := range []uint64{keep - 1, keep} {
			if x >= keepAll || (x == keep-1 && keep == 0) {
				continue // not a 53-bit fraction
			}
			kept := x < keep
			if want := float64(x)*0x1p-53 < p; kept != want {
				t.Errorf("p = %g, x = %d: threshold %d keeps %v, float compare %v", p, x, keep, kept, want)
			}
		}
	}
	// A column that always keeps must keep every fraction; one that never
	// keeps, none.
	if keepThreshold(1) != keepAll || keepThreshold(0) != 0 {
		t.Errorf("keepThreshold(1) = %d, keepThreshold(0) = %d", keepThreshold(1), keepThreshold(0))
	}
}

// TestPickMatchesFloatCompare: the masked select takes the column's own
// index exactly when the draw's fraction float64(lo>>11)·2⁻⁵³ is below the
// keep probability, for fractions on both sides of the threshold and at
// it, and for random draws.
func TestPickMatchesFloatCompare(t *testing.T) {
	r := New(80)
	for _, p := range []float64{0, 5e-324, 0x1p-53, 0.3, 1.0 / 3, 0.5, 1 - 0x1p-53, 1} {
		thr := keepThreshold(p)
		los := []uint64{0, ^uint64(0)}
		for _, x := range []uint64{thr - 1, thr, thr + 1} {
			if x < keepAll {
				los = append(los, x<<11, x<<11|0x7ff)
			}
		}
		for i := 0; i < 1000; i++ {
			los = append(los, r.Uint64())
		}
		for _, lo := range los {
			below := float64(lo>>11)*0x1p-53 < p
			if got := (aliasColumn{keep: thr, alias: 9}).pick(5, lo) == 5; got != below {
				t.Fatalf("keep %g, lo %#x: kept %v, float compare %v", p, lo, got, below)
			}
		}
	}
}

// TestAliasQuickInRangeAndSupported checks that every draw is a valid index
// with positive weight, for arbitrary weight vectors.
func TestAliasQuickInRangeAndSupported(t *testing.T) {
	r := New(23)
	prop := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		weights := make([]float64, len(raw))
		positive := false
		for i, w := range raw {
			weights[i] = float64(w)
			if w > 0 {
				positive = true
			}
		}
		if !positive {
			weights[0] = 1
		}
		a := newAlias(weights)
		for i := 0; i < 32; i++ {
			idx := a.draw(r)
			if idx < 0 || idx >= len(weights) || weights[idx] <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// newAlias builds an alias table over weights (non-negative, not all zero).
// Weights need not be normalized.
func newAlias(weights []float64) *Alias {
	a := &Alias{}
	a.Reset(weights)
	return a
}

// draw returns one index sampled from the table's distribution, consuming
// one word exactly as each DrawN sample does: the one-sample reference
// DrawN is held to.
func (a *Alias) draw(r *RNG) int {
	hi, lo := bits.Mul64(r.Uint64(), uint64(len(a.cols)))
	return a.cols[hi].pick(int(hi), lo)
}
