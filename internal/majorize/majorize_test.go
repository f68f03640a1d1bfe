package majorize

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestIntsBasics(t *testing.T) {
	tests := []struct {
		name string
		x, y []int
		want bool
	}{
		{name: "consensus majorizes everything", x: []int{10, 0, 0}, y: []int{4, 3, 3}, want: true},
		{name: "uniform is minimal", x: []int{4, 3, 3}, y: []int{10, 0, 0}, want: false},
		{name: "self", x: []int{5, 3, 2}, y: []int{5, 3, 2}, want: true},
		{name: "permutation-invariant", x: []int{2, 3, 5}, y: []int{5, 3, 2}, want: true},
		{name: "incomparable sums", x: []int{5, 5}, y: []int{5, 4}, want: false},
		{name: "classic", x: []int{4, 2, 0}, y: []int{3, 2, 1}, want: true},
		{name: "classic reversed", x: []int{3, 2, 1}, y: []int{4, 2, 0}, want: false},
		{name: "zero padding", x: []int{6}, y: []int{3, 2, 1}, want: true},
		{name: "zero padding reverse", x: []int{3, 2, 1}, y: []int{6}, want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Ints(tt.x, tt.y); got != tt.want {
				t.Fatalf("Ints(%v, %v) = %v, want %v", tt.x, tt.y, got, tt.want)
			}
		})
	}
}

func TestFloatsBasics(t *testing.T) {
	if !Floats([]float64{0.5, 0.5, 0}, []float64{0.4, 0.3, 0.3}, 1e-12) {
		t.Error("(.5,.5,0) should majorize (.4,.3,.3)")
	}
	if Floats([]float64{0.4, 0.3, 0.3}, []float64{0.5, 0.5, 0}, 1e-12) {
		t.Error("(.4,.3,.3) should not majorize (.5,.5,0)")
	}
	// The Appendix B pair: x ≻ x̃ where x=(1/2,1/6,1/6,1/6), x̃=(1/2,1/2,0,0).
	x := []float64{0.5, 1.0 / 6, 1.0 / 6, 1.0 / 6}
	xt := []float64{0.5, 0.5, 0, 0}
	if !Floats(xt, x, 1e-12) {
		t.Error("Appendix B: (1/2,1/2,0,0) should majorize (1/2,1/6,1/6,1/6)")
	}
	if Floats(x, xt, 1e-12) {
		t.Error("Appendix B: (1/2,1/6,1/6,1/6) should not majorize (1/2,1/2,0,0)")
	}
}

func TestFloatsTolerance(t *testing.T) {
	x := []float64{0.5, 0.5}
	y := []float64{0.5 + 1e-10, 0.5 - 1e-10}
	if !Floats(x, y, 1e-9) {
		t.Error("within tolerance should majorize")
	}
	if Floats(x, y, 1e-12) {
		t.Error("outside tolerance should not majorize")
	}
}

func TestIntsComparable(t *testing.T) {
	if !IntsComparable([]int{1, 2}, []int{3, 0}) {
		t.Error("equal sums should be comparable")
	}
	if IntsComparable([]int{1, 2}, []int{3, 1}) {
		t.Error("different sums should not be comparable")
	}
	if IntsComparable([]int{1}, []int{1, 0}) {
		t.Error("different lengths flagged comparable")
	}
}

func TestLorenz(t *testing.T) {
	got := lorenzInts([]int{1, 3, 2})
	want := []int{3, 5, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LorenzInts = %v, want %v", got, want)
		}
	}
	gf := lorenzFloats([]float64{0.2, 0.5, 0.3})
	if math.Abs(gf[0]-0.5) > 1e-12 || math.Abs(gf[2]-1.0) > 1e-12 {
		t.Fatalf("LorenzFloats = %v", gf)
	}
}

func TestIsProbVector(t *testing.T) {
	if !isProbVector([]float64{0.3, 0.7}, 1e-9) {
		t.Error("valid prob vector rejected")
	}
	if isProbVector([]float64{0.5, 0.6}, 1e-9) {
		t.Error("sum > 1 accepted")
	}
	if isProbVector([]float64{-0.1, 1.1}, 1e-9) {
		t.Error("negative entry accepted")
	}
}

func TestTransferChain(t *testing.T) {
	x := []int{10, 0, 0}
	y := []int{4, 3, 3}
	chain, err := TransferChain(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) == 0 || len(chain) > 2 {
		t.Fatalf("chain length %d, want 1..2 (at most d-1)", len(chain))
	}
	got := applyTransfers(x, chain)
	want := sortedDescInts(y)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ApplyTransfers = %v, want %v", got, want)
		}
	}
}

func TestTransferChainIdentity(t *testing.T) {
	chain, err := TransferChain([]int{3, 2, 1}, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 0 {
		t.Fatalf("permutation should need 0 transfers, got %d", len(chain))
	}
}

func TestTransferChainErrors(t *testing.T) {
	if _, err := TransferChain([]int{1, 2}, []int{4, 0}); err == nil {
		t.Error("expected error: sums differ")
	}
	if _, err := TransferChain([]int{3, 2, 1}, []int{4, 2, 0}); err == nil {
		t.Error("expected error: x does not majorize y")
	}
}

// Property: ≻ is reflexive (up to permutation), antisymmetric on sorted
// vectors, and transitive.
func TestQuickPreorderLaws(t *testing.T) {
	gen := func(raw []uint8) []int {
		out := make([]int, len(raw))
		for i, v := range raw {
			out[i] = int(v % 16)
		}
		return out
	}
	prop := func(rawX, rawY []uint8) bool {
		if len(rawX) == 0 || len(rawX) != len(rawY) {
			return true
		}
		x := gen(rawX)
		y := gen(rawY)
		// Reflexivity.
		if !Ints(x, x) {
			return false
		}
		// If comparable and mutually majorizing, sorted views must be equal.
		if IntsComparable(x, y) && Ints(x, y) && Ints(y, x) {
			sx, sy := sortedDescInts(x), sortedDescInts(y)
			for i := range sx {
				if sx[i] != sy[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: any valid transfer chain preserves the total and produces a
// vector majorized by the source.
func TestQuickTransferChainSound(t *testing.T) {
	prop := func(raw []uint8, seed uint8) bool {
		if len(raw) < 2 {
			return true
		}
		x := make([]int, len(raw))
		total := 0
		for i, v := range raw {
			x[i] = int(v % 32)
			total += x[i]
		}
		if total == 0 {
			x[0] = 1
			total = 1
		}
		// Build y by applying a few random-ish Robin Hood moves to x (so
		// x ≻ y by construction), then reconstruct a chain.
		y := sortedDescInts(x)
		for step := 0; step < 3; step++ {
			i := int(seed) % len(y)
			j := (i + 1 + step) % len(y)
			if i == j {
				continue
			}
			hi, lo := i, j
			if y[lo] > y[hi] {
				hi, lo = lo, hi
			}
			if y[hi] > y[lo] {
				// Move one unit from richer to poorer: a T-transform.
				y[hi]--
				y[lo]++
			}
		}
		if !Ints(x, y) {
			return false // T-transforms must preserve x ≻ y
		}
		chain, err := TransferChain(x, y)
		if err != nil {
			return false
		}
		got := applyTransfers(x, chain)
		want := sortedDescInts(y)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Schur-convex battery functions are monotone w.r.t. ≻ on random
// comparable pairs (x, y) with x ≻ y built via Robin Hood transfers.
func TestQuickSchurMonotone(t *testing.T) {
	battery := Battery()
	prop := func(raw []uint8) bool {
		if len(raw) < 3 {
			return true
		}
		x := make([]float64, len(raw))
		for i, v := range raw {
			x[i] = float64(v%32) + 1
		}
		// One Robin Hood transfer: y is strictly below x in ≻ order.
		y := make([]float64, len(x))
		copy(y, x)
		sort.Sort(sort.Reverse(sort.Float64Slice(y)))
		if y[0] <= y[len(y)-1] {
			return true
		}
		delta := (y[0] - y[len(y)-1]) / 2
		y[0] -= delta
		y[len(y)-1] += delta
		for _, tf := range battery {
			if tf.F(x)+1e-9 < tf.F(y) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTopJSum(t *testing.T) {
	f := topJSum(2)
	if got := f.F([]float64{1, 5, 3}); got != 8 {
		t.Fatalf("topJSum(2) = %v, want 8", got)
	}
	big := topJSum(10)
	if got := big.F([]float64{1, 2}); got != 3 {
		t.Fatalf("TopJSum clamps to length: got %v, want 3", got)
	}
}

func TestBatteryNonEmptyAndFinite(t *testing.T) {
	x := []float64{0.2, 0.3, 0.5}
	for _, tf := range Battery() {
		v := tf.F(x)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s returned non-finite %v", tf.Name, v)
		}
	}
}

// lorenzInts returns the prefix sums of the non-increasingly sorted vector:
// L[j] = Σ_{i<=j} x↓_i. These are the partial sums compared by "≻".
func lorenzInts(x []int) []int {
	s := sortedDescInts(x)
	out := make([]int, len(s))
	run := 0
	for i, v := range s {
		run += v
		out[i] = run
	}
	return out
}

// lorenzFloats is lorenzInts for float vectors.
func lorenzFloats(x []float64) []float64 {
	s := sortedDescFloats(x)
	out := make([]float64, len(s))
	run := 0.0
	for i, v := range s {
		run += v
		out[i] = run
	}
	return out
}

// isProbVector reports whether p is entry-wise non-negative and sums to 1
// within tol.
func isProbVector(p []float64, tol float64) bool {
	sum := 0.0
	for _, v := range p {
		if v < -tol {
			return false
		}
		sum += v
	}
	return math.Abs(sum-1) <= tol
}

// applyTransfers applies a transfer chain to the sorted-descending view of x
// and returns the result (useful to verify a chain produced by
// TransferChain).
func applyTransfers(x []int, chain []Transfer) []int {
	cur := sortedDescInts(x)
	for _, tr := range chain {
		cur[tr.From] -= tr.Amount
		cur[tr.To] += tr.Amount
	}
	return cur
}

// topJSum returns the Schur-convex function x ↦ Σ of the j largest entries.
func topJSum(j int) TestFunc {
	return TestFunc{
		Name: "top_j",
		F: func(x []float64) float64 {
			s := sortedDescFloats(x)
			if j > len(s) {
				j = len(s)
			}
			sum := 0.0
			for i := 0; i < j; i++ {
				sum += s[i]
			}
			return sum
		},
	}
}
