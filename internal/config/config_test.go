package config

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewValid(t *testing.T) {
	c, err := New([]int{3, 0, 7})
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 10 {
		t.Errorf("N = %d, want 10", c.N())
	}
	if c.Slots() != 3 {
		t.Errorf("Slots = %d, want 3", c.Slots())
	}
	if c.Remaining() != 2 {
		t.Errorf("Remaining = %d, want 2", c.Remaining())
	}
	if c.Label(2) != 2 {
		t.Errorf("Label(2) = %d, want 2", c.Label(2))
	}
}

func TestNewErrors(t *testing.T) {
	tests := []struct {
		name   string
		counts []int
	}{
		{name: "empty", counts: nil},
		{name: "negative", counts: []int{1, -1}},
		{name: "all zero", counts: []int{0, 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.counts); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestNewLabeledErrors(t *testing.T) {
	if _, err := NewLabeled([]int{1, 1}, []int{5}); err == nil {
		t.Fatal("expected length-mismatch error")
	}
	if _, err := NewLabeled([]int{1, 1}, []int{5, 5}); err == nil {
		t.Fatal("expected duplicate-label error")
	}
}

func TestFromNodes(t *testing.T) {
	c, err := FromNodes([]int{7, 3, 7, 7, 3})
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 5 || c.Slots() != 2 {
		t.Fatalf("got n=%d slots=%d", c.N(), c.Slots())
	}
	// Slot 0 is color 7 (first appearance), slot 1 is color 3.
	if c.Label(0) != 7 || c.Count(0) != 3 {
		t.Errorf("slot 0: label %d count %d, want 7/3", c.Label(0), c.Count(0))
	}
	if c.Label(1) != 3 || c.Count(1) != 2 {
		t.Errorf("slot 1: label %d count %d, want 3/2", c.Label(1), c.Count(1))
	}
}

func TestFromNodesEmpty(t *testing.T) {
	if _, err := FromNodes(nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestCloneIsDeep(t *testing.T) {
	c, _ := New([]int{2, 3})
	d := c.Clone()
	d.CountsView()[0] = 99
	if c.Count(0) != 2 {
		t.Fatal("Clone shares backing array")
	}
}

func TestMaxAndBias(t *testing.T) {
	c, _ := New([]int{4, 9, 9, 1})
	slot, sup := c.Max()
	if slot != 1 || sup != 9 {
		t.Errorf("Max = (%d, %d), want (1, 9)", slot, sup)
	}
	if got := c.Bias(); got != 0 {
		t.Errorf("Bias = %d, want 0 (9 - 9)", got)
	}
	c2, _ := New([]int{10, 3})
	if got := c2.Bias(); got != 7 {
		t.Errorf("Bias = %d, want 7", got)
	}
	c3, _ := New([]int{5})
	if got := c3.Bias(); got != 5 {
		t.Errorf("single-color Bias = %d, want 5", got)
	}
}

func TestSortedDesc(t *testing.T) {
	c, _ := New([]int{1, 5, 0, 3})
	got := c.SortedDesc()
	want := []int{5, 3, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortedDesc = %v, want %v", got, want)
		}
	}
	// Must be a copy.
	got[0] = -1
	if c.Count(1) != 5 {
		t.Fatal("SortedDesc aliases internal storage")
	}
}

func TestFractionsAndL2(t *testing.T) {
	c, _ := New([]int{2, 2})
	x := c.Fractions(nil)
	if x[0] != 0.5 || x[1] != 0.5 {
		t.Fatalf("Fractions = %v", x)
	}
	if got := c.L2Squared(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("L2Squared = %v, want 0.5", got)
	}
}

func TestEntropy(t *testing.T) {
	uniform, _ := New([]int{1, 1, 1, 1})
	if got, want := uniform.Entropy(), math.Log(4); math.Abs(got-want) > 1e-12 {
		t.Errorf("uniform entropy %v, want %v", got, want)
	}
	point, _ := New([]int{4})
	if got := point.Entropy(); got != 0 {
		t.Errorf("point-mass entropy %v, want 0", got)
	}
}

func TestCompact(t *testing.T) {
	c, _ := NewLabeled([]int{0, 5, 0, 3}, []int{10, 11, 12, 13})
	c.Compact()
	if c.Slots() != 2 {
		t.Fatalf("Slots = %d after Compact", c.Slots())
	}
	if c.Label(0) != 11 || c.Label(1) != 13 {
		t.Fatalf("labels after Compact: %d, %d", c.Label(0), c.Label(1))
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactRemainingZeroAllocs: the run loop calls Remaining and
// Compact after every batch round, so neither may allocate.
func TestCompactRemainingZeroAllocs(t *testing.T) {
	counts := make([]int, 64)
	for s := range counts {
		counts[s] = s % 3
	}
	c, _ := New(counts)
	sink := 0
	if avg := testing.AllocsPerRun(100, func() {
		sink += c.Remaining()
		c.Compact()
	}); avg != 0 {
		t.Errorf("Remaining and Compact allocate %.2f times, want 0", avg)
	}
	if sink == 0 || c.Slots() != c.Remaining() {
		t.Fatalf("Compact left %d slots for %d colors", c.Slots(), c.Remaining())
	}
}

func TestNodesRoundTrip(t *testing.T) {
	c, _ := New([]int{2, 0, 3})
	nodes := c.Nodes()
	if len(nodes) != 5 {
		t.Fatalf("Nodes length %d", len(nodes))
	}
	back, err := FromNodes(nodes)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != c.N() || back.Remaining() != c.Remaining() {
		t.Fatalf("round trip changed shape: %v vs %v", back, c)
	}
}

func TestCheckInvariantDetectsCorruption(t *testing.T) {
	c, _ := New([]int{2, 3})
	c.CountsView()[0] = 1 // sum now 4 != 5
	if err := c.CheckInvariant(); err == nil {
		t.Fatal("expected invariant violation")
	}
}

func TestIsConsensus(t *testing.T) {
	one, _ := New([]int{0, 9, 0})
	if !one.IsConsensus() {
		t.Error("single surviving color should be consensus")
	}
	two, _ := New([]int{1, 9})
	if two.IsConsensus() {
		t.Error("two colors is not consensus")
	}
}

func TestStringDoesNotPanic(t *testing.T) {
	c, _ := New([]int{1, 2, 3})
	if s := c.String(); s == "" {
		t.Fatal("empty String()")
	}
}

// Property: for any valid random counts vector, invariants hold and derived
// quantities are consistent.
func TestQuickDerivedQuantities(t *testing.T) {
	prop := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		counts := make([]int, len(raw))
		sum := 0
		for i, v := range raw {
			counts[i] = int(v)
			sum += int(v)
		}
		if sum == 0 {
			counts[0] = 1
			sum = 1
		}
		c, err := New(counts)
		if err != nil {
			return false
		}
		if c.N() != sum {
			return false
		}
		if err := c.CheckInvariant(); err != nil {
			return false
		}
		// Fractions sum to 1.
		fsum := 0.0
		for _, f := range c.Fractions(nil) {
			fsum += f
		}
		if math.Abs(fsum-1) > 1e-9 {
			return false
		}
		// Remaining matches count of positive entries; Bias >= 0.
		if c.Bias() < 0 {
			return false
		}
		// Compacting preserves n and Remaining.
		k := c.Remaining()
		c.Compact()
		return c.Remaining() == k && c.Slots() == k && c.CheckInvariant() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
