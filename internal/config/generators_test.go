package config

import (
	"testing"
	"testing/quick"

	"github.com/ignorecomply/consensus/internal/rng"
)

func TestSingleton(t *testing.T) {
	c := Singleton(50)
	if c.N() != 50 || c.Remaining() != 50 {
		t.Fatalf("Singleton(50): n=%d k=%d", c.N(), c.Remaining())
	}
	if _, sup := c.Max(); sup != 1 {
		t.Fatalf("Singleton max support %d, want 1", sup)
	}
}

func TestConsensusGen(t *testing.T) {
	c := Consensus(9)
	if !c.IsConsensus() || c.N() != 9 {
		t.Fatalf("Consensus(9) = %v", c)
	}
}

func TestBalanced(t *testing.T) {
	c := Balanced(10, 3)
	got := sortedDesc(c)
	want := []int{4, 3, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Balanced(10,3) sorted = %v, want %v", got, want)
		}
	}
	if c.Bias() != 1 {
		t.Fatalf("Balanced(10,3) bias %d", c.Bias())
	}
	even := Balanced(12, 3)
	if even.Bias() != 0 {
		t.Fatalf("Balanced(12,3) bias %d, want 0", even.Bias())
	}
}

func TestBiased(t *testing.T) {
	c := Biased(100, 4, 20)
	if c.N() != 100 {
		t.Fatalf("n = %d", c.N())
	}
	if got := c.Bias(); got < 20 || got >= 20+4 {
		t.Fatalf("Biased(100,4,20) achieved bias %d, want in [20, 24)", got)
	}
	if slot, _ := c.Max(); slot != 0 {
		t.Fatalf("leader is slot %d, want 0", slot)
	}
}

func TestBiasedExact(t *testing.T) {
	// n - bias divisible by k: exact bias.
	c := Biased(100, 5, 10) // (100-10)/5 = 18, leader = 28
	if got := c.Bias(); got != 10 {
		t.Fatalf("achieved bias %d, want exactly 10", got)
	}
}

func TestBiasedInfeasiblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Biased(10, 5, 9)
}

func TestTwoBlock(t *testing.T) {
	c := TwoBlock(10, 3)
	if c.Count(0) != 3 || c.Count(1) != 7 {
		t.Fatalf("TwoBlock(10,3) = %v, %v", c.Count(0), c.Count(1))
	}
}

func TestZipf(t *testing.T) {
	c := Zipf(1000, 10, 1.0)
	if c.N() != 1000 || c.Remaining() != 10 {
		t.Fatalf("Zipf: n=%d k=%d", c.N(), c.Remaining())
	}
	// Monotone non-increasing supports.
	prev := c.Count(0)
	for s := 1; s < c.Slots(); s++ {
		if c.Count(s) > prev {
			t.Fatalf("Zipf supports not sorted: slot %d has %d > %d", s, c.Count(s), prev)
		}
		prev = c.Count(s)
	}
}

func TestZipfUniformCase(t *testing.T) {
	c := Zipf(100, 4, 0)
	if c.Bias() != 0 {
		t.Fatalf("Zipf(s=0) should be balanced, bias %d", c.Bias())
	}
}

func TestMaxBounded(t *testing.T) {
	c := MaxBounded(100, 7)
	if c.N() != 100 {
		t.Fatalf("n = %d", c.N())
	}
	if _, sup := c.Max(); sup != 7 {
		t.Fatalf("max support %d, want 7", sup)
	}
	if c.Remaining() != 15 { // ceil(100/7)
		t.Fatalf("k = %d, want 15", c.Remaining())
	}
}

func TestRandomComposition(t *testing.T) {
	r := rng.New(31)
	for i := 0; i < 50; i++ {
		c := RandomComposition(100, 7, r)
		if c.N() != 100 || c.Remaining() != 7 {
			t.Fatalf("RandomComposition: n=%d k=%d", c.N(), c.Remaining())
		}
		if err := c.CheckInvariant(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRandomCompositionKEqualsOne(t *testing.T) {
	c := RandomComposition(10, 1, rng.New(32))
	if !c.IsConsensus() {
		t.Fatal("k=1 composition should be consensus")
	}
}

func TestRandomAssignment(t *testing.T) {
	r := rng.New(33)
	c := RandomAssignment(10000, 4, r)
	if c.N() != 10000 || c.Slots() != 4 {
		t.Fatalf("RandomAssignment: n=%d slots=%d", c.N(), c.Slots())
	}
	for s := 0; s < 4; s++ {
		if c.Count(s) < 2000 || c.Count(s) > 3000 {
			t.Fatalf("slot %d far from uniform: %d", s, c.Count(s))
		}
	}
}

func TestGeneratorPanics(t *testing.T) {
	tests := []struct {
		name string
		fn   func()
	}{
		{name: "singleton zero", fn: func() { Singleton(0) }},
		{name: "balanced k>n", fn: func() { Balanced(3, 4) }},
		{name: "twoblock a=n", fn: func() { TwoBlock(5, 5) }},
		{name: "zipf negative s", fn: func() { Zipf(10, 2, -1) }},
		{name: "maxbounded zero", fn: func() { MaxBounded(10, 0) }},
		{name: "biased negative", fn: func() { Biased(10, 2, -1) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tt.fn()
		})
	}
}

// Property: every generator yields a valid configuration with the requested
// node count.
func TestQuickGeneratorsValid(t *testing.T) {
	r := rng.New(34)
	prop := func(nRaw, kRaw uint16) bool {
		n := int(nRaw%2000) + 1
		k := int(kRaw)%n + 1
		for _, c := range []*Config{
			Balanced(n, k),
			Zipf(n, k, 1.2),
			RandomComposition(n, k, r),
		} {
			if c.N() != n || c.CheckInvariant() != nil {
				return false
			}
			if c.Remaining() != k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleDistinct(t *testing.T) {
	r := rng.New(35)
	got := sampleDistinct(10, 10, r)
	seen := make(map[int]bool)
	for _, v := range got {
		if v < 0 || v >= 10 {
			t.Fatalf("value %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("duplicate value %d", v)
		}
		seen[v] = true
	}
}
