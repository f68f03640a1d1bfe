package rng

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// The generator is owned (pcg) rather than borrowed from math/rand/v2, but
// its streams are pinned to rand/v2's: the same seed must give the same
// words, and every derived draw must consume them in rand/v2's order. The
// tests below use rand/v2 as the oracle; it is imported here only.

// intNOracleBounds are the IntN bounds the stream oracle checks: the
// trivial bound, a power of two (the mask path), small odd bounds (Lemire
// without rejection in practice), both sides of 2³², and bounds large
// enough that the rejection loop runs often (2⁶²+1 rejects about a
// quarter of first draws).
var intNOracleBounds = []int{1, 2, 3, 7, 1 << 32, 1<<32 + 1, 1<<62 + 1, math.MaxInt}

// randV2For returns the rand/v2 generator that New(seed) must reproduce.
func randV2For(seed uint64) *rand.Rand {
	s1 := splitMix64(seed)
	return rand.New(rand.NewPCG(s1, splitMix64(s1)))
}

// checkStreamMatches draws the same sequence from got and want and fails
// at the first difference: words, floats, every oracle IntN bound (twice),
// a shuffle, a permutation, and a final word that confirms both streams
// stand at the same position.
func checkStreamMatches(t *testing.T, label string, got *RNG, want *rand.Rand) {
	t.Helper()
	for i := 0; i < 4; i++ {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("%s: Uint64 #%d = %#x, rand/v2 %#x", label, i, g, w)
		}
		if g, w := got.Float64(), want.Float64(); g != w {
			t.Fatalf("%s: Float64 #%d = %v, rand/v2 %v", label, i, g, w)
		}
	}
	for rep := 0; rep < 2; rep++ {
		for _, n := range intNOracleBounds {
			if g, w := got.IntN(n), want.IntN(n); g != w {
				t.Fatalf("%s: IntN(%d) = %d, rand/v2 %d", label, n, g, w)
			}
		}
	}
	gs, ws := make([]int, 17), make([]int, 17)
	for i := range gs {
		gs[i], ws[i] = i, i
	}
	got.Shuffle(len(gs), func(i, j int) { gs[i], gs[j] = gs[j], gs[i] })
	want.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
	if !slices.Equal(gs, ws) {
		t.Fatalf("%s: Shuffle = %v, rand/v2 %v", label, gs, ws)
	}
	if g, w := got.Perm(23), want.Perm(23); !slices.Equal(g, w) {
		t.Fatalf("%s: Perm = %v, rand/v2 %v", label, g, w)
	}
	if g, w := got.Uint64(), want.Uint64(); g != w {
		t.Fatalf("%s: streams out of step after the draws: %#x vs %#x", label, g, w)
	}
}

// TestStreamMatchesRandV2: over 1000 seeds and a Derive child of each, the
// owned generator's Uint64, Float64, IntN, Shuffle and Perm equal
// math/rand/v2's Rand over the same PCG state, draw for draw.
func TestStreamMatchesRandV2(t *testing.T) {
	for seed := uint64(0); seed < 1000; seed++ {
		r, ref := New(seed), randV2For(seed)
		// Derive takes two words from the parent and mixes them with i.
		child := r.Derive(seed)
		a, b := ref.Uint64(), ref.Uint64()
		refChild := rand.New(rand.NewPCG(splitMix64(a^seed), splitMix64(b+seed)))
		checkStreamMatches(t, "parent", r, ref)
		checkStreamMatches(t, "child", child, refChild)
	}
}

// FuzzIntNMatchesRandV2: for any seed and positive bound, a run of IntN
// draws equals rand/v2's, so the rejection loop consumes the same words.
// Unless the bound is a power of two, a FillIntN batch equals them too.
func FuzzIntNMatchesRandV2(f *testing.F) {
	for i, n := range intNOracleBounds {
		f.Add(uint64(i), int64(n))
	}
	f.Fuzz(func(t *testing.T, seed uint64, n int64) {
		if n <= 0 || n > math.MaxInt {
			t.Skip("IntN needs a positive int bound")
		}
		r, ref := New(seed), randV2For(seed)
		for i := 0; i < 16; i++ {
			if g, w := r.IntN(int(n)), ref.IntN(int(n)); g != w {
				t.Fatalf("seed %d: IntN(%d) draw %d = %d, rand/v2 %d", seed, n, i, g, w)
			}
		}
		if g, w := r.Uint64(), ref.Uint64(); g != w {
			t.Fatalf("seed %d: streams out of step after IntN(%d)", seed, n)
		}
		if n&(n-1) == 0 {
			return
		}
		batch := make([]int, 16)
		r.FillIntN(int(n), batch)
		for i, g := range batch {
			if w := ref.IntN(int(n)); g != w {
				t.Fatalf("seed %d: FillIntN(%d) draw %d = %d, rand/v2 IntN %d", seed, n, i, g, w)
			}
		}
	})
}

// TestGeneratorZeroAllocs: the generator's step and the bounded draw that
// IntN, Shuffle and Perm share allocate nothing.
func TestGeneratorZeroAllocs(t *testing.T) {
	r := New(54)
	sink := uint64(0)
	if avg := testing.AllocsPerRun(100, func() {
		sink += r.pcg.next() + r.uint64n(7) + r.uint64n(1<<62+1)
	}); avg != 0 {
		t.Errorf("pcg.next and uint64n allocate %.2f times, want 0", avg)
	}
	_ = sink
}
