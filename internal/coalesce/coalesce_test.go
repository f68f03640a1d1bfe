package coalesce

import (
	"errors"
	"testing"

	"github.com/ignorecomply/consensus/internal/drift"
	"github.com/ignorecomply/consensus/internal/graph"
	"github.com/ignorecomply/consensus/internal/rng"
	"github.com/ignorecomply/consensus/internal/stats"
)

func TestNewStartsWithNWalks(t *testing.T) {
	g := graph.NewComplete(20)
	p := New(g)
	if p.Walks() != 20 {
		t.Fatalf("Walks = %d, want 20", p.Walks())
	}
}

// newAt returns a coalescing process with walks at the given (distinct)
// positions.
func newAt(g graph.Graph, positions []int) (*Process, error) {
	if len(positions) == 0 {
		return nil, errors.New("coalesce: no walk positions")
	}
	seen := make([]bool, g.N())
	for _, u := range positions {
		if u < 0 || u >= g.N() {
			return nil, errors.New("coalesce: position out of range")
		}
		if seen[u] {
			return nil, errors.New("coalesce: duplicate position")
		}
		seen[u] = true
	}
	return &Process{g: g, occupied: append([]int(nil), positions...), scratch: make([]bool, g.N())}, nil
}

func TestNewAtValidation(t *testing.T) {
	g := graph.NewComplete(10)
	if _, err := newAt(g, nil); err == nil {
		t.Error("expected error: empty positions")
	}
	if _, err := newAt(g, []int{11}); err == nil {
		t.Error("expected error: out of range")
	}
	if _, err := newAt(g, []int{3, 3}); err == nil {
		t.Error("expected error: duplicates")
	}
	p, err := newAt(g, []int{1, 5, 7})
	if err != nil {
		t.Fatal(err)
	}
	if p.Walks() != 3 {
		t.Fatalf("Walks = %d, want 3", p.Walks())
	}
}

func TestStepNeverIncreasesWalks(t *testing.T) {
	r := rng.New(111)
	g := graph.NewComplete(100)
	p := New(g)
	prev := p.Walks()
	for i := 0; i < 200; i++ {
		p.Step(r)
		cur := p.Walks()
		if cur > prev {
			t.Fatalf("walks increased from %d to %d", prev, cur)
		}
		prev = cur
	}
}

func TestRunUntilSingleWalk(t *testing.T) {
	r := rng.New(112)
	g := graph.NewComplete(50)
	p := New(g)
	steps, err := p.RunUntil(1, r, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if p.Walks() != 1 {
		t.Fatalf("Walks = %d after RunUntil(1)", p.Walks())
	}
	if steps <= 0 {
		t.Fatalf("steps = %d", steps)
	}
}

func TestRunUntilBudget(t *testing.T) {
	r := rng.New(113)
	p := New(graph.NewRing(1000))
	if _, err := p.RunUntil(1, r, 2); err == nil {
		t.Fatal("expected budget exhaustion on a slow graph")
	}
}

func TestRunUntilBadK(t *testing.T) {
	r := rng.New(114)
	p := New(graph.NewComplete(10))
	if _, err := p.RunUntil(0, r, 10); err == nil {
		t.Fatal("expected error: k = 0")
	}
}

// TestCoalescenceMeetsDriftBound: on the complete graph the measured mean
// T^k_C must respect the paper's bound E[T^k_C] <= 20n/k (Eq. 18).
func TestCoalescenceMeetsDriftBound(t *testing.T) {
	r := rng.New(115)
	const n = 300
	for _, k := range []int{2, 10, 50} {
		var times []float64
		for rep := 0; rep < 30; rep++ {
			p := New(graph.NewComplete(n))
			steps, err := p.RunUntil(k, r, 10_000_000)
			if err != nil {
				t.Fatal(err)
			}
			times = append(times, float64(steps))
		}
		mean := stats.Mean(times)
		bound := drift.CoalescenceBound(n, k)
		if mean > bound {
			t.Errorf("k=%d: mean T^k_C = %.1f exceeds drift bound %.1f", k, mean, bound)
		}
	}
}

// TestLemma4Duality: the shared-randomness coupling gives exactly equal
// walk and opinion counts at every horizon, on several graphs.
func TestLemma4Duality(t *testing.T) {
	r := rng.New(116)
	graphs := map[string]graph.Graph{
		"complete": graph.NewComplete(60),
		"ring":     graph.NewRing(40),
		"torus":    graph.NewTorus(5, 8),
		"star":     graph.NewStar(30),
	}
	if rr, err := graph.NewRandomRegular(40, 3, r); err == nil {
		graphs["random-3-regular"] = rr
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			tb, err := NewTable(g, 80, r)
			if err != nil {
				t.Fatal(err)
			}
			mismatch, err := tb.Verify(80)
			if err != nil {
				t.Fatal(err)
			}
			if mismatch != nil {
				t.Fatalf("Lemma 4 violated at T=%d: walks %d != opinions %d",
					mismatch.T, mismatch.Walks, mismatch.Opinions)
			}
		})
	}
}

func TestCurveMonotoneAndAnchored(t *testing.T) {
	r := rng.New(117)
	g := graph.NewComplete(40)
	tb, err := NewTable(g, 50, r)
	if err != nil {
		t.Fatal(err)
	}
	curve, err := tb.Curve(50)
	if err != nil {
		t.Fatal(err)
	}
	if curve[0].Walks != 40 || curve[0].Opinions != 40 {
		t.Fatalf("T=0 should have n walks and opinions: %+v", curve[0])
	}
	prev := curve[0].Walks
	for _, pt := range curve[1:] {
		if pt.Walks > prev {
			t.Fatalf("walk count increased at T=%d", pt.T)
		}
		prev = pt.Walks
	}
}

func TestTableErrors(t *testing.T) {
	r := rng.New(118)
	g := graph.NewComplete(10)
	if _, err := NewTable(g, -1, r); err == nil {
		t.Error("expected error: negative horizon")
	}
	tb, err := NewTable(g, 5, r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.WalksAfter(6); err == nil {
		t.Error("expected error: beyond horizon")
	}
	if _, err := tb.WalksAfter(-1); err == nil {
		t.Error("expected error: negative T")
	}
	if _, err := tb.Curve(6); err == nil {
		t.Error("expected error: curve beyond horizon")
	}
}

func TestTableChoiceInRange(t *testing.T) {
	r := rng.New(119)
	g := graph.NewRing(12)
	tb, err := NewTable(g, 10, r)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < tb.Horizon(); tt++ {
		for u := 0; u < 12; u++ {
			v := tb.y[tt][u]
			// Ring neighbors are u±1 mod 12.
			if v != (u+1)%12 && v != (u+11)%12 {
				t.Fatalf("Y_%d(%d) = %d is not a ring neighbor", tt, u, v)
			}
		}
	}
}
