package drift

import (
	"errors"
	"math"
	"testing"
)

func TestBoundConstantDrift(t *testing.T) {
	// h(y) = c: bound = xmin/c + (x0 - xmin)/c = x0/c.
	got, err := bound(100, 1, func(float64) float64 { return 0.5 }, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-200) > 1e-9 {
		t.Fatalf("constant-drift bound = %v, want 200", got)
	}
}

func TestBoundMatchesCoalescenceClosedForm(t *testing.T) {
	// h(x) = x²/(10n): Theorem 7 gives 20n/k - 10 exactly.
	const n = 1000
	for _, k := range []int{1, 5, 50, 500} {
		h := func(x float64) float64 { return x * x / (10 * n) }
		got, err := bound(n, float64(k), h, 20000)
		if err != nil {
			t.Fatal(err)
		}
		want := coalescenceBoundExact(n, k)
		if math.Abs(got-want) > 0.01*want+0.5 {
			t.Errorf("k=%d: integrator %v vs closed form %v", k, got, want)
		}
	}
}

func TestBoundDegenerate(t *testing.T) {
	got, err := bound(5, 5, func(float64) float64 { return 2 }, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("x0 == xmin bound = %v, want 2.5", got)
	}
}

func TestBoundErrors(t *testing.T) {
	if _, err := bound(10, 0, func(float64) float64 { return 1 }, 10); err == nil {
		t.Error("expected error: xmin = 0")
	}
	if _, err := bound(1, 10, func(float64) float64 { return 1 }, 10); err == nil {
		t.Error("expected error: x0 < xmin")
	}
	if _, err := bound(10, 1, func(float64) float64 { return 0 }, 10); err == nil {
		t.Error("expected error: h = 0")
	}
	if _, err := bound(10, 1, func(x float64) float64 { return x - 5 }, 10); err == nil {
		t.Error("expected error: h negative inside range")
	}
}

func TestCoalescenceBound(t *testing.T) {
	if got := CoalescenceBound(1000, 10); got != 2000 {
		t.Fatalf("CoalescenceBound(1000, 10) = %v, want 2000", got)
	}
	if got := coalescenceBoundExact(1000, 10); got != 1990 {
		t.Fatalf("CoalescenceBoundExact = %v, want 1990", got)
	}
}

func TestCoalescenceBoundPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CoalescenceBound(10, 11)
}

// bound evaluates the variable-drift upper bound xmin/h(xmin) + ∫ 1/h by
// composite Simpson integration with the given number of panels (rounded up
// to even). h must be positive on [xmin, x0] and non-decreasing; positivity
// is checked at the evaluation points.
func bound(x0, xmin float64, h func(float64) float64, panels int) (float64, error) {
	if xmin <= 0 || x0 < xmin {
		return 0, errors.New("drift: need 0 < xmin <= x0")
	}
	hmin := h(xmin)
	if hmin <= 0 {
		return 0, errors.New("drift: h(xmin) must be positive")
	}
	head := xmin / hmin
	if x0 == xmin {
		return head, nil
	}
	if panels < 2 {
		panels = 2
	}
	if panels%2 == 1 {
		panels++
	}
	// Simpson's rule on f(y) = 1/h(y).
	width := (x0 - xmin) / float64(panels)
	sum := 0.0
	for i := 0; i <= panels; i++ {
		y := xmin + float64(i)*width
		hy := h(y)
		if hy <= 0 || math.IsNaN(hy) {
			return 0, errors.New("drift: h must be positive on [xmin, x0]")
		}
		w := 4.0
		switch {
		case i == 0 || i == panels:
			w = 1
		case i%2 == 0:
			w = 2
		}
		sum += w / hy
	}
	return head + sum*width/3, nil
}

// coalescenceBoundExact returns the un-rounded Theorem 7 value
// 20n/k - 10 for cross-checking the numeric integrator.
func coalescenceBoundExact(n, k int) float64 {
	if n <= 0 || k <= 0 || k > n {
		panic("drift: coalescenceBoundExact requires 0 < k <= n")
	}
	return 20*float64(n)/float64(k) - 10
}
