package analytic

import (
	"math"
	"testing"

	"github.com/ignorecomply/consensus/internal/rng"
)

// The envelope math is what makes a fast-forwarded stretch *certified*:
// these tests pin its two contracts. Monotonicity — the envelope can only
// widen when the noise grows, the map expands more, or the failure budget
// shrinks — is what makes the hybrid engine's boundary checks sound to
// evaluate against the upper bound alone. Coverage — the concentration
// bound never undercovers the actual multinomial step — is checked
// empirically against seeded draws.

func TestMultinomialStepNoiseMonotone(t *testing.T) {
	noise := func(n, k int, delta float64) float64 {
		t.Helper()
		eps, err := MultinomialStepNoise(n, k, delta)
		if err != nil {
			t.Fatalf("MultinomialStepNoise(%d, %d, %g): %v", n, k, delta, err)
		}
		return eps
	}
	// More samples concentrate harder.
	if a, b := noise(1000, 4, 1e-9), noise(100000, 4, 1e-9); b >= a {
		t.Errorf("noise must shrink with n: eps(1e3)=%g eps(1e5)=%g", a, b)
	}
	// More live colors widen the union bound.
	if a, b := noise(10000, 2, 1e-9), noise(10000, 64, 1e-9); b <= a {
		t.Errorf("noise must grow with k: eps(k=2)=%g eps(k=64)=%g", a, b)
	}
	// A tighter failure budget widens the envelope.
	if a, b := noise(10000, 4, 1e-3), noise(10000, 4, 1e-12); b <= a {
		t.Errorf("noise must grow as delta shrinks: eps(1e-3)=%g eps(1e-12)=%g", a, b)
	}
}

func TestMultinomialStepNoiseRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		n, k  int
		delta float64
	}{
		{0, 4, 1e-9}, {100, 0, 1e-9}, {100, 4, 0}, {100, 4, 1}, {100, 4, -0.5},
	} {
		if _, err := MultinomialStepNoise(tc.n, tc.k, tc.delta); err == nil {
			t.Errorf("MultinomialStepNoise(%d, %d, %g) accepted", tc.n, tc.k, tc.delta)
		}
	}
}

// TestMultinomialStepNoiseNeverUndercovers: the per-round claim behind
// every skipped round is P(∃i: |c_i/n − x_i| > ε) ≤ δ for c ~ Mult(n, x).
// Hoeffding plus a union bound is conservative, so the empirical
// violation rate over seeded draws must come in at or below δ — if this
// fails, fast-forwarded runs are not certified at all.
func TestMultinomialStepNoiseNeverUndercovers(t *testing.T) {
	const (
		n      = 2000
		trials = 3000
		delta  = 0.05
	)
	x := []float64{0.45, 0.3, 0.2, 0.05}
	eps, err := MultinomialStepNoise(n, len(x), delta)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(77)
	counts := make([]int, len(x))
	violations := 0
	for trial := 0; trial < trials; trial++ {
		r.Multinomial(n, x, counts)
		for i, c := range counts {
			if math.Abs(float64(c)/n-x[i]) > eps {
				violations++
				break
			}
		}
	}
	if rate := float64(violations) / trials; rate > delta {
		t.Fatalf("empirical violation rate %.4f exceeds delta %.2f (eps=%g): the envelope undercovers", rate, delta, eps)
	}
}

func TestComposeEnvelopeMonotone(t *testing.T) {
	base := ComposeEnvelope(0.01, 1.5, 0.002)
	if got := ComposeEnvelope(0.02, 1.5, 0.002); got <= base {
		t.Errorf("envelope must grow with the carried deviation: %g <= %g", got, base)
	}
	if got := ComposeEnvelope(0.01, 2.5, 0.002); got <= base {
		t.Errorf("envelope must grow with the Lipschitz bound: %g <= %g", got, base)
	}
	if got := ComposeEnvelope(0.01, 1.5, 0.004); got <= base {
		t.Errorf("envelope must grow with the step noise: %g <= %g", got, base)
	}
	if got := ComposeEnvelope(0, 3, 0.002); got != 0.002 {
		t.Errorf("zero carried deviation must leave the fresh noise alone, got %g", got)
	}
}

// randomSimplexPair draws a point x on the k-simplex and a second point z
// with ‖z − x‖₁ ≤ radius (mass moved from one coordinate to another).
func randomSimplexPair(r *rng.RNG, k int, radius float64) (x, z []float64) {
	x = make([]float64, k)
	sum := 0.0
	for i := range x {
		x[i] = r.Float64() + 1e-3
		sum += x[i]
	}
	for i := range x {
		x[i] /= sum
	}
	z = append([]float64(nil), x...)
	from, to := r.IntN(k), r.IntN(k)
	move := radius / 2 * r.Float64()
	if move > z[from] {
		move = z[from]
	}
	z[from] -= move
	z[to] += move
	return x, z
}

func l1Dist(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		d += math.Abs(a[i] - b[i])
	}
	return d
}

// TestThreeMajorityLipschitzDominatesMap: the local bound must dominate
// the actual expansion of the Eq. 2 map between any two simplex points
// within the stated radius — this is the inequality every ComposeEnvelope
// call relies on.
func TestThreeMajorityLipschitzDominatesMap(t *testing.T) {
	r := rng.New(31)
	for _, k := range []int{2, 3, 8} {
		for trial := 0; trial < 400; trial++ {
			radius := 0.2 * r.Float64()
			x, z := randomSimplexPair(r, k, radius)
			d := l1Dist(x, z)
			if d == 0 {
				continue
			}
			lips := ThreeMajorityLipschitz(x, radius)
			ax, az := make([]float64, k), make([]float64, k)
			ThreeMajorityAlpha(x, ax)
			ThreeMajorityAlpha(z, az)
			if got := l1Dist(ax, az); got > lips*d*(1+1e-9) {
				t.Fatalf("k=%d trial %d: ‖α(z)−α(x)‖₁ = %g exceeds L·‖z−x‖₁ = %g·%g", k, trial, got, lips, d)
			}
		}
	}
}

// TestHMajorityLipschitzDominatesMap: same dominance check for the
// plurality-of-h map (h = 5) against the global coupling bound h.
func TestHMajorityLipschitzDominatesMap(t *testing.T) {
	const h = 5
	r := rng.New(32)
	var e AlphaEvaluator
	lips := HMajorityLipschitz(h)
	for trial := 0; trial < 200; trial++ {
		x, z := randomSimplexPair(r, 4, 0.1)
		d := l1Dist(x, z)
		// A move from a color to itself leaves z = x up to rounding; such
		// a pair measures the evaluator's ulps, not the map's expansion.
		if d < 1e-12 {
			continue
		}
		ax, az := make([]float64, len(x)), make([]float64, len(x))
		if err := e.Alpha(x, h, ax); err != nil {
			t.Fatal(err)
		}
		if err := e.Alpha(z, h, az); err != nil {
			t.Fatal(err)
		}
		if got := l1Dist(ax, az); got > lips*d*(1+1e-9) {
			t.Fatalf("trial %d: ‖α(z)−α(x)‖₁ = %g exceeds h·‖z−x‖₁ = %g", trial, got, lips*d)
		}
	}
	if HMajorityLipschitz(1) != 1 || HMajorityLipschitz(2) != 1 {
		t.Error("h <= 2 is the Voter identity map; its Lipschitz bound is 1")
	}
}

func TestThreeMajorityLipschitzProperties(t *testing.T) {
	x := []float64{0.6, 0.3, 0.1}
	// Wider uncertainty can only weaken (raise) the bound.
	if a, b := ThreeMajorityLipschitz(x, 0), ThreeMajorityLipschitz(x, 0.1); b < a {
		t.Errorf("bound must be monotone in the radius: L(0)=%g L(0.1)=%g", a, b)
	}
	// The global coupling cap.
	if got := ThreeMajorityLipschitz(x, 1); got > 3 {
		t.Errorf("bound must cap at the coupling bound 3, got %g", got)
	}
	// A negative radius clamps to the pointwise bound.
	if a, b := ThreeMajorityLipschitz(x, -1), ThreeMajorityLipschitz(x, 0); a != b {
		t.Errorf("negative radius must clamp to 0: got %g vs %g", a, b)
	}
}

// TestEnvelopeHotpathZeroAllocs: the planner calls ComposeEnvelope,
// ThreeMajorityLipschitz and the in-place stepper Step once per planned
// round; none may allocate in steady state (AllocsPerRun must be 0).
func TestEnvelopeHotpathZeroAllocs(t *testing.T) {
	x := []float64{0.5, 0.3, 0.2}
	sink := 0.0
	if avg := testing.AllocsPerRun(100, func() {
		sink = ComposeEnvelope(sink*0, 1.5, 0.01)
		sink += ThreeMajorityLipschitz(x, 0.05)
	}); avg != 0 {
		t.Errorf("ComposeEnvelope/ThreeMajorityLipschitz allocate %.2f times per call, want 0", avg)
	}
	var st MeanFieldStepper
	st.Reset(x)
	if avg := testing.AllocsPerRun(100, func() {
		if !st.Step(ThreeMajorityAlpha) {
			t.Fatal("Step failed")
		}
	}); avg != 0 {
		t.Errorf("MeanFieldStepper.Step allocates %.2f times per call, want 0", avg)
	}
	_ = sink
}
