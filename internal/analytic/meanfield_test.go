package analytic

import (
	"errors"
	"math"
	"testing"
)

// Mean-field (deterministic expectation) dynamics: iterating the process
// function x_{t+1} = α(x_t) gives the n → ∞ trajectory of an AC-process.
// Under Eq. 2 a configuration with any spread strictly amplifies its
// leaders, consensus points are fixed, and the uniform k-color
// configuration is an *unstable* fixed point — which is why finite-n noise
// (not expectation) does all the symmetry-breaking work (§1.2).

// meanFieldTrajectory iterates x_{t+1} = alpha(x_t) for the given number
// of rounds and returns the trajectory including x_0 (rounds+1 vectors).
func meanFieldTrajectory(alpha func(x, out []float64) []float64, x0 []float64, rounds int) ([][]float64, error) {
	if alpha == nil {
		return nil, errors.New("analytic: nil process function")
	}
	if rounds < 0 {
		return nil, errors.New("analytic: negative round count")
	}
	traj := [][]float64{append([]float64(nil), x0...)}
	for t := 0; t < rounds; t++ {
		next := alpha(traj[t], nil)
		if len(next) != len(x0) {
			return nil, errors.New("analytic: process function changed dimension")
		}
		traj = append(traj, next)
	}
	return traj, nil
}

// threeMajorityMeanField iterates the Eq. 2 expectation dynamics.
func threeMajorityMeanField(x0 []float64, rounds int) ([][]float64, error) {
	return meanFieldTrajectory(ThreeMajorityAlpha, x0, rounds)
}

// meanFieldRoundsToDominance returns the first round at which the leading
// coordinate of the Eq. 2 trajectory reaches the threshold, or -1 if it
// does not within maxRounds.
func meanFieldRoundsToDominance(x0 []float64, threshold float64, maxRounds int) (int, error) {
	if threshold <= 0 || threshold > 1 {
		return 0, errors.New("analytic: threshold must be in (0, 1]")
	}
	traj, err := threeMajorityMeanField(x0, maxRounds)
	if err != nil {
		return 0, err
	}
	for t, x := range traj {
		for _, v := range x {
			if v >= threshold {
				return t, nil
			}
		}
	}
	return -1, nil
}

func TestMeanFieldConsensusFixedPoint(t *testing.T) {
	traj, err := threeMajorityMeanField([]float64{1, 0, 0}, 10)
	if err != nil {
		t.Fatal(err)
	}
	last := traj[len(traj)-1]
	if last[0] != 1 || last[1] != 0 {
		t.Fatalf("consensus is not a fixed point: %v", last)
	}
}

func TestMeanFieldUniformIsFixedPoint(t *testing.T) {
	// The uniform k-color configuration is a fixed point of Eq. 2 (it is
	// unstable, but the expectation alone never leaves it — the paper's
	// point that noise does the symmetry breaking).
	x0 := []float64{0.25, 0.25, 0.25, 0.25}
	traj, err := threeMajorityMeanField(x0, 50)
	if err != nil {
		t.Fatal(err)
	}
	last := traj[len(traj)-1]
	for i, v := range last {
		if math.Abs(v-0.25) > 1e-12 {
			t.Fatalf("uniform drifted at %d: %v", i, last)
		}
	}
}

func TestMeanFieldBiasAmplifies(t *testing.T) {
	// Any initial bias is amplified monotonically toward consensus.
	traj, err := threeMajorityMeanField([]float64{0.6, 0.4}, 60)
	if err != nil {
		t.Fatal(err)
	}
	prev := traj[0][0]
	for _, x := range traj[1:] {
		if x[0] < prev-1e-12 {
			t.Fatalf("leader fraction decreased: %v -> %v", prev, x[0])
		}
		prev = x[0]
	}
	if traj[len(traj)-1][0] < 0.999 {
		t.Fatalf("mean field did not converge: leader at %v", traj[len(traj)-1][0])
	}
}

func TestMeanFieldStaysProbabilityVector(t *testing.T) {
	traj, err := threeMajorityMeanField([]float64{0.5, 0.3, 0.15, 0.05}, 30)
	if err != nil {
		t.Fatal(err)
	}
	for ti, x := range traj {
		sum := 0.0
		for _, v := range x {
			if v < -1e-12 {
				t.Fatalf("round %d: negative mass %v", ti, x)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("round %d: mass %v != 1", ti, sum)
		}
	}
}

func TestMeanFieldErrors(t *testing.T) {
	if _, err := meanFieldTrajectory(nil, []float64{1}, 3); err == nil {
		t.Error("expected error: nil alpha")
	}
	if _, err := threeMajorityMeanField([]float64{1}, -1); err == nil {
		t.Error("expected error: negative rounds")
	}
	bad := func(x, out []float64) []float64 { return []float64{1, 0} }
	if _, err := meanFieldTrajectory(bad, []float64{1}, 1); err == nil {
		t.Error("expected error: dimension change")
	}
}

func TestMeanFieldRoundsToDominance(t *testing.T) {
	// From 60/40, the Eq. 2 dynamics reach 99% quickly.
	rounds, err := meanFieldRoundsToDominance([]float64{0.6, 0.4}, 0.99, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if rounds <= 0 || rounds > 60 {
		t.Fatalf("rounds to 99%% = %d, want small positive", rounds)
	}
	// Uniform never leaves the fixed point.
	stuck, err := meanFieldRoundsToDominance([]float64{0.5, 0.5}, 0.99, 200)
	if err != nil {
		t.Fatal(err)
	}
	if stuck != -1 {
		t.Fatalf("uniform should never dominate, got %d", stuck)
	}
}

func TestMeanFieldRoundsToDominanceErrors(t *testing.T) {
	if _, err := meanFieldRoundsToDominance([]float64{1}, 0, 10); err == nil {
		t.Error("expected error: zero threshold")
	}
	if _, err := meanFieldRoundsToDominance([]float64{1}, 1.5, 10); err == nil {
		t.Error("expected error: threshold > 1")
	}
}
