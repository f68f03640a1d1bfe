package rng

import (
	"math"
	"math/big"
	"testing"
)

// Precision of BTRS's full acceptance test: the Stirling tails against
// log k! in 256-bit arithmetic, and the grouped log-ratio against a
// compensated sum of the per-step ratios f(j)/f(j−1) of the pmf.

const bigPrec = 256

func bigF(x float64) *big.Float { return new(big.Float).SetPrec(bigPrec).SetFloat64(x) }

// bigLog returns ln x for x > 0: x = y·2^e with y in [1, 2), then
// ln x = 2·atanh((y−1)/(y+1)) + e·ln 2, each atanh summed as its series.
func bigLog(x *big.Float) *big.Float {
	y := new(big.Float).SetPrec(bigPrec)
	e := x.MantExp(y) - 1
	y.SetMantExp(y, 1)
	res := bigLog1to2(y)
	if e != 0 {
		res.Add(res, new(big.Float).Mul(bigLog1to2(bigF(2)), bigF(float64(e))))
	}
	return res
}

// bigLog1to2 returns ln y for y in [1, 2] by 2·Σ z^(2i+1)/(2i+1),
// z = (y−1)/(y+1) <= 1/3.
func bigLog1to2(y *big.Float) *big.Float {
	z := new(big.Float).SetPrec(bigPrec).Quo(
		new(big.Float).SetPrec(bigPrec).Sub(y, bigF(1)),
		new(big.Float).SetPrec(bigPrec).Add(y, bigF(1)))
	z2 := new(big.Float).SetPrec(bigPrec).Mul(z, z)
	sum := new(big.Float).SetPrec(bigPrec)
	pow := new(big.Float).SetPrec(bigPrec).Set(z)
	for i := 1; pow.Sign() != 0 && pow.MantExp(nil) > -2*bigPrec; i += 2 {
		sum.Add(sum, new(big.Float).SetPrec(bigPrec).Quo(pow, bigF(float64(i))))
		pow.Mul(pow, z2)
	}
	return sum.Mul(sum, bigF(2))
}

// exactStirlingTails returns log k! − [(k+½)·log(k+1) − (k+1) + ½·log 2π]
// for k = 0..kmax, in 256-bit arithmetic, rounded to float64.
func exactStirlingTails(kmax int) []float64 {
	pi, _ := new(big.Float).SetPrec(bigPrec).SetString("3.14159265358979323846264338327950288419716939937510582097494459")
	halfLog2Pi := bigLog(new(big.Float).SetPrec(bigPrec).Mul(pi, bigF(2)))
	halfLog2Pi.Quo(halfLog2Pi, bigF(2))
	out := make([]float64, kmax+1)
	fact := bigF(1)
	for k := 0; k <= kmax; k++ {
		if k > 0 {
			fact.Mul(fact, bigF(float64(k)))
		}
		v := bigLog(fact)
		v.Sub(v, new(big.Float).Mul(bigLog(bigF(float64(k+1))), bigF(float64(k)+0.5)))
		v.Add(v, bigF(float64(k+1)))
		v.Sub(v, halfLog2Pi)
		out[k], _ = v.Float64()
	}
	return out
}

// TestStirlingTailTable: the table entries k <= 9 equal the 256-bit values
// to 1e-15 (math.Lgamma cannot check this: its own error at k = 8 is
// 2e-15), and above the table the three-term series stays within its
// truncation bound 1/(1680·(k+1)⁷).
func TestStirlingTailTable(t *testing.T) {
	for _, x := range []float64{0.75, 2, 10, 1e9} {
		got, _ := bigLog(bigF(x)).Float64()
		if want := math.Log(x); math.Abs(got-want) > 2e-16*math.Abs(want) {
			t.Fatalf("bigLog(%g) = %.17g, math.Log gives %.17g", x, got, want)
		}
	}
	exact := exactStirlingTails(60)
	for k, want := range exact {
		got := stirlingTail(float64(k))
		tol := 1e-15
		if k >= len(stirlingTails) {
			tol = 1/(1680*math.Pow(float64(k+1), 7)) + 1e-17
		}
		if d := math.Abs(got - want); d > tol {
			t.Errorf("stirlingTail(%d) = %.17g, want %.17g (off by %.2g > %.2g)", k, got, want, d, tol)
		}
	}
}

// TestBTRSLogRatioPrecision pins the acceptance test's precision where
// BTRS runs: for every k within m ± 4σ of the mode m, btrsLogRatio must
// match log(f(k)/f(m)) to 1e-10, with the reference summed step by step,
// log(f(j)/f(j−1)) = Log1p((p(n−j+1) − qj)/(qj)), Neumaier-compensated.
// The lgamma form it replaced was off by up to 7.3e-6 at n = 10⁹ (p = 0.3)
// on the same grid.
func TestBTRSLogRatioPrecision(t *testing.T) {
	const tol = 1e-10
	for _, n := range []float64{1e4, 1e6, 1e8, 1e9} {
		for _, p := range []float64{0.01, 0.3, 0.5} {
			q := 1 - p
			m := math.Floor((n + 1) * p)
			tailM := stirlingTail(m) + stirlingTail(n-m)
			span := math.Ceil(4 * math.Sqrt(n*p*q))
			worst := 0.0
			for _, dir := range []float64{1, -1} {
				var sum, comp float64
				for k := m + dir; math.Abs(k-m) <= span && k >= 0 && k <= n; k += dir {
					// The step between k and its neighbour toward m.
					j := k
					if dir < 0 {
						j = k + 1
					}
					step := math.Log1p(math.FMA(p, n-j+1, -q*j) / (q * j))
					if dir < 0 {
						step = -step
					}
					s := sum + step
					if math.Abs(sum) >= math.Abs(step) {
						comp += (sum - s) + step
					} else {
						comp += (step - s) + sum
					}
					sum = s
					got := btrsLogRatio(k, m, n, p, q, tailM)
					if d := math.Abs(got - (sum + comp)); d > worst {
						worst = d
					}
				}
			}
			if worst > tol {
				t.Errorf("n=%g p=%v: btrsLogRatio is off by up to %.2g, want <= %g", n, p, worst, tol)
			}
			t.Logf("n=%g p=%v: max error %.2g over m ± %g", n, p, worst, span)
		}
	}
}

// bigPow returns x^n in 256-bit arithmetic by repeated squaring.
func bigPow(x *big.Float, n int) *big.Float {
	res := bigF(1)
	sq := new(big.Float).SetPrec(bigPrec).Set(x)
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			res.Mul(res, sq)
		}
		sq.Mul(sq, sq)
	}
	return res
}

// TestBinomialP0Precision: the inversion sampler's starting mass
// P(X = 0) = (1−p)^n matches the 256-bit value to 1e-13 relative at the
// largest n the scenarios run. Taking the log of the rounded 1−p instead
// of Log1p(−p) is off by up to n·2⁻⁵³ relative: 3.2e-8 at n = 10⁹,
// np = 9.
func TestBinomialP0Precision(t *testing.T) {
	for _, n := range []int{1_000_000, 1_000_000_000} {
		for _, np := range []float64{0.5, 9} {
			p := np / float64(n)
			exact, _ := bigPow(new(big.Float).SetPrec(bigPrec).Sub(bigF(1), bigF(p)), n).Float64()
			got := binomialP0(n, p)
			if rel := math.Abs(got-exact) / exact; rel > 1e-13 {
				t.Errorf("n = %d, np = %g: P(X = 0) = %.17g, exact %.17g (relative error %.2g)", n, np, got, exact, rel)
			}
		}
	}
}
