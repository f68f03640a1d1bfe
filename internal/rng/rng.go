// Package rng provides seedable random number generation and the exact
// discrete samplers (Bernoulli, binomial, multinomial, binomial thinning,
// categorical) that the consensus simulators are built on.
//
// Everything is deterministic given a seed: experiments derive one stream per
// replica via Derive, so runs reproduce bit-for-bit. No package-level RNG
// state is used anywhere in the library.
package rng

import (
	"math"
	"math/bits"
)

// RNG is a seedable source of randomness with exact discrete samplers.
// It is not safe for concurrent use; derive one RNG per goroutine.
//
// The generator is PCG-DXSM, held by value (pcg). Every method draws from
// it directly, with no Source interface in between, and consumes words
// exactly as math/rand/v2's Rand over a PCG in the same state does
// (TestStreamMatchesRandV2).
type RNG struct {
	pcg pcg
}

// pcg is PCG-DXSM with a 128-bit LCG state: math/rand/v2's PCG, with the
// same constants and steps. It is a value so that the batched loops can
// step a local copy and write it back once.
type pcg struct {
	hi, lo uint64
}

// next advances the generator one step and returns the word that step
// outputs.
//
//consensus:hotpath
func (p *pcg) next() uint64 {
	const (
		mulHi = 2549297995355413924
		mulLo = 4865540595714422341
		incHi = 6364136223846793005
		incLo = 1442695040888963407
	)
	// state = state·mul + inc (mod 2¹²⁸)
	hi, lo := bits.Mul64(p.lo, mulLo)
	hi += p.hi*mulLo + p.lo*mulHi
	lo, c := bits.Add64(lo, incLo, 0)
	hi, _ = bits.Add64(hi, incHi, c)
	p.hi, p.lo = hi, lo
	// DXSM output: double xorshift multiply of the high half.
	const cheapMul = 0xda942042e4dd58b5
	hi ^= hi >> 32
	hi *= cheapMul
	hi ^= hi >> 48
	hi *= lo | 1
	return hi
}

// New returns an RNG seeded with seed. Two RNGs created with the same seed
// produce identical streams.
func New(seed uint64) *RNG {
	// Mix the seed through SplitMix64 so that adjacent seeds (0, 1, 2, ...)
	// still yield uncorrelated PCG states.
	s1 := splitMix64(seed)
	s2 := splitMix64(s1)
	return &RNG{pcg: pcg{hi: s1, lo: s2}}
}

// Derive returns a new RNG whose stream is a deterministic function of the
// receiver's seed lineage and i. Use it to give each replica or goroutine an
// independent stream.
func (r *RNG) Derive(i uint64) *RNG {
	// Draw two words from this stream and mix them with i. The parent
	// advances, so successive Derive calls with the same i also differ.
	a := r.Uint64()
	b := r.Uint64()
	return &RNG{pcg: pcg{hi: splitMix64(a ^ i), lo: splitMix64(b + i)}}
}

// Uint64 returns a uniform 64-bit value.
func (r *RNG) Uint64() uint64 { return r.pcg.next() }

// Float64 returns a uniform value in [0, 1): the word's low 53 bits
// scaled by 2⁻⁵³.
func (r *RNG) Float64() float64 {
	return float64(r.pcg.next()<<11>>11) / (1 << 53)
}

// IntN returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) IntN(n int) int {
	if n <= 0 {
		panic("rng: IntN requires n > 0")
	}
	return int(r.uint64n(uint64(n)))
}

// uint64n returns a uniform value in [0, n) for n > 0: a mask when n is a
// power of two, else Lemire's multiply with rejection, which computes the
// threshold -n % n only when the first product's low half falls below n.
// This is rand/v2's word order on every platform (its 32-bit path
// reproduces the 64-bit one).
//
//consensus:hotpath
func (r *RNG) uint64n(n uint64) uint64 {
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// FillIntN fills dst with independent uniform values in [0, n), one RNG
// word per value in the common case. It is the batched form of IntN for
// the per-node sampling loops: the generator state stays in locals for the
// whole fill and the rejection threshold is hoisted out of the loop. It
// panics if n <= 0.
//
// When n is a power of two the stream differs from repeated IntN calls
// (IntN masks the low bits, FillIntN keeps the multiply's high ones); for
// any other n they agree draw for draw. Either way the draws are exact and
// unbiased.
//
//consensus:hotpath
func (r *RNG) FillIntN(n int, dst []int) {
	if n <= 0 {
		panic("rng: FillIntN requires n > 0")
	}
	un := uint64(n)
	thresh := -un % un // (2^64 - un) mod un: reject lo below this
	g := r.pcg
	for i := range dst {
		hi, lo := bits.Mul64(g.next(), un)
		for lo < thresh {
			hi, lo = bits.Mul64(g.next(), un)
		}
		dst[i] = int(hi)
	}
	r.pcg = g
}

// Shuffle randomizes the order of n elements using swap: a Fisher–Yates
// pass from the back, swapping i with a uniform j in [0, i]. It panics if
// n < 0.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	if n < 0 {
		panic("rng: Shuffle requires n >= 0")
	}
	for i := n - 1; i > 0; i-- {
		swap(i, int(r.uint64n(uint64(i+1))))
	}
}

// Bernoulli returns true with probability p.
//
//consensus:hotpath
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// The mean below which Binomial uses exact CDF inversion rather than the
// BTRS rejection sampler: BTRS's own validity floor, since its constants
// are fitted for np >= 10. Above it BTRS is also the cheaper of the two
// (BenchmarkBinomial at np = 25: 99 ns against inversion's 167 ns).
const _inversionMeanCutoff = 10.0

// Binomial returns an exact sample from Binomial(n, p): the number of
// successes in n independent trials with success probability p.
//
// Means below 10 use CDF inversion; larger means use Hörmann's BTRS
// transformed rejection sampler, so the cost is O(1) expected regardless
// of n.
//
//consensus:hotpath
func (r *RNG) Binomial(n int, p float64) int {
	switch {
	case n <= 0 || p <= 0:
		return 0
	case p >= 1:
		return n
	}
	// Exploit symmetry so the samplers always see p <= 1/2.
	if p > 0.5 {
		return n - r.Binomial(n, 1-p)
	}
	if float64(n)*p < _inversionMeanCutoff {
		return r.binomialInversion(n, p)
	}
	return r.binomialBTRS(n, p)
}

// binomialInversion samples Binomial(n, p) by walking the CDF. Expected time
// O(np), used only for np < _inversionMeanCutoff.
//
//consensus:hotpath
func (r *RNG) binomialInversion(n int, p float64) int {
	q := 1 - p
	f := binomialP0(n, p)
	u := r.Float64()
	ratio := p / q
	k := 0
	for u > f && k < n {
		u -= f
		k++
		f *= ratio * float64(n-k+1) / float64(k)
	}
	return k
}

// binomialP0 returns P(X = 0) = (1−p)^n for X ~ Bin(n, p), in log space
// to avoid underflow for large n (p <= 1/2 and np < 10 give
// (1−p)^n >= e^(-2np) > e^-20). The log is Log1p(−p), not Log(1−p): 1−p
// is rounded, and n times the log of its rounding is a relative error of
// up to n·2⁻⁵³ in the result (3.2e-8 at n = 10⁹, p = 9·10⁻⁹).
//
//consensus:hotpath
func binomialP0(n int, p float64) float64 {
	return math.Exp(float64(n) * math.Log1p(-p))
}

// The largest distance from the mode at which binomialBTRS settles a draw
// by the product of step ratios rather than by a log.
const _btrsNearMode = 15

// binomialBTRS samples Binomial(n, p) for p <= 1/2 and np >= 10 using the
// BTRS transformed-rejection algorithm of Hörmann (1993), "The generation of
// binomial random variates". Expected number of iterations is ~1.15. A
// draw that misses the box squeeze is settled against the pmf ratio
// f(k)/f(m), m the mode, cheapest test first (Kachitvichyanukul &
// Schmeiser 1988, BTPE steps 5.1–5.3):
//
//  1. up to _btrsNearMode steps from the mode, the exact product of the
//     step ratios f(j)/f(j−1) = (n+1)s/j − s, s = p/q, with no log;
//  2. further out, while |k−m| < npq/2 − 1, one Log against BTPE's
//     two-sided bound t ± ρ on log(f(k)/f(m)) around t = −(k−m)²/(2npq)
//     (TestBTRSSqueezeBrackets);
//  3. only a draw that bound cannot settle pays for the Stirling-tail form
//     (btrsLogRatio): a few Log1p calls, precise to 1e-10 up to n = 10⁹.
//
// Stages 1 and 2 decide as the true ratio does, so an outcome can differ
// from stage 3's only where stage 3's own error would flip it.
//
//consensus:hotpath
func (r *RNG) binomialBTRS(n int, p float64) int {
	var (
		fn  = float64(n)
		q   = 1 - p
		npq = fn * p * q
		spq = math.Sqrt(npq)
		b   = 1.15 + 2.53*spq
		a   = -0.0873 + 0.0248*b + 0.01*p
		c   = fn*p + 0.5
		vr  = 0.92 - 4.2/b
		// The acceptance tests' constants are needed only once a draw
		// misses the squeeze; set on first use. tailM (always positive)
		// waits for the first draw that reaches stage 3.
		haveConsts       bool
		alpha, m, s, sn1 float64
		tailM            float64
	)
	for {
		u := r.Float64() - 0.5
		v := r.Float64()
		us := 0.5 - math.Abs(u)
		kf := math.Floor((2*a/us+b)*u + c)
		if kf < 0 || kf > fn {
			continue
		}
		// Squeeze: the box region is entirely under the target density.
		if us >= 0.07 && v <= vr {
			return int(kf)
		}
		if !haveConsts {
			alpha = (2.83 + 5.1/b) * spq
			m = math.Floor((fn + 1) * p)
			s = p / q
			sn1 = (fn + 1) * s
			haveConsts = true
		}
		// Accept iff vs <= f(k)/f(m).
		vs := v * alpha / (a/(us*us) + b)
		d := math.Abs(kf - m)
		if d <= _btrsNearMode {
			// f(k)/f(m) as the product of the step ratios between them.
			lo, hi := m, kf
			if kf < m {
				lo, hi = kf, m
			}
			f := 1.0
			for i := lo + 1; i <= hi; i++ {
				f *= sn1/i - s
			}
			if kf < m {
				f = 1 / f
			}
			if vs <= f {
				return int(kf)
			}
			continue
		}
		lhs := math.Log(vs)
		if d < npq/2-1 {
			lo, hi := btrsSqueeze(d, npq)
			if lhs < lo {
				return int(kf)
			}
			if lhs > hi {
				continue
			}
		}
		if tailM == 0 {
			tailM = stirlingTail(m) + stirlingTail(fn-m)
		}
		if lhs <= btrsLogRatio(kf, m, fn, p, q, tailM) {
			return int(kf)
		}
	}
}

// btrsSqueeze returns BTPE's bracket t − ρ <= log(f(k)/f(m)) <= t + ρ for
// the Binomial pmf f with mode m, at d = |k − m| < npq/2 − 1:
// t = −d²/(2npq), ρ = (d/npq)·((d(d/3 + 0.625) + 1/6)/npq + ½)
// (Kachitvichyanukul & Schmeiser 1988, step 5.2).
//
//consensus:hotpath
func btrsSqueeze(d, npq float64) (lo, hi float64) {
	t := -d * d / (2 * npq)
	rho := d / npq * ((d*(d/3+0.625)+1.0/6)/npq + 0.5)
	return t - rho, t + rho
}

// btrsLogRatio returns log(f(k)/f(m)) for the Binomial(n, p) pmf f, with
// q = 1−p and tailM = stirlingTail(m) + stirlingTail(n−m). It is Stirling's
// formula log j! = (j+½)·log(j+1) − (j+1) + ½·log 2π + stirlingTail(j)
// applied to the four factorials of the ratio, with the terms grouped
// around d = k−m (Hörmann 1993):
//
//	d·log(p(n−k+1)/(q(k+1))) + (m+½)·log((m+1)(n−k+1)/((k+1)(n−m+1)))
//	  + (n+1)·log((n−m+1)/(n−k+1)) + tails.
//
// Each log is taken as Log1p of its ratio minus 1, and each product is of
// size |d|, so no two terms of size n·log n cancel. Its error against the
// exact ratio is below 1e-10 up to n = 10⁹ (TestBTRSLogRatioPrecision).
//
//consensus:hotpath
func btrsLogRatio(k, m, n, p, q, tailM float64) float64 {
	d := k - m
	return d*math.Log1p(math.FMA(p, n-k+1, -q*(k+1))/(q*(k+1))) +
		(m+0.5)*math.Log1p(-d*(n+2)/((k+1)*(n-m+1))) +
		(n+1)*math.Log1p(d/(n-k+1)) +
		tailM - stirlingTail(k) - stirlingTail(n-k)
}

// stirlingTails holds stirlingTail(k) for k = 0..9, rounded from 256-bit
// values (TestStirlingTailTable).
var stirlingTails = [10]float64{
	0.08106146679532726,
	0.0413406959554093,
	0.02767792568499834,
	0.020790672103765093,
	0.016644691189821193,
	0.013876128823070748,
	0.01189670994589177,
	0.010411265261972096,
	0.009255462182712733,
	0.00833056343336287,
}

// stirlingTail returns the error of Stirling's formula at the integer
// k >= 0, log k! − [(k+½)·log(k+1) − (k+1) + ½·log 2π]: from the table for
// k <= 9, else the first three terms of its asymptotic series in 1/(k+1),
// whose truncation error 1/(1680·(k+1)⁷) is at most 3.1e-11.
//
//consensus:hotpath
func stirlingTail(k float64) float64 {
	if k < float64(len(stirlingTails)) {
		return stirlingTails[int(k)]
	}
	r := 1 / (k + 1)
	r2 := r * r
	return (1.0/12 - (1.0/360-r2*(1.0/1260))*r2) * r
}

// Multinomial draws an exact sample from Mult(n, probs) into out, which must
// have len(out) == len(probs). probs need not sum to exactly 1; it is
// normalized by its actual sum. Entries with non-positive probability
// receive 0. The sum of out always equals n.
//
// With few trials per live (positive-probability) slot — n at most
// tallyTrialsPerLive times their number — it draws trial by trial from an
// alias table over the live slots, O(live + n); otherwise it draws one
// conditional binomial per live slot, O(live). Both are exact; which one
// runs depends only on n and the live count.
//
//consensus:hotpath
func (r *RNG) Multinomial(n int, probs []float64, out []int) {
	if len(out) != len(probs) {
		panic("rng: Multinomial out length mismatch")
	}
	rest := 0.0
	last := -1 // index of the last positive-probability slot
	live := 0
	for i, p := range probs {
		if p > 0 {
			rest += p
			last = i
			live++
		}
		out[i] = 0
	}
	if last < 0 || n <= 0 {
		return
	}
	if n <= tallyTrialsPerLive*live && len(probs) <= math.MaxInt32 {
		r.multinomialTally(n, probs, rest, live, out)
		return
	}
	remaining := n
	for i, p := range probs {
		if remaining == 0 {
			break
		}
		if p <= 0 {
			continue
		}
		if i == last {
			out[i] = remaining
			remaining = 0
			break
		}
		frac := p / rest
		if frac > 1 {
			frac = 1
		}
		x := r.Binomial(remaining, frac)
		out[i] = x
		remaining -= x
		rest -= p
		if rest <= 0 {
			// Numerical exhaustion: park the leftovers here.
			out[i] += remaining
			remaining = 0
			break
		}
	}
	if remaining > 0 {
		out[last] += remaining
	}
}

// thinSkipHitsPerLive is the expected-hits-per-live-slot bound at or below
// which Thin skips geometrically from hit to hit (one Log1p per hit)
// instead of drawing one binomial per live slot.
const thinSkipHitsPerLive = 2

// Thin draws hits[i] ~ Bin(counts[i], p) independently for every slot and
// returns Σ hits: each of the Σ counts individuals is kept (a hit) with
// probability p. hits must have len(hits) == len(counts) and may be counts
// itself; slots with non-positive counts receive 0.
//
// When the expected number of hits is at most thinSkipHitsPerLive per live
// slot, it walks the slots as one concatenated population, jumping from
// hit to hit by Geometric(p) gaps, O(live + hits); otherwise it draws one
// Binomial per live slot. Both are exact; which one runs depends only on
// p, Σ counts and the live count.
//
//consensus:hotpath
func (r *RNG) Thin(counts []int, p float64, hits []int) int {
	if len(hits) != len(counts) {
		panic("rng: Thin hits length mismatch")
	}
	n, live := 0, 0
	for _, c := range counts {
		if c > 0 {
			n += c
			live++
		}
	}
	total := 0
	switch {
	case !(p > 0) || n == 0:
		for i := range hits {
			hits[i] = 0
		}
	case p >= 1:
		for i, c := range counts {
			hits[i] = max(c, 0)
		}
		total = n
	case float64(n)*p > thinSkipHitsPerLive*float64(live):
		for i, c := range counts {
			h := 0
			if c > 0 {
				h = r.Binomial(c, p)
			}
			hits[i] = h
			total += h
		}
	default:
		lq := math.Log1p(-p)
		// next is the offset of the next hit from the current slot's start.
		next := r.skipGap(lq, n)
		for i, c := range counts {
			c = max(c, 0)
			h := 0
			for next < c {
				h++
				next += 1 + r.skipGap(lq, n)
			}
			next -= c
			hits[i] = h
			total += h
		}
	}
	return total
}

// HitPositions appends to dst[:0], in increasing order, the positions in
// [0, n) of the hits among n individuals each kept independently with
// probability p, and returns the result. It walks from hit to hit by the
// geometric gaps of Thin's skip regime, one Log1p per hit, so it costs
// O(1 + hits); dst grows only when the hits outnumber its capacity.
//
//consensus:hotpath
func (r *RNG) HitPositions(n int, p float64, dst []int) []int {
	dst = dst[:0]
	if !(p > 0) || n <= 0 {
		return dst
	}
	lq := math.Log1p(-p)
	for pos := r.skipGap(lq, n); pos < n; pos += 1 + r.skipGap(lq, n) {
		dst = append(dst, pos)
	}
	return dst
}

// skipGap draws a Geometric(p) gap — failures before the next success —
// given lq = Log1p(-p). A gap of n or more passes every remaining
// individual, so it is capped at n; the comparison is made on the float
// so that a huge gap never reaches the int conversion.
//
//consensus:hotpath
func (r *RNG) skipGap(lq float64, n int) int {
	g := math.Log1p(-r.Float64()) / lq
	if g >= float64(n) {
		return n
	}
	return int(g)
}

// CategoricalCounts returns an index sampled proportionally to integer
// counts whose sum is total. It panics if total <= 0 or the counts sum to
// less than the drawn threshold.
//
//consensus:hotpath
func (r *RNG) CategoricalCounts(counts []int, total int) int {
	if total <= 0 {
		panic("rng: CategoricalCounts requires total > 0")
	}
	u := r.IntN(total)
	for i, c := range counts {
		if c <= 0 {
			continue
		}
		u -= c
		if u < 0 {
			return i
		}
	}
	panic("rng: CategoricalCounts counts sum below total")
}

// splitMix64 is the SplitMix64 finalizer, used for seed derivation.
func splitMix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
