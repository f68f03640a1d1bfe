package sim

import (
	"context"

	"github.com/ignorecomply/consensus/internal/analytic"
	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/core"
	"github.com/ignorecomply/consensus/internal/rng"
)

// The hybrid engine: exact batch rounds with certified analytic
// fast-forward (DESIGN.md §8).
//
// The paper's Eq. 2 story is that expectation dynamics are deterministic
// and only finite-n noise near ties does the symmetry-breaking work — so
// far from every decision boundary, rounds are predictable and sampling
// them is wasted work. Each round the engine asks whether a stretch of
// future rounds can be *certified*: iterating the rule's mean-field map
// x_{t+1} = α(x_t) (core.MeanFielder), it composes the Chernoff/Hoeffding
// concentration of each skipped multinomial step through the map's local
// Lipschitz expansion (internal/analytic envelope math) and keeps
// extending the stretch while the certified L1 envelope stays clear of
// every decision boundary:
//
//   - drift dominance: the map must move at least driftFactor·ε per
//     round, so deterministic drift — not noise — is carrying the
//     process (Voter's identity map never qualifies: its consensus is
//     pure noise, exactly the paper's point);
//   - near-tie gap: the top-two gap must stay ≥ 2·envelope +
//     gapFactor·ε, so the plurality ordering cannot flip unnoticed;
//   - extinction floor: no live color's certified lower bound may cross
//     extinctionFloor/n, so no color can die (and no κ-target or
//     consensus event can trigger) inside the stretch.
//
// A certified stretch of m rounds is then taken in O(m·(k + terms))
// deterministic work plus ONE exact multinomial draw at the exit: the
// last skipped round's law is Mult(n, α(z_{m−1})) with α(z_{m−1}) within
// the envelope of the mean-field exit point x_m = α(x_{m−1}), so
// resampling the count vector from Mult(n, x_m) reproduces the
// concentrated law up to the certified envelope — downstream winner and
// round distributions stay statistically equivalent to EngineBatch (the
// KS/chi-square suite in hybrid_test.go pins this under the DESIGN.md §3
// sampler-change policy). Everything near a boundary falls back to the
// rule's exact Step; runs with an observer, a stop predicate or an
// adversary never fast-forward at all (arbitrary predicates and per-round
// corruption cannot be certified), which makes hybrid+adversary
// bit-identical to batch+adversary.
//
// Result.Rounds counts virtual rounds — skipped rounds included — and
// runs are bit-exact for a fixed seed: stretch decisions are pure
// functions of the count vector, and the engine is aggregate, so the
// worker count never matters.

// ffTuning is the hybrid planner's fixed tuning. Every value is
// deliberately conservative: widening one trades certification strength
// for speed.
type ffTuning struct {
	// minStretch is the smallest number of rounds a certified stretch
	// must cover to be taken: planning a stretch costs about one exact
	// round per planned round, so tiny stretches are not worth the
	// bookkeeping and run exactly instead.
	minStretch int
	// maxStretch caps a single stretch. The round budget (WithMaxRounds)
	// always caps it too.
	maxStretch int
	// delta is the per-skipped-round failure budget of the concentration
	// envelope: each skipped round's multinomial step stays within its
	// Hoeffding deviation bound except with probability delta, so a run
	// that skips S rounds is certified except with probability ≤ S·delta.
	delta float64
	// gapFactor scales the near-tie boundary: the mean-field top-two gap
	// must stay at least 2·envelope + gapFactor·ε along the stretch,
	// where ε is the per-coordinate step noise.
	gapFactor float64
	// driftFactor scales the drift-dominance criterion: the map must
	// move at least driftFactor·ε per round (L∞) for the round to be
	// skippable.
	driftFactor float64
	// extinctionFloor is the per-color support floor in nodes: a stretch
	// never continues past a point where any live color's certified lower
	// bound drops below extinctionFloor/n, keeping extinction events —
	// the discrete decisions κ-targets and consensus hang on — in exact
	// rounds.
	extinctionFloor float64
}

// defaultFFTuning is the tuning every hybrid run plans under.
var defaultFFTuning = ffTuning{
	minStretch:      4,
	maxStretch:      65536,
	delta:           1e-12,
	gapFactor:       16,
	driftFactor:     8,
	extinctionFloor: 64,
}

// FFStretch describes one taken fast-forward stretch.
type FFStretch struct {
	// StartRound is the first skipped round (1-based, in virtual rounds).
	StartRound int
	// Rounds is how many rounds the stretch advanced analytically.
	Rounds int
	// ExitEnvelope is the certified L1 deviation envelope at the stretch
	// exit: the true stochastic trajectory was within this L1 distance of
	// the mean-field exit point except with probability Rounds·10⁻¹², the
	// planner's per-skipped-round failure budget.
	ExitEnvelope float64
}

// FastForwardReport summarizes the fast-forward activity of one hybrid
// run (Result.FastForward).
type FastForwardReport struct {
	// ExactRounds is the number of rounds executed by exact sampling.
	ExactRounds int
	// SkippedRounds is the number of rounds advanced analytically;
	// ExactRounds + SkippedRounds == Result.Rounds.
	SkippedRounds int
	// Stretches lists the taken stretches in order.
	Stretches []FFStretch
	// MaxEnvelope is the widest certified exit envelope of any stretch.
	MaxEnvelope float64
}

// ffController is the switch controller of one hybrid run: it owns the
// mean-field planning buffers and decides, round by round, between one
// exact batch step and a certified stretch.
type ffController struct {
	rule      core.Rule
	mf        core.MeanFielder
	c         *config.Config
	r         *rng.RNG
	tun       ffTuning
	rep       *FastForwardReport
	maxRounds int
	// ctx is the run's context: plan polls it every extension iteration so
	// a cancellation arriving mid-stretch stops the planning loop promptly
	// instead of only being observed at the next round boundary.
	ctx context.Context
	// eligible is the run-level gate: the rule must expose the
	// mean-field contract and the run must carry no per-round observable
	// the planner cannot certify.
	eligible bool

	cur, next []float64 // mean-field planning buffers (live support slots)
	exitEnv   float64   // envelope at the end of the last planned stretch
}

func newFFController(rule core.Rule, c *config.Config, r *rng.RNG, o options) *ffController {
	f := &ffController{
		rule:      rule,
		c:         c,
		r:         r,
		tun:       o.ff,
		rep:       &FastForwardReport{Stretches: make([]FFStretch, 0, 8)},
		maxRounds: o.maxRounds,
		ctx:       o.ctx,
	}
	if mf, ok := rule.(core.MeanFielder); ok && o.adv == nil && o.observer == nil && o.stopWhen == nil {
		f.mf = mf
		f.eligible = true
	}
	return f
}

// step executes the next round — or a certified stretch starting at it —
// and returns how many rounds it advanced.
//
//consensus:hotpath
func (f *ffController) step(round int) int {
	if f.eligible {
		if m := f.plan(round); m > 0 {
			// Exit resample: the last skipped round's law is
			// Mult(n, α(z_{m−1})), concentrated around the mean-field
			// exit point left in f.cur — one exact multinomial draw
			// reproduces it up to the certified envelope.
			f.r.Multinomial(f.c.N(), f.cur, f.c.CountsView())
			f.rep.SkippedRounds += m
			f.rep.Stretches = append(f.rep.Stretches, FFStretch{
				StartRound:   round,
				Rounds:       m,
				ExitEnvelope: f.exitEnv,
			})
			if f.exitEnv > f.rep.MaxEnvelope {
				f.rep.MaxEnvelope = f.exitEnv
			}
			return m
		}
	}
	f.rule.Step(f.c, f.r)
	f.rep.ExactRounds++
	return 1
}

// plan tries to certify a fast-forward stretch starting at round. On
// success it returns the stretch length m >= minStretch with the
// mean-field exit point x_m in f.cur and the exit envelope in f.exitEnv;
// otherwise it returns 0 and the next round runs exactly. On an
// uncancelled context the decision is a pure function of the count
// vector, so fixed seeds reproduce bit-exactly; a cancellation arriving
// mid-planning stops extending the stretch (the already-certified prefix
// still commits — those rounds are certified work), so the run loop
// observes the cancellation promptly instead of after a full maxStretch
// plan.
//
//consensus:hotpath
//consensus:longrun
func (f *ffController) plan(round int) int {
	c := f.c
	k := c.Remaining()
	if k < 2 {
		return 0
	}
	eps, err := analytic.MultinomialStepNoise(c.N(), k, f.tun.delta)
	if err != nil {
		return 0
	}
	counts := c.CountsView()
	f.cur = resizeFloats(f.cur, len(counts))
	f.next = resizeFloats(f.next, len(counts))
	c.Fractions(f.cur)

	noiseL1 := float64(k) * eps // L1 step noise: k coordinates within ε each
	floor := f.tun.extinctionFloor / float64(c.N())
	minDrift := f.tun.driftFactor * eps
	maxStretch := f.tun.maxStretch
	if budget := f.maxRounds - round + 1; maxStretch > budget {
		maxStretch = budget
	}

	e := 0.0
	m := 0
	for m < maxStretch {
		if ctxErr(f.ctx) != nil {
			break
		}
		if !f.mf.MeanFieldStep(f.cur, f.next) {
			break
		}
		drift := 0.0
		for i, v := range f.next {
			d := v - f.cur[i]
			if d < 0 {
				d = -d
			}
			if d > drift {
				drift = d
			}
		}
		if drift < minDrift {
			break
		}
		// The Lipschitz bound must hold on the segment between the true
		// and mean-field points — the L1 ball of radius e around x. At
		// e = 0 the envelope is the step noise for any finite bound
		// (TestMeanFieldLipschitzFinite), so the first round skips it.
		eNext := noiseL1
		if e > 0 {
			eNext = analytic.ComposeEnvelope(e, f.mf.MeanFieldLipschitz(f.cur, e), noiseL1)
		}
		if !f.safe(f.next, eNext, eps, floor) {
			break
		}
		f.cur, f.next = f.next, f.cur
		e = eNext
		m++
	}
	if m < f.tun.minStretch {
		return 0
	}
	f.exitEnv = e
	return m
}

// safe reports whether the mean-field point x with certified envelope e
// stays clear of every decision boundary: the top-two gap dominates the
// envelope plus the near-tie margin, and no live color's certified lower
// bound crosses the extinction floor.
//
//consensus:hotpath
func (f *ffController) safe(x []float64, e, eps, floor float64) bool {
	top1, top2 := 0.0, 0.0
	for _, v := range x {
		if v <= 0 {
			continue
		}
		if v-e < floor {
			return false
		}
		if v > top1 {
			top1, top2 = v, top1
		} else if v > top2 {
			top2 = v
		}
	}
	return top1-top2 >= 2*e+f.tun.gapFactor*eps
}

// runHybrid drives a hybrid run through the shared round loop.
func runHybrid(rule core.Rule, start *config.Config, r *rng.RNG, o options) (*Result, error) {
	c := start.Clone()
	ctl := newFFController(rule, c, r, o)
	res, err := runLoop(c, r, o, ctl.step, func() *config.Config { return c }, nil)
	// Attach the report even to a partial (cancelled) result: the taken
	// stretches are completed, certified work.
	if res != nil {
		res.FastForward = ctl.rep
	}
	return res, err
}

// resizeFloats returns buf with exactly n elements, reusing capacity.
func resizeFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}
