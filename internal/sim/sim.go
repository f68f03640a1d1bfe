// Package sim executes consensus processes round by round behind one
// engine-agnostic Runner: run-to-consensus and run-to-κ-colors (the
// paper's T^κ reduction times), round budgets, traces, context
// cancellation, per-round Byzantine corruption (§5), and parallel replica
// execution with per-replica deterministic random streams.
//
// Four engines share the same round loop, option set and Result type:
//
//   - Batch: the exact O(k) one-round law on configurations (core.Rule);
//   - Agents: the literal per-node Uniform Pull simulation (core.NodeRule);
//   - Graph: per-node simulation on an arbitrary interaction topology;
//   - Cluster: a real message-passing system on a deterministic
//     discrete-event network engine with pluggable latency/loss/partition
//     models (internal/cluster, WithNetwork).
package sim

import (
	"context"
	"errors"
	"runtime"
	"slices"

	"github.com/ignorecomply/consensus/internal/adversary"
	"github.com/ignorecomply/consensus/internal/cluster"
	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/core"
	"github.com/ignorecomply/consensus/internal/graph"
	"github.com/ignorecomply/consensus/internal/rng"
)

// TracePoint is one sampled observation of a run.
type TracePoint struct {
	Round      int
	Colors     int
	MaxSupport int
	Bias       int
}

// Result describes a completed run. It is the superset of what every
// engine and regime reports: the batch/agents/graph engines fill the
// round-and-configuration fields, the cluster engine additionally fills
// the message accounting, and adversarial runs (WithAdversary) fill the
// §5 stability bookkeeping.
type Result struct {
	// Rounds is the number of rounds executed.
	Rounds int
	// Converged reports whether the stopping target was reached within the
	// round budget: the color target (or WithStopWhen predicate) for plain
	// runs, the stable almost-consensus window for adversarial runs.
	Converged bool
	// Final is the configuration at the end of the run.
	Final *config.Config
	// WinnerLabel is the label of the plurality color of Final (the
	// consensus color when Converged with target 1).
	WinnerLabel int
	// WinnerValid reports whether the winner is a valid color: one
	// supported in the initial configuration (Byzantine validity, §5),
	// minus any labels declared invalid up front (WithInvalidLabels —
	// adversarially planted initial opinions). Always true for runs
	// without an adversary, invalid labels or injected colors.
	WinnerValid bool
	// ColorTimes maps each requested κ to the first round at the end of
	// which at most κ colors remained (0 if already true initially);
	// entries are absent for κ values never reached.
	ColorTimes map[int]int
	// Trace holds periodic observations when tracing was enabled.
	Trace []TracePoint

	// Messages is the total number of protocol messages (requests and
	// responses) exchanged; only the cluster engine sends real messages.
	Messages int64
	// BitsPerMessage is the size of one cluster message payload:
	// ⌈log₂(slots)⌉ bits over the final slot space (the model's O(log k)
	// constraint; an adversary may grow the slot space mid-run). Zero for
	// the sampling engines.
	BitsPerMessage int

	// Corrupted is the total number of node corruptions applied by the
	// adversary (WithAdversary runs only).
	Corrupted int
	// AlmostConsensusRound is the first round at the end of which some
	// color held at least ⌈(1-ε)·n⌉ nodes, or -1 if never (or if the run
	// had no adversary).
	AlmostConsensusRound int
	// Stable reports whether, from AlmostConsensusRound on, the same color
	// kept almost-consensus support for the required window.
	Stable bool

	// FastForward summarizes the certified fast-forward activity of a
	// hybrid-engine run (nil on every other engine): rounds skipped
	// analytically, stretch count and envelope widths. For a fixed seed
	// the report is bit-identical across runs and worker counts.
	FastForward *FastForwardReport
}

type options struct {
	ctx          context.Context
	maxRounds    int
	targetColors int
	colorTimes   []int
	traceEvery   int
	observer     func(round int, c *config.Config)
	stopWhen     func(round int, c *config.Config) bool

	engine    Engine
	engineSet bool
	graph     graph.Graph
	network   cluster.Model

	parallel    int
	parallelSet bool

	adv     adversary.Adversary
	advSet  bool
	epsilon float64
	window  int

	behaviors     *behaviors
	invalidLabels []int

	// ff is the hybrid planner's tuning: always defaultFFTuning outside
	// the package's own tests.
	ff ffTuning

	rng     *rng.RNG
	seed    uint64
	seedSet bool
}

// Option configures a run.
type Option interface {
	apply(*options)
}

type optionFunc func(*options)

func (f optionFunc) apply(o *options) { f(o) }

// WithMaxRounds bounds the number of rounds (default 10,000,000).
func WithMaxRounds(n int) Option {
	return optionFunc(func(o *options) { o.maxRounds = n })
}

// WithTargetColors stops the run once at most k colors remain (default 1,
// i.e. consensus). Adversarial runs ignore the color target: their
// stopping rule is the §5 stability window (see WithAdversary).
func WithTargetColors(k int) Option {
	return optionFunc(func(o *options) { o.targetColors = k })
}

// WithColorTimes records, for each κ, the first round at which at most κ
// colors remain (the paper's T^κ observable).
func WithColorTimes(kappas ...int) Option {
	cp := append([]int(nil), kappas...)
	return optionFunc(func(o *options) { o.colorTimes = cp })
}

// WithTrace samples a TracePoint every `every` rounds (and at the end).
func WithTrace(every int) Option {
	return optionFunc(func(o *options) { o.traceEvery = every })
}

// WithObserver invokes fn after every round with the current round number
// and configuration (a live view: do not mutate or retain). The batch and
// hybrid engines drop extinct slots after each round, so slot indices may
// shift between calls: follow colors by label, not by slot.
func WithObserver(fn func(round int, c *config.Config)) Option {
	return optionFunc(func(o *options) { o.observer = fn })
}

// WithStopWhen ends the run (as converged) the first time fn returns true,
// evaluated after every round in addition to the color target. Use it for
// stopping conditions beyond color counts, e.g. "some color exceeds
// support ℓ'" in the Theorem 5 experiments.
func WithStopWhen(fn func(round int, c *config.Config) bool) Option {
	return optionFunc(func(o *options) { o.stopWhen = fn })
}

// WithParallelism shards the per-node engines (agents, graph) across p
// worker goroutines: the population is partitioned into p contiguous
// shards, shard s draws from its own random stream derived from the run's
// source (base.Derive(s)), all shards sample against an immutable snapshot
// of the round's configuration, and the per-shard count deltas are merged
// at the round barrier. This is exact for the paper's synchronous Uniform
// Pull model — every node updates against the previous round's
// configuration regardless of execution order.
//
// p = 1 reproduces the sequential engine bit-for-bit. p = 0 (the default)
// resolves to runtime.GOMAXPROCS(0) on factory Runners; a single-rule
// Runner without an explicit WithParallelism stays sequential (see below).
// Fixed seed and fixed p reproduce bit-for-bit across runs and schedulers;
// changing p reassigns nodes to streams, so results across different p are
// equal in distribution only (the statistical-equivalence suite in
// crossvalidate_test.go pins this) — which also means the GOMAXPROCS
// default trades cross-machine seed reproducibility for speed; pin p where
// recorded streams matter.
//
// With p > 1 every shard needs its own rule scratch: a factory Runner
// (NewFactoryRunner) creates one rule instance per shard; a single-rule
// Runner shares the instance across shards, which requires the rule's
// Update method to be safe for concurrent calls (true of every built-in
// rule). That sharing is therefore opt-in: a custom rule may keep scratch
// on the receiver, so without a factory, sharding needs an explicit
// WithParallelism. The cluster engine uses p as its worker-pool size with
// the same contract — fixed (seed, p) is bit-exact, changing p is
// distribution-identical only. The batch engine ignores this option.
// Replica fan-out (RunReplicas) defaults each replica's engine to p = 1 —
// the replica pool already saturates the cores — unless WithParallelism
// is given explicitly.
func WithParallelism(p int) Option {
	return optionFunc(func(o *options) { o.parallel = p; o.parallelSet = true })
}

// WithAdversary runs the process in the §5 fault-tolerance regime: after
// every protocol round, adv corrupts up to its budget of nodes. The run
// converges when some valid-or-not color has held at least ⌈(1-ε)·n⌉
// nodes for window consecutive rounds (Result.Stable); the plain color
// target does not apply. Works on every engine: on the per-node and
// cluster engines the aggregate corruption is reflected onto concrete
// node states between rounds.
//
// The adversary value is shared by every run of the Runner, including
// parallel replicas. The built-in adversaries are stateless and safe for
// that; a custom stateful Adversary must tolerate interleaved Corrupt
// calls from concurrent replicas.
func WithAdversary(adv adversary.Adversary, epsilon float64, window int) Option {
	return optionFunc(func(o *options) {
		o.adv = adv
		o.advSet = true
		o.epsilon = epsilon
		o.window = window
	})
}

// WithRNG supplies the random source. Replica runs derive one independent
// deterministic stream per replica from it. Mutually exclusive with
// WithSeed.
func WithRNG(r *rng.RNG) Option {
	return optionFunc(func(o *options) { o.rng = r })
}

// WithSeed seeds a fresh random source for the run (default seed 1).
// Mutually exclusive with WithRNG.
func WithSeed(seed uint64) Option {
	return optionFunc(func(o *options) { o.seed = seed; o.seedSet = true })
}

func buildOptions(opts []Option) (options, error) {
	o := options{
		ctx:          context.Background(),
		maxRounds:    10_000_000,
		targetColors: 1,
		ff:           defaultFFTuning,
		seed:         1,
	}
	for _, opt := range opts {
		opt.apply(&o)
	}
	if o.maxRounds <= 0 {
		return o, errors.New("sim: max rounds must be positive")
	}
	if o.targetColors < 1 {
		return o, errors.New("sim: target colors must be >= 1")
	}
	for _, k := range o.colorTimes {
		if k < 1 {
			return o, errors.New("sim: color-time targets must be >= 1")
		}
	}
	if o.advSet && o.adv == nil {
		return o, errors.New("sim: adversary must be non-nil")
	}
	if o.adv != nil {
		if o.epsilon <= 0 || o.epsilon >= 1 {
			return o, errors.New("sim: adversary epsilon must be in (0, 1)")
		}
		if o.window < 1 {
			return o, errors.New("sim: adversary window must be >= 1")
		}
	}
	if o.rng != nil && o.seedSet {
		return o, errors.New("sim: WithRNG and WithSeed are mutually exclusive")
	}
	if o.parallel < 0 {
		return o, errors.New("sim: parallelism must be >= 0 (0 = GOMAXPROCS)")
	}
	if o.engineSet && (o.engine < EngineBatch || o.engine > EngineHybrid) {
		return o, errors.New("sim: unknown engine")
	}
	if o.graph != nil {
		if !o.engineSet {
			o.engine = EngineGraph
			o.engineSet = true
		} else if o.engine != EngineGraph {
			return o, errors.New("sim: WithGraph requires the graph engine")
		}
	}
	if o.engine == EngineGraph && o.graph == nil {
		return o, errors.New("sim: graph engine requires WithGraph")
	}
	if o.network != nil {
		if !o.engineSet {
			o.engine = EngineCluster
			o.engineSet = true
		} else if o.engine != EngineCluster {
			return o, errors.New("sim: WithNetwork requires the cluster engine")
		}
	}
	if o.behaviors != nil && o.engineSet && o.engine != EngineAgents {
		return o, errors.New("sim: node behaviors need the agents engine")
	}
	return o, nil
}

// parallelism resolves the worker-shard count for a population of n nodes:
// the configured value, defaulting to GOMAXPROCS, capped by n.
func (o *options) parallelism(n int) int {
	p := o.parallel
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// shardCount is parallelism plus the safety default for single-rule
// runners: without a factory there is one rule instance for all shards, so
// sharding only happens when the caller asked for it explicitly (keeping a
// stateful custom rule's Update out of an implicit data race, and keeping
// single-rule seeded runs bit-identical across machines with
// different core counts).
func (o *options) shardCount(n int, factory core.Factory) int {
	if factory == nil && !o.parallelSet {
		return 1
	}
	return o.parallelism(n)
}

// source resolves the run's random stream from the options.
func (o *options) source() *rng.RNG {
	if o.rng != nil {
		return o.rng
	}
	return rng.New(o.seed)
}

func runBatch(rule core.Rule, start *config.Config, r *rng.RNG, o options) (*Result, error) {
	if o.behaviors != nil {
		return nil, errors.New("sim: node behaviors need the agents engine")
	}
	c := start.Clone()
	return runLoop(c, r, o, func(round int) int {
		rule.Step(c, r)
		return 1
	}, func() *config.Config { return c }, nil)
}

// runLoop drives the shared round loop. step executes the round it is
// given — or, on the hybrid engine, a certified stretch of rounds
// starting there — and returns how many rounds it advanced (>= 1; every
// exact engine returns 1). Bookkeeping (color times, traces, observers,
// stop predicates, adversarial corruption) runs at the last executed
// round of each stride; the hybrid engine only strides past rounds whose
// observables are certified not to change, and disables striding
// entirely when an observer, stop predicate or adversary is attached.
// current returns the live configuration (which step may replace).
// nodes, when non-nil, returns the live per-node slot assignment of the
// engine, so that adversarial corruption of the aggregate counts can be
// reflected onto concrete node states; nil means the engine is purely
// aggregate.
//
// Compaction: an aggregate engine (batch, hybrid) drops extinct slots
// after the bookkeeping of every round in which a color died, so each
// round costs O(live) rather than O(initial colors). Compact keeps the
// surviving slots in order and every sampler visits only live slots in
// slot order, so the draws are those of the uncompacted table. Per-node
// engines hold slot indices in their node states, and adversaries act on
// extinct slots too (ReviveWeakest revives them, InjectInvalid keeps its
// injected slot through extinctions), so those runs never renumber slots.
//
// Cancellation: a context cancelled before the first round returns
// (nil, err); a context cancelled mid-run returns the partial Result for
// the rounds completed so far together with the error, so callers keep
// the work already done.
//
//consensus:longrun
func runLoop(c *config.Config, r *rng.RNG, o options, step func(round int) int, current func() *config.Config, nodes func() []int) (*Result, error) {
	if err := ctxErr(o.ctx); err != nil {
		return nil, err
	}
	res := &Result{
		ColorTimes:           make(map[int]int, len(o.colorTimes)),
		AlmostConsensusRound: -1,
	}
	// reached[i] records that the κ target o.colorTimes[i] has its time.
	reached := make([]bool, len(o.colorTimes))

	// Validity bookkeeping (§5): the valid labels are those of the
	// initial positive-support slots; an adversary may inject colors
	// outside that set, and WithInvalidLabels removes labels whose initial
	// support was adversarially planted (a corrupted node group). finish
	// looks the winner up once, so a slice serves.
	valid := make([]int, 0, c.Remaining())
	for s := 0; s < c.Slots(); s++ {
		if c.Count(s) > 0 {
			valid = append(valid, c.Label(s))
		}
	}

	var threshold int
	var cor corruptor
	if o.adv != nil {
		threshold = adversary.Threshold(c.N(), o.epsilon)
	}
	streakLabel := 0
	streak := 0
	compact := nodes == nil && o.adv == nil
	k := 0 // live colors at the last recorded round

	record := func(round int) bool {
		cfg := current()
		k = cfg.Remaining()
		for i, kappa := range o.colorTimes {
			if !reached[i] && k <= kappa {
				reached[i] = true
				res.ColorTimes[kappa] = round
			}
		}
		if o.traceEvery > 0 && round%o.traceEvery == 0 {
			_, maxSup := cfg.Max()
			res.Trace = append(res.Trace, TracePoint{
				Round:      round,
				Colors:     k,
				MaxSupport: maxSup,
				Bias:       cfg.Bias(),
			})
		}
		if o.observer != nil {
			o.observer(round, cfg)
		}
		if o.stopWhen != nil && o.stopWhen(round, cfg) {
			return true
		}
		if o.adv != nil {
			// §5 stopping rule: a stable almost-consensus window. Rounds
			// before the first corruption (round 0) don't count.
			if round < 1 {
				return false
			}
			slot, support := cfg.Max()
			label := cfg.Label(slot)
			if support >= threshold {
				if streak > 0 && label == streakLabel {
					streak++
				} else {
					streakLabel, streak = label, 1
				}
				if res.AlmostConsensusRound < 0 {
					res.AlmostConsensusRound = round
				}
				if streak >= o.window {
					res.Stable = true
					return true
				}
			} else {
				streak = 0
			}
			return false
		}
		return k <= o.targetColors
	}

	if record(0) {
		res.Converged = true
		finish(res, current(), 0, o, valid)
		return res, nil
	}
	for round := 1; round <= o.maxRounds; round++ {
		if err := ctxErr(o.ctx); err != nil {
			// Mid-run cancellation must not discard the rounds already
			// executed: finish the partial Result at the last completed
			// round and return it alongside the error (the run-level
			// mirror of RunReplicas' completed-work contract).
			finish(res, current(), round-1, o, valid)
			return res, err
		}
		if compact && k < current().Slots() {
			// Drop the slots that died by the last recorded round.
			current().Compact()
		}
		if stride := step(round); stride > 1 {
			// step certified and executed rounds round..round+stride-1
			// (never past the round budget); observe at the last one.
			round += stride - 1
		}
		if o.adv != nil {
			res.Corrupted += cor.apply(current(), nodes, o.adv, r)
		}
		if record(round) {
			res.Converged = true
			finish(res, current(), round, o, valid)
			return res, nil
		}
	}
	finish(res, current(), o.maxRounds, o, valid)
	return res, nil
}

// corruptor applies the per-round adversarial corruption. It owns the
// reconciliation scratch — the before-counts snapshot, the deficit/surplus
// ledgers, and the node-index pool for the partial Fisher–Yates — so a
// steady-state adversarial round performs zero allocations.
type corruptor struct {
	before  []int
	deficit []int
	surplus []int
	idx     []int // node-index pool for sampling without replacement
}

// apply runs one round of adversarial corruption. For aggregate engines
// (nodes == nil) the adversary mutates the configuration counts directly.
// For per-node engines the aggregate corruption is reconciled onto the
// live node states: for every node the adversary moved from color a to
// color b, one concrete node holding a — chosen uniformly at random — is
// reassigned to b. Under Uniform Pull nodes of a color are exchangeable
// and any choice would do; on a graph topology positions matter, and the
// random choice keeps the corruption spatially unbiased.
//
// The uniform choice is a partial Fisher–Yates over the node-index pool:
// visit a fresh uniform node, reassign it if its color still owes a
// deficit, and stop as soon as the deficit is exhausted. The pool persists
// across rounds as an arbitrary permutation — partial Fisher–Yates from
// any starting permutation still samples uniformly without replacement —
// so the walk is expected O(corrupted · n / |deficit colors|) visits per
// round (a handful, for the §5 budgets) instead of the full O(n)
// permutation the previous implementation allocated every round.
func (co *corruptor) apply(c *config.Config, nodes func() []int, adv adversary.Adversary, r *rng.RNG) int {
	if nodes == nil {
		return adv.Corrupt(c, r)
	}
	co.before = resizeInts(co.before, c.Slots())
	copy(co.before, c.CountsView())
	did := adv.Corrupt(c, r)
	// Re-fetch: InjectInvalid may have rebuilt the configuration with an
	// extra slot (old slot indices are stable, new ones append).
	after := c.CountsView()
	co.deficit = resizeInts(co.deficit, len(after))
	clear(co.deficit)
	co.surplus = resizeInts(co.surplus, len(after))
	clear(co.surplus)
	owed := 0
	for s := range after {
		b := 0
		if s < len(co.before) {
			b = co.before[s]
		}
		switch {
		case after[s] < b:
			co.deficit[s] = b - after[s]
			owed += co.deficit[s]
		case after[s] > b:
			co.surplus[s] = after[s] - b
		}
	}
	if owed == 0 {
		return did
	}
	ns := nodes()
	if len(co.idx) != len(ns) {
		co.idx = resizeInts(co.idx, len(ns))
		for i := range co.idx {
			co.idx[i] = i
		}
	}
	t := 0
	for v := 0; v < len(ns) && owed > 0; v++ {
		j := v + r.IntN(len(ns)-v)
		co.idx[v], co.idx[j] = co.idx[j], co.idx[v]
		i := co.idx[v]
		s := ns[i]
		if s >= len(co.deficit) || co.deficit[s] == 0 {
			continue
		}
		for t < len(co.surplus) && co.surplus[t] == 0 {
			t++
		}
		if t == len(co.surplus) {
			break
		}
		co.deficit[s]--
		co.surplus[t]--
		owed--
		ns[i] = t
	}
	return did
}

// ctxErr is ctx.Err() for a per-round poll: a non-blocking receive on
// Done() costs no lock while the context is live, and Err (which locks a
// cancelCtx) runs only once Done is closed.
func ctxErr(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

func finish(res *Result, c *config.Config, rounds int, o options, valid []int) {
	res.Rounds = rounds
	res.Final = c
	slot, maxSup := c.Max()
	res.WinnerLabel = c.Label(slot)
	res.WinnerValid = slices.Contains(valid, res.WinnerLabel) &&
		!slices.Contains(o.invalidLabels, res.WinnerLabel)
	if o.traceEvery > 0 && (len(res.Trace) == 0 || res.Trace[len(res.Trace)-1].Round != rounds) {
		res.Trace = append(res.Trace, TracePoint{
			Round:      rounds,
			Colors:     c.Remaining(),
			MaxSupport: maxSup,
			Bias:       c.Bias(),
		})
	}
}
