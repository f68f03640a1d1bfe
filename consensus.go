// Package consensus is a library for simulating and analyzing randomized
// consensus processes on the complete graph, reproducing "Ignore or
// Comply? On Breaking Symmetry in Consensus" (Berenbrink, Clementi,
// Elsässer, Kling, Mallmann-Trenn, Natale; PODC 2017, arXiv:1702.04921).
//
// The package re-exports the library's stable API surface:
//
//   - configurations and workload generators (the paper's c ∈ N₀^k vectors);
//   - the update rules: Voter, 2-Choices, 3-Majority, general h-Majority,
//     2-Median and the Undecided-State Dynamics;
//   - the Runner: one composable, context-aware entry point that executes
//     any rule on any engine (exact batch law, per-node agents, arbitrary
//     graph topology, goroutine message-passing cluster, certified
//     analytic fast-forward) with replica fan-out, all configured through
//     functional options;
//   - the paper's anonymous-consensus-process comparison framework:
//     protocol dominance (Definition 2) and the stochastic-majorization
//     footprint of the 1-step coupling (Lemma 1);
//   - coalescing random walks and the Voter duality coupling (Lemma 4);
//   - the Byzantine round adversary of the fault-tolerance regime (§5),
//     composable onto every engine via WithAdversary.
//
// A minimal run:
//
//	runner := consensus.NewRunner(consensus.NewThreeMajority(),
//	    consensus.WithSeed(42))
//	res, err := runner.Run(ctx, consensus.SingletonConfig(100_000))
//
// Whole experiments — sweeps, replicas, adversary schedules, metrics —
// are described as data and executed through the declarative scenario
// layer (the scenario sibling package); the twelve paper experiments ship
// as checked-in specs under scenarios/ and are reachable here through
// Experiments and ExperimentByID. Because a suite's result is a pure
// function of (canonical scenario, seed, scale) — scenario.Canonicalize
// and scenario.Hash make that identity explicit — suites can also be
// executed as a service: cmd/consensus-serve is an HTTP daemon with a
// content-addressed result cache and streaming progress (DESIGN.md §9).
//
// See DESIGN.md for the system inventory; cmd/consensus-sim -scenario
// regenerates every reproduction table.
package consensus

import (
	"github.com/ignorecomply/consensus/internal/adversary"
	"github.com/ignorecomply/consensus/internal/cluster"
	"github.com/ignorecomply/consensus/internal/coalesce"
	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/core"
	"github.com/ignorecomply/consensus/internal/expt"
	"github.com/ignorecomply/consensus/internal/graph"
	"github.com/ignorecomply/consensus/internal/rng"
	"github.com/ignorecomply/consensus/internal/rules"
	"github.com/ignorecomply/consensus/internal/sim"
	"github.com/ignorecomply/consensus/scenario"
)

// Core model types.
type (
	// Config is a consensus configuration: support counts per color.
	Config = config.Config
	// RNG is a seedable random source with the exact discrete samplers the
	// engines use.
	RNG = rng.RNG
	// Rule is an update rule with an exact synchronous one-round law.
	Rule = core.Rule
	// NodeRule is the per-node (Uniform Pull) view of an update rule.
	NodeRule = core.NodeRule
	// ACProcess is an anonymous consensus process (Definition 1).
	ACProcess = core.ACProcess
	// Factory creates fresh rule instances for replica runners.
	Factory = core.Factory
)

// Update rules.
type (
	// Voter adopts one uniformly sampled color (Eq. 1).
	Voter = rules.Voter
	// LazyVoter idles with probability beta per round (the [BGKMT16]
	// variant; §3.2 ablation).
	LazyVoter = rules.LazyVoter
	// TwoChoices adopts two agreeing samples, else keeps its color.
	TwoChoices = rules.TwoChoices
	// ThreeMajority adopts a 2-of-3 sample majority, else a random sample
	// (Eq. 2).
	ThreeMajority = rules.ThreeMajority
	// HMajority is the general plurality-of-h-samples rule (Conjecture 1).
	HMajority = rules.HMajority
	// TwoMedian is the order-based 2-Median rule [DGM+11].
	TwoMedian = rules.TwoMedian
	// Undecided is the Undecided-State Dynamics [BCN+15].
	Undecided = rules.Undecided
)

// Simulation types.
type (
	// Runner executes a consensus process on a configurable engine; see
	// NewRunner and NewFactoryRunner.
	Runner = sim.Runner
	// Engine selects a Runner's execution backend.
	Engine = sim.Engine
	// Result describes a completed run on any engine: rounds,
	// convergence, color-reduction times, traces, message accounting
	// (cluster engine) and §5 stability bookkeeping (adversarial runs).
	Result = sim.Result
	// TracePoint is one sampled observation of a run.
	TracePoint = sim.TracePoint
	// Option configures a run.
	Option = sim.Option
)

// Execution engines (see DESIGN.md for the comparison table).
const (
	// EngineBatch runs the exact O(k)-per-round law on configurations
	// (the default; scales to millions of nodes).
	EngineBatch = sim.EngineBatch
	// EngineAgents runs the literal per-node Uniform Pull simulation.
	EngineAgents = sim.EngineAgents
	// EngineGraph runs per-node on an interaction topology (WithGraph):
	// a complete graph runs the agents kernel (same run as EngineAgents
	// at the same seed and parallelism), any other topology pulls
	// through a neighbor table.
	EngineGraph = sim.EngineGraph
	// EngineCluster runs real message passing on the deterministic
	// discrete-event network engine (see WithNetwork).
	EngineCluster = sim.EngineCluster
	// EngineHybrid runs the batch law with certified analytic fast-forward
	// (see WithFastForward): far from decision boundaries it advances the
	// count vector many rounds at once along the mean-field map under a
	// rigorous concentration envelope, reaching n = 10⁸–10⁹ in
	// milliseconds.
	EngineHybrid = sim.EngineHybrid
)

// Hybrid-engine fast-forward types (DESIGN.md §8).
type (
	// FastForward tunes the hybrid engine's certified fast-forward; the
	// zero value of every field selects its default.
	FastForward = sim.FastForward
	// FastForwardReport summarizes a hybrid run's fast-forward activity
	// (Result.FastForward): exact vs skipped rounds, taken stretches and
	// the widest certified envelope.
	FastForwardReport = sim.FastForwardReport
	// FFStretch describes one taken fast-forward stretch.
	FFStretch = sim.FFStretch
)

// Network modeling (cluster engine).
type (
	// NetworkModel shapes message delivery on the cluster engine: per-leg
	// latency, loss, and retry timing. Implementations must be pure
	// functions of their inputs and the stream they draw from.
	NetworkModel = cluster.Model
	// ZeroNetwork is the zero-latency, lossless lockstep model (the
	// default): the paper's synchronous rounds.
	ZeroNetwork = cluster.Zero
	// Network is the configurable model: fixed delay + uniform jitter,
	// i.i.d. loss with pull retry, scheduled partitions.
	Network = cluster.Net
	// NetworkPartition is one scheduled communication split.
	NetworkPartition = cluster.Partition
)

// NewRunner builds a Runner around a single rule instance. It drives the
// batch, agents and graph engines; the cluster engine and RunReplicas
// need one rule instance per worker and therefore a NewFactoryRunner.
func NewRunner(rule Rule, opts ...Option) *Runner { return sim.NewRunner(rule, opts...) }

// NewFactoryRunner builds a Runner that creates a fresh rule instance per
// run, per replica, and (on the cluster engine) per worker lane.
func NewFactoryRunner(factory Factory, opts ...Option) *Runner {
	return sim.NewFactoryRunner(factory, opts...)
}

// Framework types (paper §2).
type (
	// Pair is a majorization-ordered pair of configurations.
	Pair = core.Pair
	// Violation is a failed dominance check.
	Violation = core.Violation
	// MajorizationCheck is one Schur-convex battery outcome.
	MajorizationCheck = core.MajorizationCheck
)

// Substrate types.
type (
	// Graph is an interaction topology (Lemma 4 holds on any of them).
	Graph = graph.Graph
	// Coalescence is a coalescing-random-walk simulation.
	Coalescence = coalesce.Process
	// DualityTable is the shared-randomness coupling of Lemma 4.
	DualityTable = coalesce.Table
	// DualityPoint compares walks and opinions at one horizon.
	DualityPoint = coalesce.DualityPoint
	// Adversary corrupts a bounded set of nodes per round (§5).
	Adversary = adversary.Adversary
	// Experiment binds a paper artifact to the scenario regenerating it.
	Experiment = expt.Experiment
	// ExperimentParams configures an experiment run.
	ExperimentParams = scenario.Params
	// ExperimentTable is an experiment's tabular output.
	ExperimentTable = scenario.Table
)

// NewRNG returns a deterministic random source seeded with seed.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }

// NewConfig returns a configuration with the given support counts.
func NewConfig(counts []int) (*Config, error) { return config.New(counts) }

// ConfigFromNodes builds a configuration from per-node colors.
func ConfigFromNodes(nodes []int) (*Config, error) { return config.FromNodes(nodes) }

// Workload generators (panic on invalid arguments).
var (
	// SingletonConfig is the n-color (leader election) configuration.
	SingletonConfig = config.Singleton
	// BalancedConfig is the near-uniform k-color configuration.
	BalancedConfig = config.Balanced
	// BiasedConfig gives color 0 a head start of at least bias nodes.
	BiasedConfig = config.Biased
	// ZipfConfig has supports proportional to 1/rank^s.
	ZipfConfig = config.Zipf
	// MaxBoundedConfig caps every color's support (Theorem 5's setting).
	MaxBoundedConfig = config.MaxBounded
	// TwoBlockConfig is the two-color configuration (a, n-a).
	TwoBlockConfig = config.TwoBlock
	// ConsensusConfig is the single-color configuration.
	ConsensusConfig = config.Consensus
	// RandomCompositionConfig samples a uniform composition of n into k
	// non-empty colors.
	RandomCompositionConfig = config.RandomComposition
)

// Rule constructors.
var (
	// NewVoter returns the Voter rule.
	NewVoter = rules.NewVoter
	// NewLazyVoter returns the lazy Voter variant.
	NewLazyVoter = rules.NewLazyVoter
	// NewTwoChoices returns the 2-Choices rule.
	NewTwoChoices = rules.NewTwoChoices
	// NewThreeMajority returns the 3-Majority rule.
	NewThreeMajority = rules.NewThreeMajority
	// NewHMajority returns the h-Majority rule.
	NewHMajority = rules.NewHMajority
	// NewTwoMedian returns the 2-Median rule.
	NewTwoMedian = rules.NewTwoMedian
	// NewUndecided returns the Undecided-State Dynamics rule.
	NewUndecided = rules.NewUndecided
)

// Run options.
var (
	// WithMaxRounds bounds the number of rounds.
	WithMaxRounds = sim.WithMaxRounds
	// WithTargetColors stops once at most k colors remain.
	WithTargetColors = sim.WithTargetColors
	// WithColorTimes records the paper's T^κ reduction times.
	WithColorTimes = sim.WithColorTimes
	// WithTrace samples a TracePoint every given number of rounds.
	WithTrace = sim.WithTrace
	// WithObserver invokes a callback after every round.
	WithObserver = sim.WithObserver
	// WithStopWhen stops on an arbitrary predicate.
	WithStopWhen = sim.WithStopWhen
	// WithEngine selects the execution backend (default EngineBatch).
	WithEngine = sim.WithEngine
	// WithParallelism shards the per-node engines (agents, graph) across
	// worker goroutines with per-shard derived random streams (factory
	// Runners default to GOMAXPROCS, single-rule Runners to sequential;
	// 1 reproduces the sequential engine bit-for-bit).
	WithParallelism = sim.WithParallelism
	// WithGraph runs the process on an interaction topology (implies
	// EngineGraph).
	WithGraph = sim.WithGraph
	// WithNetwork runs the process on the event-driven message-passing
	// engine under a network model (implies EngineCluster): latency,
	// loss with pull retry, scheduled partitions.
	WithNetwork = sim.WithNetwork
	// WithFastForward tunes the hybrid engine's certified fast-forward
	// and implies EngineHybrid; WithFastForward(FastForward{}) selects
	// the engine with default tuning.
	WithFastForward = sim.WithFastForward
	// WithAdversary runs the §5 fault-tolerance regime on any engine:
	// per-round corruption, almost-consensus threshold ⌈(1-ε)·n⌉ and a
	// stability window.
	WithAdversary = sim.WithAdversary
	// WithRNG supplies the random source (replicas derive independent
	// streams from it).
	WithRNG = sim.WithRNG
	// WithSeed seeds a fresh random source (default seed 1).
	WithSeed = sim.WithSeed
)

// Framework functions (paper §2).
var (
	// VerifyDominance checks Definition 2 on configuration pairs.
	VerifyDominance = core.VerifyDominance
	// ComparablePairs generates majorization-ordered test pairs.
	ComparablePairs = core.ComparablePairs
	// CheckStochasticMajorization tests the Lemma 1 coupling consequence.
	CheckStochasticMajorization = core.CheckStochasticMajorization
)

// Graph constructors.
var (
	// NewCompleteGraph is the complete graph with self-loops (Uniform
	// Pull).
	NewCompleteGraph = graph.NewComplete
	// NewRingGraph is the cycle graph.
	NewRingGraph = graph.NewRing
	// NewTorusGraph is the 2D torus.
	NewTorusGraph = graph.NewTorus
	// NewRandomRegularGraph samples a simple d-regular graph.
	NewRandomRegularGraph = graph.NewRandomRegular
)

// Coalescence and duality (Lemma 4).
var (
	// NewCoalescence starts one walk per node of a graph.
	NewCoalescence = coalesce.New
	// NewDualityTable draws the shared randomness of the Lemma 4 coupling.
	NewDualityTable = coalesce.NewTable
)

// Adversaries (§5).
type (
	// BoostRunnerUp feeds the second-place color from the leader.
	BoostRunnerUp = adversary.BoostRunnerUp
	// ReviveWeakest resurrects the weakest (possibly extinct) color.
	ReviveWeakest = adversary.ReviveWeakest
	// InjectInvalid corrupts nodes to a color no correct node ever held.
	InjectInvalid = adversary.InjectInvalid
	// RandomNoise corrupts random nodes to random live colors.
	RandomNoise = adversary.RandomNoise
)

// Experiments returns the registered paper-reproduction experiments
// (E1..E12), one per theorem/lemma/figure/numeric claim.
func Experiments() []Experiment { return expt.Registry() }

// ExperimentByID looks up a registered experiment.
func ExperimentByID(id string) (Experiment, bool) { return expt.ByID(id) }

// Experiment scales.
const (
	// QuickScale keeps the full suite in CI-sized time.
	QuickScale = scenario.Quick
	// FullScale is the budget of the reproduction tables: each
	// scenarios/*.json at `consensus-sim -scenario E<i> -scale full`.
	FullScale = scenario.Full
)
