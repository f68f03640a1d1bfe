package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/core"
	"github.com/ignorecomply/consensus/internal/graph"
	"github.com/ignorecomply/consensus/internal/rng"
)

// Engine selects the execution backend of a Runner. All engines simulate
// the same synchronous process and honor the same option set; they differ
// in cost and in what they make observable.
type Engine int

const (
	// EngineBatch runs the exact O(k)-per-round law on configurations
	// (core.Rule) — the default, and the only engine that scales to
	// millions of nodes.
	EngineBatch Engine = iota
	// EngineAgents runs the literal per-node Uniform Pull simulation
	// (core.NodeRule), O(n·samples) per round.
	EngineAgents
	// EngineGraph runs the per-node simulation on an arbitrary
	// interaction topology (WithGraph); samples are uniform neighbors.
	// It shares the agents kernel: on a *graph.Complete (self-loops, so a
	// neighbor pull is a node pull) a run is the agents run at the same
	// seed and parallelism; any other topology pulls through a neighbor
	// table built once per run.
	EngineGraph
	// EngineCluster runs a real message-passing system on a deterministic
	// discrete-event network engine: every pull request/response is a
	// message shaped by a pluggable network model (WithNetwork — latency,
	// loss, partitions; zero-latency lockstep by default), with exact
	// message accounting.
	EngineCluster
	// EngineHybrid runs the batch law with certified analytic
	// fast-forward: far from decision boundaries it advances the count
	// vector many rounds at once along the mean-field map x_{t+1} = α(x_t)
	// under a rigorous concentration envelope, handing back to exact
	// sampling near ties, extinctions, stop predicates and adversaries
	// (DESIGN.md §8). WithEngine(EngineHybrid) is the only way to select
	// it, and it always plans under the same fixed tuning. Result.Rounds
	// counts the virtual (skipped) rounds; runs are bit-exact for a fixed
	// seed like every other engine.
	EngineHybrid
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case EngineBatch:
		return "batch"
	case EngineAgents:
		return "agents"
	case EngineGraph:
		return "graph"
	case EngineCluster:
		return "cluster"
	case EngineHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// WithEngine selects the execution backend (default EngineBatch).
func WithEngine(e Engine) Option {
	return optionFunc(func(o *options) { o.engine = e; o.engineSet = true })
}

// WithGraph runs the process on an interaction topology g and implies
// EngineGraph. Vertices are colored from the start configuration in slot
// order (contiguous blocks), and the final configuration keeps the start's
// slot layout.
func WithGraph(g graph.Graph) Option {
	return optionFunc(func(o *options) { o.graph = g })
}

// Runner executes a consensus process: built once from a rule or a rule
// factory, configured entirely through options, and run against any start
// configuration with Run or RunReplicas. The same Runner value is safe for
// sequential reuse; replica fan-out requires a factory (NewFactoryRunner)
// so every goroutine owns its rule's scratch state.
type Runner struct {
	rule    core.Rule
	factory core.Factory
	opts    []Option
	// o holds opts applied once at construction; err is their validation
	// error, which every run reports.
	o   options
	err error
}

// NewRunner builds a Runner around a single rule instance. It drives the
// batch, agents and graph engines; the cluster engine and RunReplicas need
// one rule instance per worker and therefore a NewFactoryRunner.
func NewRunner(rule core.Rule, opts ...Option) *Runner {
	o, err := buildOptions(opts)
	return &Runner{rule: rule, opts: opts, o: o, err: err}
}

// NewFactoryRunner builds a Runner that creates a fresh rule instance per
// run, per replica, and (on the cluster engine) per worker lane.
func NewFactoryRunner(factory core.Factory, opts ...Option) *Runner {
	o, err := buildOptions(opts)
	return &Runner{factory: factory, opts: opts, o: o, err: err}
}

// instance returns a rule instance for one run.
func (rn *Runner) instance() (core.Rule, error) {
	switch {
	case rn.factory != nil:
		rule := rn.factory()
		if rule == nil {
			return nil, errors.New("sim: factory returned a nil rule")
		}
		return rule, nil
	case rn.rule != nil:
		return rn.rule, nil
	default:
		return nil, errors.New("sim: runner has no rule")
	}
}

// Run executes the process on a copy of start and returns the unified
// Result. ctx cancellation is checked every round on every engine (and,
// on the hybrid engine, inside fast-forward planning); a mid-run
// cancellation returns the partial Result for the rounds completed so
// far alongside the error.
//
//lint:testhelper the public entry point, re-exported as consensus.Runner; the root Example and tests drive it
func (rn *Runner) Run(ctx context.Context, start *config.Config) (*Result, error) {
	o, err := rn.runOptions(ctx)
	if err != nil {
		return nil, err
	}
	return rn.runOnce(start, o.source(), o)
}

// RunReplicas executes replicas independent runs from the same start
// configuration over a bounded worker pool. Replica i runs on a random
// stream derived deterministically from the configured source, so results
// are reproducible regardless of scheduling; they are returned in replica
// order. workers <= 0 means GOMAXPROCS.
//
//consensus:longrun
//lint:testhelper public through consensus.Runner; the root and sim tests drive it
func (rn *Runner) RunReplicas(ctx context.Context, start *config.Config, replicas, workers int) ([]*Result, error) {
	if rn.factory == nil {
		return nil, errors.New("sim: RunReplicas needs a fresh rule per replica; use NewFactoryRunner")
	}
	if replicas <= 0 {
		return nil, errors.New("sim: replicas must be positive")
	}
	o, err := rn.runOptions(ctx)
	if err != nil {
		return nil, err
	}
	// The replica pool already saturates the cores; per-replica engine
	// sharding defaults to sequential unless the caller asked for it.
	if !o.parallelSet {
		o.parallel = 1
	}

	// Derive all streams up front on the caller's goroutine: Derive
	// advances the base source, so ordering must not depend on scheduling.
	base := o.source()
	streams := make([]*rng.RNG, replicas)
	for i := range streams {
		streams[i] = base.Derive(uint64(i))
	}

	results := make([]*Result, replicas)
	errs := make([]error, replicas)
	RunPool(o.ctx, replicas, workers, func(i int) {
		results[i], errs[i] = rn.runOnce(start, streams[i], o)
	})

	// A context cancelled only after the last replica finished must not
	// discard the fully-computed results: report cancellation only when it
	// actually cost us a replica.
	complete := true
	for i := range results {
		if results[i] == nil || errs[i] != nil {
			complete = false
			break
		}
	}
	if complete {
		return results, nil
	}
	if err := o.ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sim: replica %d: %w", i, err)
		}
	}
	return nil, errors.New("sim: replicas incomplete without a cause")
}

// RunPool calls run(i) for every i in [0, n) on up to workers goroutines
// (workers <= 0 means GOMAXPROCS) and returns once every call has
// returned. Each worker takes the next index from a shared counter, so
// indices are taken in increasing order, and checks ctx before taking one: a
// cancelled pool starts no further call, while calls already running see
// ctx themselves. RunReplicas and the scenario executor share it.
//
//consensus:longrun
func RunPool(ctx context.Context, n, workers int, run func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
}

// runOptions returns the Runner's options for one run under ctx.
func (rn *Runner) runOptions(ctx context.Context) (options, error) {
	o := rn.o
	if ctx != nil {
		o.ctx = ctx
	}
	return o, rn.err
}

// RunStream is rn.Run drawing from r instead of rn's configured source:
// a caller that derives its replicas' streams itself (the scenario
// executor) runs every replica of a group through one Runner.
func RunStream(ctx context.Context, rn *Runner, start *config.Config, r *rng.RNG) (*Result, error) {
	o, err := rn.runOptions(ctx)
	if err != nil {
		return nil, err
	}
	return rn.runOnce(start, r, o)
}

// runOnce dispatches a single run to the selected engine.
func (rn *Runner) runOnce(start *config.Config, r *rng.RNG, o options) (*Result, error) {
	if start == nil {
		return nil, errors.New("sim: start configuration must be non-nil")
	}
	rule, err := rn.instance()
	if err != nil {
		return nil, err
	}
	switch o.engine {
	case EngineBatch:
		return runBatch(rule, start, r, o)
	case EngineHybrid:
		return runHybrid(rule, start, r, o)
	case EngineAgents:
		nodeRule, err := asNodeRule(rule, o.engine)
		if err != nil {
			return nil, err
		}
		return runAgents(nodeRule, rn.factory, start, r, o)
	case EngineGraph:
		nodeRule, err := asNodeRule(rule, o.engine)
		if err != nil {
			return nil, err
		}
		if o.graph.N() != start.N() {
			return nil, fmt.Errorf("sim: graph has %d vertices for %d nodes", o.graph.N(), start.N())
		}
		return runAgents(nodeRule, rn.factory, start, r, o)
	case EngineCluster:
		if rn.factory == nil {
			return nil, errors.New("sim: the cluster engine needs a fresh rule per worker lane; use NewFactoryRunner")
		}
		nodeRule, err := asNodeRule(rule, o.engine)
		if err != nil {
			return nil, err
		}
		return runCluster(nodeRule, rn.factory, start, r, o)
	default:
		return nil, fmt.Errorf("sim: unknown engine %v", o.engine)
	}
}

func asNodeRule(rule core.Rule, e Engine) (core.NodeRule, error) {
	if rule == nil {
		return nil, errors.New("sim: factory returned a nil rule")
	}
	nr, ok := rule.(core.NodeRule)
	if !ok {
		return nil, fmt.Errorf("sim: the %v engine needs per-node semantics, but rule %q implements no core.NodeRule", e, rule.Name())
	}
	return nr, nil
}

// newInstance makes a further rule instance for a shard or lane: the
// factory's rule must have per-node semantics and sample h nodes, as the
// run's primary instance does, since sample buffers are sized for h.
func newInstance(factory core.Factory, e Engine, h int) (core.NodeRule, error) {
	nr, err := asNodeRule(factory(), e)
	if err != nil {
		return nil, err
	}
	if nr.Samples() != h {
		return nil, fmt.Errorf("sim: rule factory returned instances with differing sample counts (%d vs %d)", nr.Samples(), h)
	}
	return nr, nil
}
