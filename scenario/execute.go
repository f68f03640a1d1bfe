package scenario

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"github.com/ignorecomply/consensus/internal/adversary"
	"github.com/ignorecomply/consensus/internal/cluster"
	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/graph"
	"github.com/ignorecomply/consensus/internal/rng"
	"github.com/ignorecomply/consensus/internal/rules"
	"github.com/ignorecomply/consensus/internal/sim"
)

// Engine values, re-exported for RunSpec consumers.
const (
	EngineBatch   = sim.EngineBatch
	EngineAgents  = sim.EngineAgents
	EngineGraph   = sim.EngineGraph
	EngineCluster = sim.EngineCluster
	EngineHybrid  = sim.EngineHybrid
)

// SuiteResult is an executed suite: every run's Result, grouped by sweep
// cell and run group in expansion order.
type SuiteResult struct {
	// Scenario is the executed spec.
	Scenario *Scenario
	// Params are the execution parameters.
	Params Params
	// Cells hold the per-cell results in expansion order.
	Cells []*CellResult
}

// CellResult is one sweep cell's executed runs.
type CellResult struct {
	// Index is the cell's expansion position.
	Index int
	// Vars are the cell's numeric bindings (params, axes, derived).
	Vars map[string]float64
	// Strings are the cell's string-axis bindings.
	Strings map[string]string
	// Replicas is the per-group replica count of this cell.
	Replicas int
	// Groups hold the run groups in spec order.
	Groups []*GroupResult
}

// GroupResult is one run group's executed replicas within a cell.
type GroupResult struct {
	// ID is the group's display id.
	ID string
	// Spec is the resolved run (replica 0's RunSpec).
	Spec *RunSpec
	// Start is the start configuration every replica ran from.
	Start *Config
	// Results are the replica results in replica order.
	Results []*Result

	// graph is the group's interaction topology (graph engine only).
	graph graph.Graph
	// grouped carries the per-node group assignment and invalid labels of
	// a heterogeneous start (nodes section only).
	grouped *groupedStart
}

// ExecuteSuite expands the scenario and runs every cell × group × replica
// over a bounded worker pool, aggregating the unified Results.
//
// Determinism: all random streams are derived from rng.New(p.Seed) on the
// calling goroutine in expansion order — for each cell, for each group:
// first the start-configuration stream (only when the generator or
// topology is randomized), then one stream per replica via Derive(0),
// Derive(1), …, Derive(R-1). Workers only change scheduling, never
// results. This derive order is exactly the order the hand-coded
// reproduction harness used, which is why a scenario file reproduces a
// pre-scenario experiment bit-identically at a fixed seed.
//
//consensus:longrun
func ExecuteSuite(ctx context.Context, s *Scenario, p Params) (*SuiteResult, error) {
	if s.Kind == KindCustom {
		return nil, fmt.Errorf("scenario %q: custom scenarios have no suite; call Run", s.Name)
	}
	specs, err := s.Expand(p)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}

	// Assemble the result skeleton and derive every stream in order.
	base := rng.New(p.Seed)
	suite := &SuiteResult{Scenario: s, Params: p}
	type job struct {
		spec    *RunSpec
		stream  *rng.RNG
		start   *config.Config
		g       graph.Graph
		grouped *groupedStart
		slot    **Result
		runName string
	}
	jobs := make([]job, 0, len(specs))
	var cur *CellResult
	var curGroup *GroupResult
	for i := range specs {
		spec := &specs[i]
		if cur == nil || cur.Index != spec.Cell {
			cur = &CellResult{Index: spec.Cell, Vars: spec.Vars, Strings: spec.Strings, Replicas: spec.Replicas}
			suite.Cells = append(suite.Cells, cur)
			curGroup = nil
		}
		if curGroup == nil || len(cur.Groups) <= spec.Group {
			curGroup = &GroupResult{ID: spec.GroupID, Spec: spec}
			// Build the start configuration (and topology) once per cell ×
			// group; randomized generators draw from their own stream,
			// derived before the group's replica streams.
			var genRNG *rng.RNG
			needsRNG := config.NeedsRNG(spec.Init.Generator) || (spec.Topology != nil && spec.Topology.Name == "random-regular")
			if len(spec.Nodes) > 0 {
				needsRNG = nodesNeedRNG(spec.Nodes) || (spec.Topology != nil && spec.Topology.Name == "random-regular")
			}
			if needsRNG {
				genRNG = base.Derive(^uint64(0))
			}
			start, grouped, err := buildStart(spec, genRNG)
			if err != nil {
				return nil, fmt.Errorf("scenario %q: cell %d, group %q: %w", s.Name, spec.Cell, spec.GroupID, err)
			}
			curGroup.Start = start
			curGroup.grouped = grouped
			curGroup.Results = make([]*Result, spec.Replicas)
			cur.Groups = append(cur.Groups, curGroup)
			if spec.Topology != nil {
				g, err := buildTopology(spec, genRNG)
				if err != nil {
					return nil, fmt.Errorf("scenario %q: cell %d, group %q: %w", s.Name, spec.Cell, spec.GroupID, err)
				}
				curGroup.graph = g
			}
		}
		jobs = append(jobs, job{
			spec:    spec,
			stream:  base.Derive(uint64(spec.Replica)),
			start:   curGroup.Start,
			g:       curGroup.graph,
			grouped: curGroup.grouped,
			slot:    &curGroup.Results[spec.Replica],
			runName: fmt.Sprintf("cell %d, group %q, replica %d", spec.Cell, spec.GroupID, spec.Replica),
		})
	}

	var prog *progressTracker
	if p.Progress != nil {
		prog = newProgressTracker(p.Progress, s.Name, len(jobs), len(suite.Cells))
		for i := range jobs {
			prog.lastOfCell[i] = i == len(jobs)-1 || jobs[i+1].spec.Cell != jobs[i].spec.Cell
		}
		prog.start()
	}

	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	errs := make([]error, len(jobs))
	queue := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range queue {
				j := &jobs[idx]
				res, err := executeRun(ctx, j.spec, j.start, j.g, j.grouped, j.stream)
				*j.slot = res
				errs[idx] = err
				if prog != nil {
					var ev *ProgressEvent
					if err == nil && res != nil {
						ev = &ProgressEvent{
							Kind: ProgressRunDone, Scenario: s.Name,
							Total: len(jobs), Cells: len(suite.Cells),
							Cell: j.spec.Cell, Group: j.spec.Group, Replica: j.spec.Replica,
							GroupID: j.spec.GroupID,
							Rounds:  res.Rounds, Converged: res.Converged,
						}
					}
					prog.done(idx, ev)
				}
			}
		}()
	}
dispatch:
	for i := range jobs {
		select {
		case queue <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(queue)
	wg.Wait()

	// A context cancelled only after the last run finished must not
	// discard the fully-computed suite (the suite-level mirror of
	// Runner.RunReplicas' completed-work contract): report cancellation
	// only when it actually cost a run.
	complete := true
	for i := range jobs {
		if errs[i] != nil || *jobs[i].slot == nil {
			complete = false
			break
		}
	}
	if complete {
		return suite, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %s: %w", s.Name, jobs[i].runName, err)
		}
	}
	return nil, fmt.Errorf("scenario %q: suite incomplete without a cause", s.Name)
}

// executeRun performs one replica through the Runner.
func executeRun(ctx context.Context, spec *RunSpec, start *config.Config, g graph.Graph, grouped *groupedStart, stream *rng.RNG) (*Result, error) {
	factory, err := rules.Spec{Name: spec.Rule.Name, H: spec.Rule.H, Beta: spec.Rule.Beta}.Factory()
	if err != nil {
		return nil, err
	}
	opts := []sim.Option{sim.WithRNG(stream)}
	if grouped != nil {
		behaviorOpts, err := buildBehaviors(spec, grouped)
		if err != nil {
			return nil, err
		}
		opts = append(opts, behaviorOpts...)
	}
	// Mirror Runner.RunReplicas: each replica's engine defaults to
	// sequential — the suite's worker pool already saturates the cores.
	par := spec.Parallelism
	if par == 0 {
		par = 1
	}
	opts = append(opts, sim.WithParallelism(par))
	if spec.MaxRounds > 0 {
		opts = append(opts, sim.WithMaxRounds(spec.MaxRounds))
	}
	if spec.TargetColors > 0 {
		opts = append(opts, sim.WithTargetColors(spec.TargetColors))
	}
	if len(spec.ColorTimes) > 0 {
		opts = append(opts, sim.WithColorTimes(spec.ColorTimes...))
	}
	if spec.TraceEvery > 0 {
		opts = append(opts, sim.WithTrace(spec.TraceEvery))
	}
	if g != nil {
		opts = append(opts, sim.WithGraph(g))
	} else if spec.Engine != sim.EngineBatch {
		opts = append(opts, sim.WithEngine(spec.Engine))
	}
	if spec.Network != nil {
		opts = append(opts, sim.WithNetwork(buildNetwork(spec.Network)))
	}
	if spec.FastForward != nil {
		opts = append(opts, sim.WithFastForward(sim.FastForward{
			MinStretch:      spec.FastForward.MinStretch,
			MaxStretch:      spec.FastForward.MaxStretch,
			Delta:           spec.FastForward.Delta,
			GapFactor:       spec.FastForward.GapFactor,
			DriftFactor:     spec.FastForward.DriftFactor,
			ExtinctionFloor: spec.FastForward.ExtinctionFloor,
		}))
	}
	if spec.StopWhen != nil {
		pred, ok := stopPredicates[spec.StopWhen.Name]
		if !ok {
			return nil, fmt.Errorf("unknown stop predicate %q", spec.StopWhen.Name)
		}
		opts = append(opts, sim.WithStopWhen(pred(spec.StopWhen.Value)))
	}
	if spec.Adversary != nil {
		// The §5 strategies are stateless (each holds only its budget F),
		// so one instance could serve every replica; building it here costs
		// one small allocation and keeps each replica's options its own.
		adv, err := adversary.ByName(spec.Adversary.Name, spec.Adversary.Budget)
		if err != nil {
			return nil, err
		}
		opts = append(opts, sim.WithAdversary(adv, spec.Adversary.Epsilon, spec.Adversary.Window))
	}
	return sim.NewFactoryRunner(factory, opts...).Run(ctx, start)
}

// buildNetwork constructs the cluster engine's network model from a
// resolved network section (already range-checked at expansion).
func buildNetwork(rn *ResolvedNetwork) cluster.Model {
	net := &cluster.Net{
		Delay:  int64(rn.Delay),
		Jitter: int64(rn.Jitter),
		Loss:   rn.Loss,
		Retry:  int64(rn.RetryAfter),
	}
	for _, pt := range rn.Partitions {
		net.Partitions = append(net.Partitions, cluster.Partition{
			From:   int64(pt.From),
			Until:  int64(pt.Until),
			Groups: pt.Groups,
		})
	}
	return net
}

// buildStart generates the group's start configuration: the homogeneous
// generator, or — with a nodes section — the grouped composition with its
// per-node assignment and invalid labels.
func buildStart(spec *RunSpec, genRNG *rng.RNG) (*config.Config, *groupedStart, error) {
	if len(spec.Nodes) > 0 {
		return buildGroupedStart(spec, genRNG)
	}
	c, err := config.Generate(spec.Init.Generator, config.GenArgs{
		N: spec.N, K: spec.Init.K, Bias: spec.Init.Bias, A: spec.Init.A,
		MaxSupport: spec.Init.MaxSupport, S: spec.Init.S, RNG: genRNG,
	})
	return c, nil, err
}

// buildBehaviors maps a heterogeneous start to the sim layer's options:
// the per-node behavior table (only when some group overrides behavior)
// and the §5 invalid labels of corrupted groups.
func buildBehaviors(spec *RunSpec, grouped *groupedStart) ([]sim.Option, error) {
	var opts []sim.Option
	needBehaviors := false
	for i := range spec.Nodes {
		if spec.Nodes[i].hasBehavior() {
			needBehaviors = true
			break
		}
	}
	if needBehaviors {
		groups := make([]sim.NodeBehavior, len(spec.Nodes))
		for i := range spec.Nodes {
			ng := &spec.Nodes[i]
			nb := sim.NodeBehavior{Stubborn: ng.Stubborn, JoinRound: ng.JoinRound}
			if ng.Rule != nil {
				f, err := rules.Spec{Name: ng.Rule.Name, H: ng.Rule.H, Beta: ng.Rule.Beta}.Factory()
				if err != nil {
					return nil, fmt.Errorf("nodes[%d] (%s): %w", i, ng.Name, err)
				}
				nb.Factory = f
			}
			groups[i] = nb
		}
		opts = append(opts, sim.WithNodeBehaviors(grouped.assign, groups))
	}
	if len(grouped.invalid) > 0 {
		opts = append(opts, sim.WithInvalidLabels(grouped.invalid...))
	}
	return opts, nil
}

// buildTopology constructs the group's interaction graph.
func buildTopology(spec *RunSpec, genRNG *rng.RNG) (graph.Graph, error) {
	n := spec.N
	switch spec.Topology.Name {
	case "complete":
		return graph.NewComplete(n), nil
	case "ring":
		return graph.NewRing(n), nil
	case "star":
		return graph.NewStar(n), nil
	case "torus":
		rows := spec.Topology.Rows
		if rows == 0 {
			for rows*rows < n {
				rows++
			}
			if rows*rows != n {
				return nil, fmt.Errorf("topology torus: n=%d is not a perfect square; set topology.rows", n)
			}
		}
		if rows < 1 || n%rows != 0 {
			return nil, fmt.Errorf("topology torus: rows=%d does not divide n=%d", rows, n)
		}
		return graph.NewTorus(rows, n/rows), nil
	case "random-regular":
		g, err := graph.NewRandomRegular(n, spec.Topology.Degree, genRNG)
		if err != nil {
			return nil, fmt.Errorf("topology random-regular: %w", err)
		}
		return g, nil
	default:
		return nil, fmt.Errorf("unknown topology %q", spec.Topology.Name)
	}
}

// Run executes the scenario end to end and reduces it to its table: custom
// scenarios dispatch to their registered adapter, suites execute through
// ExecuteSuite and aggregate through the spec's reducer (default
// "summary").
func Run(ctx context.Context, s *Scenario, p Params) (*Table, error) {
	tbl, _, err := runScenario(ctx, s, p)
	return tbl, err
}

// runScenario is the shared execution path of Run and RunChecked: it
// returns the reduced table plus, for suites, the executed results the
// expect evaluator reads (nil for custom scenarios, which reduce inside
// their adapter).
func runScenario(ctx context.Context, s *Scenario, p Params) (*Table, *SuiteResult, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if s.Kind == KindCustom {
		adapter, ok := lookupAdapter(s.Adapter)
		if !ok {
			return nil, nil, fmt.Errorf("scenario %q: no adapter %q registered (registered: %v)",
				s.Name, s.Adapter, adapterNames())
		}
		tbl, err := adapter(ctx, s, p)
		return tbl, nil, err
	}
	suite, err := ExecuteSuite(ctx, s, p)
	if err != nil {
		return nil, nil, err
	}
	name := s.Reducer
	if name == "" {
		name = "summary"
	}
	reducer, ok := lookupReducer(name)
	if !ok {
		return nil, nil, fmt.Errorf("scenario %q: no reducer %q registered (registered: %v)",
			s.Name, name, reducerNames())
	}
	tbl, err := reducer(suite)
	return tbl, suite, err
}
