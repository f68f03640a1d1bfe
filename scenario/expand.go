package scenario

import (
	"fmt"
	"runtime"
	"strings"
)

// Params configures one execution of a scenario.
type Params struct {
	// Seed drives all randomness; identical spec + Params reproduce
	// identical tables.
	Seed uint64
	// Scale selects the Quick or Full budgets of every scale-dependent
	// quantity.
	Scale Scale
	// Workers bounds the executor's worker pool (0 = GOMAXPROCS). Workers
	// never affects results, only wall-clock time.
	Workers int
	// Progress, when non-nil, observes suite execution: one suite-start
	// event, one run-done event per completed run, and a cell-done event
	// after each cell's last run. Events arrive in expansion order
	// regardless of worker scheduling (out-of-order completions are
	// buffered), so for a fixed (spec, seed, scale) the event sequence is
	// identical at any worker count. The callback is never invoked
	// concurrently and never affects results; see ProgressFunc for the
	// blocking caveat.
	Progress ProgressFunc
}

// DefaultParams returns quick-scale parameters with a fixed seed.
func DefaultParams() Params {
	return Params{Seed: 1, Scale: Quick, Workers: runtime.GOMAXPROCS(0)}
}

// RunSpec is one fully resolved run: a single replica of one run group in
// one sweep cell. Expand returns them in execution order — cells
// row-major (first axis slowest), groups in spec order, replicas 0..R-1 —
// and the executor derives one random stream per run in exactly this
// order, which is what makes a suite reproducible regardless of
// scheduling.
type RunSpec struct {
	// Cell, Group and Replica locate the run in the suite.
	Cell, Group, Replica int
	// GroupID is the run group's display id.
	GroupID string
	// Replicas is the total replica count of this cell × group.
	Replicas int
	// Vars are the cell's numeric bindings (params, axes, derived).
	Vars map[string]float64
	// Strings are the cell's string-axis bindings.
	Strings map[string]string

	// N is the population size (the required "n" binding).
	N int
	// Rule is the resolved update rule.
	Rule ResolvedRule
	// Engine is the resolved execution backend.
	Engine Engine
	// Parallelism is the per-run engine sharding (0 = executor default,
	// which is 1: the replica pool already saturates the cores).
	Parallelism int
	// Topology is the resolved interaction graph (graph engine only).
	Topology *ResolvedTopology
	// Network is the resolved network model (cluster engine only).
	Network *ResolvedNetwork
	// Init is the resolved start-configuration generator. Ignored when
	// Nodes is non-empty: the groups compose the whole start.
	Init ResolvedInit
	// Nodes are the resolved heterogeneous node groups, if any. A single
	// plain generator group normalizes back to Init, so Nodes is non-empty
	// only for genuinely heterogeneous populations.
	Nodes []ResolvedNodeGroup
	// MaxRounds bounds the run (0 = the Runner default).
	MaxRounds int
	// TargetColors stops at ≤ this many colors (0 = the Runner default).
	TargetColors int
	// StopWhen is the resolved stop predicate, if any.
	StopWhen *ResolvedPredicate
	// Adversary is the resolved §5 adversary, if any.
	Adversary *ResolvedAdversary
	// ColorTimes are the κ targets to record T^κ for, in spec order.
	ColorTimes []int
	// TraceEvery samples a trace point every this many rounds (0 = off).
	TraceEvery int
}

// ResolvedRule is a rule with concrete parameters.
type ResolvedRule struct {
	Name string
	H    int
	Beta float64
}

// ResolvedTopology is a topology with concrete parameters.
type ResolvedTopology struct {
	Name   string
	Rows   int // torus (0 = square)
	Degree int // random-regular
}

// ResolvedNetwork is a network model with concrete parameters (ticks of
// the engine's virtual clock).
type ResolvedNetwork struct {
	Delay      int
	Jitter     int
	Loss       float64
	RetryAfter int
	Partitions []ResolvedPartition
}

// ResolvedPartition is one scheduled communication split.
type ResolvedPartition struct {
	From, Until int
	Groups      int
}

// ResolvedInit is a start-configuration generator with concrete
// parameters.
type ResolvedInit struct {
	Generator  string
	K          int
	Bias       int
	A          int
	MaxSupport int
	S          float64
}

// ResolvedPredicate is a stop predicate with its concrete threshold.
type ResolvedPredicate struct {
	Name  string
	Value int
}

// ResolvedAdversary is a §5 adversary schedule with concrete parameters.
type ResolvedAdversary struct {
	Name    string
	Budget  int
	Epsilon float64
	Window  int
}

// Expand resolves the scenario into the ordered list of concrete runs for
// the given parameters, one RunSpec per run. Expansion is pure: identical
// (spec, Params) yield identical RunSpecs.
func (s *Scenario) Expand(p Params) ([]RunSpec, error) {
	groups, err := s.expandGroups(p)
	if err != nil {
		return nil, err
	}
	total := 0
	for i := range groups {
		total += groups[i].Replicas
	}
	specs := make([]RunSpec, 0, total)
	for _, spec := range groups {
		for spec.Replica = 0; spec.Replica < spec.Replicas; spec.Replica++ {
			specs = append(specs, spec)
		}
	}
	return specs, nil
}

// expandGroups is Expand with one RunSpec per cell × group, cells and
// groups in Expand's order: each spec is the group's replica 0 and
// carries the replica count, which is all the executor needs.
//
//consensus:strictwalk
func (s *Scenario) expandGroups(p Params) ([]RunSpec, error) {
	if s.Kind == KindCustom {
		return nil, fmt.Errorf("scenario %q: custom scenarios have no runs to expand; call Run", s.Name)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if p.Scale != Quick && p.Scale != Full {
		return nil, fmt.Errorf("scenario %q: params scale must be Quick or Full", s.Name)
	}

	// Constants first: parameters may not reference other variables.
	baseEnv := make(map[string]float64, len(s.Params))
	for _, name := range paramNames(s.Params) {
		q := s.Params[name]
		v, err := q.Eval(p.Scale, nil)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: params.%s: %w", s.Name, name, err)
		}
		baseEnv[name] = v
	}

	groups := s.effectiveGroups()
	var specs []RunSpec
	cellIndex := 0
	var walk func(axis int, env map[string]float64, strs map[string]string) error
	walk = func(axis int, env map[string]float64, strs map[string]string) error {
		if axis < len(s.Sweep) {
			ax := &s.Sweep[axis]
			if len(ax.Strings) > 0 {
				for _, sv := range ax.Strings {
					strs[ax.Name] = sv
					if err := walk(axis+1, env, strs); err != nil {
						return err
					}
				}
				delete(strs, ax.Name)
				return nil
			}
			values := ax.Values
			if p.Scale == Full {
				values = append(append([]Quantity{}, ax.Values...), ax.FullValues...)
			}
			for vi := range values {
				// The axis's own binding from the previous lattice point
				// must not leak into its value expressions.
				delete(env, ax.Name)
				v, err := values[vi].Eval(p.Scale, env)
				if err != nil {
					return fmt.Errorf("scenario %q: sweep axis %q value %d: %w", s.Name, ax.Name, vi, err)
				}
				env[ax.Name] = v
				if err := walk(axis+1, env, strs); err != nil {
					return err
				}
			}
			delete(env, ax.Name)
			return nil
		}

		// One cell: snapshot the bindings, add derived values, resolve
		// every group.
		cellEnv := make(map[string]float64, len(env)+len(s.Derived))
		for k, v := range env {
			cellEnv[k] = v
		}
		cellStrs := make(map[string]string, len(strs))
		for k, v := range strs {
			cellStrs[k] = v
		}
		for i := range s.Derived {
			d := &s.Derived[i]
			v, err := d.Value.Eval(p.Scale, cellEnv)
			if err != nil {
				return fmt.Errorf("scenario %q: derived.%s: %w", s.Name, d.Name, err)
			}
			cellEnv[d.Name] = v
		}
		n, err := requiredN(cellEnv)
		if err != nil {
			return fmt.Errorf("scenario %q: cell %d: %w", s.Name, cellIndex, err)
		}
		replicas := 1
		if s.Replicas.IsSet() {
			replicas, err = s.Replicas.EvalInt(p.Scale, cellEnv)
			if err != nil {
				return fmt.Errorf("scenario %q: replicas: %w", s.Name, err)
			}
		}
		if replicas < 1 {
			return fmt.Errorf("scenario %q: cell %d: replicas must be >= 1, got %d", s.Name, cellIndex, replicas)
		}
		for gi := range groups {
			rg, err := s.resolveGroup(&groups[gi], p.Scale, n, cellEnv, cellStrs)
			if err != nil {
				return fmt.Errorf("scenario %q: cell %d, group %q: %w", s.Name, cellIndex, groups[gi].ID, err)
			}
			rg.Cell = cellIndex
			rg.Group = gi
			rg.GroupID = groups[gi].ID
			rg.Replicas = replicas
			rg.Vars = cellEnv
			rg.Strings = cellStrs
			specs = append(specs, rg)
		}
		cellIndex++
		return nil
	}
	if err := walk(0, baseEnv, map[string]string{}); err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("scenario %q: expansion produced no runs (empty sweep axis?)", s.Name)
	}
	return specs, nil
}

// requiredN extracts the mandatory population binding.
func requiredN(env map[string]float64) (int, error) {
	v, ok := env["n"]
	if !ok {
		return 0, fmt.Errorf("no binding for \"n\": define the population size as a param, sweep axis or derived value")
	}
	n := int(v)
	if float64(n) != v || n < 1 {
		return 0, fmt.Errorf("\"n\" must be a positive integer, got %v", v)
	}
	return n, nil
}

// resolveGroup evaluates one run group's quantities against a cell's
// bindings.
func (s *Scenario) resolveGroup(g *RunGroup, scale Scale, n int, env map[string]float64, strs map[string]string) (RunSpec, error) {
	var spec RunSpec
	spec.N = n

	// Rule.
	spec.Rule.Name = g.Rule.Name
	if g.Rule.H.IsSet() {
		h, err := g.Rule.H.EvalInt(scale, env)
		if err != nil {
			return spec, fmt.Errorf("rule.h: %w", err)
		}
		spec.Rule.H = h
	}
	if g.Rule.Beta.IsSet() {
		beta, err := g.Rule.Beta.Eval(scale, env)
		if err != nil {
			return spec, fmt.Errorf("rule.beta: %w", err)
		}
		spec.Rule.Beta = beta
	}
	if g.Rule.Name == "h-majority" && spec.Rule.H < 1 {
		return spec, fmt.Errorf("rule.h: h-majority needs h >= 1 (set rule.h)")
	}

	// Engine, topology, network and fast-forward. Validate has already
	// rejected every unknown engine name, a graph engine without a
	// topology and every other conflict between the sections and the
	// engine.
	switch {
	case g.Topology != nil:
		spec.Engine = EngineGraph
		topo := &ResolvedTopology{Name: g.Topology.Name}
		var err error
		if topo.Rows, err = evalIntOr(&g.Topology.Rows, scale, env, 0, "topology.rows"); err != nil {
			return spec, err
		}
		if topo.Degree, err = evalIntOr(&g.Topology.Degree, scale, env, 4, "topology.degree"); err != nil {
			return spec, err
		}
		spec.Topology = topo
	case g.Network != nil:
		spec.Engine = EngineCluster
		net, err := resolveNetwork(g.Network, scale, env)
		if err != nil {
			return spec, err
		}
		spec.Network = net
	case g.FastForward != nil:
		spec.Engine = EngineHybrid
	case g.Engine == "" || g.Engine == "batch":
		spec.Engine = EngineBatch
	case g.Engine == "agents":
		spec.Engine = EngineAgents
	case g.Engine == "cluster":
		spec.Engine = EngineCluster
	case g.Engine == "hybrid":
		spec.Engine = EngineHybrid
	}

	var err error
	if spec.Parallelism, err = evalIntOr(g.Parallelism, scale, env, 0, "parallelism"); err != nil {
		return spec, err
	}
	if spec.Parallelism < 0 {
		return spec, fmt.Errorf("parallelism: must be >= 0, got %d", spec.Parallelism)
	}

	// Init (default: the singleton/leader-election configuration).
	spec.Init = ResolvedInit{Generator: "singleton", K: n, S: 1}
	if g.Init != nil {
		spec.Init.Generator = g.Init.Generator
		if spec.Init.K, err = evalIntOr(&g.Init.K, scale, env, n, "init.k"); err != nil {
			return spec, err
		}
		if spec.Init.Bias, err = evalIntOr(&g.Init.Bias, scale, env, 0, "init.bias"); err != nil {
			return spec, err
		}
		if spec.Init.A, err = evalIntOr(&g.Init.A, scale, env, 0, "init.a"); err != nil {
			return spec, err
		}
		if spec.Init.MaxSupport, err = evalIntOr(&g.Init.MaxSupport, scale, env, 0, "init.max_support"); err != nil {
			return spec, err
		}
		if spec.Init.S, err = evalFloatOr(&g.Init.S, scale, env, 1, "init.s"); err != nil {
			return spec, err
		}
	}

	// Node groups (mutually exclusive with init — enforced at validation).
	// A single plain generator group covering all n nodes normalizes back
	// to the homogeneous init, so the grouped path only runs for genuinely
	// heterogeneous populations.
	if len(g.Nodes) > 0 {
		rgs, init, err := resolveNodes(g.Nodes, scale, n, env)
		if err != nil {
			return spec, err
		}
		if init != nil {
			spec.Init = *init
		} else {
			spec.Nodes = rgs
			for gi := range rgs {
				if rgs[gi].hasBehavior() && spec.Engine != EngineAgents {
					return spec, fmt.Errorf("nodes[%d]: behavior overrides (rule, stubborn, join_round) need the agents engine", gi)
				}
			}
		}
	}

	// Stop.
	if g.Stop != nil {
		if spec.MaxRounds, err = evalIntOr(&g.Stop.MaxRounds, scale, env, 0, "stop.max_rounds"); err != nil {
			return spec, err
		}
		if spec.TargetColors, err = evalIntOr(&g.Stop.TargetColors, scale, env, 0, "stop.target_colors"); err != nil {
			return spec, err
		}
		if g.Stop.When != nil {
			value, err := g.Stop.When.Value.EvalInt(scale, env)
			if err != nil {
				return spec, fmt.Errorf("stop.when.value: %w", err)
			}
			spec.StopWhen = &ResolvedPredicate{Name: g.Stop.When.Name, Value: value}
		}
	}

	// Adversary.
	if g.Adversary != nil {
		name := g.Adversary.Name
		if axis, ok := strings.CutPrefix(name, "$"); ok {
			sv, bound := strs[axis]
			if !bound {
				return spec, fmt.Errorf("adversary.name: %q is not bound by a string axis in this cell", name)
			}
			name = sv
		}
		adv := &ResolvedAdversary{Name: name}
		if adv.Budget, err = evalIntOr(&g.Adversary.Budget, scale, env, 0, "adversary.budget"); err != nil {
			return spec, err
		}
		if adv.Epsilon, err = evalFloatOr(&g.Adversary.Epsilon, scale, env, 0, "adversary.epsilon"); err != nil {
			return spec, err
		}
		if adv.Window, err = evalIntOr(&g.Adversary.Window, scale, env, 0, "adversary.window"); err != nil {
			return spec, err
		}
		spec.Adversary = adv
	}

	// Metrics.
	if g.Metrics != nil {
		for j := range g.Metrics.ColorTimes {
			kappa, err := g.Metrics.ColorTimes[j].EvalInt(scale, env)
			if err != nil {
				return spec, fmt.Errorf("metrics.color_times[%d]: %w", j, err)
			}
			spec.ColorTimes = append(spec.ColorTimes, kappa)
		}
		if spec.TraceEvery, err = evalIntOr(&g.Metrics.TraceEvery, scale, env, 0, "metrics.trace_every"); err != nil {
			return spec, err
		}
	}
	return spec, nil
}

// resolveNetwork evaluates a network section against a cell's bindings,
// range-checking every field so a bad spec fails at expansion with the
// field's path instead of inside the engine.
func resolveNetwork(ns *NetworkSpec, scale Scale, env map[string]float64) (*ResolvedNetwork, error) {
	net := &ResolvedNetwork{}
	var err error
	if net.Delay, err = evalIntOr(&ns.Delay, scale, env, 0, "network.delay"); err != nil {
		return nil, err
	}
	if net.Delay < 0 {
		return nil, fmt.Errorf("network.delay: must be >= 0, got %d", net.Delay)
	}
	if net.Jitter, err = evalIntOr(&ns.Jitter, scale, env, 0, "network.jitter"); err != nil {
		return nil, err
	}
	if net.Jitter < 0 {
		return nil, fmt.Errorf("network.jitter: must be >= 0, got %d", net.Jitter)
	}
	if net.Loss, err = evalFloatOr(&ns.Loss, scale, env, 0, "network.loss"); err != nil {
		return nil, err
	}
	if net.Loss < 0 || net.Loss >= 1 {
		return nil, fmt.Errorf("network.loss: must be in [0, 1), got %v", net.Loss)
	}
	if net.RetryAfter, err = evalIntOr(&ns.RetryAfter, scale, env, 1, "network.retry_after"); err != nil {
		return nil, err
	}
	if net.RetryAfter < 1 {
		return nil, fmt.Errorf("network.retry_after: must be >= 1, got %d", net.RetryAfter)
	}
	for j := range ns.Partitions {
		pt := &ns.Partitions[j]
		var rp ResolvedPartition
		path := func(sub string) string { return fmt.Sprintf("network.partitions[%d].%s", j, sub) }
		if rp.From, err = evalIntOr(&pt.From, scale, env, 0, path("from")); err != nil {
			return nil, err
		}
		if rp.Until, err = evalIntOr(&pt.Until, scale, env, 0, path("until")); err != nil {
			return nil, err
		}
		if rp.From < 0 || rp.Until <= rp.From {
			return nil, fmt.Errorf("%s: need 0 <= from < until, got [%d, %d)", path("window"), rp.From, rp.Until)
		}
		if rp.Groups, err = evalIntOr(&pt.Groups, scale, env, 2, path("groups")); err != nil {
			return nil, err
		}
		if rp.Groups < 2 {
			return nil, fmt.Errorf("%s: must be >= 2, got %d", path("groups"), rp.Groups)
		}
		net.Partitions = append(net.Partitions, rp)
	}
	return net, nil
}
