package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"

	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/rules"
)

// Decode reads one scenario from r. Decoding is strict: unknown fields are
// rejected and the spec is fully validated, so errors point at the exact
// field instead of surfacing later as a wrong run.
//
//consensus:strictwalk
func Decode(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: decode: %w", err)
	}
	// Reject trailing content after the scenario object.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return nil, fmt.Errorf("scenario: trailing data after the scenario object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// DecodeBytes decodes one scenario from data.
func DecodeBytes(data []byte) (*Scenario, error) { return Decode(bytes.NewReader(data)) }

// Load reads and decodes the scenario file at path.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := DecodeBytes(data)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return s, nil
}

var experimentIDPattern = regexp.MustCompile(`^E[1-9][0-9]*$`)

// quantityField pairs a spec field's path suffix with its quantity, so
// validation can walk a fixed set of optional fields in declaration order
// (a map literal here would make the first-reported error depend on map
// iteration order).
type quantityField struct {
	sub string
	q   *Quantity
}

// Validate checks every field of the spec and reports the first problem
// with an actionable, field-qualified error. Expressions are parsed here;
// variable resolution happens at expansion (where the cell bindings
// exist).
//
//consensus:strictwalk
func (s *Scenario) Validate() error {
	fail := func(path, format string, args ...any) error {
		return fmt.Errorf("scenario %q: %s: %s", s.Name, path, fmt.Sprintf(format, args...))
	}
	if s.Name == "" {
		return fmt.Errorf("scenario: name is required")
	}
	if !validName(s.Name) {
		return fmt.Errorf("scenario %q: name must be a lowercase slug (letters, digits, dashes)", s.Name)
	}
	if s.Schema != CurrentSchema {
		return fail("schema", "unsupported schema %d (this build decodes schema %d)", s.Schema, CurrentSchema)
	}
	switch s.Kind {
	case "", KindSuite:
		if s.Adapter != "" {
			return fail("adapter", "only kind %q scenarios name an adapter", KindCustom)
		}
	case KindCustom:
		if s.Adapter == "" {
			return fail("adapter", "kind %q needs an adapter name", KindCustom)
		}
		// Adapters read only params; accepting run-shaping sections would
		// silently run a different experiment than the file describes.
		if len(s.Runs) > 0 || s.Rule != nil || len(s.Sweep) > 0 || s.Replicas.IsSet() ||
			len(s.Derived) > 0 || s.Engine != "" || s.Parallelism != nil || s.Topology != nil ||
			s.FastForward != nil ||
			s.Init != nil || len(s.Nodes) > 0 || s.Stop != nil || s.Adversary != nil || s.Metrics != nil {
			return fail("kind", "%q scenarios are driven entirely by their adapter, which reads only params: drop runs/rule/sweep/replicas/derived/engine/parallelism/topology/fast_forward/init/nodes/stop/adversary/metrics", KindCustom)
		}
		if s.Reducer != "" {
			return fail("reducer", "%q scenarios produce their table in the adapter; drop the reducer", KindCustom)
		}
	default:
		return fail("kind", "unknown kind %q (want %q or %q)", s.Kind, KindSuite, KindCustom)
	}
	if s.Experiment != nil {
		if !experimentIDPattern.MatchString(s.Experiment.ID) {
			return fail("experiment.id", "want E<number>, got %q", s.Experiment.ID)
		}
		if s.Experiment.Name == "" || s.Experiment.Claim == "" {
			return fail("experiment", "name and claim are required when an experiment binding is present")
		}
	}

	vars := map[string]string{} // name -> where it was bound
	// Walk parameters in sorted-name order so the first-reported error on a
	// spec with several bad parameters is always the same one.
	for _, name := range paramNames(s.Params) {
		q := s.Params[name]
		if !validVarName(name) {
			return fail("params", "parameter name %q must be a lowercase identifier (letters, digits, underscores) usable in expressions", name)
		}
		if err := q.compile("params." + name); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		vars[name] = "params"
	}
	for i, ax := range s.Sweep {
		path := fmt.Sprintf("sweep[%d]", i)
		if !validVarName(ax.Name) {
			return fail(path+".name", "axis name %q must be a lowercase identifier (letters, digits, underscores) usable in expressions", ax.Name)
		}
		if prev, dup := vars[ax.Name]; dup {
			return fail(path+".name", "%q is already bound by %s", ax.Name, prev)
		}
		vars[ax.Name] = path
		numeric := len(ax.Values) > 0 || len(ax.FullValues) > 0
		if numeric == (len(ax.Strings) > 0) {
			return fail(path, "an axis needs either values (numeric) or strings, not both and not neither")
		}
		if len(ax.Values) == 0 && len(ax.FullValues) > 0 {
			return fail(path, "full_values extend values at full scale; give values too")
		}
		for j := range ax.Values {
			if err := s.Sweep[i].Values[j].compile(fmt.Sprintf("%s.values[%d]", path, j)); err != nil {
				return fmt.Errorf("scenario %q: %w", s.Name, err)
			}
		}
		for j := range ax.FullValues {
			if err := s.Sweep[i].FullValues[j].compile(fmt.Sprintf("%s.full_values[%d]", path, j)); err != nil {
				return fmt.Errorf("scenario %q: %w", s.Name, err)
			}
		}
		for j, sv := range ax.Strings {
			if sv == "" {
				return fail(fmt.Sprintf("%s.strings[%d]", path, j), "string axis values must be non-empty")
			}
		}
	}
	for i, d := range s.Derived {
		path := fmt.Sprintf("derived[%d]", i)
		if !validVarName(d.Name) {
			return fail(path+".name", "derived name %q must be a lowercase identifier (letters, digits, underscores) usable in expressions", d.Name)
		}
		if prev, dup := vars[d.Name]; dup {
			return fail(path+".name", "%q is already bound by %s", d.Name, prev)
		}
		vars[d.Name] = path
		if !d.Value.IsSet() {
			return fail(path+".value", "derived values need an expression")
		}
		if err := s.Derived[i].Value.compile(path + ".value"); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}
	if s.Replicas.IsSet() {
		if err := s.Replicas.compile("replicas"); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}
	if s.Kind == KindCustom {
		return s.validateExpects()
	}

	if err := s.validateDefaults(&s.RunDefaults, "run defaults"); err != nil {
		return err
	}
	seenIDs := map[string]bool{}
	for i := range s.Runs {
		g := &s.Runs[i]
		path := fmt.Sprintf("runs[%d]", i)
		id := g.resolvedID(i)
		if !validName(id) {
			return fail(path+".id", "group id %q must be a lowercase slug", id)
		}
		if seenIDs[id] {
			return fail(path+".id", "duplicate group id %q", id)
		}
		seenIDs[id] = true
		if err := s.validateDefaults(&g.RunDefaults, path); err != nil {
			return err
		}
	}
	// Checks that need the merged view: every group needs a rule, the
	// graph engine and a topology only make sense together, a network
	// section binds to the cluster engine, and per-group node behaviors
	// bind to the agents engine.
	for i, eff := range s.effectiveGroups() {
		if eff.Rule == nil {
			return fail(fmt.Sprintf("runs[%d]", i), "no rule: set rule here or at the scenario level")
		}
		if len(eff.Nodes) > 0 && nodesNeedBehaviors(eff.Nodes) {
			if eff.Engine != "" && eff.Engine != "agents" {
				return fail(fmt.Sprintf("runs[%d]", i), "node groups with behavior overrides (rule, stubborn, join_round) need the agents engine; engine is %q", eff.Engine)
			}
			if eff.Topology != nil || eff.Network != nil {
				return fail(fmt.Sprintf("runs[%d]", i), "node groups with behavior overrides (rule, stubborn, join_round) need the agents engine; drop the topology/network section")
			}
		}
		if eff.Engine == "graph" && eff.Topology == nil {
			return fail(fmt.Sprintf("runs[%d]", i), "the graph engine needs a topology section (here or at the scenario level)")
		}
		if eff.Topology != nil && eff.Engine != "" && eff.Engine != "graph" {
			return fail(fmt.Sprintf("runs[%d]", i), "a topology implies the graph engine; engine is %q", eff.Engine)
		}
		if eff.Network != nil {
			if eff.Topology != nil {
				return fail(fmt.Sprintf("runs[%d]", i), "a network section implies the cluster engine, a topology the graph engine; pick one")
			}
			if eff.Engine != "" && eff.Engine != "cluster" {
				return fail(fmt.Sprintf("runs[%d]", i), "a network section implies the cluster engine; engine is %q", eff.Engine)
			}
		}
		if eff.FastForward != nil {
			if eff.Topology != nil || eff.Network != nil {
				return fail(fmt.Sprintf("runs[%d]", i), "a fast_forward section implies the hybrid engine; drop the topology/network section")
			}
			if eff.Engine != "" && eff.Engine != "hybrid" {
				return fail(fmt.Sprintf("runs[%d]", i), "a fast_forward section implies the hybrid engine; engine is %q", eff.Engine)
			}
		}
	}
	if s.Reducer != "" && !validName(s.Reducer) {
		return fail("reducer", "reducer name %q must be a lowercase slug", s.Reducer)
	}
	return s.validateExpects()
}

// validateDefaults checks one settings section (scenario level or group).
func (s *Scenario) validateDefaults(d *RunDefaults, path string) error {
	fail := func(sub, format string, args ...any) error {
		return fmt.Errorf("scenario %q: %s.%s: %s", s.Name, path, sub, fmt.Sprintf(format, args...))
	}
	if d.Rule != nil {
		if _, err := (rules.Spec{Name: d.Rule.Name, H: 1}).Factory(); err != nil {
			return fail("rule.name", "%v", err)
		}
		// Parameters that the named rule would ignore are spec bugs: a
		// "5-majority" shorthand with "h": 9 would silently run h=5.
		if d.Rule.H.IsSet() && d.Rule.Name != "h-majority" {
			return fail("rule.h", "h only applies to the canonical \"h-majority\" rule; %q fixes h in its name", d.Rule.Name)
		}
		if d.Rule.Beta.IsSet() && d.Rule.Name != "lazy-voter" {
			return fail("rule.beta", "beta only applies to the \"lazy-voter\" rule, not %q", d.Rule.Name)
		}
		if err := d.Rule.H.compile(path + ".rule.h"); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		if err := d.Rule.Beta.compile(path + ".rule.beta"); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}
	switch d.Engine {
	case "", "batch", "agents", "graph", "cluster", "hybrid":
	default:
		return fail("engine", "unknown engine %q (want batch, agents, graph, cluster or hybrid)", d.Engine)
	}
	// The graph-engine/topology pairing is checked on the *effective*
	// groups (Validate), not per section: the topology may come from the
	// scenario level while a group names the engine, or vice versa.
	if d.Topology != nil {
		switch d.Topology.Name {
		case "complete", "ring", "torus", "star", "random-regular":
		default:
			return fail("topology.name", "unknown topology %q (want complete, ring, torus, star or random-regular)", d.Topology.Name)
		}
		if err := d.Topology.Rows.compile(path + ".topology.rows"); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		if err := d.Topology.Degree.compile(path + ".topology.degree"); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}
	if d.Parallelism != nil {
		if err := d.Parallelism.compile(path + ".parallelism"); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}
	if d.Network != nil {
		// A fixed field order keeps the first-reported error deterministic.
		for _, f := range []quantityField{
			{"network.delay", &d.Network.Delay}, {"network.jitter", &d.Network.Jitter},
			{"network.loss", &d.Network.Loss}, {"network.retry_after", &d.Network.RetryAfter},
		} {
			if err := f.q.compile(path + "." + f.sub); err != nil {
				return fmt.Errorf("scenario %q: %w", s.Name, err)
			}
		}
		for j := range d.Network.Partitions {
			pt := &d.Network.Partitions[j]
			ppath := fmt.Sprintf("%s.network.partitions[%d]", path, j)
			if !pt.From.IsSet() {
				return fail(fmt.Sprintf("network.partitions[%d].from", j), "the partition window is required")
			}
			if !pt.Until.IsSet() {
				return fail(fmt.Sprintf("network.partitions[%d].until", j), "the partition window is required")
			}
			for _, f := range []quantityField{
				{"from", &pt.From}, {"until", &pt.Until}, {"groups", &pt.Groups},
			} {
				if err := f.q.compile(ppath + "." + f.sub); err != nil {
					return fmt.Errorf("scenario %q: %w", s.Name, err)
				}
			}
		}
	}
	if len(d.Nodes) > 0 {
		if d.Init != nil {
			return fail("nodes", "a nodes section composes the whole start configuration; drop the init section")
		}
		if err := s.validateNodes(d.Nodes, path); err != nil {
			return err
		}
	}
	if d.Init != nil {
		if !config.KnownGenerator(d.Init.Generator) {
			return fail("init.generator", "unknown generator %q (want one of %s)",
				d.Init.Generator, strings.Join(config.GeneratorNames(), ", "))
		}
		for _, f := range []quantityField{
			{"init.k", &d.Init.K}, {"init.bias", &d.Init.Bias}, {"init.a", &d.Init.A},
			{"init.max_support", &d.Init.MaxSupport}, {"init.s", &d.Init.S},
		} {
			if err := f.q.compile(path + "." + f.sub); err != nil {
				return fmt.Errorf("scenario %q: %w", s.Name, err)
			}
		}
	}
	if d.Stop != nil {
		if err := d.Stop.MaxRounds.compile(path + ".stop.max_rounds"); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		if err := d.Stop.TargetColors.compile(path + ".stop.target_colors"); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		if d.Stop.When != nil {
			if _, ok := stopPredicates[d.Stop.When.Name]; !ok {
				return fail("stop.when.name", "unknown stop predicate %q (registered: %s)",
					d.Stop.When.Name, strings.Join(stopPredicateNames(), ", "))
			}
			if !d.Stop.When.Value.IsSet() {
				return fail("stop.when.value", "the predicate threshold is required")
			}
			if err := d.Stop.When.Value.compile(path + ".stop.when.value"); err != nil {
				return fmt.Errorf("scenario %q: %w", s.Name, err)
			}
		}
	}
	if d.Adversary != nil {
		if axis, ok := strings.CutPrefix(d.Adversary.Name, "$"); ok {
			ax := s.stringAxis(axis)
			if ax == nil {
				return fail("adversary.name", "%q does not reference a string sweep axis", d.Adversary.Name)
			}
			for _, name := range ax.Strings {
				if _, err := adversaryByNameCheck(name); err != nil {
					return fail("adversary.name", "axis %q value %q: %v", axis, name, err)
				}
			}
		} else if _, err := adversaryByNameCheck(d.Adversary.Name); err != nil {
			return fail("adversary.name", "%v", err)
		}
		for _, f := range []quantityField{
			{"adversary.budget", &d.Adversary.Budget}, {"adversary.epsilon", &d.Adversary.Epsilon},
			{"adversary.window", &d.Adversary.Window},
		} {
			if !f.q.IsSet() {
				return fail(f.sub, "required for adversarial runs")
			}
			if err := f.q.compile(path + "." + f.sub); err != nil {
				return fmt.Errorf("scenario %q: %w", s.Name, err)
			}
		}
	}
	if d.Metrics != nil {
		for j := range d.Metrics.ColorTimes {
			if err := d.Metrics.ColorTimes[j].compile(fmt.Sprintf("%s.metrics.color_times[%d]", path, j)); err != nil {
				return fmt.Errorf("scenario %q: %w", s.Name, err)
			}
		}
		if err := d.Metrics.TraceEvery.compile(path + ".metrics.trace_every"); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}
	return nil
}

// Scenario kinds.
const (
	// KindSuite expands the spec into runs and executes them (the
	// default).
	KindSuite = "suite"
	// KindCustom delegates the whole scenario to a registered Adapter.
	KindCustom = "custom"
)

// stringAxis returns the string-valued sweep axis with the given name.
func (s *Scenario) stringAxis(name string) *Axis {
	for i := range s.Sweep {
		if s.Sweep[i].Name == name && len(s.Sweep[i].Strings) > 0 {
			return &s.Sweep[i]
		}
	}
	return nil
}

// resolvedID returns the group's display id.
func (g *RunGroup) resolvedID(index int) string {
	if g.ID != "" {
		return g.ID
	}
	return fmt.Sprintf("run%d", index)
}

// effectiveGroups resolves the run groups with defaults applied
// section-wise. A scenario without explicit groups has one implicit group
// holding the shared settings.
func (s *Scenario) effectiveGroups() []RunGroup {
	if len(s.Runs) == 0 {
		return []RunGroup{{ID: "run", RunDefaults: s.RunDefaults}}
	}
	out := make([]RunGroup, len(s.Runs))
	for i, g := range s.Runs {
		eff := g
		eff.ID = g.resolvedID(i)
		if eff.Rule == nil {
			eff.Rule = s.Rule
		}
		if eff.Engine == "" {
			eff.Engine = s.Engine
		}
		if eff.Parallelism == nil {
			eff.Parallelism = s.Parallelism
		}
		if eff.Topology == nil {
			eff.Topology = s.Topology
		}
		if eff.Network == nil {
			eff.Network = s.Network
		}
		if eff.FastForward == nil {
			eff.FastForward = s.FastForward
		}
		if eff.Init == nil && eff.Nodes == nil {
			eff.Init = s.Init
			eff.Nodes = s.Nodes
		}
		if eff.Stop == nil {
			eff.Stop = s.Stop
		}
		if eff.Adversary == nil {
			eff.Adversary = s.Adversary
		}
		if eff.Metrics == nil {
			eff.Metrics = s.Metrics
		}
		out[i] = eff
	}
	return out
}
