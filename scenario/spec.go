// Package scenario is the declarative experiment layer: any run the
// consensus Runner can execute — rule + parameters, engine, initial
// configuration, sweep axes over n/k/h/bias/…, §5 adversary schedule,
// replicas, stop conditions and requested metrics — described as a
// JSON-serializable Scenario value, expanded deterministically into
// concrete RunSpecs, and executed as a suite through one engine-agnostic
// executor that aggregates into the table shape the reproduction harness
// has always reported.
//
// The contract is determinism: identical spec + Params reproduce identical
// tables, bit for bit, regardless of worker scheduling. Expansion is a
// pure function of (Scenario, Params); every replica's random stream is
// derived up front from the base seed in expansion order; reducers see
// results in expansion order.
//
// Decoding is strict — unknown fields are rejected, every field is
// validated with an actionable error — so a typo in a scenario file fails
// loudly instead of silently running a different experiment. See DESIGN.md
// §6 for the spec schema and the determinism contract, and the scenarios/
// directory for the twelve checked-in paper experiments.
package scenario

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"unicode"
)

// CurrentSchema is the spec schema version this package decodes.
const CurrentSchema = 1

// Scenario describes a whole experiment as data: shared run settings, the
// sweep lattice, replica counts, and how to aggregate the executed cells.
// It is the strict-schema root: every struct reachable from it through
// exported fields is part of the spec surface, and strictsync requires
// each such field to be visited by the //consensus:strictwalk walkers.
//
//consensus:schema
type Scenario struct {
	// Schema is the spec schema version; must be CurrentSchema.
	Schema int `json:"schema"`
	// Name identifies the scenario (lowercase letters, digits, dashes).
	Name string `json:"name"`
	// Kind is "suite" (default: expand and execute runs) or "custom" (the
	// named Adapter produces the table from the spec's params directly —
	// for measurements that are not round-loop runs, e.g. the Lemma 4
	// coupling or exact one-round expectations).
	Kind string `json:"kind,omitempty"`
	// Adapter names the registered custom adapter (kind "custom" only).
	Adapter string `json:"adapter,omitempty"`
	// Experiment binds the scenario to a paper artifact (optional); bound
	// scenarios appear in the E1..E12 registry.
	Experiment *ExperimentMeta `json:"experiment,omitempty"`
	// Table sets the metadata of the aggregated output table.
	Table *TableMeta `json:"table,omitempty"`

	// Params are named constants available to every expression: a number,
	// a variable-free expression, or a {"quick": …, "full": …} pair.
	// Params may not reference other params; use Derived for that.
	Params map[string]Quantity `json:"params,omitempty"`
	// Derived are named values computed per sweep cell, in order; each
	// expression sees params, axis values and earlier derived values.
	Derived []Derivation `json:"derived,omitempty"`
	// Sweep lists the axes of the cell lattice; cells enumerate in
	// row-major order with the first axis slowest. An empty sweep is a
	// single cell.
	Sweep []Axis `json:"sweep,omitempty"`
	// Replicas is the number of independent runs per cell and run group
	// (default 1); the expression may reference cell variables.
	Replicas Quantity `json:"replicas,omitempty"`

	// RunDefaults are the settings shared by every run group; a group
	// overrides them section-wise (a group's non-nil section replaces the
	// default section wholesale).
	RunDefaults
	// Runs are the run groups executed per cell, in order (default: one
	// group with the shared settings).
	Runs []RunGroup `json:"runs,omitempty"`

	// Reducer names the registered aggregation producing the final table
	// (default "summary").
	Reducer string `json:"reducer,omitempty"`

	// Expect are the scenario's self-verification assertions, evaluated
	// against the executed suite (and the reduced table) after a checked
	// run; see expect.go. A scenario with expect blocks is its own
	// acceptance test.
	Expect []ExpectSpec `json:"expect,omitempty"`
}

// ExperimentMeta binds a scenario to a paper artifact.
type ExperimentMeta struct {
	// ID is the experiment identifier (E1..E12).
	ID string `json:"id"`
	// Name is a short human-readable title.
	Name string `json:"name"`
	// Claim cites the paper artifact being reproduced.
	Claim string `json:"claim"`
}

// TableMeta sets the aggregated table's metadata.
type TableMeta struct {
	Title   string   `json:"title,omitempty"`
	Claim   string   `json:"claim,omitempty"`
	Columns []string `json:"columns,omitempty"`
}

// Derivation is a named per-cell value.
type Derivation struct {
	Name  string   `json:"name"`
	Value Quantity `json:"value"`
}

// Axis is one sweep dimension: either numeric values (possibly
// expressions over params and earlier axes) or strings (e.g. adversary
// strategies).
type Axis struct {
	// Name binds the axis value as a variable in expressions (numeric
	// axes) or as a $name substitution (string axes).
	Name string `json:"name"`
	// Values are the numeric axis points.
	Values []Quantity `json:"values,omitempty"`
	// FullValues are appended to Values at Full scale.
	FullValues []Quantity `json:"full_values,omitempty"`
	// Strings are the string axis points (mutually exclusive with
	// Values/FullValues).
	Strings []string `json:"strings,omitempty"`
}

// RunDefaults are the run settings shared between the scenario level and
// run groups.
type RunDefaults struct {
	// Rule selects the update rule.
	Rule *RuleSpec `json:"rule,omitempty"`
	// Engine selects the execution backend: batch (default), agents,
	// graph, cluster.
	Engine string `json:"engine,omitempty"`
	// Parallelism shards the per-node engines within one run (default 1:
	// the replica pool already saturates the cores).
	Parallelism *Quantity `json:"parallelism,omitempty"`
	// Topology is the interaction graph (engine "graph" only).
	Topology *TopologySpec `json:"topology,omitempty"`
	// Network shapes message delivery on the event-driven cluster engine
	// (engine "cluster" only; a network section implies it).
	Network *NetworkSpec `json:"network,omitempty"`
	// FastForward selects the hybrid engine's certified fast-forward
	// (engine "hybrid" only; a fast_forward section implies it).
	FastForward *FastForwardSpec `json:"fast_forward,omitempty"`
	// Init generates the start configuration (default singleton).
	Init *InitSpec `json:"init,omitempty"`
	// Nodes composes the start configuration from named heterogeneous
	// groups instead of one generator (mutually exclusive with Init):
	// per-group sizes, initial opinions, rule overrides, stubbornness,
	// join rounds and adversarial corruption. See groups.go.
	Nodes []NodeGroupSpec `json:"nodes,omitempty"`
	// Stop bounds the run.
	Stop *StopSpec `json:"stop,omitempty"`
	// Adversary enables the §5 fault-tolerance regime.
	Adversary *AdversarySpec `json:"adversary,omitempty"`
	// Metrics selects the observables recorded per run.
	Metrics *MetricsSpec `json:"metrics,omitempty"`
}

// RunGroup is one run configuration executed per sweep cell. Group
// sections override the scenario-level defaults wholesale.
type RunGroup struct {
	// ID labels the group in results (default "run<index>").
	ID string `json:"id,omitempty"`
	RunDefaults
}

// RuleSpec selects an update rule by name.
type RuleSpec struct {
	// Name is the rule name: voter, lazy-voter, 2-choices, 3-majority,
	// h-majority (with H), 2-median, undecided, or "<h>-majority".
	Name string `json:"name"`
	// H is the h-majority sample count; may reference cell variables.
	H Quantity `json:"h,omitempty"`
	// Beta is the lazy-voter idle probability.
	Beta Quantity `json:"beta,omitempty"`
}

// TopologySpec selects an interaction graph for the graph engine.
type TopologySpec struct {
	// Name is the topology: complete, ring, torus, star, random-regular.
	Name string `json:"name"`
	// Rows is the torus row count (default: the square root of n; n must
	// then be a perfect square).
	Rows Quantity `json:"rows,omitempty"`
	// Degree is the random-regular vertex degree.
	Degree Quantity `json:"degree,omitempty"`
}

// NetworkSpec configures the cluster engine's network model: per-leg
// latency (fixed delay plus uniform jitter), i.i.d. per-leg message loss
// with pull retry, and scheduled partitions. All quantities are in ticks
// of the engine's virtual clock (one lockstep round = one tick). The
// empty section is the zero-latency lockstep model.
type NetworkSpec struct {
	// Delay is the fixed per-leg delivery delay in ticks (default 0).
	Delay Quantity `json:"delay,omitempty"`
	// Jitter adds a uniform extra delay in [0, jitter] ticks per leg.
	Jitter Quantity `json:"jitter,omitempty"`
	// Loss is the i.i.d. per-leg loss probability in [0, 1).
	Loss Quantity `json:"loss,omitempty"`
	// RetryAfter is the pull-retry timeout in ticks (default 1).
	RetryAfter Quantity `json:"retry_after,omitempty"`
	// Partitions are scheduled communication splits.
	Partitions []PartitionSpec `json:"partitions,omitempty"`
}

// PartitionSpec is one scheduled communication split: during ticks
// [from, until) the population divides into groups contiguous id blocks
// and messages crossing blocks are dropped.
type PartitionSpec struct {
	// From is the first tick of the split window.
	From Quantity `json:"from"`
	// Until is the first tick after the window.
	Until Quantity `json:"until"`
	// Groups is the number of contiguous id blocks (default 2).
	Groups Quantity `json:"groups,omitempty"`
}

// FastForwardSpec selects the hybrid engine (DESIGN.md §8): a
// fast_forward section implies engine "hybrid". The section carries no
// fields, because the engine plans under one fixed tuning; "{}" is its
// only valid form.
type FastForwardSpec struct{}

// InitSpec generates the start configuration of every run in a group.
type InitSpec struct {
	// Generator is the workload generator name: singleton, consensus,
	// balanced, biased, two-block, zipf, max-bounded, random-composition,
	// random-assignment.
	Generator string `json:"generator"`
	// K is the color count (balanced, biased, zipf, random-*).
	K Quantity `json:"k,omitempty"`
	// Bias is the leader head start (biased).
	Bias Quantity `json:"bias,omitempty"`
	// A is the first block size (two-block).
	A Quantity `json:"a,omitempty"`
	// MaxSupport caps per-color support (max-bounded).
	MaxSupport Quantity `json:"max_support,omitempty"`
	// S is the Zipf exponent (zipf); defaults to 1.
	S Quantity `json:"s,omitempty"`
}

// StopSpec bounds a run.
type StopSpec struct {
	// MaxRounds is the round budget (default 10,000,000).
	MaxRounds Quantity `json:"max_rounds,omitempty"`
	// TargetColors stops once at most this many colors remain (default 1).
	TargetColors Quantity `json:"target_colors,omitempty"`
	// When stops on a named predicate.
	When *PredicateSpec `json:"when,omitempty"`
}

// PredicateSpec names a registered stop predicate with its threshold.
type PredicateSpec struct {
	// Name is the predicate: max-support-exceeds, bias-at-least,
	// colors-at-most, round-at-least.
	Name string `json:"name"`
	// Value is the predicate threshold; may reference cell variables.
	Value Quantity `json:"value"`
}

// AdversarySpec configures the §5 dynamic adversary. A fresh adversary
// instance is constructed per run (the strategies may carry run-local
// state).
type AdversarySpec struct {
	// Name is the strategy (boost-runner-up, revive-weakest,
	// inject-invalid, random-noise) or a "$axis" reference to a string
	// sweep axis.
	Name string `json:"name"`
	// Budget is the per-round corruption budget F.
	Budget Quantity `json:"budget"`
	// Epsilon is the almost-consensus threshold parameter ε in (0, 1).
	Epsilon Quantity `json:"epsilon"`
	// Window is the §5 stability window in rounds.
	Window Quantity `json:"window"`
}

// MetricsSpec selects per-run observables.
type MetricsSpec struct {
	// ColorTimes records the paper's T^κ reduction times for each κ, in
	// order; entries may reference cell variables.
	ColorTimes []Quantity `json:"color_times,omitempty"`
	// TraceEvery samples a trace point every this many rounds (0 = off).
	TraceEvery Quantity `json:"trace_every,omitempty"`
}

// Quantity is a scale-resolvable numeric value: a JSON number, a string
// expression over the spec's variables, or a {"quick": …, "full": …}
// object whose values are numbers or expressions. The zero Quantity is
// unset.
//
// Quantities are immutable after decoding: expressions are parsed at
// validation time (for syntax errors with field paths) and again at each
// Eval. The expressions are tiny, so re-parsing costs nothing next to a
// simulation round — and it keeps a decoded Scenario safe to Expand/Run
// from concurrent goroutines.
type Quantity struct {
	raw      json.RawMessage
	variants map[Scale]string
}

// Num returns a Quantity holding a literal number.
func Num(v float64) Quantity {
	src := strconv.FormatFloat(v, 'g', -1, 64)
	return Quantity{raw: json.RawMessage(src), variants: map[Scale]string{Quick: src, Full: src}}
}

// Expression returns a Quantity holding an expression source.
func Expression(src string) Quantity {
	raw, _ := json.Marshal(src)
	return Quantity{raw: json.RawMessage(raw), variants: map[Scale]string{Quick: src, Full: src}}
}

// PerScale returns a Quantity with distinct quick/full expressions.
func PerScale(quick, full string) Quantity {
	raw, _ := json.Marshal(map[string]string{"quick": quick, "full": full})
	return Quantity{raw: json.RawMessage(raw), variants: map[Scale]string{Quick: quick, Full: full}}
}

// IsSet reports whether the quantity was given.
func (q *Quantity) IsSet() bool { return q.variants != nil }

// Source returns the expression source selected for scale.
func (q *Quantity) Source(scale Scale) string { return q.variants[scale] }

// UnmarshalJSON implements strict quantity decoding. JSON null leaves the
// quantity unset (the encoder emits null for unset quantities, so specs
// round-trip).
func (q *Quantity) UnmarshalJSON(data []byte) error {
	trimmed := strings.TrimSpace(string(data))
	if trimmed == "null" {
		*q = Quantity{}
		return nil
	}
	q.raw = append(json.RawMessage(nil), data...)
	if trimmed == "" {
		return fmt.Errorf("quantity must be a number, an expression string, or {\"quick\": …, \"full\": …}")
	}
	switch trimmed[0] {
	case '"':
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		if strings.TrimSpace(s) == "" {
			return fmt.Errorf("quantity expression must be non-empty")
		}
		q.variants = map[Scale]string{Quick: s, Full: s}
	case '{':
		var m map[string]json.RawMessage
		if err := json.Unmarshal(data, &m); err != nil {
			return err
		}
		q.variants = make(map[Scale]string, 2)
		// Visit the variant keys sorted so that the first-reported error on
		// an object with several bad entries is byte-stable across runs.
		keys := make([]string, 0, len(m))
		for key := range m {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			scale, err := ParseScale(key)
			if err != nil {
				return fmt.Errorf("quantity variant %q: %w", key, err)
			}
			src, err := scalarSource(m[key])
			if err != nil {
				return fmt.Errorf("quantity variant %q: %w", key, err)
			}
			q.variants[scale] = src
		}
		for _, scale := range []Scale{Quick, Full} {
			if _, ok := q.variants[scale]; !ok {
				return fmt.Errorf("quantity variant %q missing (per-scale quantities need both quick and full)", scale)
			}
		}
	default:
		var v float64
		if err := json.Unmarshal(data, &v); err != nil {
			return fmt.Errorf("quantity must be a number, an expression string, or {\"quick\": …, \"full\": …}: %w", err)
		}
		src := strings.TrimSpace(string(data))
		q.variants = map[Scale]string{Quick: src, Full: src}
	}
	return nil
}

// MarshalJSON round-trips the original representation.
func (q Quantity) MarshalJSON() ([]byte, error) {
	if q.raw == nil {
		return []byte("null"), nil
	}
	return q.raw, nil
}

func scalarSource(raw json.RawMessage) (string, error) {
	trimmed := strings.TrimSpace(string(raw))
	if trimmed == "" {
		return "", fmt.Errorf("value must be a number or an expression string")
	}
	if trimmed[0] == '"' {
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return "", err
		}
		if strings.TrimSpace(s) == "" {
			return "", fmt.Errorf("expression must be non-empty")
		}
		return s, nil
	}
	var v float64
	if err := json.Unmarshal(raw, &v); err != nil {
		return "", fmt.Errorf("value must be a number or an expression string: %w", err)
	}
	return trimmed, nil
}

// compile checks both scale variants parse, reporting errors under path.
// It does not retain the parsed form: Eval re-parses, keeping Quantity
// immutable (and concurrency-safe) after decoding. Variants are checked
// in fixed scale order (not map order) so that when both are malformed
// the same one is always reported first.
func (q *Quantity) compile(path string) error {
	if !q.IsSet() {
		return nil
	}
	for _, scale := range []Scale{Quick, Full} {
		src, ok := q.variants[scale]
		if !ok {
			continue
		}
		if _, err := ParseExpr(src); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	return nil
}

// parsed returns the expression for the given scale.
func (q *Quantity) parsed(scale Scale) (*Expr, error) {
	if !q.IsSet() {
		return nil, fmt.Errorf("quantity is unset")
	}
	src, ok := q.variants[scale]
	if !ok {
		return nil, fmt.Errorf("quantity has no %v variant", scale)
	}
	return ParseExpr(src)
}

// Eval evaluates the quantity at the given scale with env bindings.
func (q *Quantity) Eval(scale Scale, env map[string]float64) (float64, error) {
	e, err := q.parsed(scale)
	if err != nil {
		return 0, err
	}
	return e.Eval(env)
}

// EvalInt evaluates the quantity and requires an integral result.
func (q *Quantity) EvalInt(scale Scale, env map[string]float64) (int, error) {
	e, err := q.parsed(scale)
	if err != nil {
		return 0, err
	}
	return e.EvalInt(env)
}

// evalIntOr evaluates q when set, else returns def.
func evalIntOr(q *Quantity, scale Scale, env map[string]float64, def int, path string) (int, error) {
	if q == nil || !q.IsSet() {
		return def, nil
	}
	v, err := q.EvalInt(scale, env)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}

// evalFloatOr evaluates q when set, else returns def.
func evalFloatOr(q *Quantity, scale Scale, env map[string]float64, def float64, path string) (float64, error) {
	if q == nil || !q.IsSet() {
		return def, nil
	}
	v, err := q.Eval(scale, env)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}

// validName reports whether name is a lowercase slug (letters, digits,
// dashes), the charset scenario, group and reducer names use — and the
// charset every validation message advertises.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for _, r := range name {
		if !unicode.IsLower(r) && !unicode.IsDigit(r) && r != '-' {
			return false
		}
	}
	return true
}

// validVarName reports whether name can be bound as an expression
// variable (params, sweep axes, derived values): a lowercase identifier —
// letters, digits, underscores, not starting with a digit. Dashes are
// excluded on purpose: "my-axis" would parse as a subtraction inside an
// expression.
func validVarName(name string) bool {
	for i, r := range name {
		switch {
		case unicode.IsLower(r) || r == '_':
		case unicode.IsDigit(r) && i > 0:
		default:
			return false
		}
	}
	return name != ""
}
