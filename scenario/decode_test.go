package scenario_test

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"github.com/ignorecomply/consensus/scenario"
	"github.com/ignorecomply/consensus/scenarios"
)

// validSpec is a minimal correct scenario the mutation tests start from.
const validSpec = `{
	"schema": 1,
	"name": "decode-test",
	"params": {"n": 100},
	"sweep": [{"name": "k", "values": [2, 4]}],
	"replicas": 2,
	"rule": {"name": "3-majority"},
	"init": {"generator": "balanced", "k": "k"}
}`

func TestDecodeValidSpec(t *testing.T) {
	s, err := scenario.DecodeBytes([]byte(validSpec))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "decode-test" || len(s.Sweep) != 1 {
		t.Fatalf("decoded: %+v", s)
	}
}

// TestGoldenRoundTrip decodes every checked-in scenario, re-encodes it,
// decodes the encoding again and requires the two decodings to marshal
// byte-identically — the quantities must preserve their original
// representation exactly.
func TestGoldenRoundTrip(t *testing.T) {
	names := scenarios.Names()
	if len(names) < 12 {
		t.Fatalf("embedded suite has %d files, want at least the 12 experiments", len(names))
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			data, err := scenarios.Read(name)
			if err != nil {
				t.Fatal(err)
			}
			first, err := scenario.DecodeBytes(data)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			enc1, err := json.Marshal(first)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			second, err := scenario.DecodeBytes(enc1)
			if err != nil {
				t.Fatalf("re-decode of own encoding: %v", err)
			}
			enc2, err := json.Marshal(second)
			if err != nil {
				t.Fatal(err)
			}
			if string(enc1) != string(enc2) {
				t.Fatalf("round trip not stable:\nfirst  %s\nsecond %s", enc1, enc2)
			}
		})
	}
}

// TestGoldenExpansionDeterminism expands every suite-kind scenario twice
// at both scales and requires identical RunSpecs — expansion must be a
// pure function of (spec, Params).
func TestGoldenExpansionDeterminism(t *testing.T) {
	for _, name := range scenarios.Names() {
		data, err := scenarios.Read(name)
		if err != nil {
			t.Fatal(err)
		}
		s, err := scenario.DecodeBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		if s.Kind == scenario.KindCustom {
			continue
		}
		for _, scale := range []scenario.Scale{scenario.Quick, scenario.Full} {
			p := scenario.Params{Seed: 1, Scale: scale}
			a, err := s.Expand(p)
			if err != nil {
				t.Fatalf("%s (%v): %v", name, scale, err)
			}
			b, err := s.Expand(p)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s (%v): two expansions differ", name, scale)
			}
			if len(a) == 0 {
				t.Fatalf("%s (%v): empty expansion", name, scale)
			}
			// Full must not shrink the lattice.
			if scale == scenario.Full {
				quick, err := s.Expand(scenario.Params{Seed: 1, Scale: scenario.Quick})
				if err != nil {
					t.Fatal(err)
				}
				if len(a) < len(quick) {
					t.Fatalf("%s: full expansion (%d runs) smaller than quick (%d)", name, len(a), len(quick))
				}
			}
		}
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	cases := []string{
		strings.Replace(validSpec, `"name"`, `"naem"`, 1),
		strings.Replace(validSpec, `"values"`, `"valuse"`, 1),
		strings.Replace(validSpec, `"generator"`, `"generater"`, 1),
		strings.Replace(validSpec, `"rule": {"name": "3-majority"}`, `"rule": {"name": "3-majority", "hh": 3}`, 1),
	}
	for _, src := range cases {
		if _, err := scenario.DecodeBytes([]byte(src)); err == nil {
			t.Errorf("decode accepted unknown field in %s", src)
		} else if !strings.Contains(err.Error(), "unknown field") &&
			!strings.Contains(err.Error(), "name is required") {
			t.Errorf("unknown-field error = %v", err)
		}
	}
	if _, err := scenario.DecodeBytes([]byte(validSpec + "{}")); err == nil ||
		!strings.Contains(err.Error(), "trailing data") {
		t.Errorf("trailing data error = %v", err)
	}
}

// TestValidationMessages pins that each class of spec mistake produces an
// actionable, field-qualified error.
func TestValidationMessages(t *testing.T) {
	mutate := func(old, new string) string { return strings.Replace(validSpec, old, new, 1) }
	cases := []struct {
		name, src, wantSub string
	}{
		{
			name:    "bad schema",
			src:     mutate(`"schema": 1`, `"schema": 7`),
			wantSub: "unsupported schema 7",
		},
		{
			name:    "bad name",
			src:     mutate(`"decode-test"`, `"Decode Test"`),
			wantSub: "lowercase slug",
		},
		{
			name:    "bad kind",
			src:     mutate(`"schema": 1,`, `"schema": 1, "kind": "weird",`),
			wantSub: `unknown kind "weird"`,
		},
		{
			name:    "custom without adapter",
			src:     mutate(`"schema": 1,`, `"schema": 1, "kind": "custom",`),
			wantSub: "needs an adapter name",
		},
		{
			name:    "unknown rule",
			src:     mutate(`"3-majority"`, `"4-way-handshake"`),
			wantSub: "unknown rule",
		},
		{
			name:    "h on a shorthand rule",
			src:     mutate(`"rule": {"name": "3-majority"}`, `"rule": {"name": "5-majority", "h": 9}`),
			wantSub: `h only applies to the canonical "h-majority" rule`,
		},
		{
			name:    "beta on a non-lazy rule",
			src:     mutate(`"rule": {"name": "3-majority"}`, `"rule": {"name": "voter", "beta": 0.5}`),
			wantSub: `beta only applies to the "lazy-voter" rule`,
		},
		{
			name:    "unknown engine",
			src:     mutate(`"rule": {"name": "3-majority"},`, `"rule": {"name": "3-majority"}, "engine": "quantum",`),
			wantSub: `unknown engine "quantum"`,
		},
		{
			name:    "graph engine without topology",
			src:     mutate(`"rule": {"name": "3-majority"},`, `"rule": {"name": "3-majority"}, "engine": "graph",`),
			wantSub: "needs a topology",
		},
		{
			name:    "unknown group engine",
			src:     mutate(`"rule": {"name": "3-majority"},`, `"rule": {"name": "3-majority"}, "runs": [{"id": "g", "engine": "quantum"}],`),
			wantSub: `runs[0].engine: unknown engine "quantum"`,
		},
		{
			name:    "group graph engine without topology",
			src:     mutate(`"rule": {"name": "3-majority"},`, `"rule": {"name": "3-majority"}, "runs": [{"id": "g", "engine": "graph"}],`),
			wantSub: "runs[0]: the graph engine needs a topology section",
		},
		{
			name:    "unknown generator",
			src:     mutate(`"balanced"`, `"bimodal"`),
			wantSub: `unknown generator "bimodal"`,
		},
		{
			name:    "bad expression",
			src:     mutate(`"values": [2, 4]`, `"values": [2, "4 +"]`),
			wantSub: "unexpected end",
		},
		{
			name:    "axis without values",
			src:     mutate(`"values": [2, 4]`, `"values": []`),
			wantSub: "either values (numeric) or strings",
		},
		{
			name:    "duplicate binding",
			src:     mutate(`{"name": "k", "values": [2, 4]}`, `{"name": "n", "values": [2, 4]}`),
			wantSub: "already bound",
		},
		{
			name:    "unknown stop predicate",
			src:     mutate(`"init": {"generator": "balanced", "k": "k"}`, `"init": {"generator": "balanced", "k": "k"}, "stop": {"when": {"name": "phase-of-moon", "value": 1}}`),
			wantSub: `unknown stop predicate "phase-of-moon"`,
		},
		{
			name:    "adversary missing epsilon",
			src:     mutate(`"init": {"generator": "balanced", "k": "k"}`, `"init": {"generator": "balanced", "k": "k"}, "adversary": {"name": "random-noise", "budget": 2, "window": 10}`),
			wantSub: "required for adversarial runs",
		},
		{
			name:    "adversary axis reference unbound",
			src:     mutate(`"init": {"generator": "balanced", "k": "k"}`, `"init": {"generator": "balanced", "k": "k"}, "adversary": {"name": "$foe", "budget": 2, "epsilon": 0.05, "window": 10}`),
			wantSub: "does not reference a string sweep axis",
		},
		{
			name:    "per-scale quantity missing full",
			src:     mutate(`"replicas": 2`, `"replicas": {"quick": 2}`),
			wantSub: "need both quick and full",
		},
		{
			name:    "quantity wrong type",
			src:     mutate(`"replicas": 2`, `"replicas": [2]`),
			wantSub: "quantity must be a number",
		},
		{
			name:    "fast_forward tuning field",
			src:     mutate(`"rule": {"name": "3-majority"},`, `"rule": {"name": "3-majority"}, "fast_forward": {"gap_factor": 32},`),
			wantSub: `json: unknown field "gap_factor"`,
		},
		{
			name:    "fast_forward with topology",
			src:     mutate(`"rule": {"name": "3-majority"},`, `"rule": {"name": "3-majority"}, "fast_forward": {}, "topology": {"name": "ring"},`),
			wantSub: "a fast_forward section implies the hybrid engine; drop the topology/network section",
		},
		{
			name:    "fast_forward with network",
			src:     mutate(`"rule": {"name": "3-majority"},`, `"rule": {"name": "3-majority"}, "fast_forward": {}, "network": {"delay": 1},`),
			wantSub: "a fast_forward section implies the hybrid engine; drop the topology/network section",
		},
		{
			name:    "fast_forward with batch engine",
			src:     mutate(`"rule": {"name": "3-majority"},`, `"rule": {"name": "3-majority"}, "fast_forward": {}, "engine": "batch",`),
			wantSub: `a fast_forward section implies the hybrid engine; engine is "batch"`,
		},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			_, err := scenario.DecodeBytes([]byte(tt.src))
			if err == nil {
				t.Fatalf("decode accepted bad spec")
			}
			if !strings.Contains(err.Error(), tt.wantSub) {
				t.Fatalf("error %q does not contain %q", err, tt.wantSub)
			}
		})
	}
}

// TestCrossSectionEngineTopology: the graph-engine/topology pairing is
// judged on the merged group view — the engine may come from one level
// and the topology from the other.
func TestCrossSectionEngineTopology(t *testing.T) {
	accepted := []string{
		// Scenario-level engine, group-level topologies.
		`{"schema": 1, "name": "split-a", "params": {"n": 16}, "engine": "graph",
		  "rule": {"name": "voter"},
		  "runs": [{"id": "ring", "topology": {"name": "ring"}},
		           {"id": "torus", "topology": {"name": "torus", "rows": 4}}]}`,
		// Scenario-level topology, group-level engine.
		`{"schema": 1, "name": "split-b", "params": {"n": 16},
		  "topology": {"name": "ring"}, "rule": {"name": "voter"},
		  "runs": [{"id": "g", "engine": "graph"}]}`,
	}
	for _, src := range accepted {
		if _, err := scenario.DecodeBytes([]byte(src)); err != nil {
			t.Errorf("valid cross-section spec rejected: %v", err)
		}
	}
	rejected := []struct{ src, wantSub string }{
		{
			src: `{"schema": 1, "name": "no-topo", "params": {"n": 16}, "engine": "graph",
			  "rule": {"name": "voter"}, "runs": [{"id": "g"}]}`,
			wantSub: "needs a topology",
		},
		{
			src: `{"schema": 1, "name": "agents-topo", "params": {"n": 16},
			  "topology": {"name": "ring"}, "rule": {"name": "voter"},
			  "runs": [{"id": "a", "engine": "agents"}]}`,
			wantSub: "topology implies the graph engine",
		},
	}
	for _, tt := range rejected {
		if _, err := scenario.DecodeBytes([]byte(tt.src)); err == nil ||
			!strings.Contains(err.Error(), tt.wantSub) {
			t.Errorf("invalid cross-section spec: err = %v, want substring %q", err, tt.wantSub)
		}
	}
}

// TestFastForwardSectionSelectsHybrid: an empty fast_forward section
// with no engine field resolves to the hybrid engine.
func TestFastForwardSectionSelectsHybrid(t *testing.T) {
	src := strings.Replace(validSpec, `"rule": {"name": "3-majority"},`, `"rule": {"name": "3-majority"}, "fast_forward": {},`, 1)
	s, err := scenario.DecodeBytes([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	specs, err := s.Expand(scenario.Params{Seed: 1, Scale: scenario.Quick})
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range specs {
		if rs.Engine != scenario.EngineHybrid {
			t.Fatalf("fast_forward section resolved to engine %v, want hybrid", rs.Engine)
		}
	}
}

// TestExpandErrors covers mistakes only the cell bindings can reveal.
func TestExpandErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{
			name: "missing n",
			src: `{"schema": 1, "name": "no-n", "rule": {"name": "voter"},
				"sweep": [{"name": "k", "values": [2]}]}`,
			wantSub: `no binding for "n"`,
		},
		{
			name: "fractional replicas",
			src: `{"schema": 1, "name": "frac", "params": {"n": 10}, "replicas": "n / 3",
				"rule": {"name": "voter"}}`,
			wantSub: "not an integer",
		},
		{
			name: "h-majority without h",
			src: `{"schema": 1, "name": "no-h", "params": {"n": 10},
				"rule": {"name": "h-majority"}}`,
			wantSub: "needs h >= 1",
		},
		{
			name: "unknown variable",
			src: `{"schema": 1, "name": "unbound", "params": {"n": 10},
				"rule": {"name": "voter"}, "stop": {"max_rounds": "10 * m"}}`,
			wantSub: `unknown variable "m"`,
		},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			s, err := scenario.DecodeBytes([]byte(tt.src))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			_, err = s.Expand(scenario.Params{Seed: 1, Scale: scenario.Quick})
			if err == nil {
				t.Fatal("Expand accepted bad spec")
			}
			if !strings.Contains(err.Error(), tt.wantSub) {
				t.Fatalf("error %q does not contain %q", err, tt.wantSub)
			}
		})
	}
}
