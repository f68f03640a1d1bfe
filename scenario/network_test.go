package scenario_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"github.com/ignorecomply/consensus/scenario"
)

// networkSpec is a minimal correct network scenario the mutation tests
// start from.
const networkSpec = `{
	"schema": 1,
	"name": "network-test",
	"params": {"n": 96},
	"sweep": [{"name": "loss", "values": [0, 0.2]}],
	"replicas": 2,
	"rule": {"name": "3-majority"},
	"network": {
		"delay": 1,
		"jitter": 1,
		"loss": "loss",
		"retry_after": 2,
		"partitions": [{"from": 0, "until": 4, "groups": 2}]
	},
	"init": {"generator": "balanced", "k": 4},
	"stop": {"max_rounds": "200 * n"}
}`

// TestNetworkSpecResolves: the network section decodes, implies the
// cluster engine, and resolves every quantity per cell.
func TestNetworkSpecResolves(t *testing.T) {
	s, err := scenario.DecodeBytes([]byte(networkSpec))
	if err != nil {
		t.Fatal(err)
	}
	specs, err := s.Expand(scenario.Params{Seed: 1, Scale: scenario.Quick})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 4 { // 2 loss cells × 2 replicas
		t.Fatalf("got %d runs, want 4", len(specs))
	}
	for _, rs := range specs {
		if rs.Engine != scenario.EngineCluster {
			t.Fatalf("network section resolved to engine %v, want cluster", rs.Engine)
		}
		net := rs.Network
		if net == nil {
			t.Fatal("no resolved network")
		}
		if net.Delay != 1 || net.Jitter != 1 || net.RetryAfter != 2 {
			t.Fatalf("resolved network %+v", net)
		}
		if want := rs.Vars["loss"]; net.Loss != want {
			t.Fatalf("loss = %v, want axis value %v", net.Loss, want)
		}
		if len(net.Partitions) != 1 || net.Partitions[0].Until != 4 || net.Partitions[0].Groups != 2 {
			t.Fatalf("resolved partitions %+v", net.Partitions)
		}
	}
}

// TestNetworkSpecStrictDecoding: unknown fields anywhere in the network
// section are rejected, and every invalid field fails with an error that
// names it.
func TestNetworkSpecStrictDecoding(t *testing.T) {
	mutate := func(old, new string) string { return strings.Replace(networkSpec, old, new, 1) }
	t.Run("unknown fields", func(t *testing.T) {
		for _, src := range []string{
			mutate(`"delay"`, `"delya"`),
			mutate(`"retry_after"`, `"retry-after"`),
			mutate(`"until"`, `"till"`),
		} {
			if _, err := scenario.DecodeBytes([]byte(src)); err == nil {
				t.Errorf("decode accepted unknown network field in %s", src)
			} else if !strings.Contains(err.Error(), "unknown field") {
				t.Errorf("unknown-field error = %v", err)
			}
		}
	})
	validate := []struct {
		name, src, wantSub string
	}{
		{
			name:    "network with non-cluster engine",
			src:     mutate(`"rule": {"name": "3-majority"},`, `"rule": {"name": "3-majority"}, "engine": "agents",`),
			wantSub: "implies the cluster engine",
		},
		{
			name:    "network with topology",
			src:     mutate(`"rule": {"name": "3-majority"},`, `"rule": {"name": "3-majority"}, "topology": {"name": "ring"},`),
			wantSub: "pick one",
		},
		{
			name:    "partition without a window",
			src:     mutate(`{"from": 0, "until": 4, "groups": 2}`, `{"from": 0, "groups": 2}`),
			wantSub: "network.partitions[0].until",
		},
		{
			name:    "unparsable delay expression",
			src:     mutate(`"delay": 1`, `"delay": "1 +"`),
			wantSub: "network.delay",
		},
	}
	for _, tc := range validate {
		t.Run(tc.name, func(t *testing.T) {
			_, err := scenario.DecodeBytes([]byte(tc.src))
			if err == nil {
				t.Fatalf("validation accepted %s", tc.src)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
	expand := []struct {
		name, src, wantSub string
	}{
		{
			name:    "loss out of range",
			src:     mutate(`"loss": "loss"`, `"loss": 1`),
			wantSub: "network.loss",
		},
		{
			name:    "negative jitter",
			src:     mutate(`"jitter": 1`, `"jitter": -1`),
			wantSub: "network.jitter",
		},
		{
			name:    "jitter at MaxInt64",
			src:     mutate(`"jitter": 1`, `"jitter": 9223372036854775807`),
			wantSub: "network.jitter",
		},
		{
			name:    "zero retry",
			src:     mutate(`"retry_after": 2`, `"retry_after": 0`),
			wantSub: "network.retry_after",
		},
		{
			name:    "inverted partition window",
			src:     mutate(`"until": 4`, `"until": 0`),
			wantSub: "network.partitions[0]",
		},
		{
			name:    "single partition group",
			src:     mutate(`"groups": 2`, `"groups": 1`),
			wantSub: "network.partitions[0].groups",
		},
	}
	for _, tc := range expand {
		t.Run(tc.name, func(t *testing.T) {
			s, err := scenario.DecodeBytes([]byte(tc.src))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			_, err = s.Expand(scenario.Params{Seed: 1, Scale: scenario.Quick})
			if err == nil {
				t.Fatalf("expansion accepted %s", tc.src)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestNetworkScenarioDeterministic executes the network scenario end to
// end twice and requires byte-identical tables — the determinism contract
// now extends to the message-passing engine.
func TestNetworkScenarioDeterministic(t *testing.T) {
	s, err := scenario.DecodeBytes([]byte(networkSpec))
	if err != nil {
		t.Fatal(err)
	}
	render := func() []byte {
		tbl, err := scenario.Run(context.Background(), s, scenario.Params{Seed: 7, Scale: scenario.Quick, Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tbl.Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("network scenario not deterministic:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(string(a), "2/2") {
		t.Fatalf("replicas did not converge:\n%s", a)
	}
}
