package sim_test

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"github.com/ignorecomply/consensus/internal/cluster"
	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/core"
	"github.com/ignorecomply/consensus/internal/rules"
	"github.com/ignorecomply/consensus/internal/sim"
	"github.com/ignorecomply/consensus/scenario"
	"github.com/ignorecomply/consensus/scenarios"
)

// The cluster engine's Net event stream — event order, retry timing and
// the per-leg draw order — is pinned by value here: rounds, messages and
// final counts of a few seeded runs under every Net feature, plus the
// n01/n02 network scenarios' quick-scale seed-1 tables. A run at fixed
// (seed, workers) is bit-exact, so any change to these values is a change
// of the event stream. Regenerate only for an intentional one:
//
//	REGEN_NET_GOLDEN=1 go test ./internal/sim -run TestNetEventStreamGolden

const netGoldenPath = "testdata/net_golden.json"

type netGoldenRun struct {
	Name     string `json:"name"`
	Rounds   int    `json:"rounds"`
	Messages int64  `json:"messages"`
	Final    []int  `json:"final"`
}

type netGolden struct {
	Runs   []netGoldenRun    `json:"runs"`
	Tables []*scenario.Table `json:"tables"`
}

var netGoldenDefs = []struct {
	name    string
	factory core.Factory
	net     *cluster.Net
	p       int
	seed    uint64
}{
	{"3-majority/delay", threeMajority, &cluster.Net{Delay: 1}, 1, 101},
	{"3-majority/jitter", threeMajority, &cluster.Net{Jitter: 2}, 2, 102},
	{"3-majority/loss", threeMajority, &cluster.Net{Loss: 0.1, Retry: 2}, 1, 103},
	{"3-majority/partition", threeMajority, &cluster.Net{Delay: 1, Jitter: 1, Loss: 0.05,
		Partitions: []cluster.Partition{{From: 0, Until: 6, Groups: 2}}}, 3, 104},
	{"2-choices/delay-loss", func() core.Rule { return rules.NewTwoChoices() },
		&cluster.Net{Delay: 2, Loss: 0.2}, 2, 105},
	// Long horizons: events land up to 40 ticks ahead (delay + jitter 35,
	// retry 40), so the event queue's span grows and wraps many times.
	{"3-majority/long-horizon", threeMajority, longHorizon, 1, 106},
	{"3-majority/long-horizon-p2", threeMajority, longHorizon, 2, 107},
	// Beyond the ring: events land up to 1500 ticks ahead, past the
	// queue's 1024-slot ring, and take the far path; a 2^40-tick delay
	// leaves the ring empty between legs, so time jumps from leg to leg.
	{"3-majority/beyond-ring", threeMajority, beyondRing, 1, 108},
	{"3-majority/beyond-ring-p2", threeMajority, beyondRing, 2, 109},
	{"3-majority/huge-delay", threeMajority,
		&cluster.Net{Delay: 1 << 40, Jitter: 1 << 12, Loss: 0.05, Retry: 1 << 41}, 2, 110},
}

var beyondRing = &cluster.Net{Delay: 700, Jitter: 800, Loss: 0.1, Retry: 1100}

var longHorizon = &cluster.Net{Delay: 20, Jitter: 15, Loss: 0.1, Retry: 40}

func threeMajority() core.Rule { return rules.NewThreeMajority() }

func collectNetGolden(t *testing.T) *netGolden {
	t.Helper()
	var out netGolden
	start := config.Balanced(2000, 8)
	for _, def := range netGoldenDefs {
		res, err := sim.NewFactoryRunner(def.factory, sim.WithNetwork(def.net),
			sim.WithParallelism(def.p), sim.WithSeed(def.seed), sim.WithMaxRounds(100_000)).
			Run(context.Background(), start)
		if err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		out.Runs = append(out.Runs, netGoldenRun{
			Name: def.name, Rounds: res.Rounds, Messages: res.Messages, Final: res.Final.CountsCopy(),
		})
	}
	for _, name := range []string{"n01_network_latency.json", "n02_network_loss.json"} {
		data, err := scenarios.Read(name)
		if err != nil {
			t.Fatal(err)
		}
		s, err := scenario.DecodeBytes(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tbl, err := scenario.Run(context.Background(), s, scenario.Params{Seed: 1, Scale: scenario.Quick, Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out.Tables = append(out.Tables, tbl)
	}
	return &out
}

func TestNetEventStreamGolden(t *testing.T) {
	got := collectNetGolden(t)
	if os.Getenv("REGEN_NET_GOLDEN") != "" {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(netGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", netGoldenPath)
		return
	}
	data, err := os.ReadFile(netGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want netGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != len(want.Runs) || len(got.Tables) != len(want.Tables) {
		t.Fatalf("golden has %d runs and %d tables, the suite %d and %d",
			len(want.Runs), len(want.Tables), len(got.Runs), len(got.Tables))
	}
	for i, w := range want.Runs {
		if g := got.Runs[i]; !reflect.DeepEqual(g, w) {
			t.Errorf("%s: rounds %d, messages %d, final %v; want %d, %d, %v (event stream changed)",
				w.Name, g.Rounds, g.Messages, g.Final, w.Rounds, w.Messages, w.Final)
		}
	}
	for i, w := range want.Tables {
		if g := got.Tables[i]; !reflect.DeepEqual(g, w) {
			t.Errorf("table %s changed:\n got  %q\n want %q", w.ID, g.Rows, w.Rows)
		}
	}
}
