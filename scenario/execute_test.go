package scenario

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/core"
	"github.com/ignorecomply/consensus/internal/rng"
	"github.com/ignorecomply/consensus/internal/rules"
	"github.com/ignorecomply/consensus/internal/sim"
)

func decodeT(t *testing.T, src string) *Scenario {
	t.Helper()
	s, err := DecodeBytes([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func quickParams(workers int) Params {
	return Params{Seed: 11, Scale: Quick, Workers: workers}
}

// TestSuiteDeterministicAcrossWorkers pins the determinism contract:
// worker-pool size must never change results.
func TestSuiteDeterministicAcrossWorkers(t *testing.T) {
	s := decodeT(t, `{
		"schema": 1, "name": "det",
		"params": {"n": 300},
		"sweep": [{"name": "k", "values": [2, 4, 8]}],
		"replicas": 4,
		"rule": {"name": "3-majority"},
		"init": {"generator": "balanced", "k": "k"},
		"stop": {"max_rounds": "50 * n"}
	}`)
	var tables []string
	for _, workers := range []int{1, 4} {
		tbl, err := Run(context.Background(), s, quickParams(workers))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tbl.Render(&buf); err != nil {
			t.Fatal(err)
		}
		tables = append(tables, buf.String())
	}
	if tables[0] != tables[1] {
		t.Fatalf("workers changed results:\n1 worker:\n%s\n4 workers:\n%s", tables[0], tables[1])
	}
}

// TestSuiteMatchesRunnerReplicas pins the compatibility contract behind
// the golden reproduction: a single-cell, single-group scenario produces
// bit-identical per-replica results to Runner.RunReplicas on the same
// seed, because both derive replica streams in the same order.
func TestSuiteMatchesRunnerReplicas(t *testing.T) {
	const (
		seed     = uint64(23)
		n        = 400
		replicas = 6
	)
	s := decodeT(t, `{
		"schema": 1, "name": "compat",
		"params": {"n": 400},
		"replicas": 6,
		"rule": {"name": "2-choices"},
		"init": {"generator": "singleton"},
		"metrics": {"color_times": [16, 1]}
	}`)
	suite, err := ExecuteSuite(context.Background(), s, Params{Seed: seed, Scale: Quick, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sim.NewFactoryRunner(
		func() core.Rule { return rules.NewTwoChoices() },
		sim.WithColorTimes(16, 1),
		sim.WithRNG(rng.New(seed))).
		RunReplicas(context.Background(), config.Singleton(n), replicas, 3)
	if err != nil {
		t.Fatal(err)
	}
	got := suite.Cells[0].Groups[0].Results
	if len(got) != len(direct) {
		t.Fatalf("replica counts differ: %d vs %d", len(got), len(direct))
	}
	for i := range direct {
		if got[i].Rounds != direct[i].Rounds || got[i].WinnerLabel != direct[i].WinnerLabel {
			t.Fatalf("replica %d differs: scenario (rounds=%d winner=%d) vs runner (rounds=%d winner=%d)",
				i, got[i].Rounds, got[i].WinnerLabel, direct[i].Rounds, direct[i].WinnerLabel)
		}
		for _, kappa := range []int{16, 1} {
			if got[i].ColorTimes[kappa] != direct[i].ColorTimes[kappa] {
				t.Fatalf("replica %d T^%d differs: %d vs %d",
					i, kappa, got[i].ColorTimes[kappa], direct[i].ColorTimes[kappa])
			}
		}
	}
}

// TestSuiteStructureAndOrdering checks the cell/group skeleton: row-major
// cells (first axis slowest), groups in spec order, per-cell replica
// expressions.
func TestSuiteStructureAndOrdering(t *testing.T) {
	s := decodeT(t, `{
		"schema": 1, "name": "structure",
		"params": {"n": 120},
		"sweep": [
			{"name": "mode", "strings": ["alpha", "beta"]},
			{"name": "k", "values": [2, 3]}
		],
		"replicas": "if(k == 2, 2, 1)",
		"init": {"generator": "balanced", "k": "k"},
		"stop": {"max_rounds": "100 * n"},
		"runs": [
			{"id": "fast", "rule": {"name": "3-majority"}},
			{"id": "slow", "rule": {"name": "voter"}}
		]
	}`)
	suite, err := ExecuteSuite(context.Background(), s, quickParams(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(suite.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(suite.Cells))
	}
	wantOrder := []struct {
		mode     string
		k        int
		replicas int
	}{
		{mode: "alpha", k: 2, replicas: 2},
		{mode: "alpha", k: 3, replicas: 1},
		{mode: "beta", k: 2, replicas: 2},
		{mode: "beta", k: 3, replicas: 1},
	}
	for i, cell := range suite.Cells {
		want := wantOrder[i]
		if cell.Strings["mode"] != want.mode || int(cell.Vars["k"]) != want.k || cell.Replicas != want.replicas {
			t.Fatalf("cell %d = (mode=%s k=%v replicas=%d), want %+v",
				i, cell.Strings["mode"], cell.Vars["k"], cell.Replicas, want)
		}
		if len(cell.Groups) != 2 || cell.Groups[0].ID != "fast" || cell.Groups[1].ID != "slow" {
			t.Fatalf("cell %d groups wrong: %+v", i, cell.Groups)
		}
		for _, g := range cell.Groups {
			if len(g.Results) != want.replicas {
				t.Fatalf("cell %d group %s has %d results, want %d", i, g.ID, len(g.Results), want.replicas)
			}
			if g.Start == nil || g.Start.N() != 120 {
				t.Fatalf("cell %d group %s start config missing", i, g.ID)
			}
		}
	}
}

// TestAdversarialScenario runs the §5 regime through the scenario layer,
// with the strategy drawn from a string axis.
func TestAdversarialScenario(t *testing.T) {
	s := decodeT(t, `{
		"schema": 1, "name": "adversarial",
		"params": {"n": 600, "k": 3},
		"sweep": [{"name": "strategy", "strings": ["boost-runner-up", "inject-invalid"]}],
		"replicas": 2,
		"rule": {"name": "3-majority"},
		"init": {"generator": "balanced", "k": "k"},
		"stop": {"max_rounds": "200 * n"},
		"adversary": {"name": "$strategy", "budget": 1, "epsilon": 0.05, "window": 10}
	}`)
	suite, err := ExecuteSuite(context.Background(), s, quickParams(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range suite.Cells {
		for _, res := range cell.Groups[0].Results {
			if !res.Stable {
				t.Fatalf("strategy %s: run did not stabilize: %+v", cell.Strings["strategy"], res)
			}
			if !res.WinnerValid {
				t.Fatalf("strategy %s: a 1-node adversary stole the win", cell.Strings["strategy"])
			}
		}
	}
}

// TestStopPredicateScenario checks the named stop predicates end to end.
func TestStopPredicateScenario(t *testing.T) {
	s := decodeT(t, `{
		"schema": 1, "name": "predicate",
		"params": {"n": 500},
		"rule": {"name": "2-choices"},
		"init": {"generator": "singleton"},
		"stop": {"max_rounds": "100 * n", "when": {"name": "max-support-exceeds", "value": 12}}
	}`)
	suite, err := ExecuteSuite(context.Background(), s, quickParams(1))
	if err != nil {
		t.Fatal(err)
	}
	res := suite.Cells[0].Groups[0].Results[0]
	if !res.Converged {
		t.Fatal("predicate never fired")
	}
	if _, maxSup := res.Final.Max(); maxSup <= 12 {
		t.Fatalf("stopped with max support %d, predicate needs > 12", maxSup)
	}
}

// TestPerNodeEngines runs the agents and graph engines through the
// scenario layer.
func TestPerNodeEngines(t *testing.T) {
	for _, src := range []string{
		`{"schema": 1, "name": "agents-engine", "params": {"n": 90},
		  "engine": "agents", "rule": {"name": "3-majority"},
		  "init": {"generator": "balanced", "k": 3}, "stop": {"max_rounds": "200 * n"}}`,
		`{"schema": 1, "name": "graph-engine", "params": {"n": 64},
		  "topology": {"name": "complete"}, "rule": {"name": "voter"},
		  "init": {"generator": "balanced", "k": 2}, "stop": {"max_rounds": "500 * n"}}`,
	} {
		s := decodeT(t, src)
		suite, err := ExecuteSuite(context.Background(), s, quickParams(2))
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if !suite.Cells[0].Groups[0].Results[0].Converged {
			t.Fatalf("%s did not converge", s.Name)
		}
	}
}

// TestCustomScenarioRouting: custom kind dispatches to its adapter and
// refuses the suite executor.
func TestCustomScenarioRouting(t *testing.T) {
	RegisterAdapter("test-adapter", func(_ context.Context, s *Scenario, p Params) (*Table, error) {
		n, err := s.ParamInt("n", p.Scale)
		if err != nil {
			return nil, err
		}
		tbl := s.NewTable()
		tbl.Columns = []string{"n"}
		tbl.AddRow(n)
		return tbl, nil
	})
	s := decodeT(t, `{
		"schema": 1, "name": "custom-routing", "kind": "custom",
		"adapter": "test-adapter", "params": {"n": {"quick": 10, "full": 100}}
	}`)
	tbl, err := Run(context.Background(), s, quickParams(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 1 || tbl.Rows[0][0] != "10" {
		t.Fatalf("adapter table: %+v", tbl.Rows)
	}
	if _, err := ExecuteSuite(context.Background(), s, quickParams(1)); err == nil ||
		!strings.Contains(err.Error(), "custom scenarios have no suite") {
		t.Fatalf("ExecuteSuite on custom scenario: err = %v", err)
	}

	missing := decodeT(t, `{
		"schema": 1, "name": "missing-adapter", "kind": "custom",
		"adapter": "never-registered"
	}`)
	if _, err := Run(context.Background(), missing, quickParams(1)); err == nil ||
		!strings.Contains(err.Error(), `no adapter "never-registered"`) {
		t.Fatalf("missing adapter: err = %v", err)
	}
}

// TestUnknownReducer: a suite naming an unregistered reducer fails with
// the registered names in the message.
func TestUnknownReducer(t *testing.T) {
	s := decodeT(t, `{
		"schema": 1, "name": "unknown-reducer", "params": {"n": 20},
		"rule": {"name": "voter"}, "reducer": "nope"
	}`)
	if _, err := Run(context.Background(), s, quickParams(1)); err == nil ||
		!strings.Contains(err.Error(), `no reducer "nope"`) {
		t.Fatalf("unknown reducer: err = %v", err)
	}
}

// TestContextCancellation: a canceled context aborts the suite.
func TestContextCancellation(t *testing.T) {
	s := decodeT(t, `{
		"schema": 1, "name": "cancel", "params": {"n": 2000},
		"replicas": 4, "rule": {"name": "voter"}, "init": {"generator": "singleton"}
	}`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ExecuteSuite(ctx, s, quickParams(2)); err == nil {
		t.Fatal("canceled context did not abort the suite")
	}
}

// TestContextCancellationMidSuite: a context cancelled from the Progress
// callback after the k-th run-done stops the pool. Every cell holds one
// run whose stop predicate knows the run's index: it counts the run's
// start at round 0 and, at round 1, waits for the previous run's
// run-done event before it finishes, so no run finishes ahead of the
// events. When the k-th run-done cancels, each worker holds at most one
// further run, so at most k + workers runs start.
func TestContextCancellationMidSuite(t *testing.T) {
	const (
		cells   = 12
		k       = 3
		workers = 2
	)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int64
	emitted := make([]chan struct{}, cells)
	for i := range emitted {
		emitted[i] = make(chan struct{})
	}
	stopPredicates["test-in-order"] = func(i int) func(int, *Config) bool {
		return func(round int, _ *Config) bool {
			if round == 0 {
				started.Add(1)
				return false
			}
			if i > 0 {
				select {
				case <-emitted[i-1]:
				case <-ctx.Done():
				}
			}
			return true
		}
	}
	defer delete(stopPredicates, "test-in-order")
	values := make([]string, cells)
	for i := range values {
		values[i] = strconv.Itoa(i)
	}
	s := decodeT(t, `{
		"schema": 1, "name": "cancel-mid", "params": {"n": 200},
		"sweep": [{"name": "i", "values": [`+strings.Join(values, ", ")+`]}],
		"rule": {"name": "voter"}, "init": {"generator": "singleton"},
		"stop": {"when": {"name": "test-in-order", "value": "i"}}
	}`)
	before := runtime.NumGoroutine()
	p := quickParams(workers)
	p.Progress = func(ev ProgressEvent) {
		if ev.Kind != ProgressRunDone {
			return
		}
		if ev.Done == k {
			cancel()
		}
		close(emitted[ev.Done-1])
	}
	if _, err := ExecuteSuite(ctx, s, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := started.Load(); got < k || got > k+workers {
		t.Fatalf("%d runs started, want %d to %d", got, k, k+workers)
	}
	// A worker exits just after it signals the pool, so yield until the
	// last one is gone.
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 1_000_000 {
			t.Fatalf("%d goroutines after the suite returned, %d before", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
	}
}

// TestExpandMatchesSuite: the public expansion and the executor's agree.
// Expand has one entry per run of the suite, in cell, group, replica
// order, and every group's Spec is its replica-0 entry.
func TestExpandMatchesSuite(t *testing.T) {
	s := decodeT(t, `{
		"schema": 1, "name": "agreement",
		"params": {"n": 120},
		"sweep": [
			{"name": "mode", "strings": ["alpha", "beta"]},
			{"name": "k", "values": [2, 3]}
		],
		"replicas": "if(k == 2, 3, 1)",
		"init": {"generator": "balanced", "k": "k"},
		"stop": {"max_rounds": "100 * n"},
		"runs": [
			{"id": "fast", "rule": {"name": "3-majority"}},
			{"id": "slow", "rule": {"name": "voter"}, "metrics": {"color_times": [1]}}
		]
	}`)
	p := quickParams(2)
	specs, err := s.Expand(p)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := ExecuteSuite(context.Background(), s, p)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for _, cell := range suite.Cells {
		for gi, g := range cell.Groups {
			if i >= len(specs) {
				t.Fatalf("Expand has %d entries, the suite more runs", len(specs))
			}
			if !reflect.DeepEqual(*g.Spec, specs[i]) {
				t.Fatalf("cell %d, group %q: Spec %+v, Expand's replica 0 %+v", cell.Index, g.ID, *g.Spec, specs[i])
			}
			for rep := range g.Results {
				got := specs[i]
				if got.Cell != cell.Index || got.Group != gi || got.GroupID != g.ID || got.Replica != rep || got.Replicas != len(g.Results) {
					t.Fatalf("Expand entry %d is cell %d, group %d (%q), replica %d of %d; the suite runs cell %d, group %d (%q), replica %d of %d",
						i, got.Cell, got.Group, got.GroupID, got.Replica, got.Replicas, cell.Index, gi, g.ID, rep, len(g.Results))
				}
				i++
			}
		}
	}
	if i != len(specs) {
		t.Fatalf("Expand has %d entries, the suite %d runs", len(specs), i)
	}
}

// TestConcurrentRunOnSharedScenario: a decoded Scenario is immutable, so
// concurrent Expand/Run on the same value must be safe (the CI race job
// runs this under -race) and produce identical tables.
func TestConcurrentRunOnSharedScenario(t *testing.T) {
	s := decodeT(t, `{
		"schema": 1, "name": "shared", "params": {"n": 150},
		"sweep": [{"name": "k", "values": [2, "n/50"]}],
		"replicas": 2,
		"rule": {"name": "3-majority"},
		"init": {"generator": "balanced", "k": "k"},
		"stop": {"max_rounds": "100 * n"}
	}`)
	const goroutines = 4
	rendered := make([]string, goroutines)
	errs := make([]error, goroutines)
	done := make(chan int)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer func() { done <- g }()
			tbl, err := Run(context.Background(), s, quickParams(2))
			if err != nil {
				errs[g] = err
				return
			}
			var buf bytes.Buffer
			if err := tbl.Render(&buf); err != nil {
				errs[g] = err
				return
			}
			rendered[g] = buf.String()
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		<-done
	}
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if rendered[g] != rendered[0] {
			t.Fatalf("goroutine %d produced a different table", g)
		}
	}
}

// TestSummaryReducerRejectsMismatchedColumns: a custom table.columns
// header with the wrong arity fails loudly instead of silently
// misaligning rows.
func TestSummaryReducerRejectsMismatchedColumns(t *testing.T) {
	s := decodeT(t, `{
		"schema": 1, "name": "bad-columns", "params": {"n": 40},
		"table": {"columns": ["a", "b"]},
		"rule": {"name": "3-majority"}, "init": {"generator": "balanced", "k": 2},
		"stop": {"max_rounds": "100 * n"}
	}`)
	if _, err := Run(context.Background(), s, quickParams(1)); err == nil ||
		!strings.Contains(err.Error(), "table.columns has 2") {
		t.Fatalf("mismatched summary columns: err = %v", err)
	}
}

// TestSummaryReducerStringAxes: the default reducer renders string axes.
func TestSummaryReducerStringAxes(t *testing.T) {
	s := decodeT(t, `{
		"schema": 1, "name": "summary-strings", "params": {"n": 80},
		"sweep": [{"name": "who", "strings": ["left", "right"]}],
		"rule": {"name": "3-majority"}, "init": {"generator": "balanced", "k": 2},
		"stop": {"max_rounds": "100 * n"}
	}`)
	tbl, err := Run(context.Background(), s, quickParams(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 || tbl.Rows[0][0] != "left" || tbl.Rows[1][0] != "right" {
		t.Fatalf("summary rows: %+v", tbl.Rows)
	}
}
