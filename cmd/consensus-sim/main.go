// Command consensus-sim runs consensus scenarios. With -scenario it
// executes a declarative scenario file (a path, an embedded name like
// e01-threemajority-upper, or an experiment ID like E1) through the
// engine-agnostic suite executor and prints the reduced table — the same
// path the E1..E12 reproduction harness uses. Without -scenario the
// classic flags describe a single run; they are compiled into a generated
// single-cell scenario and executed through the very same layer (print it
// with -emit-scenario to start a new scenario file from flags).
//
// Usage:
//
//	consensus-sim -scenario FILE|NAME|ID [-scale quick|full] [-seed S]
//	              [-workers W] [-verify-determinism] [-list-scenarios]
//	              [-check] [-check-report FILE]
//	consensus-sim [-rule voter|lazy-voter|2-choices|3-majority|4-majority|...|2-median|undecided]
//	              [-beta B] [-engine batch|agents|graph|cluster|hybrid] [-parallel P]
//	              [-ff-report]
//	              [-topology complete|ring|torus|star|random-regular] [-degree D]
//	              [-net-delay D] [-net-jitter J] [-net-loss P] [-net-retry T]
//	              [-adversary none|boost-runner-up|revive-weakest|inject-invalid|random-noise]
//	              [-budget F] [-epsilon E] [-window W]
//	              [-n N] [-k K] [-dist singleton|balanced|zipf|biased]
//	              [-bias B] [-seed S] [-trace-every T] [-max-rounds M]
//	              [-timeout D] [-emit-scenario]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	// Register the paper-experiment reducers, adapters and stop
	// predicates that the E1–E12 scenarios name.
	_ "github.com/ignorecomply/consensus/internal/expt"
	"github.com/ignorecomply/consensus/scenario"
	"github.com/ignorecomply/consensus/scenarios"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "consensus-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("consensus-sim", flag.ContinueOnError)
	var (
		scenarioArg = fs.String("scenario", "", "scenario file path, embedded scenario name, or experiment ID (E1..E12)")
		scaleName   = fs.String("scale", "quick", "scenario scale: quick or full")
		workers     = fs.Int("workers", 0, "suite worker pool (0 = GOMAXPROCS); never affects results")
		verifyDet   = fs.Bool("verify-determinism", false, "run the scenario twice and fail unless the tables are bit-identical")
		check       = fs.Bool("check", false, "evaluate the scenario's expect section and fail on violations")
		checkReport = fs.String("check-report", "", "write the expectation report as JSON to FILE (implies -check)")
		listScen    = fs.Bool("list-scenarios", false, "list the embedded scenario suite and exit")
		emit        = fs.Bool("emit-scenario", false, "print the scenario generated from the classic flags and exit")

		ruleName   = fs.String("rule", "3-majority", "update rule (voter, lazy-voter, 2-choices, 3-majority, H-majority, 2-median, undecided)")
		beta       = fs.Float64("beta", 0, "idle probability for -rule lazy-voter")
		engineName = fs.String("engine", "batch", "execution engine: batch, agents, graph, cluster, hybrid")
		ffReport   = fs.Bool("ff-report", false, "print the hybrid engine's fast-forward report (rounds skipped, stretches, envelope widths); needs -engine hybrid")
		parallel   = fs.Int("parallel", 0, "worker shards for the agents/graph engines (0 = default, 1 = sequential bit-exact)")
		topology   = fs.String("topology", "complete", "interaction topology for -engine graph: complete, ring, torus, star, random-regular")
		degree     = fs.Int("degree", 4, "vertex degree for -topology random-regular")
		netDelay   = fs.Int("net-delay", 0, "fixed per-leg delivery delay in ticks for -engine cluster")
		netJitter  = fs.Int("net-jitter", 0, "uniform extra per-leg delay in [0, J] ticks for -engine cluster")
		netLoss    = fs.Float64("net-loss", 0, "i.i.d. per-leg message loss probability in [0, 1) for -engine cluster (lost pulls retry)")
		netRetry   = fs.Int("net-retry", 1, "pull-retry timeout in ticks for -engine cluster")
		advName    = fs.String("adversary", "none", "§5 adversary: none, boost-runner-up, revive-weakest, inject-invalid, random-noise")
		budget     = fs.Int("budget", 8, "adversary per-round corruption budget F")
		epsilon    = fs.Float64("epsilon", 0.05, "almost-consensus threshold parameter ε")
		window     = fs.Int("window", 25, "rounds the almost-consensus must hold to count as stable")
		n          = fs.Int("n", 10000, "number of nodes")
		k          = fs.Int("k", 0, "number of initial colors (0 = n, i.e. the singleton configuration)")
		dist       = fs.String("dist", "singleton", "initial distribution: singleton, balanced, zipf, biased")
		bias       = fs.Int("bias", 0, "initial bias for -dist biased")
		seed       = fs.Uint64("seed", 1, "random seed")
		traceEvery = fs.Int("trace-every", 10, "print a trace line every T rounds (0 = off)")
		maxRounds  = fs.Int("max-rounds", 10_000_000, "round budget")
		timeout    = fs.Duration("timeout", 0, "wall-clock budget (0 = none); cancels the run via context")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *listScen {
		// List every embedded scenario, not just the experiment-bound
		// ones — embed.go invites dropping new workload files in.
		for _, name := range scenarios.Names() {
			data, err := scenarios.Read(name)
			if err != nil {
				return err
			}
			s, err := scenario.DecodeBytes(data)
			if err != nil {
				return fmt.Errorf("embedded scenario %s: %w", name, err)
			}
			id, title := "-", ""
			if s.Experiment != nil {
				id, title = s.Experiment.ID, s.Experiment.Name
			}
			fmt.Printf("%-4s %-28s %s\n", id, s.Name, title)
		}
		return nil
	}

	scale, err := scenario.ParseScale(*scaleName)
	if err != nil {
		return err
	}
	params := scenario.Params{Seed: *seed, Scale: scale, Workers: *workers}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *ffReport {
		if *scenarioArg != "" {
			return fmt.Errorf("-ff-report prints a single run's fast-forward report; it applies to the classic flags, not -scenario")
		}
		if *engineName != "hybrid" {
			return fmt.Errorf("-ff-report prints the hybrid engine's fast-forward report; it needs -engine hybrid, got %q", *engineName)
		}
	}
	if *scenarioArg != "" {
		s, err := resolveScenario(*scenarioArg)
		if err != nil {
			return err
		}
		return runScenario(ctx, s, params, *verifyDet, *check || *checkReport != "", *checkReport)
	}
	if *check || *checkReport != "" {
		return fmt.Errorf("-check evaluates a scenario's expect section; it needs -scenario")
	}
	if *verifyDet {
		// The classic path prints a single run's trace, not a reduced
		// table to compare; generate a scenario from the flags instead.
		return fmt.Errorf("-verify-determinism needs -scenario (generate one from these flags with -emit-scenario)")
	}

	// Classic flags: compile them into a generated single-cell scenario
	// and execute it through the same layer.
	s, err := scenarioFromFlags(flagScenario{
		rule: *ruleName, beta: *beta, engine: *engineName, parallel: *parallel,
		topology: *topology, degree: *degree,
		netDelay: *netDelay, netJitter: *netJitter, netLoss: *netLoss, netRetry: *netRetry,
		adversary: *advName, budget: *budget, epsilon: *epsilon, window: *window,
		n: *n, k: *k, dist: *dist, bias: *bias,
		traceEvery: *traceEvery, maxRounds: *maxRounds,
	})
	if err != nil {
		return err
	}
	if *emit {
		data, err := json.MarshalIndent(s, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	suite, err := scenario.ExecuteSuite(ctx, s, params)
	if err != nil {
		return err
	}
	res := suite.Cells[0].Groups[0].Results[0]
	start := suite.Cells[0].Groups[0].Start
	fmt.Printf("rule=%s engine=%s n=%d k=%d dist=%s adversary=%s seed=%d\n",
		*ruleName, *engineName, start.N(), start.Remaining(), *dist, *advName, *seed)
	for _, tp := range res.Trace {
		fmt.Printf("round %8d  colors %8d  max-support %8d  bias %8d\n",
			tp.Round, tp.Colors, tp.MaxSupport, tp.Bias)
	}
	adversarial := s.Adversary != nil
	switch {
	case adversarial && res.Stable:
		validity := "valid"
		if !res.WinnerValid {
			validity = "INVALID"
		}
		fmt.Printf("stable almost-consensus after %d rounds; winner color label %d (%s), %d corruptions applied\n",
			res.Rounds, res.WinnerLabel, validity, res.Corrupted)
	case adversarial:
		fmt.Printf("no stable almost-consensus within %d rounds (%d corruptions applied)\n",
			res.Rounds, res.Corrupted)
	case res.Converged:
		fmt.Printf("consensus after %d rounds; winner color label %d\n", res.Rounds, res.WinnerLabel)
	default:
		fmt.Printf("budget exhausted after %d rounds; winner color label %d\n", res.Rounds, res.WinnerLabel)
	}
	if res.Messages > 0 {
		fmt.Printf("messages exchanged: %d (%d bits/message payload)\n", res.Messages, res.BitsPerMessage)
	}
	if *ffReport && res.FastForward != nil {
		ff := res.FastForward
		fmt.Printf("fast-forward: exact %d rounds, skipped %d rounds in %d stretches, max envelope %.3g\n",
			ff.ExactRounds, ff.SkippedRounds, len(ff.Stretches), ff.MaxEnvelope)
		for _, st := range ff.Stretches {
			fmt.Printf("  stretch at round %8d: %8d rounds, exit envelope %.3g\n",
				st.StartRound, st.Rounds, st.ExitEnvelope)
		}
	}
	return nil
}

// runScenario executes a scenario file and prints its table; with verify
// it executes twice and insists on bit-identical output — the determinism
// contract the scenario layer promises. With check it also evaluates the
// scenario's expect section: the table still prints, the report
// optionally lands in reportPath as JSON, and any violation fails the
// run with its field-qualified message.
func runScenario(ctx context.Context, s *scenario.Scenario, p scenario.Params, verify, check bool, reportPath string) error {
	execute := func() (*bytes.Buffer, *scenario.ExpectReport, error) {
		var (
			tbl    *scenario.Table
			report *scenario.ExpectReport
			err    error
		)
		if check {
			tbl, report, err = scenario.RunChecked(ctx, s, p)
		} else {
			tbl, err = scenario.Run(ctx, s, p)
		}
		if tbl == nil {
			return nil, nil, err
		}
		var buf bytes.Buffer
		if rerr := tbl.Render(&buf); rerr != nil {
			return nil, nil, rerr
		}
		return &buf, report, err
	}

	first, report, checkErr := execute()
	if first == nil {
		return checkErr
	}
	if verify {
		second, report2, checkErr2 := execute()
		if second == nil {
			return fmt.Errorf("determinism check re-run: %w", checkErr2)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			return fmt.Errorf("scenario %q is not deterministic: two runs at seed %d differ", s.Name, p.Seed)
		}
		if check {
			rep1, err := json.Marshal(report)
			if err != nil {
				return err
			}
			rep2, err := json.Marshal(report2)
			if err != nil {
				return err
			}
			if !bytes.Equal(rep1, rep2) {
				return fmt.Errorf("scenario %q is not deterministic: two expectation reports at seed %d differ", s.Name, p.Seed)
			}
		}
	}
	if _, err := os.Stdout.Write(first.Bytes()); err != nil {
		return err
	}
	fmt.Printf("  (scenario=%s, scale=%s, seed=%d", s.Name, p.Scale, p.Seed)
	if verify {
		fmt.Printf(", determinism verified")
	}
	if check && report != nil {
		fmt.Printf(", %d expectations / %d checks / %d violations",
			report.Expectations, report.Checks, len(report.Violations))
	}
	fmt.Println(")")
	if reportPath != "" && report != nil {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(reportPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if check && report != nil && report.Expectations == 0 {
		fmt.Fprintf(os.Stderr, "consensus-sim: note: scenario %q declares no expectations\n", s.Name)
	}
	return checkErr
}

// resolveScenario loads a scenario from a file path, an embedded file
// name, an embedded scenario name, or an experiment ID. Name/ID matching
// decodes the embedded files directly, so scenarios without an experiment
// binding resolve too.
func resolveScenario(arg string) (*scenario.Scenario, error) {
	if _, err := os.Stat(arg); err == nil {
		return scenario.Load(arg)
	}
	for _, name := range []string{arg, arg + ".json"} {
		if data, err := scenarios.Read(name); err == nil {
			return scenario.DecodeBytes(data)
		}
	}
	for _, name := range scenarios.Names() {
		data, err := scenarios.Read(name)
		if err != nil {
			continue
		}
		s, err := scenario.DecodeBytes(data)
		if err != nil {
			return nil, fmt.Errorf("embedded scenario %s: %w", name, err)
		}
		if s.Name == arg || (s.Experiment != nil && strings.EqualFold(s.Experiment.ID, arg)) {
			return s, nil
		}
	}
	return nil, fmt.Errorf("no scenario %q: not a file, and the embedded suite has %s",
		arg, strings.Join(scenarios.Names(), ", "))
}

type flagScenario struct {
	rule, engine, topology, adversary, dist string
	parallel, degree, budget, window        int
	netDelay, netJitter, netRetry           int
	n, k, bias, traceEvery, maxRounds       int
	epsilon, beta, netLoss                  float64
}

// hasNetwork reports whether any network-shaping flag departs from the
// zero-latency lockstep default.
func (f *flagScenario) hasNetwork() bool {
	return f.netDelay != 0 || f.netJitter != 0 || f.netLoss != 0 || f.netRetry != 1
}

// scenarioFromFlags compiles the classic single-run flags into a
// single-cell scenario.
func scenarioFromFlags(f flagScenario) (*scenario.Scenario, error) {
	s := &scenario.Scenario{
		Schema: scenario.CurrentSchema,
		Name:   "cli-run",
		Params: map[string]scenario.Quantity{"n": scenario.Num(float64(f.n))},
	}
	s.Rule = &scenario.RuleSpec{Name: f.rule}
	if f.beta != 0 {
		s.Rule.Beta = scenario.Num(f.beta)
	}
	switch f.engine {
	case "batch", "agents", "cluster", "hybrid":
		s.Engine = f.engine
	case "graph":
		topo := &scenario.TopologySpec{Name: f.topology}
		if f.topology == "random-regular" {
			topo.Degree = scenario.Num(float64(f.degree))
		}
		s.Topology = topo
	default:
		return nil, fmt.Errorf("unknown engine %q", f.engine)
	}
	if f.hasNetwork() {
		if f.engine != "cluster" {
			return nil, fmt.Errorf("the network flags (-net-delay, -net-jitter, -net-loss, -net-retry) need -engine cluster, got %q", f.engine)
		}
		net := &scenario.NetworkSpec{}
		if f.netDelay != 0 {
			net.Delay = scenario.Num(float64(f.netDelay))
		}
		if f.netJitter != 0 {
			net.Jitter = scenario.Num(float64(f.netJitter))
		}
		if f.netLoss != 0 {
			net.Loss = scenario.Num(f.netLoss)
		}
		if f.netRetry != 1 {
			net.RetryAfter = scenario.Num(float64(f.netRetry))
		}
		s.Network = net
	}
	// The suite executor defaults per-run engine sharding to sequential
	// (its replica pool normally fills the cores), but this path runs a
	// single replica — keep the flag's documented "0 = GOMAXPROCS"
	// behavior for the sharded per-node engines.
	par := f.parallel
	if par == 0 && (f.engine == "agents" || f.engine == "graph") {
		par = runtime.GOMAXPROCS(0)
	}
	if par > 0 {
		q := scenario.Num(float64(par))
		s.Parallelism = &q
	}
	init := &scenario.InitSpec{Generator: f.dist}
	if f.k > 0 {
		init.K = scenario.Num(float64(f.k))
	}
	if f.bias > 0 {
		init.Bias = scenario.Num(float64(f.bias))
	}
	s.Init = init
	s.Stop = &scenario.StopSpec{MaxRounds: scenario.Num(float64(f.maxRounds))}
	if f.traceEvery > 0 {
		s.Metrics = &scenario.MetricsSpec{TraceEvery: scenario.Num(float64(f.traceEvery))}
	}
	if f.adversary != "none" && f.adversary != "" {
		s.Adversary = &scenario.AdversarySpec{
			Name:    f.adversary,
			Budget:  scenario.Num(float64(f.budget)),
			Epsilon: scenario.Num(f.epsilon),
			Window:  scenario.Num(float64(f.window)),
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
