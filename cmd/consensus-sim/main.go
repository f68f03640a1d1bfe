// Command consensus-sim runs declarative scenario documents: a file
// path, an embedded file name like e01_threemajority_upper.json, a
// scenario name like e01-threemajority-upper, or an experiment ID like E1.
// It executes the scenario through the engine-agnostic suite executor and
// prints the reduced table — the same path the E1..E12 reproduction
// harness uses. A single run is a one-cell scenario; every engine,
// topology, network model, adversary, workload and trace setting is a
// field of the scenario schema (DESIGN.md §6).
//
// Usage:
//
//	consensus-sim -scenario FILE|NAME|ID [-scale quick|full] [-seed S]
//	              [-workers W] [-verify-determinism] [-check]
//	              [-check-report FILE] [-timeout D]
//	consensus-sim -list-scenarios
//
// Exit codes: 0 success, 1 a failed run (including a violated expect
// section under -check), 2 a usage error.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	// Register the paper-experiment reducers, adapters and stop
	// predicates that the E1–E12 scenarios name.
	_ "github.com/ignorecomply/consensus/internal/expt"
	"github.com/ignorecomply/consensus/scenario"
	"github.com/ignorecomply/consensus/scenarios"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command, factored for tests: parse flags, resolve and
// execute the scenario, print its table. Returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("consensus-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenarioArg = fs.String("scenario", "", "scenario file path, embedded file or scenario name, or experiment ID (E1..E12)")
		scaleName   = fs.String("scale", "quick", "scenario scale: quick or full")
		seed        = fs.Uint64("seed", 1, "random seed")
		workers     = fs.Int("workers", 0, "suite worker pool (0 = GOMAXPROCS); never affects results")
		verifyDet   = fs.Bool("verify-determinism", false, "run the scenario twice and fail unless the tables are bit-identical")
		check       = fs.Bool("check", false, "evaluate the scenario's expect section and fail on violations")
		checkReport = fs.String("check-report", "", "write the expectation report as JSON to FILE (implies -check)")
		listScen    = fs.Bool("list-scenarios", false, "list the embedded scenario suite and exit")
		timeout     = fs.Duration("timeout", 0, "wall-clock budget (0 = none); cancels the run via context")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(msg string) int {
		fmt.Fprintln(stderr, "consensus-sim:", msg)
		fs.Usage()
		return 2
	}
	if fs.NArg() > 0 {
		return usage(fmt.Sprintf("unexpected argument %q (name the scenario with -scenario)", fs.Arg(0)))
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "consensus-sim:", err)
		return 1
	}

	if *listScen {
		if err := listScenarios(stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	if *scenarioArg == "" {
		return usage("no scenario: pass -scenario FILE|NAME|ID, or -list-scenarios for the embedded suite")
	}

	scale, err := scenario.ParseScale(*scaleName)
	if err != nil {
		return usage(err.Error())
	}
	s, err := resolveScenario(*scenarioArg)
	if err != nil {
		return fail(err)
	}
	params := scenario.Params{Seed: *seed, Scale: scale, Workers: *workers}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if err := runScenario(ctx, stdout, stderr, s, params, *verifyDet, *check || *checkReport != "", *checkReport); err != nil {
		return fail(err)
	}
	return 0
}

// listScenarios prints every embedded scenario, not just the
// experiment-bound ones — embed.go invites dropping new workload files in.
func listScenarios(w io.Writer) error {
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
		fmt.Fprintf(w, "%-4s %-28s %s\n", id, s.Name, title)
	}
	return nil
}

// runScenario executes a scenario file and prints its table; with verify
// it executes twice and insists on bit-identical output — the determinism
// contract the scenario layer promises. With check it also evaluates the
// scenario's expect section: the table still prints, the report
// optionally lands in reportPath as JSON, and any violation fails the
// run with its field-qualified message.
func runScenario(ctx context.Context, stdout, stderr io.Writer, s *scenario.Scenario, p scenario.Params, verify, check bool, reportPath string) error {
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
	if _, err := stdout.Write(first.Bytes()); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "  (scenario=%s, scale=%s, seed=%d", s.Name, p.Scale, p.Seed)
	if verify {
		fmt.Fprint(stdout, ", determinism verified")
	}
	if check && report != nil {
		fmt.Fprintf(stdout, ", %d expectations / %d checks / %d violations",
			report.Expectations, report.Checks, len(report.Violations))
	}
	fmt.Fprintln(stdout, ")")
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
		fmt.Fprintf(stderr, "consensus-sim: note: scenario %q declares no expectations\n", s.Name)
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
