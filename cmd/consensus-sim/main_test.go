package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ignorecomply/consensus/scenario"
	"github.com/ignorecomply/consensus/scenarios"
)

// tinySpec is a one-cell scenario that runs in milliseconds; its expect
// section is spliced in by the tests.
const tinySpec = `{
	"schema": 1,
	"name": "cli-tiny",
	"params": {"n": 64},
	"replicas": 2,
	"rule": {"name": "3-majority"},
	"init": {"generator": "balanced", "k": 4},
	"stop": {"max_rounds": "50 * n"},
	"expect": [%s]
}`

// writeSpec writes tinySpec with the given expect entries to a temporary
// file and returns its path.
func writeSpec(t *testing.T, expect string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tiny.json")
	if err := os.WriteFile(path, []byte(strings.Replace(tinySpec, "%s", expect, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestResolveScenario: a scenario is found by path, by embedded file name
// with or without .json, by scenario name and by experiment ID in any
// case, and all of these name the same document.
func TestResolveScenario(t *testing.T) {
	for _, arg := range []string{
		filepath.Join("..", "..", "scenarios", "e07_counterexample.json"),
		"e07_counterexample.json",
		"e07_counterexample",
		"e07-counterexample",
		"E7",
		"e7",
	} {
		s, err := resolveScenario(arg)
		if err != nil {
			t.Errorf("resolveScenario(%q): %v", arg, err)
			continue
		}
		if s.Name != "e07-counterexample" {
			t.Errorf("resolveScenario(%q) = %q, want e07-counterexample", arg, s.Name)
		}
	}
}

// TestResolveUnknownListsSuite: an argument that names nothing fails, and
// the error lists the embedded files to pick from.
func TestResolveUnknownListsSuite(t *testing.T) {
	_, err := resolveScenario("E99")
	if err == nil {
		t.Fatal("resolveScenario(E99) found a scenario")
	}
	for _, name := range scenarios.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %s", err, name)
		}
	}
	code, _, stderr := runCLI("-scenario", "E99")
	if code != 1 || !strings.Contains(stderr, `no scenario "E99"`) {
		t.Fatalf("-scenario E99: code=%d stderr=%q", code, stderr)
	}
}

// TestVerifyDeterminismAndReport runs a tiny scenario twice under
// -verify-determinism with its expectations checked, and reads back the
// JSON report -check-report writes.
func TestVerifyDeterminismAndReport(t *testing.T) {
	spec := writeSpec(t, `{"name": "lands", "converged": {"min_fraction": 1}}`)
	report := filepath.Join(t.TempDir(), "report.json")
	code, stdout, stderr := runCLI("-scenario", spec, "-verify-determinism", "-check-report", report, "-workers", "2")
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
	if !strings.Contains(stdout, "scenario=cli-tiny") || !strings.Contains(stdout, "determinism verified") ||
		!strings.Contains(stdout, "1 expectations") || !strings.Contains(stdout, "0 violations") {
		t.Fatalf("stdout lacks the run summary:\n%s", stdout)
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var rep scenario.ExpectReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not an expectation report: %v\n%s", err, data)
	}
	if rep.Scenario != "cli-tiny" || rep.Expectations != 1 || len(rep.Violations) != 0 {
		t.Fatalf("report = %+v", rep)
	}
}

// TestViolatedExpectationFails: -check turns a violated expect entry into
// a nonzero exit that names it, and the table still prints.
func TestViolatedExpectationFails(t *testing.T) {
	spec := writeSpec(t, `{"name": "impossible budget", "rounds": {"max": 0}}`)
	code, stdout, stderr := runCLI("-scenario", spec, "-check")
	if code != 1 {
		t.Fatalf("code=%d, want 1; stderr=%q", code, stderr)
	}
	if !strings.Contains(stderr, `expect[0] (impossible budget)`) {
		t.Fatalf("stderr does not name the violation: %q", stderr)
	}
	if !strings.Contains(stdout, "1 violations") {
		t.Fatalf("stdout lacks the table summary:\n%s", stdout)
	}
}

// TestUsageErrors: the single-run flags are gone, and a run needs a
// scenario.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		args    []string
		wantSub string
	}{
		{[]string{"-rule", "3-majority"}, "flag provided but not defined: -rule"},
		{[]string{"-emit-scenario"}, "flag provided but not defined: -emit-scenario"},
		{nil, "no scenario"},
		{[]string{"-scenario", "E7", "extra"}, `unexpected argument "extra"`},
		{[]string{"-scenario", "E7", "-scale", "huge"}, "huge"},
	}
	for _, c := range cases {
		code, _, stderr := runCLI(c.args...)
		if code != 2 || !strings.Contains(stderr, c.wantSub) {
			t.Errorf("%q: code=%d, want 2 with %q in stderr %q", c.args, code, c.wantSub, stderr)
		}
	}
}
