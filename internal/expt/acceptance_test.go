package expt

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"github.com/ignorecomply/consensus/scenario"
	"github.com/ignorecomply/consensus/scenarios"
)

// TestScenarioExpectationsHold is the acceptance gate of the expect
// layer: every embedded scenario carries an expect section, and at quick
// scale, seed 1, all of its expectations hold. A bound drifting out of
// calibration fails here with the field-qualified violation message.
//
// It is also the suite's determinism check: each scenario runs at 4
// workers and at 1, and the rendered tables and the marshalled
// expectation reports must match byte for byte.
func TestScenarioExpectationsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario expectation acceptance skipped in -short mode")
	}
	for _, name := range scenarios.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			data, err := scenarios.Read(name)
			if err != nil {
				t.Fatal(err)
			}
			s, err := scenario.DecodeBytes(data)
			if err != nil {
				t.Fatal(err)
			}
			if len(s.Expect) == 0 {
				t.Fatalf("scenario %q ships without an expect section", s.Name)
			}
			var outputs [2][]byte
			for i, workers := range []int{4, 1} {
				p := scenario.Params{Seed: 1, Scale: scenario.Quick, Workers: workers}
				tbl, report, err := scenario.RunChecked(context.Background(), s, p)
				if err != nil {
					t.Fatalf("workers=%d: expectations violated:\n%v", workers, err)
				}
				if report.Checks == 0 {
					t.Fatalf("scenario %q: expect section evaluated zero checks", s.Name)
				}
				var buf bytes.Buffer
				if err := tbl.Render(&buf); err != nil {
					t.Fatal(err)
				}
				rep, err := json.Marshal(report)
				if err != nil {
					t.Fatal(err)
				}
				outputs[i] = append(buf.Bytes(), rep...)
			}
			if !bytes.Equal(outputs[0], outputs[1]) {
				t.Fatalf("scenario %q is not deterministic: table or expectation report differs between 4 workers and 1:\n%s\n---\n%s",
					s.Name, outputs[0], outputs[1])
			}
		})
	}
}

// TestPerturbedBoundFails halves E1's round budget and insists the check
// fails with a typed, field-qualified report naming the cell and the
// expectation — the guarantee that the expect layer actually bites.
func TestPerturbedBoundFails(t *testing.T) {
	if testing.Short() {
		t.Skip("perturbed-bound acceptance skipped in -short mode")
	}
	data, err := scenarios.Read("e01_threemajority_upper.json")
	if err != nil {
		t.Fatal(err)
	}
	src := string(data)
	// Halve the Theorem 4 budget and trim the sweep to its two tightest
	// cells (the e1 reducer's log-log fit needs two points) — the
	// perturbation is observable at n = 256 and the test stays cheap.
	perturbed := strings.Replace(src, `"0.15 * n^0.75 * log(n)^0.875"`, `"0.075 * n^0.75 * log(n)^0.875"`, 1)
	perturbed = strings.Replace(perturbed, `"values": [256, 512, 1024, 2048, 4096, 8192]`, `"values": [256, 512]`, 1)
	if perturbed == src || !strings.Contains(perturbed, "0.075") || !strings.Contains(perturbed, `[256, 512]`) {
		t.Fatalf("perturbation did not apply; e01 scenario text changed:\n%s", src)
	}
	s, err := scenario.DecodeBytes([]byte(perturbed))
	if err != nil {
		t.Fatal(err)
	}
	p := scenario.Params{Seed: 1, Scale: scenario.Quick, Workers: 4}
	tbl, report, err := scenario.RunChecked(context.Background(), s, p)
	if err == nil {
		t.Fatal("halved round budget passed the check")
	}
	if tbl == nil {
		t.Fatalf("violations must still return the table; err: %v", err)
	}
	var viols scenario.ExpectationErrors
	if !errors.As(err, &viols) {
		t.Fatalf("error is %T, want scenario.ExpectationErrors: %v", err, err)
	}
	v := viols[0]
	if v.Expect != 0 || v.Cell != 0 || v.Field != "rounds.max_mean" {
		t.Fatalf("violation coordinates: %+v", v)
	}
	if v.Name != "Theorem 4 sublinear round budget" {
		t.Fatalf("violation names expectation %q", v.Name)
	}
	for _, frag := range []string{`expect[0]`, "Theorem 4 sublinear round budget", "cell 0", "n=256", "rounds.max_mean"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("failure report misses %q:\n%v", frag, err)
		}
	}
	if len(report.Violations) == 0 {
		t.Fatal("report carries no violations")
	}
}
