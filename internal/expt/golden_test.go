package expt

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"github.com/ignorecomply/consensus/scenario"
)

// TestScenariosReproduceGoldenTables is the scenario redesign's
// equivalence oracle: testdata/golden_quick_seed1.json was recorded by the
// pre-scenario, hand-coded experiment harness (seed 1, quick scale), and
// every E1–E12 scenario file must reproduce its table bit-identically —
// same rows, same notes, same float formatting. Workers are irrelevant to
// results by the determinism contract; 4 exercises the pool.
func TestScenariosReproduceGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("golden suite reproduction skipped in -short mode")
	}
	data, err := os.ReadFile("testdata/golden_quick_seed1.json")
	if err != nil {
		t.Fatalf("read golden tables: %v", err)
	}
	var want []*scenario.Table
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("decode golden tables: %v", err)
	}
	byID := make(map[string]*scenario.Table, len(want))
	for _, tbl := range want {
		byID[tbl.ID] = tbl
	}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d experiments, golden file has %d", len(reg), len(want))
	}
	p := scenario.Params{Seed: 1, Scale: scenario.Quick, Workers: 4}
	for _, e := range reg {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			golden, ok := byID[e.ID]
			if !ok {
				t.Fatalf("no golden table for %s", e.ID)
			}
			got, err := e.Run(p)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			diffTables(t, golden, got)
		})
	}
}

// diffTables compares tables field by field so a regression reports the
// first differing cell rather than a wall of JSON.
func diffTables(t *testing.T, want, got *scenario.Table) {
	t.Helper()
	if got.ID != want.ID || got.Title != want.Title || got.Claim != want.Claim {
		t.Errorf("header mismatch:\n got  %q / %q / %q\n want %q / %q / %q",
			got.ID, got.Title, got.Claim, want.ID, want.Title, want.Claim)
	}
	if fmt.Sprintf("%q", got.Columns) != fmt.Sprintf("%q", want.Columns) {
		t.Errorf("columns mismatch:\n got  %q\n want %q", got.Columns, want.Columns)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("row count mismatch: got %d, want %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if fmt.Sprintf("%q", got.Rows[i]) != fmt.Sprintf("%q", want.Rows[i]) {
			t.Errorf("row %d mismatch:\n got  %q\n want %q", i, got.Rows[i], want.Rows[i])
		}
	}
	if len(got.Notes) != len(want.Notes) {
		t.Fatalf("note count mismatch: got %d (%q), want %d (%q)",
			len(got.Notes), got.Notes, len(want.Notes), want.Notes)
	}
	for i := range want.Notes {
		if got.Notes[i] != want.Notes[i] {
			t.Errorf("note %d mismatch:\n got  %q\n want %q", i, got.Notes[i], want.Notes[i])
		}
	}
}
