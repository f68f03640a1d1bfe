package expt

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"github.com/ignorecomply/consensus/scenario"
)

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	if len(reg) != 12 {
		t.Fatalf("registry has %d experiments, want 12", len(reg))
	}
	seen := make(map[string]bool)
	for i, e := range reg {
		if e.ID == "" || e.Name == "" || e.Claim == "" || e.Run == nil {
			t.Errorf("experiment %d incomplete: %+v", i, e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate ID %s", e.ID)
		}
		seen[e.ID] = true
		want := "E" + strconv.Itoa(i+1)
		if e.ID != want {
			t.Errorf("registry order: position %d has %s, want %s", i, e.ID, want)
		}
	}
}

func TestByID(t *testing.T) {
	e, ok := ByID("E7")
	if !ok || e.ID != "E7" {
		t.Fatalf("ByID(E7) = %+v, %v", e, ok)
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("ByID(E99) should not exist")
	}
}

func TestScaleString(t *testing.T) {
	if scenario.Quick.String() != "quick" || scenario.Full.String() != "full" {
		t.Fatal("Scale strings wrong")
	}
	if scenario.Scale(9).String() == "" {
		t.Fatal("unknown scale should still render")
	}
}

func TestDefaultParams(t *testing.T) {
	p := scenario.DefaultParams()
	if p.Scale != scenario.Quick || p.Workers < 1 {
		t.Fatalf("DefaultParams = %+v", p)
	}
}

// tinyParams returns the cheapest valid parameters.
func tinyParams() scenario.Params {
	return scenario.Params{Seed: 7, Scale: scenario.Quick, Workers: 2}
}

// runAndRender executes an experiment and round-trips its table through
// both renderers.
func runAndRender(t *testing.T, id string) *scenario.Table {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	tbl, err := e.Run(tinyParams())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	for i, row := range tbl.Rows {
		if len(row) != len(tbl.Columns) {
			t.Fatalf("%s row %d has %d cells, want %d", id, i, len(row), len(tbl.Columns))
		}
	}
	var text, csvOut bytes.Buffer
	if err := tbl.Render(&text); err != nil {
		t.Fatalf("%s render: %v", id, err)
	}
	if !strings.Contains(text.String(), id) {
		t.Fatalf("%s render missing ID header", id)
	}
	if err := tbl.RenderCSV(&csvOut); err != nil {
		t.Fatalf("%s csv: %v", id, err)
	}
	if lines := strings.Count(csvOut.String(), "\n"); lines != len(tbl.Rows)+1 {
		t.Fatalf("%s csv has %d lines, want %d", id, lines, len(tbl.Rows)+1)
	}
	return tbl
}

// The fast experiments run end-to-end in tests; the heavyweight sweeps
// (E1, E2, E8, E10, E11, E12) are exercised by the benchmark harness and
// in TestHeavyExperimentsSmoke under -short skip.

func TestE3DominanceVerdict(t *testing.T) {
	tbl := runAndRender(t, "E3")
	// The last note carries the global verdict.
	last := tbl.Notes[len(tbl.Notes)-1]
	if !strings.Contains(last, "true") {
		t.Fatalf("E3 dominance verdict: %q", last)
	}
}

func TestE4WithinDriftBound(t *testing.T) {
	tbl := runAndRender(t, "E4")
	for _, row := range tbl.Rows {
		if row[len(row)-1] != "yes" {
			t.Fatalf("E4 row exceeds drift bound: %v", row)
		}
	}
}

func TestE5DualityHolds(t *testing.T) {
	tbl := runAndRender(t, "E5")
	for _, row := range tbl.Rows {
		if row[len(row)-1] != "yes" {
			t.Fatalf("E5 identity failed: %v", row)
		}
	}
}

func TestE6DeviationSmall(t *testing.T) {
	tbl := runAndRender(t, "E6")
	for _, row := range tbl.Rows {
		dev, err := strconv.ParseFloat(row[len(row)-1], 64)
		if err != nil {
			t.Fatalf("bad deviation cell %q", row[len(row)-1])
		}
		if dev > 0.01 {
			t.Fatalf("E6 |2C-3M| = %v too large", dev)
		}
	}
}

func TestE7CounterexampleVerdicts(t *testing.T) {
	tbl := runAndRender(t, "E7")
	// Row 0: premise holds. Row 3: dominance must fail.
	if tbl.Rows[0][3] != "yes" {
		t.Fatalf("E7 premise row: %v", tbl.Rows[0])
	}
	if tbl.Rows[3][3] != "no" {
		t.Fatalf("E7 conclusion row should be 'no': %v", tbl.Rows[3])
	}
	if tbl.Rows[1][1] != "7/12" {
		t.Fatalf("E7 exact value: %v", tbl.Rows[1])
	}
}

func TestE9HierarchyMonotone(t *testing.T) {
	tbl := runAndRender(t, "E9")
	if len(tbl.Rows) != 6 {
		t.Fatalf("E9 rows = %d", len(tbl.Rows))
	}
	note := tbl.Notes[0]
	if !strings.Contains(note, "true") {
		t.Fatalf("E9 monotonicity note: %q", note)
	}
}

// TestHeavyExperimentsSmoke runs the expensive sweeps at quick scale; skip
// with -short.
func TestHeavyExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment sweeps skipped in -short mode")
	}
	for _, id := range []string{"E1", "E2", "E8", "E10", "E11", "E12"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			runAndRender(t, id)
		})
	}
}

func TestTableAddRowFormats(t *testing.T) {
	tbl := &scenario.Table{Columns: []string{"a", "b", "c", "d", "e"}}
	tbl.AddRow("s", 3, 2.5, true, int64(9))
	row := tbl.Rows[0]
	want := []string{"s", "3", "2.500", "yes", "9"}
	for i := range want {
		if row[i] != want[i] {
			t.Fatalf("AddRow cell %d = %q, want %q", i, row[i], want[i])
		}
	}
}

func TestFormatFloat(t *testing.T) {
	tests := []struct {
		in   float64
		want string
	}{
		{in: 5, want: "5"},
		{in: 123.456, want: "123.5"},
		{in: 0.5, want: "0.500"},
		{in: 0.0001234, want: "0.000123"},
	}
	for _, tt := range tests {
		if got := scenario.FormatFloat(tt.in); got != tt.want {
			t.Errorf("scenario.FormatFloat(%v) = %q, want %q", tt.in, got, tt.want)
		}
	}
}
