// Package expt is the reproduction harness: one registered experiment per
// paper artifact (theorem, lemma, figure, or numeric example), each
// producing a table in the shape the paper's claim speaks about. Since the
// scenario redesign the experiments are data: every E1..E12 lives as a
// checked-in spec under scenarios/ and executes through the
// engine-agnostic scenario.Suite executor; this package contributes only
// the per-experiment metric reducers (and, for the non-round-loop
// measurements E5–E7, custom adapters). See DESIGN.md §4 for the
// experiment index and §6 for the scenario layer.
package expt

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"github.com/ignorecomply/consensus/scenario"
	"github.com/ignorecomply/consensus/scenarios"
)

// Experiment binds a paper artifact to the scenario regenerating it.
type Experiment struct {
	// ID is the experiment identifier (E1..E12).
	ID string
	// Name is a short human-readable title.
	Name string
	// Claim cites the paper artifact being reproduced.
	Claim string
	// File is the scenario file name under scenarios/.
	File string
	// Scenario is the decoded spec.
	Scenario *scenario.Scenario
	// Run executes the experiment.
	Run func(p scenario.Params) (*scenario.Table, error)
}

var loadRegistry = sync.OnceValues(func() ([]Experiment, error) {
	var exps []Experiment
	for _, file := range scenarios.Names() {
		data, err := scenarios.Read(file)
		if err != nil {
			return nil, fmt.Errorf("expt: embedded scenario %s: %w", file, err)
		}
		s, err := scenario.DecodeBytes(data)
		if err != nil {
			return nil, fmt.Errorf("expt: embedded scenario %s: %w", file, err)
		}
		if s.Experiment == nil {
			continue
		}
		exps = append(exps, Experiment{
			ID:       s.Experiment.ID,
			Name:     s.Experiment.Name,
			Claim:    s.Experiment.Claim,
			File:     file,
			Scenario: s,
			Run: func(p scenario.Params) (*scenario.Table, error) {
				return scenario.Run(context.Background(), s, p)
			},
		})
	}
	sort.Slice(exps, func(i, j int) bool { return idOrder(exps[i].ID) < idOrder(exps[j].ID) })
	return exps, nil
})

// Registry returns all experiments in ID order, decoded from the embedded
// scenario suite (a fresh slice per call — callers may reorder it). It
// panics if an embedded spec fails to decode — a build corruption the
// scenario tests catch long before.
func Registry() []Experiment {
	exps, err := loadRegistry()
	if err != nil {
		panic(err)
	}
	return append([]Experiment(nil), exps...)
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func idOrder(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "E%d", &n); err != nil {
		return 1 << 30
	}
	return n
}

// ratioString renders "num/den" counts the way the tables always have.
func ratioString(num, den int) string {
	return scenario.FormatFloat(float64(num)) + "/" + scenario.FormatFloat(float64(den))
}

// groupByID returns the named group of a cell.
func groupByID(cell *scenario.CellResult, id string) (*scenario.GroupResult, error) {
	for _, g := range cell.Groups {
		if g.ID == id {
			return g, nil
		}
	}
	var have []string
	for _, g := range cell.Groups {
		have = append(have, g.ID)
	}
	return nil, fmt.Errorf("expt: cell %d has no run group %q (groups: %s)",
		cell.Index, id, strings.Join(have, ", "))
}

// cellInt reads a required integer cell binding, rejecting non-integral
// values the way scenario quantities do — a truncated binding would
// silently mislabel table rows.
func cellInt(cell *scenario.CellResult, name string) (int, error) {
	v, ok := cell.Vars[name]
	if !ok {
		return 0, fmt.Errorf("expt: cell %d has no binding %q", cell.Index, name)
	}
	r := math.Round(v)
	if math.Abs(v-r) > 1e-9 {
		return 0, fmt.Errorf("expt: cell %d binding %q = %v is not an integer", cell.Index, name, v)
	}
	return int(r), nil
}
