// Package expt is the reproduction harness: one experiment per paper
// artifact (theorem, lemma, figure, or numeric example), each producing a
// table in the shape the paper's claim speaks about. The experiments are
// data: every E1..E12 lives as a checked-in spec under scenarios/ and
// executes through the engine-agnostic scenario.Suite executor; this
// package contributes only the per-experiment metric reducers (and, for
// the non-round-loop measurements E5–E7, custom adapters), registered with
// the scenario layer when the package is imported. See DESIGN.md §4 for the
// experiment index and §6 for the scenario layer.
package expt

import (
	"fmt"
	"math"
	"strings"

	"github.com/ignorecomply/consensus/scenario"
)

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
