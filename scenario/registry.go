package scenario

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/ignorecomply/consensus/internal/adversary"
	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/sim"
	"github.com/ignorecomply/consensus/internal/stats"
)

// Public aliases: the scenario layer speaks the same types as the Runner.
type (
	// Config is a consensus configuration (support counts per color).
	Config = config.Config
	// Result describes one completed run on any engine.
	Result = sim.Result
	// Engine selects a run's execution backend.
	Engine = sim.Engine
)

// Reducer aggregates an executed suite into a table. Reducers are looked
// up by the spec's "reducer" field; register custom ones before Run.
type Reducer func(suite *SuiteResult) (*Table, error)

// Adapter executes a kind "custom" scenario entirely in Go, with the spec
// supplying the parameters; used for measurements that are not round-loop
// runs (exact couplings, one-round expectations). Long-running adapters
// should honor ctx cancellation between measurement units.
type Adapter func(ctx context.Context, s *Scenario, p Params) (*Table, error)

// StopPredicate builds a per-run stop condition from its integer
// threshold; the run converges the first time the returned function
// reports true.
type StopPredicate func(threshold int) func(round int, c *Config) bool

var registry = struct {
	sync.RWMutex
	reducers map[string]Reducer
	adapters map[string]Adapter
}{
	reducers: map[string]Reducer{"summary": summaryReduce},
	adapters: map[string]Adapter{},
}

// stopPredicates are the named conditions a spec's stop.when can use. The
// set is fixed, so it is read without the registry lock.
var stopPredicates = map[string]StopPredicate{
	"max-support-exceeds": func(threshold int) func(int, *Config) bool {
		return func(_ int, c *Config) bool {
			_, maxSup := c.Max()
			return maxSup > threshold
		}
	},
	"bias-at-least": func(threshold int) func(int, *Config) bool {
		return func(_ int, c *Config) bool { return c.Bias() >= threshold }
	},
	"colors-at-most": func(threshold int) func(int, *Config) bool {
		return func(_ int, c *Config) bool { return c.Remaining() <= threshold }
	},
	"round-at-least": func(threshold int) func(int, *Config) bool {
		return func(round int, _ *Config) bool { return round >= threshold }
	},
}

// RegisterReducer registers (or replaces) a named reducer.
func RegisterReducer(name string, r Reducer) {
	if name == "" || r == nil {
		panic("scenario: RegisterReducer needs a name and a function")
	}
	registry.Lock()
	defer registry.Unlock()
	registry.reducers[name] = r
}

// RegisterAdapter registers (or replaces) a named custom-scenario adapter.
func RegisterAdapter(name string, a Adapter) {
	if name == "" || a == nil {
		panic("scenario: RegisterAdapter needs a name and a function")
	}
	registry.Lock()
	defer registry.Unlock()
	registry.adapters[name] = a
}

func lookupReducer(name string) (Reducer, bool) {
	registry.RLock()
	defer registry.RUnlock()
	r, ok := registry.reducers[name]
	return r, ok
}

func lookupAdapter(name string) (Adapter, bool) {
	registry.RLock()
	defer registry.RUnlock()
	a, ok := registry.adapters[name]
	return a, ok
}

func stopPredicateNames() []string {
	names := make([]string, 0, len(stopPredicates))
	for name := range stopPredicates {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func reducerNames() []string {
	registry.RLock()
	defer registry.RUnlock()
	names := make([]string, 0, len(registry.reducers))
	for name := range registry.reducers {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func adapterNames() []string {
	registry.RLock()
	defer registry.RUnlock()
	names := make([]string, 0, len(registry.adapters))
	for name := range registry.adapters {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// adversaryByNameCheck validates an adversary name without keeping the
// instance.
func adversaryByNameCheck(name string) (adversary.Adversary, error) {
	return adversary.ByName(name, 0)
}

// summaryReduce is the default reducer: one row per cell × group with
// round statistics and convergence counts — what a user-authored scenario
// gets without writing any Go. It is also the walker of the spec's table
// section (via NewTable), which is why it carries the strictwalk
// directive: the title/claim/columns metadata is consumed here, not in
// Validate.
//
//consensus:strictwalk
func summaryReduce(suite *SuiteResult) (*Table, error) {
	tbl := suite.Scenario.NewTable()
	axes := make([]string, 0, len(suite.Scenario.Sweep))
	for _, ax := range suite.Scenario.Sweep {
		axes = append(axes, ax.Name)
	}
	switch {
	case len(tbl.Columns) == 0:
		tbl.Columns = append(append([]string{}, axes...),
			"group", "replicas", "converged", "mean rounds", "std", "q95")
	case len(tbl.Columns) != len(axes)+6:
		// A custom header may rename the columns but not change their
		// count — anything else silently misaligns the rows.
		return nil, fmt.Errorf("scenario %q: the summary reducer emits %d columns (%d sweep axes + 6 statistics) but table.columns has %d; drop table.columns or register a custom reducer",
			suite.Scenario.Name, len(axes)+6, len(axes), len(tbl.Columns))
	}
	for _, cell := range suite.Cells {
		for _, grp := range cell.Groups {
			row := make([]any, 0, len(axes)+6)
			for _, ax := range axes {
				if sv, ok := cell.Strings[ax]; ok {
					row = append(row, sv)
				} else {
					row = append(row, cell.Vars[ax])
				}
			}
			st := stats.Summarize(sim.Rounds(grp.Results))
			row = append(row, grp.ID, len(grp.Results),
				FormatFloat(float64(sim.ConvergedCount(grp.Results)))+"/"+FormatFloat(float64(len(grp.Results))),
				st.Mean, st.Std, st.Q95)
			tbl.AddRow(row...)
		}
	}
	return tbl, nil
}

// NewTable returns a table pre-filled with the scenario's metadata: the
// experiment ID (or the scenario name), and the title/claim/columns of the
// spec's table section.
func (s *Scenario) NewTable() *Table {
	tbl := &Table{ID: s.Name}
	if s.Experiment != nil {
		tbl.ID = s.Experiment.ID
	}
	if s.Table != nil {
		tbl.Title = s.Table.Title
		tbl.Claim = s.Table.Claim
		tbl.Columns = append([]string(nil), s.Table.Columns...)
	}
	return tbl
}

// ParamFloat evaluates the named spec parameter at the given scale.
func (s *Scenario) ParamFloat(name string, scale Scale) (float64, error) {
	q, ok := s.Params[name]
	if !ok {
		return 0, fmt.Errorf("scenario %q: no parameter %q (defined: %s)",
			s.Name, name, strings.Join(paramNames(s.Params), ", "))
	}
	v, err := q.Eval(scale, nil)
	if err != nil {
		return 0, fmt.Errorf("scenario %q: params.%s: %w", s.Name, name, err)
	}
	return v, nil
}

// ParamInt evaluates the named spec parameter and requires an integer.
func (s *Scenario) ParamInt(name string, scale Scale) (int, error) {
	q, ok := s.Params[name]
	if !ok {
		return 0, fmt.Errorf("scenario %q: no parameter %q (defined: %s)",
			s.Name, name, strings.Join(paramNames(s.Params), ", "))
	}
	v, err := q.EvalInt(scale, nil)
	if err != nil {
		return 0, fmt.Errorf("scenario %q: params.%s: %w", s.Name, name, err)
	}
	return v, nil
}

func paramNames(params map[string]Quantity) []string {
	names := make([]string, 0, len(params))
	for name := range params {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
