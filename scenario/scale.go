package scenario

import "fmt"

// Scale selects the experiment budget a scenario resolves its
// scale-dependent quantities against.
type Scale int

// Experiment budgets. Quick keeps the full suite in CI-sized time; Full is
// the reproduction scale, run per scenario (scenarios/*.json) with
// `consensus-sim -scenario E<i> -scale full`.
const (
	Quick Scale = iota + 1
	Full
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	switch s {
	case Quick:
		return "quick"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// ParseScale parses a scale name ("quick" or "full").
func ParseScale(name string) (Scale, error) {
	switch name {
	case "quick":
		return Quick, nil
	case "full":
		return Full, nil
	default:
		return 0, fmt.Errorf("unknown scale %q (want quick or full)", name)
	}
}
