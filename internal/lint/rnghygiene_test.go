package lint

import (
	"reflect"
	"testing"
)

// TestRNGHygiene loads two checked packages (an engine, where every
// construct is flagged, and internal/bench, whose wall-clock timing is
// flagged as in any package off the allowlist) and the allowed shapes
// (facade, command, service daemon) in the same run: the latter must stay
// diagnostic-free.
func TestRNGHygiene(t *testing.T) {
	testAnalyzer(t, RNGHygieneAnalyzer,
		"internal/sim", "internal/rng", "internal/bench", "cmd/tool",
		"internal/serve")
}

// TestHygieneAllowlistStaysNarrow pins the wall-clock allowlist exactly
// to its two entries: widening it (say, to all of internal/) would
// quietly exempt engine packages from the determinism contract, so any
// growth must be a deliberate edit to this test too.
func TestHygieneAllowlistStaysNarrow(t *testing.T) {
	want := []string{"cmd", "internal/serve"}
	if !reflect.DeepEqual(hygieneAllowed, want) {
		t.Fatalf("hygieneAllowed = %v, want exactly %v", hygieneAllowed, want)
	}
}

func TestPathHasSegmentPrefix(t *testing.T) {
	cases := []struct {
		path, prefix string
		want         bool
	}{
		{"internal/rng", "internal/rng", true},
		{"github.com/ignorecomply/consensus/internal/rng", "internal/rng", true},
		{"github.com/ignorecomply/consensus/internal/rng/sub", "internal/rng", true},
		{"github.com/ignorecomply/consensus/cmd/consensus", "cmd", true},
		{"cmd/consensus", "cmd", true},
		{"github.com/ignorecomply/consensus/internal/rngx", "internal/rng", false},
		{"github.com/ignorecomply/consensus/scenario", "cmd", false},
	}
	for _, c := range cases {
		if got := pathHasSegmentPrefix(c.path, c.prefix); got != c.want {
			t.Errorf("pathHasSegmentPrefix(%q, %q) = %v, want %v", c.path, c.prefix, got, c.want)
		}
	}
}
