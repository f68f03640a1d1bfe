package lint

import "testing"

func TestTestOnly(t *testing.T) {
	testAnalyzer(t, TestOnlyAnalyzer, "testonly/internal/lib", "testonly/app")
}
