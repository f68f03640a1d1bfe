package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestModuleWaiversStayNarrow pins the module's waiver set exactly,
// mirroring TestHygieneAllowlistStaysNarrow: every //lint:ordered,
// //lint:alloc, //lint:confined and //lint:testhelper in non-test code is
// a deliberate, audited exception, so adding one must be a deliberate
// edit to this test too. Each file maps to its waivers in line order.
//
// The serve fan-out iterates a set of subscriber channels (no sortable
// key, delivery order immaterial), and the two allocs are cold growth
// branches each covered by a zero-alloc test on the hot sizing. The
// testhelper waivers keep exported code that only tests reach: helpers
// the tests of several packages share (IsConsensus, CheckInvariant,
// NewAC, DefaultEquivalenceAlpha, ChiSquareGOF), a reference the tests
// compare against (TransferChain) and paper quantities only a test
// computes (EscapeProbabilityBound, RunUntil).
func TestModuleWaiversStayNarrow(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{
		"internal/analytic/chernoff.go": {TestHelperDirective},
		"internal/coalesce/coalesce.go": {TestHelperDirective},
		"internal/config/config.go":     {TestHelperDirective, TestHelperDirective},
		"internal/majorize/majorize.go": {TestHelperDirective},
		"internal/rules/ac.go":          {TestHelperDirective},
		"internal/rules/hmajority.go":   {AllocDirective},
		"internal/serve/job.go":         {OrderedDirective},
		"internal/sim/runner.go":        {TestHelperDirective, TestHelperDirective},
		"internal/sim/shard.go":         {AllocDirective},
		"internal/stats/equivalence.go": {TestHelperDirective, TestHelperDirective},
	}
	got := make(map[string][]string)
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		// The analyzer sources mention the directives; only waivers in
		// line comments of non-lint packages count.
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if strings.HasPrefix(filepath.ToSlash(rel), "internal/lint/") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		line := 0
		for sc.Scan() {
			line++
			for _, dir := range []string{OrderedDirective, AllocDirective, ConfinedDirective, TestHelperDirective} {
				if strings.Contains(sc.Text(), "//"+dir) {
					key := filepath.ToSlash(rel)
					got[key] = append(got[key], dir)
					t.Logf("waiver %s at %s:%d", dir, rel, line)
				}
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("module waiver set drifted:\n got  %v\n want %v\n(audit the new waiver's justification, then update this pin)", got, want)
	}
}
