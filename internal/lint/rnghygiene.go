package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// RNGHygieneAnalyzer enforces the repository's randomness and clock
// discipline: every run must be a pure function of its seed, so engine
// code may not reach for ambient entropy or wall-clock time.
//
// In checked packages the analyzer forbids
//
//   - importing math/rand or crypto/rand (global, unseedable or
//     non-deterministic sources),
//   - importing math/rand/v2 anywhere but internal/rng (the one facade
//     allowed to own a generator; everyone else derives streams from
//     *rng.RNG), and
//   - calling time.Now, time.Since, time.Until, time.Sleep, time.Tick,
//     time.After, time.AfterFunc, time.NewTicker or time.NewTimer
//     (timing must flow through injected/virtual clocks, as in the
//     cluster engine's virtual-tick scheduler).
//
// The policy is default-deny: every package in the module is checked
// except the wall-clock allowlist — cmd/ (the commands) and
// internal/serve (the HTTP daemon: uptime gauges and drain deadlines are
// wall-clock concerns; the suites it executes still run through the
// deterministic scenario layer). There is no waiver
// comment: code that needs wall-clock time belongs in an allowlisted
// package. Timing an engine is the job of go test benchmarks, whose
// clock is the testing package's.
var RNGHygieneAnalyzer = &Analyzer{
	Name: "rnghygiene",
	Doc:  "forbids global randomness and wall-clock time outside allowlisted packages",
	Run:  runRNGHygiene,
}

// hygieneAllowed are path prefixes (relative to the module root) exempt
// from the wall-clock and global-randomness rules.
var hygieneAllowed = []string{"cmd", "internal/serve"}

// bannedTimeFuncs are the time package functions that read or act on the
// wall clock.
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"Tick": true, "After": true, "AfterFunc": true,
	"NewTicker": true, "NewTimer": true,
}

// pathHasSegmentPrefix reports whether prefix appears in path aligned on
// path segments: as the whole path, a leading prefix, a trailing suffix
// or an interior run. This makes "internal/rng" match both the fixture
// path "internal/rng" and the module path
// "github.com/ignorecomply/consensus/internal/rng".
func pathHasSegmentPrefix(path, prefix string) bool {
	return path == prefix ||
		strings.HasPrefix(path, prefix+"/") ||
		strings.HasSuffix(path, "/"+prefix) ||
		strings.Contains(path, "/"+prefix+"/")
}

func runRNGHygiene(p *Pass) {
	for _, allowed := range hygieneAllowed {
		if pathHasSegmentPrefix(p.Path, allowed) {
			return
		}
	}
	isRNGFacade := pathHasSegmentPrefix(p.Path, "internal/rng")

	for _, f := range p.Files {
		for _, imp := range f.Imports {
			switch strings.Trim(imp.Path.Value, `"`) {
			case "math/rand":
				p.Reportf(imp.Pos(), "import of math/rand: engine code must draw randomness from internal/rng derived streams (math/rand's global state breaks seed reproducibility)")
			case "crypto/rand":
				p.Reportf(imp.Pos(), "import of crypto/rand: engine code must draw randomness from internal/rng derived streams (crypto/rand is non-deterministic)")
			case "math/rand/v2":
				if !isRNGFacade {
					p.Reportf(imp.Pos(), "import of math/rand/v2 outside internal/rng: derive a stream with (*rng.RNG).Derive instead of owning a generator")
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !bannedTimeFuncs[sel.Sel.Name] {
				return true
			}
			base, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			if pn, ok := p.Info.Uses[base].(*types.PkgName); ok && pn.Imported().Path() == "time" {
				p.Reportf(call.Pos(), "call of time.%s in an engine package: inject a clock (cf. the cluster engine's virtual ticks) or move wall-clock timing to cmd/", sel.Sel.Name)
			}
			return true
		})
	}
}
