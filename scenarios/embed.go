// Package scenarios ships the checked-in scenario suite: every paper
// experiment (E1..E12) as a declarative JSON spec, embedded so the CLIs
// and the tests can run them from any working directory. Decode them with the scenario package; add new workloads by
// dropping a file here (or anywhere — consensus-sim -scenario takes
// plain paths too).
package scenarios

import (
	"embed"
	"io/fs"
	"sort"
)

// Files holds every checked-in scenario spec (*.json).
//
//go:embed *.json
var Files embed.FS

// Names returns the embedded scenario file names, sorted.
func Names() []string {
	entries, err := fs.ReadDir(Files, ".")
	if err != nil {
		// The embedded FS cannot fail to list its root; treat it as a
		// build corruption.
		panic("scenarios: " + err.Error())
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

// Read returns the embedded scenario file's contents.
func Read(name string) ([]byte, error) { return Files.ReadFile(name) }
