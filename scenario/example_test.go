package scenario_test

import (
	"context"
	"fmt"
	"log"
	"os"

	"github.com/ignorecomply/consensus/scenario"
)

// biasSweep compares 2-Choices and 3-Majority across initial biases (the
// paper's §1.1 biased regime). The same document could live in a .json
// file and run via
//
//	consensus-sim -scenario bias-sweep.json -scale quick -seed 7
const biasSweep = `{
	"schema": 1,
	"name": "bias-sweep",
	"table": {
		"title": "Does an initial bias rescue 2-Choices?",
		"claim": "§1.1: with bias ≥ √(n·ln n) both processes are O(k·log n)"
	},
	"params": {"n": {"quick": 8192, "full": 65536}, "k": 16},
	"sweep": [
		{"name": "bias", "values": [
			0,
			"ceil(sqrt(n * log(n)) / 4)",
			"ceil(sqrt(n * log(n)))",
			"4 * ceil(sqrt(n * log(n)))"
		]}
	],
	"replicas": 6,
	"init": {"generator": "biased", "k": "k", "bias": "bias"},
	"stop": {"max_rounds": "200 * n"},
	"runs": [
		{"id": "2-choices", "rule": {"name": "2-choices"}},
		{"id": "3-majority", "rule": {"name": "3-majority"}}
	]
}`

// Describe a whole experiment as data — a bias sweep comparing 2-Choices
// and 3-Majority — and execute it through the engine-agnostic suite
// executor. No run loop, no replica plumbing: the JSON says what to run,
// the executor fans the cells × groups × replicas out deterministically,
// and the default summary reducer tabulates per-cell round statistics.
func ExampleRun() {
	s, err := scenario.DecodeBytes([]byte(biasSweep))
	if err != nil {
		log.Fatal(err)
	}

	// Expansion is a pure function of (spec, params): inspect what would
	// run before running it.
	params := scenario.Params{Seed: 7, Scale: scenario.Quick}
	specs, err := s.Expand(params)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scenario %q expands to %d runs (%d cells × 2 groups × %d replicas)\n\n",
		s.Name, len(specs), len(specs)/(2*specs[0].Replicas), specs[0].Replicas)

	tbl, err := scenario.Run(context.Background(), s, params)
	if err != nil {
		log.Fatal(err)
	}
	if err := tbl.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("the 2-Choices/3-Majority gap shrinks toward 1 as the bias approaches √(n·ln n)")
	// Output:
	// scenario "bias-sweep" expands to 48 runs (4 cells × 2 groups × 6 replicas)
	//
	// bias-sweep — Does an initial bias rescue 2-Choices?
	//   claim: §1.1: with bias ≥ √(n·ln n) both processes are O(k·log n)
	// bias  group       replicas  converged  mean rounds  std    q95
	// 0     2-choices   6         6/6        60.667       4.457  66
	// 0     3-majority  6         6/6        45.500       5.244  51.750
	// 68    2-choices   6         6/6        45.667       7.474  56.250
	// 68    3-majority  6         6/6        36.333       3.724  41.250
	// 272   2-choices   6         6/6        25.333       1.633  27.500
	// 272   3-majority  6         6/6        25.667       2.422  28.500
	// 1088  2-choices   6         6/6        13           0      13
	// 1088  3-majority  6         6/6        12.667       0.516  13
	//
	// the 2-Choices/3-Majority gap shrinks toward 1 as the bias approaches √(n·ln n)
}
