package main

import (
	"encoding/json"
	"fmt"
	"math"

	"github.com/ignorecomply/consensus/internal/rng"
)

// captureReducer is the reducer every generated suite document names: it
// reduces like the default summary table and also records the per-run
// facts the correctness checks need (see reducer.go).
const captureReducer = "perfbench"

// cell is one sweep point of a family: population n, colors k (0 where the
// start is the singleton configuration) and the replica count that makes a
// document of this cell cost about the same as the workload's other
// documents (replicas × the per-run cost measured on the sizing machine;
// see NOTES.md).
type cell struct {
	n, k, replicas int
}

// family is one engine × rule combination. Every document holds exactly
// one family, so a span around the document's RunChecked call is
// attributable to one engine × rule.
type family struct {
	name  string
	cells []cell
	// spec returns the family-specific document fields for a cell.
	spec func(c cell) map[string]any
}

// doc is one generated suite document.
type doc struct {
	family string
	name   string
	body   []byte
	// seed is the suite seed (scenario.Params.Seed) the document runs at.
	seed uint64
	// runs is the number of runs the document expands to.
	runs int
}

func singleton(rule map[string]any, maxRounds func(n int) int) func(c cell) map[string]any {
	return func(c cell) map[string]any {
		return map[string]any{
			"rule": rule,
			"init": map[string]any{"generator": "singleton"},
			"stop": map[string]any{"max_rounds": maxRounds(c.n)},
		}
	}
}

// biasedFF is the E13 regime: biased 3-Majority with a head start of
// 4·sqrt(n ln n), small enough that runs last long enough for the hybrid
// planner to certify stretches at n ≥ 10^8.
func biasedFF(engine string) func(c cell) map[string]any {
	return func(c cell) map[string]any {
		m := map[string]any{
			"engine": engine,
			"rule":   map[string]any{"name": "3-majority"},
			"init":   map[string]any{"generator": "biased", "k": c.k, "bias": "ceil(4 * sqrt(n * log(n)))"},
			"stop":   map[string]any{"max_rounds": 10000},
		}
		if engine == "hybrid" {
			m["fast_forward"] = map[string]any{}
		}
		return m
	}
}

// pernodeSpec runs 3-Majority from the balanced 16-color start on a
// per-node engine.
func pernodeSpec(extra map[string]any) func(c cell) map[string]any {
	return func(c cell) map[string]any {
		m := map[string]any{
			"rule": map[string]any{"name": "3-majority"},
			"init": map[string]any{"generator": "balanced", "k": c.k},
			"stop": map[string]any{"max_rounds": 3000},
		}
		for k, v := range extra {
			m[k] = v
		}
		return m
	}
}

func sqrtCap(mult float64) func(n int) int {
	return func(n int) int { return int(mult * math.Sqrt(float64(n))) }
}

var ffCells = func() []cell {
	// Replicas per cell keep each document near a third of the workload's
	// other documents (about 0.1 s on one core): the per-run cost grows with
	// k and with the rounds a larger n needs. Fewer, larger documents would
	// hold tens of MiB of results at once and make the peak RSS swing with
	// GC timing.
	reps := map[int][]int{
		2:  {6000, 6000, 6000, 6000},
		8:  {2000, 1400, 1400, 1400},
		32: {300, 200, 150, 100},
	}
	var cs []cell
	for i, n := range []int{1e6, 1e7, 1e8, 1e9} {
		for _, k := range []int{2, 8, 32} {
			cs = append(cs, cell{n: n, k: k, replicas: reps[k][i]})
		}
	}
	return cs
}()

// paperFamilies are the paper's own regimes on the count-based engines.
var paperFamilies = []family{
	{
		name:  "sep-3m",
		cells: []cell{{n: 1 << 12, replicas: 22}, {n: 1 << 13, replicas: 11}, {n: 1 << 14, replicas: 5}, {n: 1 << 15, replicas: 3}, {n: 1 << 16, replicas: 1}},
		spec:  singleton(map[string]any{"name": "3-majority"}, sqrtCap(16)),
	},
	{
		name:  "sep-2c",
		cells: []cell{{n: 1 << 10, replicas: 6}, {n: 1448, replicas: 3}, {n: 1 << 11, replicas: 2}},
		// 2-Choices from n colors needs Ω(n/log n) rounds.
		spec: singleton(map[string]any{"name": "2-choices"}, func(n int) int { return 4 * n }),
	},
	{
		name:  "hier-h3",
		cells: []cell{{n: 512, replicas: 2}},
		spec:  singleton(map[string]any{"name": "h-majority", "h": 3}, sqrtCap(16)),
	},
	{
		name:  "hier-h4",
		cells: []cell{{n: 512, replicas: 5}, {n: 1024, replicas: 10}},
		spec:  singleton(map[string]any{"name": "h-majority", "h": 4}, sqrtCap(16)),
	},
	{
		name:  "hier-h5",
		cells: []cell{{n: 512, replicas: 27}, {n: 1024, replicas: 32}},
		spec:  singleton(map[string]any{"name": "h-majority", "h": 5}, sqrtCap(16)),
	},
	{name: "ff-hybrid", cells: ffCells, spec: biasedFF("hybrid")},
	{name: "ff-batch", cells: ffCells, spec: biasedFF("batch")},
}

// pernodeFamilies run 3-Majority on the per-node engines. agents,
// graph-complete and cluster-zero share one cell, so the three engines'
// costs compare directly.
var pernodeFamilies = []family{
	{name: "agents", cells: []cell{{n: 50000, k: 16, replicas: 1}}, spec: pernodeSpec(map[string]any{"engine": "agents"})},
	{name: "graph-complete", cells: []cell{{n: 50000, k: 16, replicas: 1}}, spec: pernodeSpec(map[string]any{"topology": map[string]any{"name": "complete"}})},
	// The random-regular graph is rejection-sampled, a geometric number
	// of attempts that succeed with probability about exp(-(d²-1)/4): 2.4%
	// at degree 4, whose set-up swung a seed's wall time by ±6%, and 13.5%
	// at degree 3. Degree 8 at n = 2·10^4 fails to sample a simple graph.
	{name: "graph-regular", cells: []cell{{n: 10000, k: 16, replicas: 1}}, spec: pernodeSpec(map[string]any{"topology": map[string]any{"name": "random-regular", "degree": 3}})},
	{name: "cluster-zero", cells: []cell{{n: 50000, k: 16, replicas: 1}}, spec: pernodeSpec(map[string]any{"engine": "cluster"})},
	{name: "cluster-net", cells: []cell{{n: 10000, k: 16, replicas: 1}}, spec: pernodeSpec(map[string]any{"network": map[string]any{"delay": 1, "jitter": 2, "loss": 0.05}})},
}

// docBody renders one suite document. encoding/json sorts map keys, so
// the bytes are a pure function of the arguments.
func docBody(name string, f family, c cell) ([]byte, error) {
	m := f.spec(c)
	m["schema"] = 1
	m["name"] = name
	m["params"] = map[string]any{"n": c.n}
	m["replicas"] = c.replicas
	m["reducer"] = captureReducer
	m["expect"] = []any{map[string]any{"name": "every replica reaches consensus", "converged": map[string]any{"min_fraction": 1}}}
	return json.Marshal(m)
}

// warmupSeed is the suite seed of every set-up's warm-up.
const warmupSeed = 0x5eed

// seedFor derives the i-th independent seed of a workload seed.
func seedFor(seed, i uint64) uint64 { return rng.New(seed).Derive(i).Uint64() }

// suiteDocs generates a batch workload's documents: cycles rounds over the
// families, one document per family per cycle, each family stepping
// through its cells in turn. Document i runs at suite seed seedFor(seed, i).
func suiteDocs(families []family, seed uint64, cycles int) ([]doc, error) {
	docs := make([]doc, 0, cycles*len(families))
	for cy := 0; cy < cycles; cy++ {
		for _, f := range families {
			i := len(docs)
			name := fmt.Sprintf("%s-%03d", f.name, i)
			c := f.cells[cy%len(f.cells)]
			body, err := docBody(name, f, c)
			if err != nil {
				return nil, err
			}
			docs = append(docs, doc{family: f.name, name: name, body: body, seed: seedFor(seed, uint64(i)), runs: c.replicas})
		}
	}
	return docs, nil
}

// warmupDoc is the untimed document run once per set-up: the workload's
// first family at its first cell with half the nodes, a few tens of
// milliseconds of work, so setup_s is not lost in scheduling jitter. It
// runs at a fixed seed, so set-up does the same work whatever the
// workload seed.
func warmupDoc(families []family) (doc, error) {
	f := families[0]
	c := f.cells[0]
	c.n /= 2
	name := "warmup-" + f.name
	body, err := docBody(name, f, c)
	return doc{family: f.name, name: name, body: body, seed: warmupSeed, runs: c.replicas}, err
}
