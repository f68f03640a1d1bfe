// Package bench measures the execution engines and emits the repository's
// machine-readable benchmark trajectory: one JSON report per PR
// (BENCH_PR2.json, BENCH_PR3.json, ...) recording ns/round and
// allocs/round per engine × population size × color count, plus the
// parallel speedup curves of the sharded per-node engines. CI runs the
// smoke scale on every push (consensus-bench -json -scale smoke), so the
// trajectory keeps recording even when nobody asks.
package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	consensus "github.com/ignorecomply/consensus"
)

// Point is one measured (engine, n, k, parallelism) cell.
type Point struct {
	Engine   string `json:"engine"`
	Rule     string `json:"rule"`
	N        int    `json:"n"`
	K        int    `json:"k"`
	Parallel int    `json:"parallel"`
	// Rounds is the number of simulated rounds the measurement averaged
	// over (accumulated across as many seeded runs as needed).
	Rounds int `json:"rounds"`
	// NsPerRound is wall-clock nanoseconds per simulated round.
	NsPerRound float64 `json:"ns_per_round"`
	// AllocsPerRound and BytesPerRound include per-run setup amortized
	// across the measured rounds; steady-state rounds allocate zero
	// (asserted by TestAgentsRoundZeroSteadyStateAllocs).
	AllocsPerRound float64 `json:"allocs_per_round"`
	BytesPerRound  float64 `json:"bytes_per_round"`
	// SpeedupVsP1 is the round-throughput ratio against the parallel=1
	// point of the same (engine, rule, n, k); 0 when no such point exists.
	SpeedupVsP1 float64 `json:"speedup_vs_p1,omitempty"`
	// RunNs is the average wall-clock nanoseconds per complete run
	// (start configuration to consensus or budget).
	RunNs float64 `json:"run_ns,omitempty"`
}

// Report is the schema of BENCH_PR<i>.json.
type Report struct {
	Schema     int     `json:"schema"`
	Tool       string  `json:"tool"`
	Scale      string  `json:"scale"`
	Seed       uint64  `json:"seed"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Points     []Point `json:"points"`
}

// workload is one engine × rule × population cell of the sweep.
type workload struct {
	engine    consensus.Engine
	rule      string
	n, k      int
	parallels []int
	// minRounds is the accumulation target: runs are repeated (fresh
	// seeds) until at least this many rounds have been timed.
	minRounds int
}

// ruleFactories maps the rules the sweep measures to their constructors.
// "5-majority" exercises the count-based h-Majority batch law (exact α
// evaluation + one Mult(n, α) draw), whose ns/round must be independent
// of n — the full scale records it at n=1e5 and n=1e6 to pin that.
var ruleFactories = map[string]consensus.Factory{
	"3-majority": func() consensus.Rule { return consensus.NewThreeMajority() },
	"5-majority": func() consensus.Rule { return consensus.NewHMajority(5) },
}

// plan returns the sweep for a scale. Scales are cumulative in spirit:
// smoke is CI-sized (seconds), quick is laptop-sized (tens of seconds),
// full records the acceptance curve (n=1e6 agents) and can take minutes.
func plan(scale string, maxParallel int) ([]workload, error) {
	caps := func(ps []int) []int {
		if maxParallel <= 0 {
			return ps
		}
		out := ps[:0:0]
		for _, p := range ps {
			if p <= maxParallel || p == 1 {
				out = append(out, p)
			}
		}
		return out
	}
	sweep := []int{1, 2, 4, 8}
	var w []workload
	// The smoke cells are a subset of the full cells (same engine, rule,
	// n, k), so `consensus-bench -compare BENCH_PR<i>.json smoke.json`
	// always has points to match — CI gates on exactly that.
	switch scale {
	case "smoke":
		w = []workload{
			{consensus.EngineBatch, "3-majority", 100_000, 8, []int{1}, 400},
			{consensus.EngineBatch, "5-majority", 100_000, 8, []int{1}, 400},
			{consensus.EngineHybrid, "5-majority", 100_000, 2, []int{1}, 200},
			{consensus.EngineAgents, "3-majority", 10_000, 8, caps([]int{1, 2, 4}), 60},
			{consensus.EngineGraph, "3-majority", 10_000, 8, caps([]int{1}), 60},
			{consensus.EngineCluster, "3-majority", 10_000, 8, caps([]int{1}), 60},
		}
	case "quick":
		w = []workload{
			{consensus.EngineBatch, "3-majority", 1_000_000, 8, []int{1}, 400},
			{consensus.EngineBatch, "5-majority", 1_000_000, 8, []int{1}, 400},
			{consensus.EngineHybrid, "5-majority", 1_000_000, 2, []int{1}, 200},
			{consensus.EngineHybrid, "5-majority", 100_000_000, 2, []int{1}, 100},
			{consensus.EngineAgents, "3-majority", 10_000, 8, caps(sweep), 200},
			{consensus.EngineAgents, "3-majority", 100_000, 8, caps(sweep), 60},
			{consensus.EngineGraph, "3-majority", 100_000, 8, caps(sweep), 60},
			{consensus.EngineCluster, "3-majority", 100_000, 8, caps([]int{1, 2}), 60},
		}
	case "full":
		w = []workload{
			{consensus.EngineBatch, "3-majority", 100_000, 8, []int{1}, 1000},
			{consensus.EngineBatch, "3-majority", 1_000_000, 8, []int{1}, 1000},
			// The count-based h-Majority law at two population scales:
			// ns/round within 2× of each other is the n-independence pin.
			{consensus.EngineBatch, "5-majority", 100_000, 8, []int{1}, 400},
			{consensus.EngineBatch, "5-majority", 1_000_000, 8, []int{1}, 400},
			// The hybrid engine in its biased two-color regime (certified
			// stretches engage): the 1e5 cell matches the smoke gate, and
			// the n = 10⁸ / 10⁹ cells record the acceptance points — a full
			// h-Majority run at n = 10⁹ takes most of its rounds as one
			// certified stretch (TestHybridBillionNodeCellFastForwards).
			{consensus.EngineHybrid, "5-majority", 100_000, 2, []int{1}, 200},
			{consensus.EngineHybrid, "5-majority", 1_000_000, 2, []int{1}, 200},
			{consensus.EngineHybrid, "5-majority", 100_000_000, 2, []int{1}, 100},
			{consensus.EngineHybrid, "5-majority", 1_000_000_000, 2, []int{1}, 100},
			{consensus.EngineAgents, "3-majority", 10_000, 8, caps(sweep), 400},
			{consensus.EngineAgents, "3-majority", 100_000, 8, caps(sweep), 120},
			{consensus.EngineAgents, "3-majority", 1_000_000, 8, caps(sweep), 30},
			{consensus.EngineGraph, "3-majority", 10_000, 8, caps([]int{1}), 400},
			{consensus.EngineGraph, "3-majority", 100_000, 8, caps(sweep), 60},
			// The cluster engine under its zero-latency default, which runs
			// on the agents kernel: the 10k cell matches the smoke gate, and
			// the n = 10⁶, k = 32 cell records the acceptance point past the
			// old engine's 100k goroutine cap.
			{consensus.EngineCluster, "3-majority", 10_000, 8, caps([]int{1, 2}), 400},
			{consensus.EngineCluster, "3-majority", 100_000, 8, caps([]int{1, 2}), 60},
			{consensus.EngineCluster, "3-majority", 1_000_000, 32, caps([]int{1}), 20},
		}
	default:
		return nil, fmt.Errorf("unknown benchmark scale %q (want smoke, quick or full)", scale)
	}
	return w, nil
}

// Run executes the sweep for scale and returns the report. maxParallel <= 0
// leaves the default parallel sweep {1, 2, 4, 8} untouched; otherwise
// sweep points above it are dropped (parallel=1 is always kept as the
// speedup baseline). progress, when non-nil, receives one line per point.
func Run(scale string, seed uint64, maxParallel int, progress func(string)) (*Report, error) {
	workloads, err := plan(scale, maxParallel)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Schema:     1,
		Tool:       "consensus-bench -json",
		Scale:      scale,
		Seed:       seed,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	base := make(map[string]float64) // (engine,n,k) -> ns/round at parallel=1
	for _, wl := range workloads {
		for _, p := range wl.parallels {
			pt, err := measure(wl, p, seed)
			if err != nil {
				return nil, err
			}
			key := fmt.Sprintf("%s/%s/%d/%d", pt.Engine, pt.Rule, pt.N, pt.K)
			if p == 1 {
				base[key] = pt.NsPerRound
			}
			if b := base[key]; b > 0 {
				pt.SpeedupVsP1 = b / pt.NsPerRound
			}
			rep.Points = append(rep.Points, pt)
			if progress != nil {
				progress(fmt.Sprintf("%-6s %-11s n=%-8d k=%-3d p=%-2d  %12.0f ns/round  %6.2f allocs/round  speedup %.2fx",
					pt.Engine, pt.Rule, pt.N, pt.K, pt.Parallel, pt.NsPerRound, pt.AllocsPerRound, pt.SpeedupVsP1))
			}
		}
	}
	return rep, nil
}

// measure times one cell: seeded runs of the workload's rule from a
// balanced start, repeated until wl.minRounds rounds have accumulated.
// Hybrid cells run from the biased regime instead (leader head start of
// n/10): that is where certified stretches engage, and the regime the
// e13 acceptance scenario checks for distributional equivalence.
func measure(wl workload, parallel int, seed uint64) (Point, error) {
	start := consensus.BalancedConfig(wl.n, wl.k)
	if wl.engine == consensus.EngineHybrid {
		start = consensus.BiasedConfig(wl.n, wl.k, wl.n/10)
	}
	factory, ok := ruleFactories[wl.rule]
	if !ok {
		return Point{}, fmt.Errorf("bench: unknown rule %q", wl.rule)
	}

	var (
		rounds  int
		runs    int
		elapsed time.Duration
		mallocs uint64
		bytes   uint64
	)
	// it == 0 is an untimed warm-up run: it faults in the population
	// arrays, spins up the shard workers once, and lets the CPU leave its
	// idle states, so the timed cells are steady-state comparable.
	for it := 0; rounds < wl.minRounds; it++ {
		opts := []consensus.Option{
			consensus.WithSeed(seed + uint64(it)*1000),
			consensus.WithParallelism(parallel),
			consensus.WithMaxRounds(wl.minRounds),
		}
		if wl.engine == consensus.EngineGraph {
			opts = append(opts, consensus.WithGraph(consensus.NewCompleteGraph(wl.n)))
		} else {
			opts = append(opts, consensus.WithEngine(wl.engine))
		}
		runner := consensus.NewFactoryRunner(factory, opts...)

		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		res, err := runner.Run(context.Background(), start)
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return Point{}, fmt.Errorf("bench %s n=%d p=%d: %w", wl.engine, wl.n, parallel, err)
		}
		if res.Rounds == 0 {
			break // already at consensus; nothing to time
		}
		if it == 0 {
			continue
		}
		rounds += res.Rounds
		runs++
		elapsed += d
		mallocs += m1.Mallocs - m0.Mallocs
		bytes += m1.TotalAlloc - m0.TotalAlloc
	}
	if rounds == 0 {
		return Point{}, fmt.Errorf("bench %s n=%d: no rounds executed", wl.engine, wl.n)
	}
	return Point{
		Engine:         wl.engine.String(),
		Rule:           wl.rule,
		N:              wl.n,
		K:              wl.k,
		Parallel:       parallel,
		Rounds:         rounds,
		NsPerRound:     float64(elapsed.Nanoseconds()) / float64(rounds),
		AllocsPerRound: float64(mallocs) / float64(rounds),
		BytesPerRound:  float64(bytes) / float64(rounds),
		RunNs:          float64(elapsed.Nanoseconds()) / float64(runs),
	}, nil
}
