// Command perfbench is the repository's benchmark. It runs one workload
// against the public API (scenario, internal/sim through suites,
// internal/serve over loopback HTTP), checks that every output is correct,
// and prints its metrics by name with their units; the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"wall_s": {"value": …, "unit": "s"}, …}}
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash cmd/perfbench/run.sh --workload paper-batch|pernode|serve-mixed --seed N --seconds S --trace 0|1
//
// --seconds sizes the fixed work of the timed phase (a seed's inputs take
// about that long on the sizing machine; see NOTES.md). With --trace 0 it
// prints the end-to-end metrics; with --trace 1 it runs the same pass
// again with spans recorded around each layer call and prints the
// per-layer metrics instead, writing the spans to .bench_build/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	// Register the paper-experiment reducers, adapters and stop predicates,
	// as cmd/consensus-serve does, so the daemon executes every checked-in
	// scenario.
	_ "github.com/ignorecomply/consensus/internal/expt"
)

// processStart approximates the process start: set-up is timed from here.
var processStart = time.Now()

// setupReps is how many times a run sets the workload up; setup_s is the
// median, the first repetition timed from process start.
const setupReps = 5

// bench is a workload ready to run timed passes.
type bench interface {
	// pass runs the timed phase once, then its correctness checks.
	pass(ctx context.Context, tr *tracer) *passStats
	// layers derives the per-layer metrics of a traced pass.
	layers(untraced, traced *passStats, tr *tracer) map[string]float64
	close() error
}

// workload builds a bench from the seed; cyclesPerSecond sizes its fixed
// work so a run's timed phase takes about --seconds on the sizing machine.
type workload struct {
	cyclesPerSecond float64
	setup           func(ctx context.Context, seed uint64, cycles int) (bench, error)
}

var workloads = map[string]workload{
	"paper-batch": {0.8, func(ctx context.Context, seed uint64, cycles int) (bench, error) {
		return setupBatch(ctx, paperFamilies, seed, cycles)
	}},
	"pernode": {1.1, func(ctx context.Context, seed uint64, cycles int) (bench, error) {
		return setupBatch(ctx, pernodeFamilies, seed, cycles)
	}},
	"serve-mixed": {0.15, func(ctx context.Context, seed uint64, cycles int) (bench, error) {
		return setupServe(ctx, seed, cycles)
	}},
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-batch, pernode or serve-mixed")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "sizes the fixed work of the timed phase")
	trace := fs.Int("trace", 0, "1: run a traced pass and print the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload paper-batch|pernode|serve-mixed, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	res, err := measure(context.Background(), *name, w, *seed, *seconds, *trace == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// measure sets the workload up setupReps times and runs the timed pass
// (its checks follow outside the timed window); with trace it then runs a
// second, traced pass on a fresh set-up. A speed probe runs throughout;
// end-to-end times are scaled by it to nominal machine speed.
func measure(ctx context.Context, name string, w workload, seed uint64, seconds int, trace bool, log io.Writer) (*result, error) {
	cycles := max(1, int(math.Round(float64(seconds)*w.cyclesPerSecond)))
	cpu0, err := readCPUTimes()
	if err != nil {
		return nil, err
	}
	probe := startProbe()
	defer probe.close()
	var setups []float64
	var b bench
	for i := 0; i < setupReps; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		if b, err = w.setup(ctx, seed, cycles); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	// One speed for the whole set-up phase: a single set-up is too short
	// for the probe to sample well.
	setupSpeed := probe.speed(processStart, time.Now())
	p0 := sampleProc()
	st := b.pass(ctx, nil)
	p1 := sampleProc()
	if err := b.close(); err != nil {
		return nil, err
	}
	attempted, failed, errs := st.attempted, st.failed, st.errs
	speed := probe.speed(st.start, st.start.Add(st.wall))

	var values map[string]float64
	var defs []metricDef
	if !trace {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		setup := median(setups)
		values, defs = endToEndMetrics(st, probe, setup*setupSpeed, rss), endToEnd
		miss := latencies(st.miss, nil)
		fmt.Fprintf(log, "as measured: setup_s %.4g, wall_s %.4g, miss_p50_ms %.4g, miss_p90_ms %.4g; probe speed %.4g over the set-ups, %.4g over the pass\n",
			setup, st.wall.Seconds(), ms(quantile(miss, 0.5)), ms(quantile(miss, 0.9)), setupSpeed, speed)
	} else {
		tb, err := w.setup(ctx, seed, cycles)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		tr := newTracer()
		tst := tb.pass(ctx, tr)
		values = tb.layers(st, tst, tr)
		if err := tb.close(); err != nil {
			return nil, err
		}
		attempted, failed, errs = attempted+tst.attempted, failed+tst.failed, append(errs, tst.errs...)
		cpu1, err := readCPUTimes()
		if err != nil {
			return nil, err
		}
		for k, v := range procMetrics(p0, p1) {
			values[k] = v
		}
		values["host.steal_frac"] = stealFrac(cpu0, cpu1)
		values["host.probe_speed"] = speed
		values["trace.overhead_frac"] = ratio(probe.scale(tst.start, tst.wall).Seconds(), probe.scale(st.start, st.wall).Seconds()) - 1
		values["trace.unattributed_frac"] = 1 - ratio(tr.leafTime().Seconds(), float64(tst.clients)*tst.wall.Seconds())
		if err := writeTrace(tr, name, seed); err != nil {
			return nil, err
		}
		defs = perLayer
	}

	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		res.Metrics[d.name] = metricOut{Value: values[d.name], Unit: d.unit}
		fmt.Fprintf(log, "%-40s %14.6g %s\n", d.name, values[d.name], d.unit)
	}
	fmt.Fprintf(log, "%-40s %14.6g (%d failed of %d attempted)\n", "fail_ratio", ratio(float64(failed), float64(attempted)), failed, attempted)
	for i, err := range errs {
		if i == 10 {
			fmt.Fprintf(log, "... and %d more failures\n", len(errs)-i)
			break
		}
		fmt.Fprintf(log, "failure: %v\n", err)
	}
	return res, nil
}

// median of xs (which it sorts).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// writeTrace stores a traced pass's spans under .bench_build/ in the
// working directory (the checkout root).
func writeTrace(tr *tracer, name string, seed uint64) error {
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return tr.write(filepath.Join(dir, fmt.Sprintf("perfbench-trace-%s-%d.jsonl", name, seed)))
}
