// Command consensus-bench records and compares the engine benchmark
// trajectory.
//
// With -json it runs the engine benchmark sweep and writes the
// machine-readable benchmark trajectory (ns/round and allocs/round per
// engine × n × k, plus the parallel speedup curves of the sharded
// engines) — the file checked in as BENCH_PR<i>.json. -scale is one of
// smoke (CI-sized), quick or full.
//
// With -compare it diffs two trajectory reports: points are matched by
// (engine, rule, n, k, parallel), a per-point speedup table is printed,
// and the command exits non-zero when any matched point regressed more
// than -threshold percent ns/round (default 25) — the CI bench smoke job
// runs it against the last checked-in BENCH_PR<i>.json.
//
// The paper experiments E1–E12 run through consensus-sim
// (-scenario ID, -list-scenarios).
//
// Usage:
//
//	consensus-bench -json FILE [-scale smoke|quick|full] [-seed N]
//	                [-parallel P]
//	consensus-bench -compare [-threshold PCT] old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/ignorecomply/consensus/internal/bench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "consensus-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("consensus-bench", flag.ContinueOnError)
	var (
		scale = fs.String("scale", "quick", "benchmark sweep scale: smoke, quick or full")
		seed  = fs.Uint64("seed", 1, "random seed (runs reproduce exactly per seed)")

		jsonPath = fs.String("json", "", "run the engine benchmark sweep and write the JSON report to this file")
		parallel = fs.Int("parallel", 0, "cap the sharded-engine parallelism sweep for -json (0 = full sweep {1,2,4,8})")

		compare   = fs.Bool("compare", false, "compare two trajectory reports: consensus-bench -compare old.json new.json")
		threshold = fs.Float64("threshold", bench.DefaultRegressionThresholdPct, "ns/round regression (percent) past which -compare exits non-zero")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *compare {
		rest := fs.Args()
		if len(rest) != 2 {
			return fmt.Errorf("-compare needs exactly two report files, got %d", len(rest))
		}
		return bench.CompareReports(rest[0], rest[1], *threshold, os.Stdout)
	}

	if *jsonPath != "" {
		return runJSONBench(*jsonPath, *scale, *seed, *parallel)
	}
	return fmt.Errorf("nothing to do: give -json FILE or -compare old.json new.json (experiments run through consensus-sim -scenario)")
}

// runJSONBench runs the engine benchmark sweep and writes the
// machine-readable trajectory report.
func runJSONBench(path, scale string, seed uint64, maxParallel int) error {
	start := time.Now()
	rep, err := bench.Run(scale, seed, maxParallel, func(line string) {
		fmt.Println(line)
	})
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d points, scale=%s, seed=%d, gomaxprocs=%d, %.1fs)\n",
		path, len(rep.Points), scale, seed, rep.GOMAXPROCS, time.Since(start).Seconds())
	return nil
}
