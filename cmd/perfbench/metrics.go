package main

import "time"

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// endToEnd are the metrics a user of the system sees, printed by an
// untraced run on every workload. On the batch workloads a request is one
// suite document and every request is a miss (nothing is cached). Every
// time is scaled to nominal machine speed by the speed probe (probe.go).
//
// Every bound is the 0.25 maximum, setup_s's included. With the probe, the
// ten-run spreads on the sizing machine were 0.02–0.15 (setup_s 0.05–0.19),
// but the probe corrects only part of a slow spell (NOTES.md), and the
// medians of two sets must agree within the bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"runs_per_s", "1/s", "higher", 0.25},
	{"req_per_s", "1/s", "higher", 0.25},
	{"miss_p50_ms", "ms", "lower", 0.25},
	{"miss_p90_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

func familyNames(fs []family) []string {
	names := make([]string, len(fs))
	for i, f := range fs {
		names[i] = f.name
	}
	return names
}

// perLayer are the metrics of single layers, printed by a traced run on
// every workload. A layer that does no work on a workload reads 0 there.
var perLayer = func() []metricDef {
	paperFamilyNames, pernodeFamilyNames := familyNames(paperFamilies), familyNames(pernodeFamilies)
	var defs []metricDef
	add := func(name, unit, better string) {
		defs = append(defs, metricDef{name: name, unit: unit, better: better})
	}
	for _, f := range paperFamilyNames {
		add("sim."+f+".ns_per_exact_round", "ns", "lower")
	}
	add("sim.ff-hybrid.skipped_rounds", "count", "higher")
	add("sim.ff-hybrid.stretches", "count", "higher")
	add("sim.ff-hybrid.skip_ratio", "1", "higher")
	for _, f := range pernodeFamilyNames {
		add("sim."+f+".ns_per_node_round", "ns", "lower")
	}
	for _, f := range []string{"cluster-zero", "cluster-net"} {
		add("sim."+f+".msgs_per_node_round", "count", "lower")
	}
	for _, f := range append(append([]string{}, paperFamilyNames...), pernodeFamilyNames...) {
		add("sim."+f+".exec_s", "s", "lower")
		add("sim."+f+".exact_rounds", "count", "lower")
	}
	add("scenario.decode_ms", "ms", "lower")
	add("scenario.hash_ms", "ms", "lower")
	add("scenario.prepare_ms", "ms", "lower")
	add("scenario.execute_s", "s", "lower")
	add("scenario.reduce_expect_ms", "ms", "lower")
	add("scenario.runs", "count", "higher")
	add("scenario.expect_violations", "count", "lower")
	add("serve.hit.decode_hash_ms", "ms", "lower")
	add("serve.hit_p50_ms", "ms", "lower")
	add("serve.hit_p90_ms", "ms", "lower")
	add("serve.hit_p99_ms", "ms", "lower")
	add("serve.queue_wait_ms_p50", "ms", "lower")
	add("serve.execute_ms_p50", "ms", "lower")
	add("serve.deliver_ms_p50", "ms", "lower")
	add("serve.hit_ratio", "1", "higher")
	add("serve.join_ratio", "1", "higher")
	add("serve.rejected", "count", "lower")
	add("serve.executed", "count", "higher")
	add("serve.cache_bytes", "bytes", "lower")
	add("serve.cache_evictions", "count", "lower")
	add("proc.cpu_s", "s", "lower")
	add("proc.alloc_mb", "MiB", "lower")
	add("proc.gc_cycles", "count", "lower")
	add("proc.gc_pause_ms", "ms", "lower")
	add("host.steal_frac", "1", "lower")
	add("host.probe_speed", "1", "higher")
	add("trace.overhead_frac", "1", "lower")
	add("trace.unattributed_frac", "1", "lower")
	return defs
}()

// passStats is the outcome of one timed pass of a workload.
type passStats struct {
	wall time.Duration
	// clients is the number of closed-loop clients; clients × wall is the
	// client time the trace should account for.
	clients int
	// attempted counts operations (documents or requests); failed counts
	// those that errored, were refused or failed a correctness check.
	attempted, failed int
	errs              []error
	// runs and requests count completed engine runs and user requests.
	runs, requests int
	// start is when the timed phase began.
	start time.Time
	// miss and hit are the latencies of requests that executed a suite
	// and of requests served from the result cache.
	miss, hit []timing
	// violations counts scenario expect violations (reported, not failed).
	violations int
}

// fail records a failed operation with its cause.
func (st *passStats) fail(err error) {
	st.failed++
	st.errs = append(st.errs, err)
}

// timing is one request's latency and when it started.
type timing struct {
	start time.Time
	lat   time.Duration
}

// latencies returns the latencies of ts, scaled to nominal speed by the
// probe or, without one, as measured.
func latencies(ts []timing, p *speedProbe) []time.Duration {
	out := make([]time.Duration, len(ts))
	for i, t := range ts {
		out[i] = t.lat
		if p != nil {
			out[i] = p.scale(t.start, t.lat)
		}
	}
	return out
}

// endToEndMetrics derives the end-to-end metrics of an untraced pass, its
// times scaled to nominal speed by the probe; setup is already scaled.
func endToEndMetrics(st *passStats, p *speedProbe, setup, rssMB float64) map[string]float64 {
	wall := p.scale(st.start, st.wall).Seconds()
	miss := latencies(st.miss, p)
	return map[string]float64{
		"setup_s":     setup,
		"wall_s":      wall,
		"runs_per_s":  ratio(float64(st.runs), wall),
		"req_per_s":   ratio(float64(st.requests), wall),
		"miss_p50_ms": ms(quantile(miss, 0.5)),
		"miss_p90_ms": ms(quantile(miss, 0.9)),
		"peak_rss_mb": rssMB,
	}
}
