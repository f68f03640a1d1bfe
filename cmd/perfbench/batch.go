package main

import (
	"context"
	"fmt"
	"time"

	"github.com/ignorecomply/consensus/scenario"
)

// batchBench runs generated suite documents through scenario.RunChecked,
// the call consensus-sim makes for a scenario, one after another on one
// suite worker: a single closed-loop client. One engine run at a time
// keeps the process's memory peak a function of the documents (two
// concurrent clients made it swing by a third with which runs overlapped)
// and leaves the other core to the garbage collector.
type batchBench struct {
	families []family
	docs     []doc
	specs    []*scenario.Scenario
	// decode and hash are the set-up costs of each document.
	decode, hash []time.Duration
	// facts are the captured runs of each document in the last pass.
	facts [][]runFacts
}

func setupBatch(ctx context.Context, families []family, seed uint64, cycles int) (*batchBench, error) {
	docs, err := suiteDocs(families, seed, cycles)
	if err != nil {
		return nil, err
	}
	b := &batchBench{families: families, docs: docs}
	for _, d := range docs {
		t0 := time.Now()
		s, err := scenario.DecodeBytes(d.body)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.name, err)
		}
		t1 := time.Now()
		if _, err := scenario.Hash(s); err != nil {
			return nil, fmt.Errorf("%s: %w", d.name, err)
		}
		b.decode = append(b.decode, t1.Sub(t0))
		b.hash = append(b.hash, time.Since(t1))
		b.specs = append(b.specs, s)
	}
	w, err := warmupDoc(families)
	if err != nil {
		return nil, err
	}
	s, err := scenario.DecodeBytes(w.body)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if _, _, err := runDoc(ctx, s, w, nil); err != nil {
		return nil, fmt.Errorf("warm-up %s: %w", w.name, err)
	}
	facts, ok := takeFacts(w.name)
	if err := checkDoc(facts, ok, w.runs); err != nil {
		return nil, fmt.Errorf("warm-up %s: %w", w.name, err)
	}
	return b, nil
}

// runDoc runs one document and returns its latency and expect
// violations. With a tracer it records the call as a root span split at
// the suite's progress events into prepare (call → suite-start), execute
// (suite-start → last run-done) and reduce+expect (last run-done →
// return).
func runDoc(ctx context.Context, s *scenario.Scenario, d doc, tr *tracer) (time.Duration, int, error) {
	p := scenario.Params{Seed: d.seed, Scale: scenario.Quick, Workers: 1}
	var suiteStart, lastDone time.Time
	if tr != nil {
		p.Progress = func(ev scenario.ProgressEvent) {
			switch ev.Kind {
			case scenario.ProgressSuiteStart:
				suiteStart = time.Now()
			case scenario.ProgressRunDone:
				lastDone = time.Now()
			}
		}
	}
	t0 := time.Now()
	_, report, err := scenario.RunChecked(ctx, s, p)
	t1 := time.Now()
	if tr != nil && !suiteStart.IsZero() && !lastDone.IsZero() {
		root := tr.add("scenario.run_checked", d.family, 0, t0, t1)
		tr.add("scenario.prepare", d.family, root, t0, suiteStart)
		tr.add("sim.execute", d.family, root, suiteStart, lastDone)
		tr.add("scenario.reduce_expect", d.family, root, lastDone, t1)
	}
	if report == nil {
		return t1.Sub(t0), 0, err
	}
	// A non-nil report with an error carries expect violations: α-level
	// statistics that a seed may trip, reported but not failed.
	return t1.Sub(t0), len(report.Violations), nil
}

func (b *batchBench) pass(ctx context.Context, tr *tracer) *passStats {
	n := len(b.docs)
	st := &passStats{clients: 1, attempted: n}
	lat := make([]timing, n)
	viol := make([]int, n)
	errs := make([]error, n)
	facts := make([][]runFacts, n)
	got := make([]bool, n)
	st.start = time.Now()
	for i := range b.docs {
		lat[i].start = time.Now()
		lat[i].lat, viol[i], errs[i] = runDoc(ctx, b.specs[i], b.docs[i], tr)
		facts[i], got[i] = takeFacts(b.docs[i].name)
	}
	st.wall = time.Since(st.start)

	for i, d := range b.docs {
		err := errs[i]
		if err == nil {
			err = checkDoc(facts[i], got[i], d.runs)
		}
		if err != nil {
			st.fail(fmt.Errorf("%s: %w", d.name, err))
			continue
		}
		st.requests++
		st.runs += d.runs
		st.miss = append(st.miss, lat[i])
		st.violations += viol[i]
	}
	b.facts = facts
	return st
}

// layers derives the per-layer metrics of a traced pass: per family the
// execute time and round counts, and the scenario layer's phase costs.
func (b *batchBench) layers(_, traced *passStats, tr *tracer) map[string]float64 {
	m := map[string]float64{}
	for _, f := range b.families {
		var exact, skipped, stretches, rounds, nodeRounds, msgs float64
		for i, d := range b.docs {
			if d.family != f.name {
				continue
			}
			for _, r := range b.facts[i] {
				exact += float64(r.exact)
				skipped += float64(r.skipped)
				stretches += float64(r.stretches)
				rounds += float64(r.rounds)
				nodeRounds += float64(r.n) * float64(r.rounds)
				msgs += float64(r.messages)
			}
		}
		exec := total(tr.byName("sim.execute", f.name))
		p := "sim." + f.name + "."
		m[p+"exec_s"] = exec.Seconds()
		m[p+"exact_rounds"] = exact
		m[p+"ns_per_exact_round"] = ratio(float64(exec.Nanoseconds()), exact)
		m[p+"ns_per_node_round"] = ratio(float64(exec.Nanoseconds()), nodeRounds)
		m[p+"msgs_per_node_round"] = ratio(msgs, nodeRounds)
		m[p+"skipped_rounds"] = skipped
		m[p+"stretches"] = stretches
		m[p+"skip_ratio"] = ratio(skipped, rounds)
	}
	m["scenario.decode_ms"] = meanMS(b.decode)
	m["scenario.hash_ms"] = meanMS(b.hash)
	m["scenario.prepare_ms"] = meanMS(tr.byName("scenario.prepare", ""))
	m["scenario.execute_s"] = total(tr.byName("sim.execute", "")).Seconds()
	m["scenario.reduce_expect_ms"] = meanMS(tr.byName("scenario.reduce_expect", ""))
	m["scenario.runs"] = float64(traced.runs)
	m["scenario.expect_violations"] = float64(traced.violations)
	return m
}

func (b *batchBench) close() error { return nil }
