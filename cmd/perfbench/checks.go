package main

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// checkRun verifies the invariants every executed run must satisfy at any
// seed: the final counts sum to n; on the hybrid engine exact and skipped
// rounds add up to the rounds run; and on a lossless cluster run every
// node sends h requests and receives h responses per round.
func checkRun(f runFacts) error {
	if f.sum != f.n {
		return fmt.Errorf("final counts sum to %d, want n = %d", f.sum, f.n)
	}
	if f.hybrid && f.exact+f.skipped != f.rounds {
		return fmt.Errorf("hybrid run: %d exact + %d skipped rounds != %d rounds", f.exact, f.skipped, f.rounds)
	}
	if f.lossless {
		if want := 2 * int64(f.n) * int64(f.h) * int64(f.rounds); f.messages != want {
			return fmt.Errorf("lossless cluster run: %d messages, want 2·n·h·rounds = %d", f.messages, want)
		}
	}
	return nil
}

// checkDoc verifies a document's captured runs: the replica count the
// document asked for, each satisfying checkRun.
func checkDoc(facts []runFacts, ok bool, wantRuns int) error {
	if !ok {
		return fmt.Errorf("no runs captured by the %q reducer", captureReducer)
	}
	if len(facts) != wantRuns {
		return fmt.Errorf("%d runs captured, want %d", len(facts), wantRuns)
	}
	for i, f := range facts {
		if err := checkRun(f); err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
	}
	return nil
}

// jobView is the part of a consensus-serve job descriptor the checks read.
type jobView struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Error  string `json:"error"`
	Result struct {
		Report struct {
			Violations []json.RawMessage `json:"violations"`
		} `json:"report"`
	} `json:"result"`
}

// checkDone parses a terminal job descriptor and requires status done.
func checkDone(body []byte) (jobView, error) {
	var v jobView
	if err := json.Unmarshal(body, &v); err != nil {
		return v, fmt.Errorf("decode job descriptor: %w", err)
	}
	if v.Status != "done" {
		return v, fmt.Errorf("job %s: status %q (%s), want done", v.ID, v.Status, v.Error)
	}
	return v, nil
}

// checkSameBody requires a cache hit to serve exactly the bytes the miss
// that computed the key served.
func checkSameBody(miss, hit []byte) error {
	if !bytes.Equal(miss, hit) {
		return fmt.Errorf("hit body (%d bytes) differs from the miss body (%d bytes)", len(hit), len(miss))
	}
	return nil
}

// serveCounts are request outcomes as the clients saw them; the server's
// /metrics counters must report the same.
type serveCounts struct {
	misses, hits, joins, rejected, failed int
}

// checkCounters reconciles the server's /metrics counters with the
// clients' own counts.
func checkCounters(m map[string]float64, c serveCounts) []error {
	want := []struct {
		name string
		v    int
	}{
		{"consensus_serve_executed_total", c.misses - c.failed},
		{"consensus_serve_failed_total", c.failed},
		{"consensus_serve_cache_hits_total", c.hits},
		{"consensus_serve_joined_total", c.joins},
		{"consensus_serve_rejected_total", c.rejected},
		{"consensus_serve_cancelled_total", 0},
	}
	var errs []error
	for _, w := range want {
		got, ok := m[w.name]
		if !ok {
			errs = append(errs, fmt.Errorf("/metrics has no %s", w.name))
			continue
		}
		if got != float64(w.v) {
			errs = append(errs, fmt.Errorf("/metrics %s = %v, clients counted %d", w.name, got, w.v))
		}
	}
	return errs
}
