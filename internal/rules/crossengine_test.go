package rules_test

// This file is an external test package because internal/sim imports
// internal/rules: a cross-engine test that runs rules through sim's
// engines cannot live in package rules.

import (
	"context"
	"testing"

	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/rules"
	"github.com/ignorecomply/consensus/internal/sim"
	"github.com/ignorecomply/consensus/internal/stats"
)

// TestHMajorityCountBasedMatchesPerNode cross-validates the batch law
// against the literal per-node law over whole trajectories: Step's
// count-based round on EngineBatch against every node resolving its own h
// pulls through Update on EngineAgents. The start is wide — 3-Majority over
// 100 colors, C(102, 3) ≈ 1.7·10⁵ sample outcomes — so the exact α holds
// at supports brute-force enumeration could not afford every round. The
// consensus-time (KS) and winner (chi-square) distributions must be
// indistinguishable at the documented equivalence budget. Seeded, so
// deterministic.
func TestHMajorityCountBasedMatchesPerNode(t *testing.T) {
	const (
		n    = 400
		k    = 100
		h    = 3
		reps = 100
	)
	collect := func(engine sim.Engine, seedBase uint64) (rounds []float64, wins []int) {
		wins = make([]int, k)
		for rep := 0; rep < reps; rep++ {
			res, err := sim.NewRunner(rules.NewHMajority(h),
				sim.WithEngine(engine), sim.WithParallelism(1),
				sim.WithMaxRounds(10_000), sim.WithSeed(seedBase+uint64(rep))).
				Run(context.Background(), config.Balanced(n, k))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("%v rep %d: no consensus in 10k rounds", engine, rep)
			}
			rounds = append(rounds, float64(res.Rounds))
			wins[res.WinnerLabel]++
		}
		return rounds, wins
	}
	countRounds, countWins := collect(sim.EngineBatch, 50_000)
	nodeRounds, nodeWins := collect(sim.EngineAgents, 60_000)

	ks, err := stats.TwoSampleKS(countRounds, nodeRounds)
	if err != nil {
		t.Fatal(err)
	}
	if !ks.IndistinguishableAt(stats.DefaultEquivalenceAlpha) {
		t.Errorf("consensus-time distributions differ count-based vs per-node: D=%.3f p=%.2g", ks.D, ks.P)
	}
	chi, err := stats.ChiSquareHomogeneity(countWins, nodeWins)
	if err != nil {
		t.Fatal(err)
	}
	if !chi.IndistinguishableAt(stats.DefaultEquivalenceAlpha) {
		t.Errorf("winner distributions differ count-based vs per-node: p=%.2g", chi.P)
	}
}
