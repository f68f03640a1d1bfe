package bench

import (
	"context"
	"testing"

	consensus "github.com/ignorecomply/consensus"
)

// TestHybridBillionNodeCellFastForwards pins the hybrid engine's
// acceptance cell — n = 10⁹ 5-Majority from the biased two-color start the
// sweep measures — by the work it does, not by a clock: the run must reach
// consensus with most of its rounds taken as one certified stretch.
//
// Measured at seed 1 (and at seeds 2, 3, 1001, 2001 alike): 7 rounds, 3
// exact and 4 skipped in one stretch; the batch engine needs 7 exact
// rounds from the same start. The bounds leave one exact round and two
// skipped rounds of margin, and a planner that never engages (7 exact,
// 0 skipped) fails both.
func TestHybridBillionNodeCellFastForwards(t *testing.T) {
	const (
		maxExact   = 4
		minSkipped = 2
	)
	start := consensus.BiasedConfig(1_000_000_000, 2, 100_000_000)
	res, err := consensus.NewFactoryRunner(ruleFactories["5-majority"],
		consensus.WithEngine(consensus.EngineHybrid),
		consensus.WithSeed(1),
		consensus.WithMaxRounds(100),
	).Run(context.Background(), start)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("n=1e9 hybrid run did not converge in %d rounds", res.Rounds)
	}
	ff := res.FastForward
	if ff.ExactRounds > maxExact || ff.SkippedRounds < minSkipped {
		t.Errorf("n=1e9 hybrid run: %d exact, %d skipped rounds; want <= %d exact and >= %d skipped",
			ff.ExactRounds, ff.SkippedRounds, maxExact, minSkipped)
	}
}
