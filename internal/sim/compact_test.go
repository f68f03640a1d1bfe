package sim

import (
	"context"
	"reflect"
	"testing"

	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/rng"
	"github.com/ignorecomply/consensus/internal/rules"
)

// TestHybridDeadSlotInvariance: the hybrid engine drops extinct slots
// too, so its planner must decide exactly as it would over the
// uncompacted table. A biased 3-Majority start with dead slots between
// the live ones, never compacted, and its compacted copy, compacted after
// every round as the run loop does, must agree from the same seed on the
// round count, the winner and the whole fast-forward report.
//
// The dead coordinates are zeros the planner still loops over: the map
// keeps them at 0, drift and safe() skip them, and the noise uses the
// live count. Only ThreeMajorityLipschitz reads them, as Jacobian
// columns, and it takes the largest column, so a dead column must never
// exceed a live one. With radius e and L the lowered ‖x‖₂², a dead
// column is 1 − L + 4e − 2e² (e ≤ 1/2). A live v with v + e < 1 has a
// column of at least 1 − L + 4e − 2e² + 4v(1−v) − 2e², and v > e gives
// 4v(1−v) > 4e(1−e) ≥ 2e²; when v + e ≥ 1 the cap at 1 leaves the live
// column ahead by at least 2e(1−e). Both premises hold once safe() has
// passed: every live v − e stays above the extinction floor, and the
// top-two gap 2e + GapFactor·ε fits in 1. In the first planned round the
// radius is 0 and a dead column is 1 − L against a live 1 − L + 4v(1−v).
func TestHybridDeadSlotInvariance(t *testing.T) {
	live := []int{2_600_000, 2_500_000, 2_450_000, 2_450_000}
	var counts, labels []int
	for i, v := range live {
		counts = append(counts, 0, v, 0)
		labels = append(labels, 3*i, 3*i+1, 3*i+2)
	}
	sparse, err := config.NewLabeled(counts, labels)
	if err != nil {
		t.Fatal(err)
	}
	o, err := buildOptions([]Option{WithFastForward(FastForward{})})
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		run := func(compact bool) (rounds, winner int, rep *FastForwardReport) {
			c := sparse.Clone()
			ctl := newFFController(rules.NewThreeMajority(), c, rng.New(seed), o)
			for rounds < 10_000 && c.Remaining() > 1 {
				if compact {
					c.Compact()
				}
				rounds += ctl.step(rounds + 1)
			}
			slot, _ := c.Max()
			return rounds, c.Label(slot), ctl.rep
		}
		rs, ws, repS := run(false)
		rd, wd, repD := run(true)
		if rs != rd || ws != wd {
			t.Fatalf("seed %d: uncompacted run took %d rounds to winner %d, compacted %d rounds to %d",
				seed, rs, ws, rd, wd)
		}
		if !reflect.DeepEqual(repS, repD) {
			t.Fatalf("seed %d: fast-forward reports differ:\nuncompacted %+v\ncompacted   %+v", seed, repS, repD)
		}
		if repS.SkippedRounds == 0 {
			t.Fatalf("seed %d: no stretch was certified; the planner is unexercised", seed)
		}
	}
}

// TestBatchRoundCompactsWithoutAllocating: a batch round that drops the
// slots it killed allocates nothing. 3-Majority from Singleton(1024)
// loses colors every round; a run of 10 rounds must allocate exactly what
// a run of 1 round does, so rounds 2–10, each compacting, allocate 0.
// Skipped under -race, where sync.Pool drops items at random and the
// multinomial's pooled scratch is built again.
func TestBatchRoundCompactsWithoutAllocating(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	start := config.Singleton(1024)
	rule := rules.NewThreeMajority()
	allocs := func(rounds int) float64 {
		runner := NewRunner(rule, WithSeed(5), WithMaxRounds(rounds))
		res, err := runner.Run(context.Background(), start)
		if err != nil {
			t.Fatal(err)
		}
		if rounds > 1 && res.Final.Slots() >= start.Slots()/2 {
			t.Fatalf("%d slots left after %d rounds: the rounds did not compact", res.Final.Slots(), rounds)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := runner.Run(context.Background(), start); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, ten := allocs(1), allocs(10)
	if ten != one {
		t.Errorf("10 rounds allocate %.2f times, 1 round %.2f: rounds 2–10 allocate %.2f per round, want 0",
			ten, one, (ten-one)/9)
	}
}
