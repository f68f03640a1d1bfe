package sim

import (
	"context"
	"runtime/debug"
	"testing"

	"github.com/ignorecomply/consensus/internal/adversary"
	"github.com/ignorecomply/consensus/internal/config"
)

// The round loop's bookkeeping — validity of the winner and the T^κ
// color times — is observable only through Result; these tests pin it.

// TestWinnerValidSingletonStart: from a singleton start every one of the
// n initial labels is valid, so the consensus winner is too.
func TestWinnerValidSingletonStart(t *testing.T) {
	const n = 256
	for _, engine := range []Engine{EngineBatch, EngineAgents} {
		res, err := NewFactoryRunner(threeMajorityFactory, WithEngine(engine), WithSeed(3)).
			Run(context.Background(), config.Singleton(n))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged || !res.Final.IsConsensus() {
			t.Fatalf("%v: no consensus: %+v", engine, res)
		}
		if res.WinnerLabel < 0 || res.WinnerLabel >= n || !res.WinnerValid {
			t.Fatalf("%v: winner %d valid=%v, want a valid label in [0, %d)", engine, res.WinnerLabel, res.WinnerValid, n)
		}
	}
}

// TestWinnerValidInvalidLabelsRemoveWinner: WithInvalidLabels adds no
// draws, so the same seed reaches the same winner; listing that winner
// makes it invalid, while listing any other label leaves it valid.
func TestWinnerValidInvalidLabelsRemoveWinner(t *testing.T) {
	start := config.Balanced(300, 6)
	run := func(invalid ...int) *Result {
		t.Helper()
		res, err := NewFactoryRunner(threeMajorityFactory, WithSeed(8), WithInvalidLabels(invalid...)).
			Run(context.Background(), start)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatal("run did not converge")
		}
		return res
	}
	plain := run()
	if !plain.WinnerValid {
		t.Fatalf("winner %d invalid without invalid labels", plain.WinnerLabel)
	}
	w := plain.WinnerLabel
	other := (w + 1) % 6
	if res := run(other, 99); res.WinnerLabel != w || !res.WinnerValid {
		t.Fatalf("invalid labels {%d, 99}: winner %d valid=%v, want %d valid", other, res.WinnerLabel, res.WinnerValid, w)
	}
	if res := run(other, w); res.WinnerLabel != w || res.WinnerValid {
		t.Fatalf("invalid labels {%d, %d}: winner %d valid=%v, want %d invalid", other, w, res.WinnerLabel, res.WinnerValid, w)
	}
}

// TestWinnerValidInjectedWinner: an adversary whose budget covers the
// whole population moves every node to the injected label, which had no
// initial support, so the stable winner is invalid.
func TestWinnerValidInjectedWinner(t *testing.T) {
	const n = 64
	for _, engine := range []Engine{EngineBatch, EngineAgents} {
		res, err := NewFactoryRunner(threeMajorityFactory,
			WithEngine(engine),
			WithAdversary(&adversary.InjectInvalid{F: n}, 0.1, 3),
			WithMaxRounds(100),
			WithSeed(4)).Run(context.Background(), config.Balanced(n, 4))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stable || res.WinnerLabel != adversary.InvalidLabel {
			t.Fatalf("%v: stable=%v winner %d, want a stable injected winner", engine, res.Stable, res.WinnerLabel)
		}
		if res.WinnerValid {
			t.Fatalf("%v: injected winner reported valid", engine)
		}
	}
}

// TestColorTimesCoincidingKappas: two κ expressions that evaluate to the
// same value (n/128 and 4 at n = 512) share one ColorTimes entry, whose
// round is the first at the end of which at most κ colors remained — as
// an observer counting colors every round sees it.
func TestColorTimesCoincidingKappas(t *testing.T) {
	const n = 512
	var remaining []int // remaining[round] = live colors at the end of round
	res, err := NewFactoryRunner(threeMajorityFactory,
		WithSeed(9),
		WithColorTimes(n/128, 4, 1),
		WithObserver(func(round int, c *config.Config) {
			remaining = append(remaining, c.Remaining())
		})).Run(context.Background(), config.Singleton(n))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ColorTimes) != 2 {
		t.Fatalf("ColorTimes = %v, want exactly the keys 4 and 1", res.ColorTimes)
	}
	for _, kappa := range []int{4, 1} {
		want := -1
		for round, k := range remaining {
			if k <= kappa {
				want = round
				break
			}
		}
		if got, ok := res.ColorTimes[kappa]; !ok || got != want {
			t.Fatalf("ColorTimes[%d] = %d (present %v), want %d", kappa, got, ok, want)
		}
	}
}

// TestBatchRunAllocsFlatInN: the round loop's set-up allocates a fixed
// number of buffers whatever the initial color count, so a batch run to
// consensus from Singleton(1024) and one from Singleton(16384) make the
// same number of allocations. Skipped under -race, where sync.Pool drops
// items at random and the multinomial's pooled scratch is built again;
// the collector is off while measuring, since a GC empties the pool too.
func TestBatchRunAllocsFlatInN(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(n int) float64 {
		start := config.Singleton(n)
		rn := NewFactoryRunner(threeMajorityFactory, WithSeed(6))
		return testing.AllocsPerRun(3, func() {
			res, err := rn.Run(context.Background(), start)
			if err != nil || !res.Converged {
				t.Fatalf("n=%d: converged=%v err=%v", n, res != nil && res.Converged, err)
			}
		})
	}
	small, large := allocs(1024), allocs(16384)
	if small != large {
		t.Fatalf("batch run allocates %v times from Singleton(1024) but %v from Singleton(16384)", small, large)
	}
}
