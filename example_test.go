package consensus_test

import (
	"context"
	"fmt"
	"log"
	"math"

	consensus "github.com/ignorecomply/consensus"
)

// Run 3-Majority from the hardest start — every node with its own color —
// and watch it reach consensus in sublinear time (Theorem 4).
func Example() {
	const n = 100_000
	start := consensus.SingletonConfig(n) // n nodes, n distinct colors

	runner := consensus.NewRunner(consensus.NewThreeMajority(),
		consensus.WithSeed(42),
		consensus.WithTrace(25))
	res, err := runner.Run(context.Background(), start)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("3-Majority on n=%d nodes, starting from %d colors\n", n, n)
	for _, tp := range res.Trace {
		fmt.Printf("  round %4d: %6d colors remain, leader holds %6d nodes\n",
			tp.Round, tp.Colors, tp.MaxSupport)
	}
	bound := math.Pow(n, 0.75) * math.Pow(math.Log(n), 7.0/8)
	fmt.Printf("consensus on color %d after %d rounds\n", res.WinnerLabel, res.Rounds)
	fmt.Printf("Theorem 4 scale n^(3/4)·log^(7/8)n ≈ %.0f — sublinear in n = %d\n", bound, n)
	// Output:
	// 3-Majority on n=100000 nodes, starting from 100000 colors
	//   round    0: 100000 colors remain, leader holds      1 nodes
	//   round   25:   7128 colors remain, leader holds    125 nodes
	//   round   50:   3749 colors remain, leader holds    247 nodes
	//   round   75:   2548 colors remain, leader holds    314 nodes
	//   round  100:   1920 colors remain, leader holds    608 nodes
	//   round  125:   1530 colors remain, leader holds   1015 nodes
	//   round  150:   1260 colors remain, leader holds   1045 nodes
	//   round  175:   1066 colors remain, leader holds   1467 nodes
	//   round  200:    945 colors remain, leader holds   1659 nodes
	//   round  225:    814 colors remain, leader holds   2971 nodes
	//   round  250:    711 colors remain, leader holds   7468 nodes
	//   round  273:      1 colors remain, leader holds 100000 nodes
	// consensus on color 13228 after 273 rounds
	// Theorem 4 scale n^(3/4)·log^(7/8)n ≈ 47702 — sublinear in n = 100000
}
