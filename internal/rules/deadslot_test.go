package rules

import (
	"fmt"
	"maps"
	"testing"

	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/rng"
)

// withDeadSlots lays live counts out with gap extinct slots before each of
// them and after the last, labeled by slot, so that every live slot sits
// between dead ones.
func withDeadSlots(t *testing.T, live []int, gap int) *config.Config {
	t.Helper()
	var counts, labels []int
	for _, v := range live {
		for g := 0; g < gap; g++ {
			counts = append(counts, 0)
		}
		counts = append(counts, v)
	}
	for g := 0; g < gap; g++ {
		counts = append(counts, 0)
	}
	for s := range counts {
		labels = append(labels, 100+s)
	}
	c, err := config.NewLabeled(counts, labels)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// supportByLabel maps each color with positive support to its count.
func supportByLabel(c *config.Config) map[int]int {
	m := make(map[int]int)
	for s := 0; s < c.Slots(); s++ {
		if v := c.Count(s); v > 0 {
			m[c.Label(s)] = v
		}
	}
	return m
}

// TestStepDeadSlotInvariance is the oracle behind dropping extinct slots
// in the round they die: for every registered rule, ten batch rounds from
// a configuration with dead slots between the live ones draw, from the
// same seed, exactly what ten rounds draw on its compacted copy (compacted
// again after every round, as the batch engine does). Compaction keeps
// the live slots in order and every sampler visits only live slots in
// slot order, so the label→count maps must agree after every round. The
// starts cover the per-trial samplers (few trials per live slot: the
// tally multinomial, geometric thinning) and the per-slot binomial chain.
func TestStepDeadSlotInvariance(t *testing.T) {
	specs := []Spec{{Name: "4-majority"}}
	for _, name := range Names() {
		specs = append(specs, Spec{Name: name, H: 5, Beta: 0.5})
	}
	wide := make([]int, 240)
	for i := range wide {
		wide[i] = 1 + i%5
	}
	starts := []struct {
		name string
		live []int
	}{
		{"wide", wide},
		{"narrow", []int{900, 40, 1500, 700, 3, 2600}},
	}
	for _, spec := range specs {
		factory, err := spec.Factory()
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range starts {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed%d", spec.Name, st.name, seed), func(t *testing.T) {
					sparse := withDeadSlots(t, st.live, 2)
					dense := sparse.Clone()
					dense.Compact()
					ruleS, ruleD := factory(), factory()
					rS, rD := rng.New(seed), rng.New(seed)
					for round := 1; round <= 10; round++ {
						ruleS.Step(sparse, rS)
						ruleD.Step(dense, rD)
						dense.Compact()
						got, want := supportByLabel(dense), supportByLabel(sparse)
						if !maps.Equal(got, want) {
							t.Fatalf("round %d: compacted table drew %v, uncompacted %v", round, got, want)
						}
					}
				})
			}
		}
	}
}
