package cpelide

import (
	"fmt"
	"testing"
)

// runAllocBudget is the allocs per workload build plus Run for each bench
// case, measured with testing.AllocsPerRun(3, …) when the budget was set.
// Repeats agree to within ±2.
var runAllocBudget = map[string]float64{
	"bench/square/Baseline":      158,
	"bench/square/CPElide":       340,
	"bench/square/HMG":           167,
	"bench/babelstream/Baseline": 261,
	"bench/babelstream/CPElide":  784,
	"bench/babelstream/HMG":      269,
}

// allocSlack is the growth over runAllocBudget a change may add before this
// test fails.
const allocSlack = 1.10

// TestRunAllocBudget fails when a bench case allocates more than 10% over
// its recorded budget. Cycles and accesses of the same cases are pinned
// exactly by TestDispatchDigests. When a change lowers the counts, lower
// the budget with it.
func TestRunAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each bench case four times")
	}
	for _, c := range benchCases {
		for _, p := range digestProtocols {
			name := fmt.Sprintf("bench/%s/%v", c.Workload, p)
			got := testing.AllocsPerRun(3, func() { runBenchCase(t, c, p) })
			budget, ok := runAllocBudget[name]
			if !ok {
				t.Fatalf("%s: no alloc budget recorded", name)
			}
			if limit := budget * allocSlack; got > limit {
				t.Errorf("%s: %.0f allocs/run, budget %.0f (limit %.0f)", name, got, budget, limit)
			}
		}
	}
}
