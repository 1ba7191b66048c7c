package ssta

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/delay"
	"repro/internal/netlist"
)

// fullCritSort is the reference ranking: every gate, stable-sorted by
// criticality descending (NaN last, -0 equal to +0), then gate name
// ascending.
func fullCritSort(c *netlist.Circuit, crit []float64) []netlist.NodeID {
	ids := c.GateIDs()
	sort.SliceStable(ids, func(i, j int) bool {
		a, b := crit[ids[i]], crit[ids[j]]
		if math.IsNaN(a) != math.IsNaN(b) {
			return math.IsNaN(b)
		}
		if a != b && !math.IsNaN(a) {
			return a > b
		}
		return c.Nodes[ids[i]].Name < c.Nodes[ids[j]].Name
	})
	return ids
}

// checkTopPrefix compares TopCritical against the reference prefix for
// every top that matters: non-positive, small, and around the gate
// count.
func checkTopPrefix(t *testing.T, c *netlist.Circuit, crit []float64) {
	t.Helper()
	want := fullCritSort(c, crit)
	n := len(want)
	for _, top := range []int{-1, 0, 1, 2, 10, n - 1, n, n + 7} {
		got := TopCritical(c, crit, top)
		k := n
		if top > 0 && top < n {
			k = top
		}
		if len(got) != k {
			t.Fatalf("top=%d: %d gates, want %d", top, len(got), k)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("top=%d: rank %d is %s (crit %v), want %s (crit %v)", top, i,
					c.Nodes[got[i]].Name, crit[got[i]], c.Nodes[want[i]].Name, crit[want[i]])
			}
		}
	}
}

// TestTopCriticalMatchesFullSort pins the bounded-heap selection to
// the prefix of a full stable sort: on criticality vectors drawn from a
// handful of values, so exact ties (±0 included) are common and a NaN
// appears, and on the true criticalities of symmetric circuits.
func TestTopCriticalMatchesFullSort(t *testing.T) {
	gen, err := netlist.Generate(netlist.GenSpec{
		Name: "rank300", Gates: 300, Inputs: 24, Outputs: 8,
		Depth: 12, MaxFanin: 3, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	pool := []float64{0, math.Copysign(0, -1), 0.125, 0.5, 0.5000000000000001, 1, -0.25}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		for _, c := range []*netlist.Circuit{gen, netlist.Tree7(), netlist.BalancedTree(6)} {
			crit := make([]float64, len(c.Nodes))
			for i := range crit {
				crit[i] = pool[rng.Intn(len(pool))]
			}
			if trial%2 == 0 {
				ids := c.GateIDs()
				crit[ids[rng.Intn(len(ids))]] = math.NaN()
			}
			checkTopPrefix(t, c, crit)
		}
	}
	// True criticalities tie exactly across symmetric gates.
	for _, tc := range []struct {
		c   *netlist.Circuit
		lib *delay.Library
	}{
		{netlist.Tree7(), delay.PaperTree()},
		{netlist.BalancedTree(6), delay.Default()},
		{netlist.Apex2Like(), delay.Default()},
	} {
		m := delay.MustBind(netlist.MustCompile(tc.c), tc.lib)
		checkTopPrefix(t, tc.c, CriticalityWorkers(m, m.UnitSizes(), 1))
	}
}
