package ssta

import (
	"math"

	"repro/internal/delay"
	"repro/internal/netlist"
)

// SlackResult holds a required-time / slack analysis against a
// deadline. Arrival times are the statistical mean + K*sigma
// quantiles; required times propagate backward deterministically from
// the deadline, so Slack < 0 flags the nodes whose K-quantile arrival
// breaks the deadline — the statistical generalization of classic
// slack reporting.
type SlackResult struct {
	// K is the quantile multiplier the analysis was run at (0 = mean).
	K float64
	// Deadline is the required circuit delay.
	Deadline float64
	// Required[id] is the latest acceptable arrival at node id.
	Required []float64
	// Slack[id] = Required[id] - (mu + K*sigma of the arrival).
	Slack []float64
	// WorstSlack is the minimum slack over all nodes.
	WorstSlack float64
}

// Slacks runs the forward statistical sweep and a backward
// required-time sweep at quantile mu + k*sigma against the deadline.
//
// Required times use mean gate delays plus k times the gate sigma as
// the per-stage budget, mirroring how the forward quantile
// accumulates; the resulting slack is a conservative per-node
// decomposition of the circuit-level timing check (conservative
// because sigma is sub-additive along a path: sqrt(sum of variances)
// <= sum of sigmas).
func Slacks(m *delay.Model, S []float64, k, deadline float64) *SlackResult {
	g := m.G
	n := len(g.C.Nodes)
	fw := Analyze(m, S, false)

	req := make([]float64, n)
	for i := range req {
		req[i] = math.Inf(1)
	}
	for _, o := range g.C.Outputs {
		req[o] = deadline
	}
	// Backward sweep in reverse topological order: the requirement at
	// a fanin is the gate's requirement minus the gate's (quantile)
	// delay and the pin offset.
	topo := g.Topo
	for i := len(topo) - 1; i >= 0; i-- {
		id := topo[i]
		nd := &g.C.Nodes[id]
		if nd.Kind != netlist.KindGate || math.IsInf(req[id], 1) {
			continue
		}
		t := fw.GateDelay[id]
		budget := t.Mu + k*t.Sigma()
		for pin, f := range nd.Fanin {
			if r := req[id] - budget - m.PinOff(id, pin); r < req[f] {
				req[f] = r
			}
		}
	}

	res := &SlackResult{
		K:          k,
		Deadline:   deadline,
		Required:   req,
		Slack:      make([]float64, n),
		WorstSlack: math.Inf(1),
	}
	for i := range res.Slack {
		a := fw.Arrival[i]
		res.Slack[i] = req[i] - (a.Mu + k*a.Sigma())
		if res.Slack[i] < res.WorstSlack {
			res.WorstSlack = res.Slack[i]
		}
	}
	return res
}

// CriticalNodes returns the node ids with slack below the threshold,
// in ascending slack order (most critical first).
func (s *SlackResult) CriticalNodes(threshold float64) []netlist.NodeID {
	var ids []netlist.NodeID
	for i, sl := range s.Slack {
		if sl < threshold {
			ids = append(ids, netlist.NodeID(i))
		}
	}
	// Insertion sort by slack (lists are short in practice).
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && s.Slack[ids[j]] < s.Slack[ids[j-1]]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids
}
