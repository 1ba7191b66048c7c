package ssta

import (
	"repro/internal/delay"
	"repro/internal/telemetry"
)

// recordGraphShape publishes the level structure driving the parallel
// sweeps: level count, widest level, node count. The values are
// properties of the compiled graph, so repeated sets are idempotent.
func recordGraphShape(m *delay.Model, rec telemetry.Recorder) {
	g := m.G
	maxw := 0
	for _, b := range g.Levels {
		if len(b) > maxw {
			maxw = len(b)
		}
	}
	rec.Gauge("ssta.levels", float64(len(g.Levels)))
	rec.Gauge("ssta.max_level_width", float64(maxw))
	rec.Gauge("ssta.nodes", float64(len(g.C.Nodes)))
}
