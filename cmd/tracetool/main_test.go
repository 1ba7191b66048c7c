package main

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/telemetry"
)

// fixtureEvents holds at least one event of every kind the solvers
// and CLIs emit that the phase attribution or the flamegraph weighs,
// plus one kind (ssta.result) that neither should count.
func fixtureEvents() []telemetry.TraceEvent {
	ev := func(scope, name string, fields ...telemetry.KV) telemetry.TraceEvent {
		return telemetry.TraceEvent{Scope: scope, Name: name, Fields: fields}
	}
	return []telemetry.TraceEvent{
		ev("alm", "outer", telemetry.I("iter", 1), telemetry.I("inner", 5)),
		ev("lbfgs", "iter", telemetry.I("iter", 1)),
		ev("lbfgs", "iter", telemetry.I("iter", 2)),
		ev("lbfgs", "iter", telemetry.I("iter", 3)),
		ev("alm", "outer", telemetry.I("iter", 2), telemetry.I("inner", 7)),
		ev("inc", "update", telemetry.I("update", 1), telemetry.I("dirty", 4)),
		ev("inc", "update", telemetry.I("update", 2), telemetry.I("dirty", 6)),
		ev("hier", "sweep", telemetry.I("nodes", 100)),
		ev("greedy", "step", telemetry.I("step", 0)),
		ev("greedy", "step", telemetry.I("step", 1)),
		ev("mc", "result", telemetry.I("samples", 1000)),
		ev("ssta", "result", telemetry.F("mu", 3.5)),
	}
}

func TestAttribution(t *testing.T) {
	want := []phase{
		{name: "alm.outer", unit: "inner iters", iters: 2, work: 12},
		{name: "nlp.inner/lbfgs", unit: "iters", iters: 3, work: 3},
		{name: "inc.update", unit: "dirty gates", iters: 2, work: 10},
		{name: "hier.sweep", unit: "nodes", iters: 1, work: 100},
		{name: "greedy.step", unit: "steps", iters: 2, work: 2},
		{name: "mc.run", unit: "samples", iters: 1, work: 1000},
	}
	got := attribution(fixtureEvents())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("attribution rows:\n got %+v\nwant %+v", got, want)
	}
	var iters, work int64
	for _, p := range got {
		iters += p.iters
		work += p.work
	}
	if iters != 11 || work != 1127 {
		t.Errorf("totals: %d events, %d work units; want 11, 1127", iters, work)
	}
}

func TestWriteFlame(t *testing.T) {
	cases := []struct {
		name  string
		spans []spanRow
		want  string
	}{
		{
			name: "work-units",
			want: "greedy;greedy.step 2\n" +
				"greedy;inc.update 10\n" +
				"mc.run 1000\n" +
				"nlp.solve;alm.outer 2\n" +
				"nlp.solve;alm.outer;nlp.inner 12\n",
		},
		{
			name: "sidecar",
			spans: []spanRow{
				{Span: "statsize", Count: 1, NS: 900, SelfNS: 100},
				{Span: "statsize/nlp.solve", Count: 1, NS: 800, SelfNS: 800},
				{Span: "statsize/idle", Count: 1, NS: 0, SelfNS: 0},
			},
			want: "statsize 100\n" +
				"statsize;nlp.solve 800\n",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			writeFlame(&buf, fixtureEvents(), c.spans)
			if got := buf.String(); got != c.want {
				t.Errorf("writeFlame:\n got %q\nwant %q", got, c.want)
			}
		})
	}
}
