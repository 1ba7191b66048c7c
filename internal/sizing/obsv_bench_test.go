package sizing

import (
	"testing"
	"time"

	"repro/internal/nlp"
	"repro/internal/telemetry"
)

// The observability-overhead benchmark pairs run identical fixed-work
// solves on the 1200-gate generated netlist with telemetry fully
// disabled (nil Recorder — the hot paths cost one branch) and with the
// full production observability chain attached: watchdog middleware in
// front of a Metrics sink with span histograms and scope-stack span
// trees aggregating. The Off/On ratio is the subsystem's overhead;
// make bench-obsv derives it into BENCH_obsv.json and the target is
// under 2%.

// obsvChain builds the full metrics+watchdog recorder a production
// service would run with. It is created once per benchmark, outside
// the timed loop, because that is the service lifecycle: the chain
// lives for the process and solves stream through it, so the
// steady-state cost is Record/Event aggregation, not the one-time
// histogram allocation.
func obsvChain() telemetry.Recorder {
	return telemetry.NewWatchdog(telemetry.NewMetrics(), telemetry.WatchdogOptions{})
}

func benchObsvGreedy(b *testing.B, rec telemetry.Recorder) {
	m := genModel(b, 1200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := GreedyOptions{K: 3, Deadline: 0.01, MaxSteps: 64, Workers: 1}
		opt.Recorder = rec
		if _, err := SizeGreedy(m, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObsvGreedyOff(b *testing.B) { benchObsvGreedy(b, nil) }
func BenchmarkObsvGreedyOn(b *testing.B)  { benchObsvGreedy(b, obsvChain()) }

func benchObsvNLP(b *testing.B, rec telemetry.Recorder) {
	m := genModel(b, 1200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := Spec{
			Objective:   MinMuPlusKSigma(1),
			Formulation: Reduced,
			Solver:      nlp.Options{Method: nlp.LBFGS, MaxOuter: 2, MaxInner: 10},
		}
		spec.Recorder = rec
		if _, err := Size(m, spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObsvNLPOff(b *testing.B) { benchObsvNLP(b, nil) }
func BenchmarkObsvNLPOn(b *testing.B)  { benchObsvNLP(b, obsvChain()) }

// benchObsvPair measures the enabled-vs-disabled delta with paired
// interleaving: each iteration runs both variants back to back,
// alternating the order, and the two wall-clock sums are reported as
// custom metrics. On a shared host the run-to-run spread of a single
// benchmark (CPU frequency drift, noisy neighbors) is far larger than
// the telemetry overhead itself, so consecutive-block comparisons —
// even min-of-N — measure the weather, not the subsystem. Pairing
// samples both variants in the same drift window so the bias cancels;
// the overhead-% metric is the one BENCH_obsv.json reports against the
// <2% target.
func benchObsvPair(b *testing.B, run func(rec telemetry.Recorder)) {
	rec := obsvChain()
	run(nil) // warm both paths once before timing
	run(rec)
	var tOff, tOn time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			s := time.Now()
			run(nil)
			tOff += time.Since(s)
			s = time.Now()
			run(rec)
			tOn += time.Since(s)
		} else {
			s := time.Now()
			run(rec)
			tOn += time.Since(s)
			s = time.Now()
			run(nil)
			tOff += time.Since(s)
		}
	}
	b.StopTimer()
	off := float64(tOff.Nanoseconds()) / float64(b.N)
	on := float64(tOn.Nanoseconds()) / float64(b.N)
	b.ReportMetric(off, "off-ns/op")
	b.ReportMetric(on, "on-ns/op")
	b.ReportMetric(100*(on-off)/off, "overhead-%")
}

func BenchmarkObsvGreedyPair(b *testing.B) {
	m := genModel(b, 1200)
	benchObsvPair(b, func(rec telemetry.Recorder) {
		opt := GreedyOptions{K: 3, Deadline: 0.01, MaxSteps: 64, Workers: 1, Recorder: rec}
		if _, err := SizeGreedy(m, opt); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkObsvNLPPair(b *testing.B) {
	m := genModel(b, 1200)
	benchObsvPair(b, func(rec telemetry.Recorder) {
		spec := Spec{
			Objective:   MinMuPlusKSigma(1),
			Formulation: Reduced,
			Solver:      nlp.Options{Method: nlp.LBFGS, MaxOuter: 2, MaxInner: 10},
			Recorder:    rec,
		}
		if _, err := Size(m, spec); err != nil {
			b.Fatal(err)
		}
	})
}
