package service

import (
	"path/filepath"
	"testing"
)

func TestRunLoadTestWithChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos load harness is a multi-second test")
	}
	rep, err := RunLoadTest(Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	opt := chaosLoad
	if rep.Done+rep.Failed+rep.Cancelled != opt.jobs {
		t.Fatalf("terminal states %d+%d+%d != %d jobs", rep.Done, rep.Failed, rep.Cancelled, opt.jobs)
	}
	if rep.Failed != 0 || rep.Cancelled != 0 {
		t.Fatalf("chaos run must not fail jobs: %+v", rep)
	}
	if rep.Restarts != opt.kills {
		t.Fatalf("restarts %d, want %d", rep.Restarts, opt.kills)
	}
	// Accepted jobs across incarnations equal the job count (each job
	// is journaled exactly once; resubmits after a kill hit 409).
	if n := rep.Counters["service.jobs.accepted"]; n != int64(opt.jobs) {
		t.Fatalf("accepted %d, want %d", n, opt.jobs)
	}
	// Completions across incarnations also cover every job.
	if n := rep.Counters["service.jobs.completed"]; n != int64(opt.jobs) {
		t.Fatalf("completed %d, want %d", n, opt.jobs)
	}
	if rep.LatencyMS.P50 <= 0 || rep.LatencyMS.P99 < rep.LatencyMS.P50 {
		t.Fatalf("latency summary inconsistent: %+v", rep.LatencyMS)
	}
	if rep.Throughput <= 0 {
		t.Fatalf("throughput %v", rep.Throughput)
	}

	path := filepath.Join(t.TempDir(), "BENCH_service.json")
	if err := WriteReport(path, rep); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileMS(t *testing.T) {
	lat := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.99, 10}, {1.0, 10}}
	for _, c := range cases {
		if got := quantileMS(lat, c.p); got != c.want {
			t.Errorf("q(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := quantileMS(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
}
