package service

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/sizing"
	"repro/internal/ssta"
	"repro/internal/telemetry"
)

// longSpec is a reduced L-BFGS job that runs for many slices: min
// mu+3sigma on the apex2-like circuit.
func longSpec(id string) JobSpec {
	return JobSpec{ID: id, Circuit: "apex2", Objective: "mu+3sigma"}
}

// greedySpec is a greedy job on the apex2-like circuit under a
// deadline 20% below its unsized mu+3sigma.
func greedySpec(t *testing.T, id string) JobSpec {
	t.Helper()
	spec := JobSpec{ID: id, Circuit: "apex2", Objective: "area", Greedy: true}
	m, err := buildModel(&spec)
	if err != nil {
		t.Fatal(err)
	}
	unit := ssta.Analyze(m, m.UnitSizes(), false).Tmax
	d := 0.8 * (unit.Mu + 3*unit.Sigma())
	spec.Constraints = []string{"mu+3sigma<=" + strconv.FormatFloat(d, 'g', -1, 64)}
	return spec
}

// directResult sizes the spec with the sizing package, outside any job.
func directResult(t *testing.T, spec JobSpec) (s []float64, mu, sigma, area float64) {
	t.Helper()
	m, err := buildModel(&spec)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sizingSpec(&spec)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Greedy {
		opt, _ := sizing.GreedyFromSpec(sp)
		gr, err := sizing.SizeGreedy(m, opt)
		if err != nil {
			t.Fatal(err)
		}
		return gr.S, gr.MuTmax, gr.SigmaTmax, gr.SumS
	}
	out, err := sizing.Size(m, sp)
	if err != nil {
		t.Fatal(err)
	}
	return out.S, out.MuTmax, out.SigmaTmax, out.SumS
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestPacedJobBitIdentical pins that parking moves no float: a paced
// job's result equals sizing.Size (or SizeGreedy) on the same spec bit
// for bit, and a job that runs for several slices parks.
func TestPacedJobBitIdentical(t *testing.T) {
	for _, spec := range []JobSpec{longSpec("lbfgs"), greedySpec(t, "greedy")} {
		t.Run(spec.ID, func(t *testing.T) {
			srv, err := New(Options{StateDir: t.TempDir(), Pool: 1})
			if err != nil {
				t.Fatal(err)
			}
			srv.Start()
			defer srv.Drain(context.Background())
			if _, err := srv.Submit(spec); err != nil {
				t.Fatal(err)
			}
			res := waitResult(t, srv, spec.ID)
			s, mu, sigma, area := directResult(t, spec)
			if len(res.S) != len(s) {
				t.Fatalf("job sized %d gates, direct solve %d", len(res.S), len(s))
			}
			for i := range s {
				if !sameBits(res.S[i], s[i]) {
					t.Fatalf("S[%d] = %v in the job, %v direct", i, res.S[i], s[i])
				}
			}
			if !sameBits(res.Mu, mu) || !sameBits(res.Sigma, sigma) || !sameBits(res.Area, area) {
				t.Fatalf("job (mu %v, sigma %v, area %v), direct (%v, %v, %v)",
					res.Mu, res.Sigma, res.Area, mu, sigma, area)
			}
			n := srv.Metrics().CounterValue("service.jobs.yields")
			if n < 1 {
				t.Fatalf("a %d ms job recorded %d parks, want at least 1", res.RuntimeMS, n)
			}
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
			if want := fmt.Sprintf("service_jobs_yields_total %d", n); !strings.Contains(rec.Body.String(), want) {
				t.Fatalf("/metrics lacks %q:\n%s", want, rec.Body.String())
			}
		})
	}
}

// TestPoolJobsHaveOwnPacers holds two jobs mid-attempt on a pool of
// two and checks that each carries a pacer of its own.
func TestPoolJobsHaveOwnPacers(t *testing.T) {
	srv, err := New(Options{StateDir: t.TempDir(), Pool: 2})
	if err != nil {
		t.Fatal(err)
	}
	entered, hold := make(chan string), make(chan struct{})
	srv.testSolveDelay = func(id string, _ int) { entered <- id; <-hold }
	srv.Start()
	defer srv.Drain(context.Background())
	for _, id := range []string{"a", "b"} {
		if _, err := srv.Submit(deadlineSpec(id)); err != nil {
			t.Fatal(err)
		}
	}
	<-entered
	<-entered
	srv.mu.Lock()
	pa, pb := srv.jobs["a"].pace, srv.jobs["b"].pace
	srv.mu.Unlock()
	close(hold)
	if pa == nil || pb == nil || pa == pb {
		t.Fatalf("running jobs' pacers %p and %p: want two distinct pacers", pa, pb)
	}
	waitResult(t, srv, "a")
	waitResult(t, srv, "b")
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if srv.jobs["a"].pace != nil || srv.jobs["b"].pace != nil {
		t.Fatal("a finished job still holds its pacer")
	}
}

// resources counts the process's goroutines and, on Linux, its open
// file descriptors (-1 elsewhere).
func resources(t *testing.T) (goroutines, fds int) {
	t.Helper()
	fds = -1
	if runtime.GOOS == "linux" {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		fds = len(ents)
	}
	return runtime.NumGoroutine(), fds
}

// settle waits until the goroutine and fd counts are back at or below
// a baseline; goroutines that finished their work may take a moment
// to exit.
func settle(t *testing.T, what string, g0, fd0 int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		g, fd := resources(t)
		if g <= g0 && fd <= fd0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %s: %d goroutines and %d fds, baseline %d and %d", what, g, fd, g0, fd0)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPacerLeaksNothing checks that no relay goroutine or pipe
// outlives its job: after a drain, after a kill and after a cancelled
// job, the goroutine and fd counts return to their baselines.
func TestPacerLeaksNothing(t *testing.T) {
	// The first pipe sets up the netpoller, whose descriptors live as
	// long as the process; open it before taking the baseline.
	newPacer(telemetry.Noop).close()

	// startHeld boots a server, submits one long job to it and returns
	// once the job's first attempt waits on hold.
	startHeld := func(t *testing.T) (*Server, chan struct{}) {
		srv, err := New(Options{StateDir: t.TempDir(), Pool: 2})
		if err != nil {
			t.Fatal(err)
		}
		entered, hold := make(chan struct{}), make(chan struct{})
		srv.testSolveDelay = func(string, int) { entered <- struct{}{}; <-hold }
		srv.Start()
		if _, err := srv.Submit(longSpec("long")); err != nil {
			t.Fatal(err)
		}
		<-entered // the job's pacer is live
		return srv, hold
	}

	t.Run("drain", func(t *testing.T) {
		g0, fd0 := resources(t)
		srv, hold := startHeld(t)
		close(hold)
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		defer cancel()
		srv.Drain(ctx)
		settle(t, "drain", g0, fd0)
	})
	t.Run("kill", func(t *testing.T) {
		g0, fd0 := resources(t)
		srv, hold := startHeld(t)
		close(hold)
		srv.Kill()
		settle(t, "kill", g0, fd0)
	})
	t.Run("cancel", func(t *testing.T) {
		srv, err := New(Options{StateDir: t.TempDir(), Pool: 2})
		if err != nil {
			t.Fatal(err)
		}
		entered, hold := make(chan struct{}), make(chan struct{})
		srv.testSolveDelay = func(string, int) { entered <- struct{}{}; <-hold }
		srv.Start()
		defer srv.Drain(context.Background())
		g0, fd0 := resources(t)
		if _, err := srv.Submit(longSpec("long")); err != nil {
			t.Fatal(err)
		}
		<-entered
		if _, err := srv.Cancel("long"); err != nil {
			t.Fatal(err)
		}
		close(hold)
		waitResult(t, srv, "long")
		if st, _ := srv.Status("long"); st.State != "cancelled" {
			t.Fatalf("job ended %q, want cancelled", st.State)
		}
		settle(t, "a cancelled job", g0, fd0)
	})
}

// TestPacerParksAfterSlice drives a pacer by hand: no park inside a
// slice, one park per tick once a slice has passed.
func TestPacerParksAfterSlice(t *testing.T) {
	m := telemetry.NewMetrics()
	p := newPacer(m)
	if p == nil {
		t.Fatal("newPacer could not make a pipe")
	}
	defer p.close()
	p.last = time.Now().Add(time.Hour) // well inside a slice
	p.tick()
	if n := m.CounterValue("service.jobs.yields"); n != 0 {
		t.Fatalf("%d parks inside a slice, want 0", n)
	}
	for i := 0; i < 3; i++ {
		p.last = time.Now().Add(-jobSlice)
		p.tick()
	}
	if n := m.CounterValue("service.jobs.yields"); n != 3 {
		t.Fatalf("%d parks after three slices, want 3", n)
	}
	var nilPacer *pacer
	nilPacer.tick()
	nilPacer.close()
}
