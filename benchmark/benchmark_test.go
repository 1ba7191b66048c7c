package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/service"
	"repro/internal/sizing"
	"repro/internal/ssta"
)

func smokeConfig(t *testing.T) *config {
	return &config{seed: 7, seconds: 2, scale: smokeScale(), workDir: t.TempDir()}
}

// TestSmokeWorkloads runs every workload untraced at the smoke scale: all
// output checks pass, nothing fails and every end-to-end metric is a
// positive measurement.
func TestSmokeWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := runUntraced(w, smokeConfig(t))
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.validate(); err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || len(rep.problems) != 0 {
				t.Fatalf("failed %d of %d, checks: %v", rep.failed, rep.attempted, rep.problems)
			}
			for name, m := range rep.metrics {
				if !(m.Value > 0) {
					t.Errorf("%s = %v, want > 0", name, m.Value)
				}
			}
		})
	}
}

// TestSmokeTraced runs the traced path, ladder and probes included, on
// the two workloads that between them need every probe.
func TestSmokeTraced(t *testing.T) {
	for _, name := range []string{"table1", "whatif"} {
		t.Run(name, func(t *testing.T) {
			w, _ := workloadByName(name)
			cfg := smokeConfig(t)
			path := filepath.Join(t.TempDir(), "trace.jsonl")
			rep, err := runTraced(w, cfg, path)
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || len(rep.problems) != 0 {
				t.Fatalf("failed %d of %d, checks: %v", rep.failed, rep.attempted, rep.problems)
			}
			for _, name := range []string{"ssta.sweep_s", "nlp.inner_s", "service.timing_ms", "service.job_run_ms", "sizing.greedy_step_ms"} {
				if v := rep.metrics[name].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", name, v)
				}
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(data, []byte(`"name":"sizing.Size"`)) && !bytes.Contains(data, []byte(`"name":"session.patch"`)) {
				t.Errorf("trace has no workload spans")
			}
		})
	}
}

// TestRunOutput checks the command's output contract: a header line, and
// a last line holding exactly correct, attempted, failed and metrics.
func TestRunOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "greedy100k", "--scale", "smoke", "--seed", "5", "--trace", "0"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var hdr map[string]header
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil || hdr["header"].Seed != 5 {
		t.Fatalf("header line %q: %v", lines[0], err)
	}
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Fatalf("last line keys: %s", lines[len(lines)-1])
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the code's metric
// lists in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("workloads %v, code has %v", names, workloadNames())
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		code []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("BENCHMARK.json lists %d metrics, code %d", len(c.json), len(c.code))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), code %s (%s)", i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}

// TestCheckRejectsTamperedSizing perturbs one speed factor of a real
// solve by 1e-9: re-analysis must no longer match the reported moments.
func TestCheckRejectsTamperedSizing(t *testing.T) {
	m, err := buildModelFromSpec(smokeScale().table1)
	if err != nil {
		t.Fatal(err)
	}
	unit := ssta.Analyze(m, m.UnitSizes(), false).Tmax
	res, err := sizing.Size(m, sizing.Spec{Objective: sizing.MinMu(), Solver: table1Solver, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	row := table1Rows[0]
	if err := checkTable1Row(m, unit, row, 0, res); err != nil {
		t.Fatalf("untampered solve fails its check: %v", err)
	}
	// The largest gate sits on the critical path, so its size moves the
	// circuit delay.
	var g netlist.NodeID
	for _, id := range m.G.C.GateIDs() {
		if res.S[id] > res.S[g] {
			g = id
		}
	}
	res.S[g] *= 1 + 1e-9
	if err := checkTable1Row(m, unit, row, 0, res); err == nil {
		t.Fatal("a perturbed speed factor passed the check")
	}
	res.S[g] = 0.5
	if err := checkSizing(m, res.S, res.MuTmax, res.SigmaTmax); err == nil {
		t.Fatal("a speed factor below 1 passed the check")
	}
}

// TestCheckRejectsTamperedJob alters one moment of a job result.
func TestCheckRejectsTamperedJob(t *testing.T) {
	m, err := buildModelFromSpec(smokeScale().table1)
	if err != nil {
		t.Fatal(err)
	}
	S := m.UnitSizes()
	r := ssta.Analyze(m, S, false).Tmax
	in := &jobInput{m: m, deadline: 2 * phi3(r)}
	res := &service.JobResult{S: S, Mu: r.Mu, Sigma: r.Sigma()}
	if err := checkJob(in, res); err != nil {
		t.Fatalf("untampered result fails its check: %v", err)
	}
	res.Sigma = math.Nextafter(res.Sigma, 0)
	if err := checkJob(in, res); err == nil {
		t.Fatal("an altered sigma passed the check")
	}
	res.Sigma = r.Sigma()
	in.deadline = r.Mu
	if err := checkJob(in, res); err == nil {
		t.Fatal("a missed deadline passed the check")
	}
}

// TestCheckRejectsTamperedReply serves a real session through a proxy
// that nudges the mean of every timing reply by one ulp: the client's
// reply check and its final check must both fail.
func TestCheckRejectsTamperedReply(t *testing.T) {
	cfg := smokeConfig(t)
	ckt, m, err := sessionCircuit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := service.New(service.Options{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	hs := httptest.NewServer(tamperTiming(srv.Handler()))
	defer func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Drain(ctx)
	}()
	setup := newTally()
	sc, err := openSession(nil, setup, hs.URL, "s", ckt, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.conn.close()
	if opErr, checkErr := sc.send(nil, sessionReq{kind: reqTiming}); opErr != nil || checkErr == nil {
		t.Fatalf("tampered timing reply: op error %v, check error %v", opErr, checkErr)
	}
	end := newTally()
	sc.finish(nil, end)
	if len(end.problems) != 1 {
		t.Fatalf("final check on a tampered reply: %d problems, %d failed", len(end.problems), end.failed)
	}
}

// tamperTiming moves the circuit mean of every timing reply by one ulp.
func tamperTiming(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/timing") {
			h.ServeHTTP(w, r)
			return
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, r)
		var rep service.TimingReply
		if err := json.Unmarshal(rr.Body.Bytes(), &rep); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		rep.Mu = math.Nextafter(rep.Mu, math.Inf(1))
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(rep)
	})
}

func buildModelFromSpec(spec netlist.GenSpec) (*delay.Model, error) {
	c, err := netlist.Generate(spec)
	if err != nil {
		return nil, err
	}
	ckt, err := cktText(c)
	if err != nil {
		return nil, err
	}
	return buildModel(ckt)
}

// TestRefClock divides each stretch of CPU time by the factor of the
// stretch it falls in, across sample boundaries and past either end.
func TestRefClock(t *testing.T) {
	c := &refClock{at: []float64{1, 2}, factor: []float64{2, 4, 0.5}}
	for _, tc := range []struct {
		span cpuSpan
		want float64
	}{
		{cpuSpan{0, 0.5}, 0.25},
		{cpuSpan{1.25, 1.75}, 0.125},
		{cpuSpan{0.5, 2.5}, 0.25 + 0.25 + 1},
		{cpuSpan{2, 3}, 2},
	} {
		if got := c.seconds(tc.span); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("seconds(%v) = %v, want %v", tc.span, got, tc.want)
		}
	}
}

// TestSpeedMeter runs a meter briefly: its clock has a factor for every
// stretch, and its CPU time is left out of the process clock.
func TestSpeedMeter(t *testing.T) {
	before := meterCPU.Load()
	m := startMeter()
	time.Sleep(3 * meterPeriod)
	c := m.close()
	if len(c.at) < 2 || len(c.factor) != len(c.at)+1 {
		t.Fatalf("%d samples, %d factors", len(c.at), len(c.factor))
	}
	for i, f := range c.factor {
		if !(f > 0) || math.IsInf(f, 0) {
			t.Errorf("factor %d = %v", i, f)
		}
	}
	if meterCPU.Load() <= before {
		t.Error("the meter's CPU time was not counted")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	got := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if want := [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Fatalf("quartiles = %v, want %v", got, want)
	}
}

// TestCompareBounds feeds -compare two run sets: B within the bound
// passes, B beyond it fails.
func TestCompareBounds(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	os.WriteFile(spec, []byte(`{"end_to_end":[{"name":"p50_ms","unit":"ms","better":"lower","bound":0.1}]}`), 0o644)
	write := func(name string, p50s ...float64) string {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		for _, v := range p50s {
			enc.Encode(map[string]header{"header": {Workload: "whatif"}})
			enc.Encode(result{Correct: true, Attempted: 1, Metrics: metrics{"p50_ms": {v, "ms"}}})
		}
		path := filepath.Join(dir, name)
		os.WriteFile(path, b.Bytes(), 0o644)
		return path
	}
	a := write("a", 1.00, 1.02, 0.98, 1.01)
	for _, c := range []struct {
		b    []float64
		pass bool
	}{{[]float64{1.05, 1.06, 1.04, 1.05}, true}, {[]float64{1.30, 1.25, 1.28, 1.31}, false}} {
		var out bytes.Buffer
		pass, err := runCompare(&out, spec, a, write("b", c.b...))
		if err != nil {
			t.Fatal(err)
		}
		if pass != c.pass {
			t.Errorf("B = %v: pass %v, want %v\n%s", c.b, pass, c.pass, out.String())
		}
	}
}
