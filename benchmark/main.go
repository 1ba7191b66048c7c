// Command benchmark measures the sizing stack on four seeded workloads:
// the paper's Table 1 flow (table1), greedy sizing at 100k gates
// (greedy100k), interactive what-if sessions (whatif), and sessions and
// solve jobs sharing one daemon (mix). An untraced run prints the
// end-to-end metrics; a traced run (-trace 1) repeats the workload with
// an in-memory recorder and prints the per-layer metrics instead.
// README.md lists the workloads, the metrics and the commands.
//
// Every run writes three JSON lines to standard output: a header (what
// ran, on which revision and machine), the workload's extra numbers, and
// last the result object {"correct","attempted","failed","metrics"}. A
// readable table goes to standard error. The run exits non-zero when an
// output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/netlist"
)

const (
	// defaultSeed is K2Like's generator seed: table1 at this seed solves
	// exactly the k2-like circuit of EXPERIMENTS.md.
	defaultSeed = 16923
	// buildDir holds everything a run leaves behind (see run.sh).
	buildDir = ".bench_build"
	// procs is every workload's GOMAXPROCS. The reference machine's vCPUs
	// are taken away by the host for up to most of a second at a time
	// (steal). Go code on two Ps wakes the other vCPU for every handoff
	// and barrier and waits whenever the host has it, so its wall time
	// swung by 30% and more between runs. On one P, pinned to one CPU,
	// nothing waits on another vCPU, and the process CPU clock, which
	// leaves out steal, times the program alone (README.md, Noise).
	procs = 1
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one run's settings.
type config struct {
	seed int64
	// seconds is how long a run measures. mix runs its open loop for that
	// long; the other workloads do the work the reference machine does in
	// that time on one P, a fixed amount per seconds, so that their
	// quality metrics are deterministic.
	seconds int
	scale   scale
	// workDir receives the daemons' state directories.
	workDir string
}

// scale sizes every workload. full is what BENCHMARK.json runs; smoke
// runs every code path within seconds for the package test. Every
// circuit's structure is fixed here; -seed renames its nets.
type scale struct {
	name       string
	table1     netlist.GenSpec // circuit of the Table 1 flow
	table1Rows int             // how many of the six Table 1 solves run
	// table1PassSeconds is one pass of the flow on the reference machine;
	// a run makes seconds/table1PassSeconds passes, at least one.
	table1PassSeconds int
	greedy            netlist.GenSpec // greedy100k's circuit
	greedyStepRate    int             // greedy steps per second of the run
	session           netlist.GenSpec // the what-if sessions' circuit
	whatifReqRate     int             // whatif requests per second of the run
	jobShape          netlist.GenSpec // circuit of mix's solve jobs
	// An untraced run sets up at least setupReps times and for at least
	// setupTime; setup_s is the median. A setup of a few milliseconds
	// needs hundreds of repetitions to read steadily.
	setupReps int
	setupTime time.Duration
	// The ladder's service probe sends paired requests for at least
	// probeTime and until each route has probeReqs of them.
	probeReqs int
	probeTime time.Duration
}

func fullScale() scale {
	return scale{
		name: "full",
		table1: netlist.GenSpec{Name: "k2-like", Gates: 1692, Inputs: 45, Outputs: 45,
			Depth: 22, MaxFanin: 4, Seed: defaultSeed},
		table1Rows:        len(table1Rows),
		table1PassSeconds: 15,
		greedy:            netlist.Gen100kSpec(),
		greedyStepRate:    25,
		session: netlist.GenSpec{Name: "session10k", Gates: 10_000, Inputs: 128, Outputs: 32,
			Depth: 40, MaxFanin: 4, Seed: 10_007},
		whatifReqRate: 450,
		jobShape: netlist.GenSpec{Name: "apex2-like", Gates: 117, Inputs: 39, Outputs: 3,
			Depth: 10, MaxFanin: 4, Seed: 1172},
		setupReps: 3,
		setupTime: 2 * time.Second,
		probeReqs: 8,
		probeTime: 2 * time.Second,
	}
}

func smokeScale() scale {
	s := fullScale()
	s.name = "smoke"
	s.table1 = s.jobShape
	s.table1Rows = 1
	s.greedy = netlist.GenSpec{Name: "gen2k", Gates: 2000, Inputs: 84, Outputs: 32,
		Depth: 24, MaxFanin: 4, Seed: 2003}
	s.greedyStepRate = 8
	s.session = netlist.GenSpec{Name: "session1k", Gates: 1000, Inputs: 32, Outputs: 8,
		Depth: 16, MaxFanin: 4, Seed: 1009}
	s.whatifReqRate = 100
	s.setupReps = 1
	s.setupTime = 0
	s.probeReqs = 3
	s.probeTime = 0
	return s
}

// window is mix's open-loop measuring window.
func (c *config) window() time.Duration { return time.Duration(c.seconds) * time.Second }

func (c *config) table1Passes() int { return max(1, c.seconds/c.scale.table1PassSeconds) }
func (c *config) greedySteps() int  { return c.seconds * c.scale.greedyStepRate }
func (c *config) whatifReqs() int   { return c.seconds * c.scale.whatifReqRate }

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

// metricDef names a metric every run of its kind reports.
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics, which untraced runs report.
// Times are read on the reference clock (speed.go): the process CPU
// clock scaled to the reference machine in a quiet period. The
// wall-clock counterparts go to the extra line.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"ops_per_ref_s", "1/s"}, {"p50_ref_ms", "ms"}, {"p99_ref_ms", "ms"},
	{"peak_rss_mb", "MB"}, {"area", "sum_S"}, {"phi3_ratio", "ratio"},
}

// complete checks that got holds exactly the metrics of defs.
func (got metrics) complete(defs []metricDef) error {
	for _, d := range defs {
		if m, ok := got[d.name]; !ok || m.Unit != d.unit {
			return fmt.Errorf("metric %s (%s) missing", d.name, d.unit)
		}
	}
	if len(got) != len(defs) {
		return fmt.Errorf("%d metrics reported, want %d", len(got), len(defs))
	}
	return nil
}

// result is the last line of a run's output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// header opens every run's output: what ran, on which code and machine.
type header struct {
	Workload   string `json:"workload"`
	Scale      string `json:"scale"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Revision   string `json:"vcs_revision"`
	Modified   bool   `json:"vcs_modified"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// CPU is the one CPU the run is pinned to, -1 when pinning failed.
	CPU int `json:"cpu"`
}

func newHeader(w string, cfg *config, traced bool) header {
	h := header{
		Workload: w, Scale: cfg.scale.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: traced,
		Revision: "unknown", GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				h.Modified = s.Value == "true"
			}
		}
	}
	return h
}

// report is a finished run, ready to print.
type report struct {
	attempted, failed int
	problems          []string // failed output checks
	metrics           metrics
	extra             metrics
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", defaultSeed, "seed every input is generated from")
	seconds := fs.Int("seconds", 20, "how long a run measures, in seconds")
	trace := fs.Int("trace", 0, "1 repeats the workload traced and reports per-layer metrics")
	traceDir := fs.String("trace-dir", filepath.Join(buildDir, "trace"), "directory traced runs write their spans to")
	scaleName := fs.String("scale", "full", "full, or smoke for a seconds-long pass over every code path")
	compare := fs.Bool("compare", false, "compare two files of run outputs: -compare A B")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition whose bounds -compare applies")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two files of run outputs")
			return 2
		}
		pass, err := runCompare(stdout, *specPath, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
		if !pass {
			return 1
		}
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	var sc scale
	switch *scaleName {
	case "full":
		sc = fullScale()
	case "smoke":
		sc = smokeScale()
	default:
		fmt.Fprintf(stderr, "benchmark: unknown scale %q\n", *scaleName)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "benchmark: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintf(stderr, "benchmark: -seconds must be at least 1, got %d\n", *seconds)
		return 2
	}
	cfg := &config{seed: *seed, seconds: *seconds, scale: sc, workDir: filepath.Join(buildDir, "state")}
	traced := *trace == 1
	runtime.GOMAXPROCS(procs)
	hdr := newHeader(w.name, cfg, traced)
	var err error
	if hdr.CPU, err = pinProcess(); err != nil {
		fmt.Fprintf(stderr, "benchmark: running unpinned: %v\n", err)
	}
	if hdr.GOMAXPROCS > hdr.NumCPU {
		// More Go threads than CPUs measures the scheduler, not the code.
		fmt.Fprintf(stderr, "benchmark: GOMAXPROCS %d exceeds nproc %d\n", hdr.GOMAXPROCS, hdr.NumCPU)
		return 2
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]header{"header": hdr}); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}

	var rep *report
	if traced {
		rep, err = runTraced(w, cfg, filepath.Join(*traceDir, fmt.Sprintf("%s-%d.jsonl", w.name, cfg.seed)))
	} else {
		rep, err = runUntraced(w, cfg)
	}
	if err == nil {
		err = rep.validate()
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	printTable(stderr, hdr, rep)
	res := result{Correct: len(rep.problems) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.metrics}
	if err := enc.Encode(map[string]metrics{"extra": rep.extra}); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// validate rejects a report that JSON cannot carry or that would read
// as a measurement when nothing was measured.
func (r *report) validate() error {
	if r.attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	for _, set := range []metrics{r.metrics, r.extra} {
		for name, m := range set {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				return fmt.Errorf("metric %s is %v", name, m.Value)
			}
		}
	}
	return nil
}

// printTable writes the readable form of a run to w.
func printTable(w io.Writer, h header, r *report) {
	fmt.Fprintf(w, "%s seed=%d scale=%s trace=%v attempted=%d failed=%d\n",
		h.Workload, h.Seed, h.Scale, h.Trace, r.attempted, r.failed)
	for _, set := range []metrics{r.metrics, r.extra} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-24s %14.6g %s\n", n, set[n].Value, set[n].Unit)
		}
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
}

// runUntraced times repeated setups, then measures the workload once,
// with a speed meter running throughout, and reports the end-to-end
// metrics on the meter's reference clock. setup_s is the median setup.
func runUntraced(w workload, cfg *config) (*report, error) {
	meter := startMeter()
	setups, setupsWall, out, measured, err := setUpAndMeasure(w, cfg)
	clock := meter.close()
	if err != nil {
		return nil, err
	}
	refSetups := make([]float64, len(setups))
	for i, s := range setups {
		refSetups[i] = clock.seconds(s)
	}
	rep := &report{
		attempted: out.attempted,
		failed:    out.failed,
		problems:  out.problems,
		metrics:   out.endToEnd(clock, measured),
		extra:     out.extra,
	}
	rep.metrics["setup_s"] = metric{quantile(sortedCopy(refSetups), 0.5), "s"}
	rep.metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	rep.extra["setup_wall_s"] = metric{quantile(sortedCopy(setupsWall), 0.5), "s"}
	rep.extra["setups"] = metric{float64(len(setups)), "count"}
	rep.extra["meter_samples"] = metric{float64(len(clock.at)), "count"}
	return rep, rep.metrics.complete(endToEnd)
}

// setUpAndMeasure sets the workload up at least setupReps times and for
// at least setupTime, timing each setup on the CPU and the wall clock,
// then measures it once.
func setUpAndMeasure(w workload, cfg *config) (setups []cpuSpan, setupsWall []float64, out *outcome, measured cpuSpan, err error) {
	for start := time.Now(); len(setups) < cfg.scale.setupReps || time.Since(start) < cfg.scale.setupTime; {
		runtime.GC()
		t0, c0 := time.Now(), cpuSeconds()
		inst, err := w.setup(cfg, nil)
		if err != nil {
			return nil, nil, nil, cpuSpan{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, cpuSpan{c0, cpuSeconds()})
		setupsWall = append(setupsWall, time.Since(t0).Seconds())
		if err := inst.close(); err != nil {
			return nil, nil, nil, cpuSpan{}, err
		}
	}
	out, measured, err = measureOnce(w, cfg)
	return setups, setupsWall, out, measured, err
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM). Off
// Linux it falls back to the memory the Go runtime obtained.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			var kb float64
			if _, err := fmt.Sscanf(line, "VmHWM: %g kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between the closest ranks of sorted
// (NaN when empty).
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	h := p * float64(len(sorted)-1)
	lo := int(h)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
