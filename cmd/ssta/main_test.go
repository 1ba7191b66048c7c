package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/ssta"
	"repro/internal/telemetry"
)

// TestMain lets a test re-run this binary as the ssta command itself:
// with SSTA_TEST_MAIN=1 set, the process runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("SSTA_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestTimeoutKeepsSweepMetrics pins that a -timeout run still records
// the analytic sweep: the deadline and the recorder reach the sweep
// through one call, so -metrics lists its counter and span.
func TestTimeoutKeepsSweepMetrics(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-circuit", "tree7", "-timeout", "1m", "-metrics")
	cmd.Env = append(os.Environ(), "SSTA_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("ssta -timeout 1m -metrics: %v\n%s", err, out)
	}
	rows := map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		if f := strings.Fields(line); len(f) >= 2 {
			rows[f[0]+" "+f[1]] = true
		}
	}
	for _, want := range []string{"counter ssta.forward_sweeps", "span ssta.forward"} {
		if !rows[want] {
			t.Errorf("metrics summary lacks the %q row:\n%s", want, out)
		}
	}
}

// TestLoadCircuitBuiltins pins the built-in circuit table.
func TestLoadCircuitBuiltins(t *testing.T) {
	for _, name := range []string{"tree7", "fig2", "apex1", "apex2", "k2"} {
		c, lib, err := loadCircuit(name)
		if err != nil {
			t.Fatalf("loadCircuit(%q): %v", name, err)
		}
		if c == nil || lib == nil {
			t.Fatalf("loadCircuit(%q) returned nil circuit or library", name)
		}
	}
	if _, _, err := loadCircuit("no-such-circuit"); err == nil {
		t.Fatal("loadCircuit on a missing file did not error")
	}
}

// TestTraceFlagCreatesParentDirs pins the -trace behavior this CLI
// relies on: pointing -trace (or -spans) into a directory that does
// not exist yet must create the parents instead of failing the run.
func TestTraceFlagCreatesParentDirs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs", "nested", "trace.jsonl")
	w, err := telemetry.CreateTrace(path)
	if err != nil {
		t.Fatalf("CreateTrace into missing directory: %v", err)
	}
	w.Event("smoke", "test")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("trace file missing: %v", err)
	}
}

// TestCritListsTiesByName pins the -crit listing's order on a netlist
// full of exact ties: a 6-level balanced NAND tree has 63 gates but
// only 6 distinct criticalities. Gates must come by criticality
// descending, ties by name ascending.
func TestCritListsTiesByName(t *testing.T) {
	c := netlist.BalancedTree(6)
	path := filepath.Join(t.TempDir(), "btree6.ckt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := netlist.WriteCKT(f, c); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-circuit", path, "-crit", "20")
	cmd.Env = append(os.Environ(), "SSTA_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("ssta -crit 20: %v\n%s", err, out)
	}
	_, listing, ok := strings.Cut(string(out), "statistical criticality (d muTmax / d mu_gate):\n")
	if !ok {
		t.Fatalf("no criticality listing:\n%s", out)
	}
	var got []string
	for _, line := range strings.Split(listing, "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || !strings.HasPrefix(line, "  ") {
			break
		}
		got = append(got, f[0])
	}

	// The reference: every gate, sorted by exact criticality
	// descending, then name.
	m := delay.MustBind(netlist.MustCompile(c), delay.Default())
	crit := ssta.Criticality(m, m.UnitSizes())
	ids := c.GateIDs()
	sort.SliceStable(ids, func(i, j int) bool {
		if a, b := crit[ids[i]], crit[ids[j]]; a != b {
			return a > b
		}
		return c.Nodes[ids[i]].Name < c.Nodes[ids[j]].Name
	})
	want := make([]string, 20)
	for i := range want {
		want[i] = c.Nodes[ids[i]].Name
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("-crit 20 lists\n  %s\nwant\n  %s", strings.Join(got, " "), strings.Join(want, " "))
	}
}

// TestBadNumericFlagsExitOne pins the flag boundary: a non-finite or
// negative -corners, a -sigmak whose sigma model is negative or NaN,
// or a negative -mc, -crit or -timeout must exit 1 with a
// single "ssta:" line instead of panicking, silently skipping a
// report, running without a time limit or printing a NaN sigma.
func TestBadNumericFlagsExitOne(t *testing.T) {
	for _, args := range [][]string{
		{"-corners", "Inf"},
		{"-corners", "NaN"},
		{"-corners", "-1"},
		{"-sigmak", "NaN"},
		{"-sigmak", "-0.25"},
		{"-mc", "-5"},
		{"-crit", "-3"},
		{"-timeout", "-1s"},
	} {
		t.Run(strings.Join(args, "="), func(t *testing.T) {
			cmd := exec.Command(os.Args[0], append([]string{"-circuit", "tree7"}, args...)...)
			cmd.Env = append(os.Environ(), "SSTA_TEST_MAIN=1")
			var stdout, stderr strings.Builder
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			if code := cmd.ProcessState.ExitCode(); code != 1 {
				t.Fatalf("exit %d (%v), want 1\nstderr:\n%s", code, err, stderr.String())
			}
			msg := stderr.String()
			if !strings.HasPrefix(msg, "ssta: ") || strings.Count(msg, "\n") != 1 {
				t.Errorf("stderr is not one ssta: line:\n%s", msg)
			}
			if stdout.Len() != 0 {
				t.Errorf("rejected run printed a report:\n%s", stdout.String())
			}
		})
	}
}

// TestWorkerCountInvariantStdout pins the -j contract end to end: a
// run that reaches every report — the analytic sweep, the batched
// corner sweep, the corner/pessimism report, the criticality listing
// and the sharded Monte Carlo — prints
// byte-identical stdout at -j 1 and -j 4.
func TestWorkerCountInvariantStdout(t *testing.T) {
	run := func(j string) []byte {
		cmd := exec.Command(os.Args[0], "-circuit", "k2", "-crit", "10", "-corners", "3",
			"-mc", "4096", "-j", j)
		cmd.Env = append(os.Environ(), "SSTA_TEST_MAIN=1")
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("ssta -j %s: %v", j, err)
		}
		return out
	}
	serial, parallel := run("1"), run("4")
	for _, want := range []string{"corners (k=3):", "statistical criticality", "monte carlo (4096 samples)"} {
		if !strings.Contains(string(serial), want) {
			t.Fatalf("-j 1 output lacks %q:\n%s", want, serial)
		}
	}
	if string(serial) != string(parallel) {
		t.Fatalf("stdout differs between -j 1 and -j 4:\n-j 1:\n%s\n-j 4:\n%s", serial, parallel)
	}
}
