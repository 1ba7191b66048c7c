package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

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
