package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sizing"
	"repro/internal/telemetry"
)

// TestMain lets a test re-run this binary as the statsize command
// itself: with STATSIZE_TEST_MAIN=1 set, the process runs main on its
// arguments.
func TestMain(m *testing.M) {
	if os.Getenv("STATSIZE_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadSigmaKExitsOne pins the flag boundary: a -sigmak whose sigma
// model is negative or NaN must exit 1 with a single "statsize:" line
// before any solve, instead of reporting a converged solve with a NaN
// sigma.
func TestBadSigmaKExitsOne(t *testing.T) {
	for _, k := range []string{"NaN", "-0.25", "Inf"} {
		t.Run(k, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-circuit", "tree7", "-objective", "mu", "-sigmak", k)
			cmd.Env = append(os.Environ(), "STATSIZE_TEST_MAIN=1")
			var stdout, stderr strings.Builder
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			if code := cmd.ProcessState.ExitCode(); code != 1 {
				t.Fatalf("exit %d (%v), want 1\nstderr:\n%s", code, err, stderr.String())
			}
			msg := stderr.String()
			if !strings.HasPrefix(msg, "statsize: ") || strings.Count(msg, "\n") != 1 {
				t.Errorf("stderr is not one statsize: line:\n%s", msg)
			}
			if stdout.Len() != 0 {
				t.Errorf("rejected run printed a report:\n%s", stdout.String())
			}
		})
	}
}

// TestBadNumericFlagsExitOne pins the flag boundary for the flags
// whose zero means "off": a negative -timeout must exit 1 with a
// single "statsize:" line before any solve, instead of solving without
// a time limit.
func TestBadNumericFlagsExitOne(t *testing.T) {
	for _, args := range [][]string{
		{"-timeout", "-1s"},
	} {
		t.Run(strings.Join(args, "="), func(t *testing.T) {
			cmd := exec.Command(os.Args[0], append([]string{"-circuit", "tree7", "-objective", "mu"}, args...)...)
			cmd.Env = append(os.Environ(), "STATSIZE_TEST_MAIN=1")
			var stdout, stderr strings.Builder
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			if code := cmd.ProcessState.ExitCode(); code != 1 {
				t.Fatalf("exit %d (%v), want 1\nstderr:\n%s", code, err, stderr.String())
			}
			msg := stderr.String()
			if !strings.HasPrefix(msg, "statsize: ") || strings.Count(msg, "\n") != 1 {
				t.Errorf("stderr is not one statsize: line:\n%s", msg)
			}
			if stdout.Len() != 0 {
				t.Errorf("rejected run printed a report:\n%s", stdout.String())
			}
		})
	}
}

func TestParseObjective(t *testing.T) {
	cases := map[string]sizing.Objective{
		"mu":          sizing.MinMu(),
		"area":        sizing.MinArea(),
		"sigma":       sizing.MinSigma(),
		"-sigma":      sizing.MaxSigma(),
		"maxsigma":    sizing.MaxSigma(),
		"mu+sigma":    sizing.MinMuPlusKSigma(1),
		"mu+3sigma":   sizing.MinMuPlusKSigma(3),
		"mu+2.5sigma": sizing.MinMuPlusKSigma(2.5),
	}
	for in, want := range cases {
		got, err := sizing.ParseObjective(in)
		if err != nil {
			t.Errorf("sizing.ParseObjective(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("sizing.ParseObjective(%q) = %+v, want %+v", in, got, want)
		}
	}
	for _, bad := range []string{"", "frob", "mu+", "mu+xsigma", "mu+-1sigma", "sigma+mu"} {
		if _, err := sizing.ParseObjective(bad); err == nil {
			t.Errorf("sizing.ParseObjective(%q) accepted", bad)
		}
	}
}

func TestParseConstraint(t *testing.T) {
	cases := map[string]sizing.Constraint{
		"mu<=120":          sizing.DelayLE(0, 120),
		"mu <= 120":        sizing.DelayLE(0, 120),
		"mu+sigma<=120":    sizing.DelayLE(1, 120),
		"mu+3sigma<=29":    sizing.DelayLE(3, 29),
		"mu=6.5":           sizing.MuEQ(6.5),
		"mu + 3sigma <= 1": sizing.DelayLE(3, 1),
	}
	for in, want := range cases {
		got, err := sizing.ParseConstraint(in)
		if err != nil {
			t.Errorf("sizing.ParseConstraint(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("sizing.ParseConstraint(%q) = %+v, want %+v", in, got, want)
		}
	}
	for _, bad := range []string{"", "mu", "mu<=x", "sigma<=2", "mu=x", "x=3", "mu>=2"} {
		if _, err := sizing.ParseConstraint(bad); err == nil {
			t.Errorf("sizing.ParseConstraint(%q) accepted", bad)
		}
	}
}

func TestLoadCircuitBuiltins(t *testing.T) {
	for _, name := range []string{"tree7", "fig2", "apex1", "apex2", "k2"} {
		c, lib, err := loadCircuit(name)
		if err != nil {
			t.Errorf("loadCircuit(%q): %v", name, err)
			continue
		}
		if c == nil || lib == nil {
			t.Errorf("loadCircuit(%q) returned nils", name)
		}
	}
	if _, _, err := loadCircuit("/no/such/file.ckt"); err == nil {
		t.Error("missing file accepted")
	}
}

// TestTraceFlagCreatesParentDirs pins the -trace behavior this CLI
// relies on: pointing -trace (or -spans) into a directory that does
// not exist yet must create the parents instead of failing the run.
func TestTraceFlagCreatesParentDirs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs", "2026-08-07", "trace.jsonl")
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
	spans := filepath.Join(t.TempDir(), "deep", "spans.jsonl")
	if err := telemetry.NewTree().WriteFile(spans); err != nil {
		t.Fatalf("WriteFile into missing directory: %v", err)
	}
}
