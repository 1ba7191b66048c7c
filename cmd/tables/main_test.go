package main

import (
	"context"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain lets a test re-run this binary as the tables command
// itself: with TABLES_TEST_MAIN=1 set, the process runs main on its
// arguments.
func TestMain(m *testing.M) {
	if os.Getenv("TABLES_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadGatesExitsOne pins the flag boundary: a -gates that is not a
// positive netlist size must exit 1 with a single "tables:" line,
// whichever table is asked for, instead of silently running the
// 100k-gate preset. The deadline only bounds a regression, which
// would start that preset.
func TestBadGatesExitsOne(t *testing.T) {
	for _, args := range [][]string{
		{"-table", "hier", "-gates", "-5"},
		{"-table", "2", "-gates", "-5"},
		{"-table", "2", "-gates", "0"},
	} {
		t.Run(strings.Join(args, "="), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, os.Args[0], args...)
			cmd.Env = append(os.Environ(), "TABLES_TEST_MAIN=1")
			var stdout, stderr strings.Builder
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			if code := cmd.ProcessState.ExitCode(); code != 1 {
				t.Fatalf("exit %d (%v), want 1\nstderr:\n%s", code, err, stderr.String())
			}
			msg := stderr.String()
			if !strings.HasPrefix(msg, "tables: ") || strings.Count(msg, "\n") != 1 {
				t.Errorf("stderr is not one tables: line:\n%s", msg)
			}
			if stdout.Len() != 0 {
				t.Errorf("rejected run printed a table:\n%s", stdout.String())
			}
		})
	}
}
