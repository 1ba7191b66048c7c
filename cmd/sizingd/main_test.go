package main

import (
	"testing"

	"repro/internal/service"
)

// TestSmokeJobEndToEnd drives the -smoke flow against an in-process
// daemon: boot, submit over HTTP, poll to done, drain.
func TestSmokeJobEndToEnd(t *testing.T) {
	rep, err := service.RunLoadTest(service.Options{Pool: 1}, false)
	if err != nil {
		t.Fatalf("smoke job: %v", err)
	}
	if rep.Done != 1 || rep.Config.Jobs != 1 || rep.Restarts != 0 {
		t.Fatalf("smoke run: %+v", rep)
	}
}
