package telemetry

import (
	"math"
	"testing"
)

// feedOuter feeds alm.outer events with the given merits.
func feedOuter(w *Watchdog, merits ...float64) {
	for i, v := range merits {
		w.Event("alm", "outer", I("iter", i+1), F("merit", v))
	}
}

// TestWatchdogStallsOnFlatSeries: a merit that stops improving for
// Patience iterations raises exactly one solve.stalled event, injected
// into the wrapped sink.
func TestWatchdogStallsOnFlatSeries(t *testing.T) {
	m := NewMetrics()
	wd := NewWatchdog(m, WatchdogOptions{Patience: 4})
	feedOuter(wd, 10, 9, 8, 8, 8, 8, 8, 8, 8)
	stalls := wd.Stalls()
	if len(stalls) != 1 {
		t.Fatalf("stalls = %d, want exactly 1", len(stalls))
	}
	s := stalls[0]
	if s.Scope != "alm" || s.Src != StallSrcALM {
		t.Errorf("stall source = %s/%d, want alm/%d", s.Scope, s.Src, StallSrcALM)
	}
	if s.Best != 8 || s.Last != 8 || s.Streak != 4 {
		t.Errorf("stall = %+v, want best 8, last 8, streak 4", s)
	}
	if got := m.CounterValue("event.solve.stalled"); got != 1 {
		t.Errorf("forwarded solve.stalled count = %d, want 1", got)
	}
	if !wd.Stalled() {
		t.Error("Stalled() = false after a stall")
	}
}

// TestWatchdogSilentOnImproving: steady relative improvement never
// fires.
func TestWatchdogSilentOnImproving(t *testing.T) {
	wd := NewWatchdog(nil, WatchdogOptions{Patience: 3})
	v := 100.0
	for i := 0; i < 50; i++ {
		wd.Event("alm", "outer", F("merit", v))
		v *= 0.99
	}
	if wd.Stalled() {
		t.Fatalf("watchdog fired on an improving series: %+v", wd.Stalls())
	}
}

// TestWatchdogRearms: after a stall, an improvement re-arms the
// detector so a second plateau raises a second stall.
func TestWatchdogRearms(t *testing.T) {
	wd := NewWatchdog(nil, WatchdogOptions{Patience: 2})
	feedOuter(wd, 10, 10, 10) // first stall (streak 2)
	feedOuter(wd, 5)          // improvement re-arms
	feedOuter(wd, 5, 5)       // second stall
	if got := len(wd.Stalls()); got != 2 {
		t.Fatalf("stalls = %d, want 2 (re-arm after improvement)", got)
	}
}

// TestWatchdogTracksSourcesIndependently: alm merit and inc/hier mu
// advance separate detectors.
func TestWatchdogTracksSourcesIndependently(t *testing.T) {
	wd := NewWatchdog(nil, WatchdogOptions{Patience: 2})
	for i := 0; i < 5; i++ {
		wd.Event("inc", "update", F("mu", 7.0))
		wd.Event("hier", "sweep", F("mu", 3.0))
	}
	stalls := wd.Stalls()
	if len(stalls) != 2 {
		t.Fatalf("stalls = %d, want one per source", len(stalls))
	}
	srcs := map[int]bool{}
	for _, s := range stalls {
		srcs[s.Src] = true
	}
	if !srcs[StallSrcInc] || !srcs[StallSrcHier] {
		t.Fatalf("sources = %+v, want inc and hier", stalls)
	}
}

// TestWatchdogIgnoresNaN: NaN figures are not evidence either way.
func TestWatchdogIgnoresNaN(t *testing.T) {
	wd := NewWatchdog(nil, WatchdogOptions{Patience: 2})
	for i := 0; i < 10; i++ {
		wd.Event("alm", "outer", F("merit", math.NaN()))
	}
	if wd.Stalled() {
		t.Fatal("watchdog fired on NaN-only series")
	}
}

// TestWatchdogOnStallCallback: the service hook sees the stall.
func TestWatchdogOnStallCallback(t *testing.T) {
	var got []Stall
	wd := NewWatchdog(nil, WatchdogOptions{
		Patience: 2,
		OnStall:  func(s Stall) { got = append(got, s) },
	})
	feedOuter(wd, 1, 1, 1)
	if len(got) != 1 {
		t.Fatalf("OnStall calls = %d, want 1", len(got))
	}
}

// TestWatchdogKKTProgress: near a constrained optimum the ALM merit
// plateaus while the KKT residual keeps dropping — that is
// convergence, so the escape hatch must hold the watchdog off; once
// the residual also plateaus (new lows under the 1% margin don't
// count) the stall fires.
func TestWatchdogKKTProgress(t *testing.T) {
	wd := NewWatchdog(nil, WatchdogOptions{Patience: 4})
	kkt := 1.0
	for i := 0; i < 20; i++ { // flat merit, decade-dropping residual
		wd.Event("alm", "outer", F("merit", 50), F("kkt", kkt))
		kkt *= 0.5
	}
	if wd.Stalled() {
		t.Fatalf("watchdog fired while the KKT residual was improving: %+v", wd.Stalls())
	}
	for i := 0; i < 6; i++ { // residual wobbles within the 1% margin
		wd.Event("alm", "outer", F("merit", 50), F("kkt", kkt*(1-0.001*float64(i))))
	}
	if !wd.Stalled() {
		t.Fatal("watchdog silent after merit and residual both plateaued")
	}
}

// TestWatchdogCountsRecoveries: alm.recover events are non-improving
// iterations outright — a solver stuck in its recovery loop trips the
// watchdog even though no alm.outer event ever fires.
func TestWatchdogCountsRecoveries(t *testing.T) {
	wd := NewWatchdog(nil, WatchdogOptions{Patience: 4})
	for i := 0; i < 4; i++ {
		wd.Event("alm", "recover", I("iter", i+1), I("count", i+1))
	}
	if !wd.Stalled() {
		t.Fatal("watchdog silent after Patience consecutive recoveries")
	}
	// An outer improvement re-arms.
	wd.Event("alm", "outer", F("merit", 100))
	wd.Event("alm", "outer", F("merit", 50))
	if got := len(wd.Stalls()); got != 1 {
		t.Fatalf("stalls = %d, want still 1 after improvement", got)
	}
}
