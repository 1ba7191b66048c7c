package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestEventHubLaggingSubscriberClosed pins the complete-sequence
// contract: a subscriber that stops draining its channel is closed
// (not silently skipped), so the client knows to reconnect and replay
// the full history instead of consuming a stream with holes.
func TestEventHubLaggingSubscriberClosed(t *testing.T) {
	h := newEventHub()
	_, live := h.subscribe()
	if live == nil {
		t.Fatal("subscribe on an open hub returned no live channel")
	}
	// Stall the subscriber: fill its buffer and keep publishing. The
	// overflow publish must close the channel rather than drop events.
	total := cap(live) + 8
	for i := 0; i < total; i++ {
		h.publish(fmt.Sprintf(`{"n":%d}`, i))
	}
	received := 0
	closed := false
	for {
		ev, ok := <-live
		if !ok {
			closed = true
			break
		}
		received++
		_ = ev
	}
	if !closed {
		t.Fatal("lagging subscriber's channel was never closed")
	}
	if received != cap(live) {
		t.Fatalf("drained %d events, want exactly the %d buffered before the overflow", received, cap(live))
	}
	h.mu.Lock()
	subs, lagged, hist := len(h.subs), h.lagged, len(h.history)
	h.mu.Unlock()
	if subs != 0 {
		t.Fatalf("%d subscribers still registered after lagging close", subs)
	}
	if lagged != 1 {
		t.Fatalf("lagged = %d, want 1", lagged)
	}
	if hist != total {
		t.Fatalf("history holds %d events, want all %d (replay must be complete)", hist, total)
	}
	// A reconnect replays everything the laggard missed.
	replay, live2 := h.subscribe()
	if len(replay) != total {
		t.Fatalf("reconnect replay has %d events, want %d", len(replay), total)
	}
	if live2 != nil {
		h.unsubscribe(live2)
	}
}

// TestEventHubHealthySubscriberSurvives guards against over-eager
// closing: a subscriber that keeps up receives every event live.
func TestEventHubHealthySubscriberSurvives(t *testing.T) {
	h := newEventHub()
	_, live := h.subscribe()
	got := make(chan int)
	go func() {
		n := 0
		for range live {
			n++
		}
		got <- n
	}()
	const total = 500
	for i := 0; i < total; i++ {
		h.publish(`{"scope":"alm","name":"outer"}`)
		if i%50 == 0 {
			time.Sleep(time.Millisecond) // let the reader drain
		}
	}
	h.close()
	if n := <-got; n != total {
		t.Fatalf("healthy subscriber received %d of %d events", n, total)
	}
	h.mu.Lock()
	lagged := h.lagged
	h.mu.Unlock()
	if lagged != 0 {
		t.Fatalf("healthy subscriber was closed as lagging (%d)", lagged)
	}
}

// TestSubmitRejectsTrailingGarbage pins the strict-body contract on
// the job and session submit endpoints: one JSON value, nothing after
// it.
func TestSubmitRejectsTrailingGarbage(t *testing.T) {
	srv, ts := testServer(t, Options{Pool: 1})
	srv.Start()

	cases := []struct {
		path, body string
	}{
		{"/v1/jobs", `{"id":"tg1","circuit":"tree7","objective":"area","constraints":["mu+3sigma<=6"]}{"id":"evil"}`},
		{"/v1/jobs", `{"id":"tg2","circuit":"tree7","objective":"area","constraints":["mu+3sigma<=6"]} trailing`},
		{"/v1/sessions", `{"id":"sg1","circuit":"tree7"}{"id":"evil"}`},
		{"/v1/sessions", `{"id":"sg2","circuit":"tree7"} x`},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s with trailing garbage: HTTP %d, want 400", c.path, resp.StatusCode)
		}
	}
	// Well-formed bodies (trailing whitespace allowed by the decoder's
	// EOF semantics is NOT — only a clean end) still pass.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"id":"ok1","circuit":"tree7","objective":"area","constraints":["mu+3sigma<=6"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("clean submit: HTTP %d, want 202", resp.StatusCode)
	}
	waitTerminal(t, ts, "ok1")
}

// TestEventsReplayDisconnect covers the mid-replay disconnect path: a
// client that drops during a long history replay must not pin the
// handler (and its subscription) for the rest of the replay.
func TestEventsReplayDisconnect(t *testing.T) {
	srv, ts := testServer(t, Options{Pool: 1})
	srv.Start()

	// Craft a finished job with a long synthetic history directly; the
	// handler only needs the hub.
	jb := &job{id: "replay", state: JobDone, hub: newEventHub()}
	for i := 0; i < 200000; i++ {
		jb.hub.history = append(jb.hub.history, fmt.Sprintf(`{"scope":"alm","name":"outer","it":%d}`, i))
	}
	srv.mu.Lock()
	srv.jobs["replay"] = jb
	srv.order = append(srv.order, "replay")
	srv.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/replay/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one event to prove the replay streams before it completes
	// (the periodic flush), then drop the connection.
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "data: ") {
		t.Fatalf("first SSE line %q, err %v", line, err)
	}
	cancel()
	resp.Body.Close()

	// The handler must notice the disconnect mid-replay and return
	// promptly instead of writing out the remaining history.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		srv.mu.Lock()
		hub := srv.jobs["replay"].hub
		srv.mu.Unlock()
		hub.mu.Lock()
		subs := len(hub.subs)
		hub.mu.Unlock()
		if subs == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("events handler still subscribed long after the client disconnected")
}

// TestWriteJSONEncodeFailure pins that a reply which does not encode
// answers 500 with an error body, not its intended status with an
// empty body: the status line is written only after encoding.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, Moments{Mu: math.NaN(), Sigma: 1})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("HTTP %d, want 500", rec.Code)
	}
	var e apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Fatalf("body %q: want an error payload (%v)", rec.Body.String(), err)
	}
}
