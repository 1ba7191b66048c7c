package service

import (
	"os"
	"runtime"
	"time"

	"repro/internal/telemetry"
)

// jobSlice is how long a solve job runs between parks. A session
// request that arrives mid-job waits at most about one slice before
// its handler runs; each park costs the job a few microseconds.
const jobSlice = 250 * time.Microsecond

// pacer makes a running solve job give way to the network. On one P a
// CPU-bound goroutine keeps the scheduler from polling the network: a
// ready session request waits for sysmon's 10 ms poll or the job's
// 10 ms preemption. runtime.Gosched is not enough — the job lands on
// the global run queue, and findRunnable takes it back from there
// before it reaches its netpoll. So once the job has run a slice, tick
// parks it until the netpoller has run: it writes one byte into a
// pipe whose read end a relay goroutine waits on through the
// netpoller, and blocks until the relay hands the token back. With
// the job blocked and nothing else runnable, findRunnable makes its
// non-blocking netpoll, which readies the relay together with every
// connection that has a request waiting. The job then yields once
// more, so those handlers, queued locally, run before it resumes.
//
// A pacer belongs to one job and is driven by the job's goroutine
// only: the solve emits its telemetry serially. A nil *pacer never
// parks.
type pacer struct {
	w     *os.File
	tok   chan struct{}
	done  chan struct{}
	last  time.Time
	count telemetry.Recorder // receives service.jobs.yields
}

// newPacer starts a pacer and its relay goroutine. It returns nil
// when no pipe can be made; the job then runs unpaced.
func newPacer(count telemetry.Recorder) *pacer {
	r, w, err := os.Pipe()
	if err != nil {
		return nil
	}
	p := &pacer{
		w:     w,
		tok:   make(chan struct{}),
		done:  make(chan struct{}),
		last:  time.Now(),
		count: count,
	}
	go p.relay(r)
	return p
}

// relay hands the job one token per byte read, and exits when the
// write end closes.
func (p *pacer) relay(r *os.File) {
	defer close(p.done)
	defer r.Close()
	var b [1]byte
	for {
		if _, err := r.Read(b[:]); err != nil {
			return
		}
		p.tok <- struct{}{}
	}
}

var parkByte = []byte{0}

// tick parks the job if it has run a slice since its last park. It
// must be called outside every lock.
func (p *pacer) tick() {
	if p == nil || time.Since(p.last) < jobSlice {
		return
	}
	if _, err := p.w.Write(parkByte); err == nil {
		select {
		case <-p.tok:
		case <-p.done:
		}
	}
	runtime.Gosched()
	p.count.Count("service.jobs.yields", 1)
	p.last = time.Now()
}

// close stops the relay and waits for it, so no goroutine or file
// descriptor outlives the job.
func (p *pacer) close() {
	if p == nil {
		return
	}
	p.w.Close()
	<-p.done
}
