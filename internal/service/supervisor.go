package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/delay"
	"repro/internal/nlp"
	"repro/internal/sizing"
	"repro/internal/telemetry"
)

// runJob supervises one job through its attempts: per-job deadline,
// watchdog, periodic checkpoints, NumericalFailure retry-with-backoff
// stepping down the degradation ladder, and terminal classification.
// Cancellations split three ways — a user cancel terminates the job,
// a watchdog or deadline cancel fails it, and a drain/kill cancel
// requeues it (the journal still holds the acceptance, so the next
// start resumes it from its checkpoint).
func (s *Server) runJob(jb *job) {
	defer func() {
		s.mu.Lock()
		s.running--
		s.updateQueueGauges()
		s.mu.Unlock()
	}()

	runStart := time.Now()

	// Per-job context: the job's own timeout_ms, clamped by the
	// server-wide JobTimeout, over the server's base context.
	timeout := time.Duration(jb.spec.TimeoutMS) * time.Millisecond
	if s.opt.JobTimeout > 0 && (timeout <= 0 || timeout > s.opt.JobTimeout) {
		timeout = s.opt.JobTimeout
	}
	var jobCtx context.Context
	var cancel context.CancelFunc
	if timeout > 0 {
		jobCtx, cancel = context.WithTimeout(s.baseCtx, timeout)
	} else {
		jobCtx, cancel = context.WithCancel(s.baseCtx)
	}
	defer cancel()

	// Every attempt's telemetry reaches the metrics sink plus the
	// caller's recorder, and goes through the job's own pacer.
	base := telemetry.Recorder(s.metrics)
	if s.opt.Recorder != nil {
		base = telemetry.Multi(s.metrics, s.opt.Recorder)
	}
	pace := newPacer(base)
	defer pace.close()

	s.mu.Lock()
	if jb.cancelled {
		// The cancel endpoint won the race while the job sat queued.
		s.finishLocked(jb, JobCancelled, nil, "cancelled before start")
		s.mu.Unlock()
		return
	}
	jb.cancel, jb.pace = cancel, pace
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		jb.cancel, jb.pace = nil, nil
		s.mu.Unlock()
	}()

	jb.hub.publish(`{"scope":"job","name":"started"}`)

	m, err := buildModel(&jb.spec)
	if err != nil {
		s.mu.Lock()
		s.finishLocked(jb, JobFailed, nil, "bad circuit: "+err.Error())
		s.mu.Unlock()
		return
	}

	ckptPath := s.checkpointPath(jb.id)
	for attempt := 0; ; attempt++ {
		s.mu.Lock()
		jb.attempt = attempt + 1
		s.mu.Unlock()
		if s.testSolveDelay != nil {
			s.testSolveDelay(jb.id, attempt)
		}

		sp, err := sizingSpec(&jb.spec)
		if err != nil {
			s.mu.Lock()
			s.finishLocked(jb, JobFailed, nil, "bad spec: "+err.Error())
			s.mu.Unlock()
			return
		}

		// Telemetry chain: watchdog → SSE/stream splitter and pacer →
		// base. The watchdog is per-attempt so a retried job starts
		// with a clean progress history.
		var stallCancelled bool
		stream := &jobRecorder{next: base, hub: jb.hub, pace: pace}
		wd := telemetry.NewWatchdog(stream, telemetry.WatchdogOptions{
			OnStall: func(st telemetry.Stall) {
				s.metrics.Count("service.jobs.stalled", 1)
				s.mu.Lock()
				jb.stalls++
				n := jb.stalls
				s.mu.Unlock()
				jb.hub.publish(fmt.Sprintf(`{"scope":"job","name":"stall","episode":%d,"streak":%d}`, n, st.Streak))
				if s.opt.CancelOnStall > 0 && n >= s.opt.CancelOnStall {
					stallCancelled = true
					cancel()
				}
			},
		})
		sp.Recorder = wd

		if jb.spec.Greedy {
			s.runGreedy(jb, jobCtx, m, sp, runStart)
			return
		}

		// Checkpointing: every outer iteration into the state
		// directory; resume whatever a previous attempt (or a previous
		// process) left behind. On a retry the checkpoint steps one
		// rung down the degradation ladder before resuming.
		sp.Solver.CheckpointPath = ckptPath
		if ck, err := nlp.LoadCheckpoint(ckptPath); err == nil {
			if attempt > 0 {
				if ladder := nlp.Ladder(sp.Solver.Method); ck.Rung+1 < len(ladder) {
					ck.Rung++
					ck.RungRecoveries = 0
					ck.FailStreak = 0
					// Persist the step-down: a crash during this
					// attempt must not retry the failed rung.
					nlp.SaveCheckpoint(ckptPath, ck)
				}
			}
			sp.Solver.Resume = ck
		}
		if s.testWrap != nil {
			id, at := jb.id, attempt
			sp.WrapProblem = func(p *nlp.Problem) *nlp.Problem {
				return s.testWrap(id, at, p)
			}
		}

		out, err := sizing.SizeCtx(jobCtx, m, sp)
		if err != nil {
			s.mu.Lock()
			s.finishLocked(jb, JobFailed, nil, err.Error())
			s.mu.Unlock()
			return
		}

		res := resultFromOutcome(out, jb, runStart)
		status := out.Solver.Status

		switch {
		case status == nlp.Cancelled:
			if s.settleCancelled(jb, res, stallCancelled) {
				return
			}
			// Drain/kill: requeued, nothing terminal; the worker exits.
			return
		case status == nlp.DeadlineExceeded:
			// The per-job deadline fired (the base context carries no
			// deadline, so this is always the job's own budget).
			s.mu.Lock()
			s.finishLocked(jb, JobFailed, res, "deadline exceeded")
			s.mu.Unlock()
			return
		case status == nlp.NumericalFailure:
			s.mu.Lock()
			retriesLeft := jb.retries < s.opt.MaxRetries
			if retriesLeft {
				jb.retries++
				jb.state = JobRetryWait
			}
			n := jb.retries
			s.mu.Unlock()
			if !retriesLeft {
				// Out of retries: the outcome stands — possibly the
				// greedy fallback sizing, the ladder's last rung.
				s.mu.Lock()
				s.finishLocked(jb, JobFailed, res, "numerical failure (retries exhausted)")
				s.mu.Unlock()
				return
			}
			s.metrics.Count("service.jobs.retried", 1)
			jb.hub.publish(fmt.Sprintf(`{"scope":"job","name":"retry","attempt":%d}`, n))
			if !s.backoff(jobCtx, n) {
				// Cancelled mid-backoff: classify exactly like a
				// cancelled solve.
				if s.settleCancelled(jb, res, stallCancelled) {
					return
				}
				return
			}
			s.mu.Lock()
			if jb.cancelled {
				s.finishLocked(jb, JobCancelled, res, "cancelled")
				s.mu.Unlock()
				return
			}
			jb.state = JobRunning
			s.mu.Unlock()
			continue
		default:
			// Converged / MaxIterations / Stalled: a result.
			s.mu.Lock()
			s.finishLocked(jb, JobDone, res, "")
			s.mu.Unlock()
			return
		}
	}
}

// settleCancelled classifies a cancellation and reports whether the
// job reached a terminal state (false = drain/kill requeue).
func (s *Server) settleCancelled(jb *job, res *JobResult, stallCancelled bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case jb.cancelled:
		s.finishLocked(jb, JobCancelled, res, "cancelled")
		return true
	case stallCancelled:
		s.finishLocked(jb, JobFailed, res, "watchdog: solve stalled")
		return true
	default:
		// Drain or kill: back to queued. The journal's acceptance
		// record plus the checkpoint file carry the job across the
		// restart; nothing is journaled here (under kill the process
		// is "dead", under drain the acceptance already suffices).
		jb.state = JobQueued
		if !s.killed {
			s.metrics.Count("service.jobs.drained", 1)
			jb.hub.publish(`{"scope":"job","name":"drained"}`)
		}
		return false
	}
}

// backoff sleeps the exponential retry delay (MaxRetries doublings of
// RetryBackoff); false reports a cancellation during the wait.
func (s *Server) backoff(ctx context.Context, retry int) bool {
	d := s.opt.RetryBackoff << (retry - 1)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// runGreedy runs a greedy-routed job. The greedy sizer has no
// checkpoint — it is fast and deterministic, so a drained or killed
// greedy job simply reruns from scratch on the next start.
func (s *Server) runGreedy(jb *job, ctx context.Context, m *delay.Model, sp sizing.Spec, runStart time.Time) {
	opt, ok := sizing.GreedyFromSpec(sp)
	if !ok {
		// sizingSpec validated this at admission; only a stale journal
		// spec can get here.
		s.mu.Lock()
		s.finishLocked(jb, JobFailed, nil, "greedy jobs need a mu+Ksigma<= deadline constraint")
		s.mu.Unlock()
		return
	}
	gr, err := sizing.SizeGreedyCtx(ctx, m, opt)
	if err != nil {
		s.mu.Lock()
		s.finishLocked(jb, JobFailed, nil, err.Error())
		s.mu.Unlock()
		return
	}
	res := &JobResult{
		S:          gr.S,
		Mu:         gr.MuTmax,
		Sigma:      gr.SigmaTmax,
		Area:       gr.SumS,
		Status:     "greedy",
		StatusCode: -1,
		Outer:      gr.Steps,
		Met:        gr.Met,
		Recovered:  jb.recovered,
		RuntimeMS:  time.Since(runStart).Milliseconds(),
	}
	// The greedy sizer absorbs cancellation into a partial result;
	// classify by the context instead of a solver status.
	if ctx.Err() != nil {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			s.mu.Lock()
			s.finishLocked(jb, JobFailed, res, "deadline exceeded")
			s.mu.Unlock()
			return
		}
		if s.settleCancelled(jb, res, false) {
			return
		}
		return
	}
	s.mu.Lock()
	s.finishLocked(jb, JobDone, res, "")
	s.mu.Unlock()
}

// resultFromOutcome renders a solver outcome into the job's terminal
// result payload.
func resultFromOutcome(out *sizing.Outcome, jb *job, runStart time.Time) *JobResult {
	res := &JobResult{
		S:         out.S,
		Mu:        out.MuTmax,
		Sigma:     out.SigmaTmax,
		Area:      out.SumS,
		Fallback:  out.Fallback,
		Recovered: jb.recovered,
		RuntimeMS: time.Since(runStart).Milliseconds(),
	}
	if r := out.Solver; r != nil {
		res.Status = r.Status.String()
		res.StatusCode = int(r.Status)
		res.Outer = r.Outer
		res.Inner = r.Inner
		res.FuncEvals = r.FuncEvals
		res.Method = r.Method.String()
	}
	res.Retries = jb.retries
	return res
}
