// Package service is the sizing-as-a-service daemon core: an HTTP/JSON
// front end over the solver stack that accepts netlists plus sizing
// specs and runs each solve under a full supervision stack —
//
//	admission   a bounded worker pool with a bounded queue; a full
//	            queue rejects with 429 + Retry-After, oversized
//	            circuits with 413, a draining daemon with 503. A job
//	            is accepted exactly when its spec is fsynced into the
//	            state directory's journal, *before* the client sees
//	            202, so an accepted job can never be lost.
//	supervision every solve runs under a per-job context deadline
//	            threaded through the whole stack (nlp.SolveCtx /
//	            sizing.SizeCtx), with per-outer-iteration checkpoints
//	            persisted to the state directory, a telemetry watchdog
//	            marking (optionally cancelling) stalled solves, and
//	            automatic retry-with-backoff for NumericalFailure —
//	            each retry resumes from the job's last checkpoint and
//	            steps the degradation ladder down one rung.
//	recovery    a restarted daemon replays the journal: acceptances
//	            without a terminal record are requeued and resumed
//	            from their checkpoint files. Checkpoint resume is
//	            bit-identical (the internal/checkpoint contract), so
//	            a SIGKILL'd daemon finishes interrupted jobs with
//	            exactly the result an uninterrupted run would have
//	            produced — the chaos acceptance test pins this.
//	drain       SIGTERM (or Drain) stops admission, lets running jobs
//	            reach a result within the drain deadline, then
//	            cancels the stragglers at a checkpoint boundary; the
//	            journal keeps their acceptance, so nothing is lost
//	            across the restart.
//
// Clients follow a job through submit/status/result/cancel endpoints,
// a Server-Sent-Events stream of the solver's outer-loop convergence
// ("alm.outer"), and the Prometheus metrics the daemon exposes
// (accepted/rejected/retried/recovered/drained per-job counters plus
// the whole telemetry histogram stack).
package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/nlp"
	"repro/internal/telemetry"
)

// Admission errors, mapped onto HTTP statuses by the handler.
var (
	// ErrQueueFull reports a full admission queue (HTTP 429).
	ErrQueueFull = errors.New("service: queue full")
	// ErrDraining reports a daemon that stopped admitting (HTTP 503).
	ErrDraining = errors.New("service: draining")
	// ErrExists reports a duplicate job ID (HTTP 409).
	ErrExists = errors.New("service: job id exists")
	// ErrTooLarge reports a circuit over the admission size limit
	// (HTTP 413).
	ErrTooLarge = errors.New("service: circuit too large")
	// ErrUnknownJob reports an unknown job ID (HTTP 404).
	ErrUnknownJob = errors.New("service: unknown job")
)

// Options configures a Server. StateDir is required; everything else
// has production defaults.
type Options struct {
	// StateDir holds the journal and the per-job checkpoint files. It
	// is created if missing. Two live servers must not share one.
	StateDir string
	// Pool is the number of concurrent solves (default 2).
	Pool int
	// QueueDepth bounds the jobs admitted but not yet running; a full
	// queue rejects new submissions (default 16).
	QueueDepth int
	// MaxRetries bounds the NumericalFailure retries per job
	// (default 2).
	MaxRetries int
	// RetryBackoff is the first retry's delay, doubling per retry
	// (default 250ms).
	RetryBackoff time.Duration
	// JobTimeout caps each job's wall clock per process; a job's own
	// timeout_ms is clamped to it. 0 = no cap.
	JobTimeout time.Duration
	// DrainTimeout bounds Drain when its context has no deadline
	// (default 30s).
	DrainTimeout time.Duration
	// MaxGates rejects circuits with more gates at admission
	// (0 = unlimited).
	MaxGates int
	// CancelOnStall cancels a job after this many watchdog stall
	// episodes (0 = record stalls without cancelling).
	CancelOnStall int
	// MaxSessions bounds the what-if session roster; a full roster
	// rejects creates with 429 (default 64).
	MaxSessions int
	// SessionBytes budgets the warm session engines' memory; least-
	// recently-used engines are evicted past it and rebuild
	// transparently on the next touch (default 256 MiB).
	SessionBytes int64
	// SessionIdleTimeout evicts a session's warm engine after this much
	// inactivity (the roster entry stays; 0 = never).
	SessionIdleTimeout time.Duration
	// Recorder, when non-nil, receives every job's solver telemetry in
	// addition to the server's own metrics sink.
	Recorder telemetry.Recorder
	// Metrics is the server's metrics sink; nil creates a private one.
	// It backs the /metrics Prometheus exposition and the service.*
	// counters.
	Metrics *telemetry.Metrics
}

func (o Options) withDefaults() Options {
	if o.Pool <= 0 {
		o.Pool = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 16
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	} else if o.MaxRetries == 0 {
		o.MaxRetries = 2
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 250 * time.Millisecond
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 30 * time.Second
	}
	if o.Metrics == nil {
		o.Metrics = telemetry.NewMetrics()
	}
	return sessionDefaults(o)
}

// Server is the daemon core. Create with New, start the worker pool
// with Start, mount Handler on an HTTP listener, stop with Drain (or
// abandon with Kill in chaos tests).
type Server struct {
	opt     Options
	metrics *telemetry.Metrics
	journal *journal

	baseCtx context.Context
	stopAll context.CancelFunc

	mu        sync.Mutex
	cond      *sync.Cond
	jobs      map[string]*job
	order     []string // submission order, for listing
	pending   []*job   // admission queue (FIFO)
	running   int
	seq       int
	draining  bool
	killed    bool
	stopped   bool // workers told to exit
	recovered []*job

	// The what-if session table (session.go). sessMu guards the roster,
	// the LRU and the warm-byte accounting; each session's engine runs
	// under its own per-session mutex. Lock order: a session mutex is
	// never acquired while sessMu is held.
	sessMu        sync.Mutex
	sessions      map[string]*session
	sessOrder     []string   // creation order, for listing
	sessLRU       []*session // warm engines, least recently used first
	warmBytes     int64
	sessSeq       int
	recoveredSess []string

	workers sync.WaitGroup

	// testWrap, when non-nil, wraps each attempt's NLP problem — the
	// deterministic fault-injection seam the chaos tests script with
	// internal/faults (attempt is 0-based within this process).
	testWrap func(id string, attempt int, p *nlp.Problem) *nlp.Problem
	// testSolveDelay, when non-nil, is called at the top of every
	// solve attempt — chaos tests use it to hold a solve mid-flight.
	testSolveDelay func(id string, attempt int)
}

// New builds a server over the state directory, replaying the journal.
// Jobs accepted by an earlier process but missing a terminal record
// are requeued (state "queued", Recovered=true) and resume from their
// checkpoint files once Start runs the pool.
func New(opt Options) (*Server, error) {
	if opt.StateDir == "" {
		return nil, fmt.Errorf("service: Options.StateDir is required")
	}
	opt = opt.withDefaults()
	if err := os.MkdirAll(opt.StateDir, 0o755); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	jnl, recs, err := openJournal(filepath.Join(opt.StateDir, "journal.jsonl"))
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opt:      opt,
		metrics:  opt.Metrics,
		journal:  jnl,
		baseCtx:  ctx,
		stopAll:  cancel,
		jobs:     make(map[string]*job),
		sessions: make(map[string]*session),
	}
	s.cond = sync.NewCond(&s.mu)
	if err := s.recover(recs); err != nil {
		jnl.close()
		cancel()
		return nil, err
	}
	return s, nil
}

// recover rebuilds the job table from replayed journal records.
func (s *Server) recover(recs []journalRecord) error {
	for i := range recs {
		r := &recs[i]
		switch r.T {
		case "accepted":
			if r.Spec == nil || r.ID == "" {
				return fmt.Errorf("service: journal acceptance for %q lacks a spec", r.ID)
			}
			if _, dup := s.jobs[r.ID]; dup {
				return fmt.Errorf("service: journal accepts job %q twice", r.ID)
			}
			jb := &job{
				id:        r.ID,
				seq:       r.Seq,
				spec:      *r.Spec,
				state:     JobQueued,
				recovered: true,
				hub:       newEventHub(),
			}
			if r.Seq > s.seq {
				s.seq = r.Seq
			}
			s.jobs[r.ID] = jb
			s.order = append(s.order, r.ID)
		case "done":
			jb := s.jobs[r.ID]
			if jb == nil {
				return fmt.Errorf("service: journal completes unknown job %q", r.ID)
			}
			switch r.State {
			case "done":
				jb.state = JobDone
			case "failed":
				jb.state = JobFailed
			case "cancelled":
				jb.state = JobCancelled
			default:
				return fmt.Errorf("service: journal job %q has unknown terminal state %q", r.ID, r.State)
			}
			jb.result = r.Res
			jb.errMsg = r.Error
			jb.hub.close()
		case "session":
			if r.Session == nil || r.ID == "" {
				return fmt.Errorf("service: journal session record for %q lacks a spec", r.ID)
			}
			if _, dup := s.sessions[r.ID]; dup {
				return fmt.Errorf("service: journal creates session %q twice", r.ID)
			}
			// Recovered sessions come back evicted: spec only, baseline
			// sizes, engine rebuilt on the first touch (Recovered=true
			// tells the client its nudges did not survive the restart).
			s.sessions[r.ID] = &session{
				id:        r.ID,
				seq:       r.Seq,
				spec:      *r.Session,
				created:   time.Now(),
				recovered: true,
			}
			s.sessOrder = append(s.sessOrder, r.ID)
			if r.Seq > s.sessSeq {
				s.sessSeq = r.Seq
			}
		case "session-closed":
			ss := s.sessions[r.ID]
			if ss == nil {
				return fmt.Errorf("service: journal closes unknown session %q", r.ID)
			}
			delete(s.sessions, r.ID)
			for i, sid := range s.sessOrder {
				if sid == r.ID {
					s.sessOrder = append(s.sessOrder[:i], s.sessOrder[i+1:]...)
					break
				}
			}
		default:
			return fmt.Errorf("service: journal record type %q unknown", r.T)
		}
	}
	// Requeue survivors in acceptance order.
	for _, id := range s.order {
		jb := s.jobs[id]
		if jb.state == JobQueued {
			s.pending = append(s.pending, jb)
			s.recovered = append(s.recovered, jb)
			s.metrics.Count("service.jobs.recovered", 1)
		}
	}
	for _, id := range s.sessOrder {
		s.recoveredSess = append(s.recoveredSess, id)
		s.metrics.Count("service.sessions.recovered", 1)
	}
	return nil
}

// Recovered returns the IDs of jobs requeued from the journal at
// construction, in acceptance order.
func (s *Server) Recovered() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, len(s.recovered))
	for i, jb := range s.recovered {
		ids[i] = jb.id
	}
	return ids
}

// Metrics returns the server's telemetry sink.
func (s *Server) Metrics() *telemetry.Metrics { return s.metrics }

// Start launches the worker pool (and, when configured, the session
// idle reaper). It returns immediately; recovered jobs are already
// queued and run first.
func (s *Server) Start() {
	s.workers.Add(s.opt.Pool)
	for i := 0; i < s.opt.Pool; i++ {
		go func() {
			defer s.workers.Done()
			for {
				jb := s.nextJob()
				if jb == nil {
					return
				}
				s.runJob(jb)
			}
		}()
	}
	if idle := s.opt.SessionIdleTimeout; idle > 0 {
		tick := idle / 4
		if tick < 100*time.Millisecond {
			tick = 100 * time.Millisecond
		}
		if tick > 30*time.Second {
			tick = 30 * time.Second
		}
		go func() {
			t := time.NewTicker(tick)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					s.reapIdleSessions(idle)
				case <-s.baseCtx.Done():
					return
				}
			}
		}()
	}
}

// nextJob blocks until a queued job is available or the pool stops.
func (s *Server) nextJob() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.stopped {
			return nil
		}
		if len(s.pending) > 0 {
			jb := s.pending[0]
			s.pending = s.pending[1:]
			jb.state = JobRunning
			jb.started = time.Now()
			s.running++
			s.updateQueueGauges()
			return jb
		}
		s.cond.Wait()
	}
}

// updateQueueGauges refreshes the depth gauges; callers hold the lock.
func (s *Server) updateQueueGauges() {
	s.metrics.Gauge("service.queue.depth", float64(len(s.pending)))
	s.metrics.Gauge("service.jobs.running", float64(s.running))
}

// Submit admits one job: validate, journal (fsync), queue. The
// returned status reflects the queued job. Admission errors map to
// HTTP statuses: ErrDraining 503, ErrQueueFull 429, ErrExists 409,
// ErrTooLarge 413; any other error is a 400-class spec problem.
func (s *Server) Submit(spec JobSpec) (JobStatus, error) {
	if spec.ID != "" && !validID(spec.ID) {
		return JobStatus{}, fmt.Errorf("service: invalid job id %q (want [A-Za-z0-9._-]{1,64})", spec.ID)
	}
	// Validate the spec fully before touching server state: the model
	// must compile and the sizing spec must lower.
	m, err := buildModel(&spec)
	if err != nil {
		return JobStatus{}, fmt.Errorf("service: bad circuit: %w", err)
	}
	if _, err := sizingSpec(&spec); err != nil {
		return JobStatus{}, fmt.Errorf("service: bad spec: %w", err)
	}
	if s.opt.MaxGates > 0 {
		if n := m.G.C.NumGates(); n > s.opt.MaxGates {
			return JobStatus{}, fmt.Errorf("%w: %d gates > limit %d", ErrTooLarge, n, s.opt.MaxGates)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.stopped {
		return JobStatus{}, ErrDraining
	}
	if len(s.pending) >= s.opt.QueueDepth {
		s.metrics.Count("service.jobs.rejected", 1)
		return JobStatus{}, ErrQueueFull
	}
	if spec.ID == "" {
		spec.ID = fmt.Sprintf("job-%06d", s.seq+1)
	}
	if _, dup := s.jobs[spec.ID]; dup {
		return JobStatus{}, fmt.Errorf("%w: %q", ErrExists, spec.ID)
	}
	s.seq++
	jb := &job{
		id:        spec.ID,
		seq:       s.seq,
		spec:      spec,
		state:     JobQueued,
		submitted: time.Now(),
		hub:       newEventHub(),
	}
	// The acceptance is durable before the client hears 202: journal
	// first, then queue. A crash after this line recovers the job.
	if err := s.journal.append(journalRecord{T: "accepted", ID: jb.id, Seq: jb.seq, Spec: &jb.spec}); err != nil {
		return JobStatus{}, err
	}
	s.jobs[jb.id] = jb
	s.order = append(s.order, jb.id)
	s.pending = append(s.pending, jb)
	s.metrics.Count("service.jobs.accepted", 1)
	s.updateQueueGauges()
	s.cond.Signal()
	return jb.status(), nil
}

// Status returns one job's status.
func (s *Server) Status(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jb := s.jobs[id]
	if jb == nil {
		return JobStatus{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return jb.status(), nil
}

// Jobs lists every known job in submission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].status())
	}
	return out
}

// Result returns a terminal job's result. The boolean reports whether
// the job has finished; querying an unknown ID errors.
func (s *Server) Result(id string) (*JobResult, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jb := s.jobs[id]
	if jb == nil {
		return nil, false, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	if !jb.state.Terminal() {
		return nil, false, nil
	}
	return jb.result, true, nil
}

// Cancel requests cancellation of a queued or running job. A queued
// job terminates immediately; a running one observes the cancellation
// at its next solver iteration boundary and keeps the best-so-far
// iterate in its result.
func (s *Server) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jb := s.jobs[id]
	if jb == nil {
		return JobStatus{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	switch jb.state {
	case JobQueued:
		for i, q := range s.pending {
			if q == jb {
				s.pending = append(s.pending[:i], s.pending[i+1:]...)
				break
			}
		}
		jb.cancelled = true
		s.finishLocked(jb, JobCancelled, nil, "cancelled before start")
		s.updateQueueGauges()
	case JobRunning, JobRetryWait:
		jb.cancelled = true
		if jb.cancel != nil {
			jb.cancel()
		}
	}
	return jb.status(), nil
}

// Draining reports whether admission has stopped.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully shuts the server down: admission stops (submits
// and readiness turn 503), queued jobs stay journaled for the next
// start, and running jobs get until the context deadline (or
// Options.DrainTimeout when ctx has none) to finish. Stragglers are
// then cancelled — the solver persists a boundary checkpoint on
// cancellation, so the interrupted jobs resume bit-identically on the
// next start. Drain returns once the pool is idle and the journal is
// closed; no accepted job is ever lost.
func (s *Server) Drain(ctx context.Context) error {
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opt.DrainTimeout)
		defer cancel()
	}

	s.mu.Lock()
	s.draining = true
	s.stopped = true // idle workers exit; queued jobs stay journaled
	for _, jb := range s.pending {
		// Still queued at drain: recovered by the next start.
		s.metrics.Count("service.jobs.drained", 1)
		jb.hub.publish(`{"scope":"job","name":"drained"}`)
	}
	s.cond.Broadcast()
	s.mu.Unlock()

	// Phase 1: wait for running jobs to finish on their own.
	idle := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(idle)
	}()
	select {
	case <-idle:
	case <-ctx.Done():
		// Phase 2: deadline passed — cancel the stragglers at their
		// next checkpoint boundary and wait for the pool to unwind.
		s.mu.Lock()
		for _, id := range s.order {
			jb := s.jobs[id]
			if jb.state == JobRunning || jb.state == JobRetryWait {
				if jb.cancel != nil {
					jb.cancel()
				}
			}
		}
		s.mu.Unlock()
		<-idle
	}
	s.stopAll()
	return s.journal.close()
}

// Kill abandons the server the way a SIGKILL would: every running
// solve's context is cancelled and nothing more is journaled — no
// terminal records, no checkpoint cleanup, no drain accounting. The
// state directory is left exactly as a hard-killed process would
// leave it (journal of acceptances + checkpoint files), which is what
// the chaos tests restart from. The worker goroutines are reaped so
// tests stay leak-free; a real SIGKILL is stricter only in dropping
// them mid-instruction, which the solver's write path already
// tolerates (checkpoints are atomic renames).
func (s *Server) Kill() {
	s.mu.Lock()
	s.killed = true
	s.stopped = true
	s.draining = true
	for _, id := range s.order {
		jb := s.jobs[id]
		if jb.cancel != nil {
			jb.cancel()
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.stopAll()
	s.workers.Wait()
	s.journal.close()
}

// finishLocked moves a job to a terminal state and journals it;
// callers hold the lock. Under kill nothing is journaled — the
// process is "dead".
func (s *Server) finishLocked(jb *job, state JobState, res *JobResult, errMsg string) {
	if s.killed {
		return
	}
	jb.state = state
	jb.result = res
	jb.errMsg = errMsg
	jb.finished = time.Now()
	var counter string
	var terminal string
	switch state {
	case JobDone:
		counter, terminal = "service.jobs.completed", "done"
	case JobFailed:
		counter, terminal = "service.jobs.failed", "failed"
	case JobCancelled:
		counter, terminal = "service.jobs.cancelled", "cancelled"
	}
	s.metrics.Count(counter, 1)
	if err := s.journal.append(journalRecord{T: "done", ID: jb.id, State: terminal, Error: errMsg, Res: res}); err != nil {
		// The in-memory state is authoritative for this process; a
		// failed terminal append means the job may rerun after a
		// restart, which is safe (solves are deterministic) and better
		// than losing it.
		s.metrics.Count("service.journal.errors", 1)
	}
	jb.hub.publish(`{"scope":"job","name":"` + terminal + `"}`)
	jb.hub.close()
	// A finished job's checkpoint is dead weight; failed jobs keep
	// theirs for post-mortems.
	if state == JobDone || state == JobCancelled {
		os.Remove(s.checkpointPath(jb.id))
		os.Remove(s.checkpointPath(jb.id) + ".bak")
	}
}

// checkpointPath is the job's checkpoint file in the state directory.
func (s *Server) checkpointPath(id string) string {
	return filepath.Join(s.opt.StateDir, id+".ckpt")
}

// ladderDepth is the length of the degradation ladder for a method.
func ladderDepth(m nlp.Method) int { return len(nlp.Ladder(m)) }
