package service

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/netlist"
	"repro/internal/ssta"
	"repro/internal/stats"
)

// This file is the warm what-if session layer: the interactive
// counterpart of the cold job pipeline. A client creates a session
// once — the daemon parses the circuit, binds the delay model and runs
// one full taped sweep into a persistent ssta.Hier engine — and then
// nudges gate sizes one PATCH at a time. Each nudge re-evaluates only
// the dirty cone (SetSize/Update with bitwise early cutoff), each
// what-if runs under Trial/Rollback without mutating session state,
// and each timing query reads arrivals, criticality and mu+k*sigma
// sensitivities straight off the warm tape. This is the service-side
// realization of the iterative localized-perturbation loop the
// statistical sizing literature frames gate sizing as.
//
// Warm engines are cached under an LRU with a byte budget: an evicted
// session keeps only its spec and current sizes (a few hundred bytes)
// and rebuilds transparently on the next touch — the rebuilt engine is
// bit-identical to the evicted one because the engine contract pins
// engine state to a fresh sweep at the current sizes. Session
// creation reuses the job pipeline's admission (429/413/503) and
// fsync-before-2xx journal machinery, so a restarted daemon recovers
// its session roster (sizes reset to the baseline; the client sees
// Recovered=true and the first touch reports rebuilt=true).
//
// One engine is single-threaded, so every engine operation runs
// under the session's own mutex — the per-session queue. Concurrent
// PATCHes therefore linearize: each applies its whole batch atomically
// (in sorted gate order, so a batch's internal order is deterministic
// too), and because each gate's recomputation is a pure function of
// its fanins' final arrivals, the final engine state after a set of
// disjoint PATCHes is bit-identical for every interleaving.

// Session admission errors (mapped onto HTTP statuses like the job
// pipeline's).
var (
	// ErrUnknownSession reports an unknown session ID (HTTP 404).
	ErrUnknownSession = errors.New("service: unknown session")
	// ErrSessionLimit reports a full session roster (HTTP 429).
	ErrSessionLimit = errors.New("service: session limit reached")
)

// SessionSpec is the create payload: a circuit (the same selection
// fields as JobSpec) plus model parameters, but no objective — a
// session answers timing queries, it does not run solves.
type SessionSpec struct {
	// ID optionally names the session (same rules as job IDs); empty
	// gets a generated sess-<seq> name.
	ID string `json:"id,omitempty"`
	// Circuit/Netlist/Format select the circuit exactly as in JobSpec.
	Circuit string `json:"circuit,omitempty"`
	Netlist string `json:"netlist,omitempty"`
	Format  string `json:"format,omitempty"`
	// SigmaK and Limit parameterize the delay model (defaults 0.25, 3).
	SigmaK float64 `json:"sigma_k,omitempty"`
	Limit  float64 `json:"limit,omitempty"`
	// K is the session's default risk factor for timing queries
	// (phi = mu + K*sigma; default 3). Timing requests may override it
	// per query.
	K float64 `json:"k,omitempty"`
	// Workers is accepted and ignored: the session engine's sweeps
	// are serial. The field stays on the wire so requests that set it
	// keep decoding under the strict JSON decoder.
	Workers int `json:"workers,omitempty"`
}

// jobSpec adapts the session spec onto the job pipeline's model
// builder (shared circuit resolution and validation).
func (sp *SessionSpec) jobSpec() JobSpec {
	return JobSpec{
		Circuit: sp.Circuit,
		Netlist: sp.Netlist,
		Format:  sp.Format,
		SigmaK:  sp.SigmaK,
		Limit:   sp.Limit,
	}
}

// SessionStatus is the status-endpoint view of a session.
type SessionStatus struct {
	ID string `json:"id"`
	// State is "warm" (engine resident) or "evicted" (spec + sizes
	// only; the next touch rebuilds).
	State string `json:"state"`
	// Recovered marks a session restored from the journal by a daemon
	// restart; its sizes are the baseline until the client re-applies.
	Recovered bool `json:"recovered,omitempty"`
	// Rebuilds counts transparent engine rebuilds after evictions (the
	// initial build is not a rebuild).
	Rebuilds int `json:"rebuilds,omitempty"`
	// Gates is the circuit's gate count (0 until the engine has been
	// built once in this process).
	Gates int `json:"gates,omitempty"`
	// Bytes is the warm engine's estimated footprint (0 while evicted).
	Bytes    int64  `json:"bytes,omitempty"`
	Created  string `json:"created,omitempty"`
	LastUsed string `json:"last_used,omitempty"`
	// Mu/Sigma carry the circuit delay moments where the endpoint has
	// them warm (create responses).
	Mu    float64 `json:"mu,omitempty"`
	Sigma float64 `json:"sigma,omitempty"`
}

// session is the in-memory record of one what-if session. The spec,
// sizes and engine are guarded by the session's own mutex (the
// per-session queue serializing the single-threaded engine); the
// cache-management fields (eng pointer identity for the LRU, bytes,
// lastUse, closed) are guarded by the server's session-table mutex.
// Lock order: never acquire a session mutex while holding the table
// mutex — eviction only drops the table's engine reference, an
// in-flight operation keeps using its own.
type session struct {
	id        string
	seq       int
	spec      SessionSpec
	created   time.Time
	recovered bool

	mu       sync.Mutex // the per-session queue
	sizes    []float64  // current speed factors; nil = baseline (unit)
	eng      *ssta.Hier // nil while evicted
	built    bool       // engine built at least once in this process
	gates    int
	rebuilds int

	// Guarded by Server.sessMu.
	lastUse time.Time
	bytes   int64
	closed  bool
}

// status renders the table-guarded view; callers hold sessMu.
func (ss *session) status() SessionStatus {
	st := SessionStatus{
		ID:        ss.id,
		State:     "evicted",
		Recovered: ss.recovered,
		Rebuilds:  ss.rebuilds,
		Gates:     ss.gates,
		Bytes:     ss.bytes,
		Created:   ss.created.UTC().Format(time.RFC3339Nano),
	}
	if ss.bytes > 0 {
		st.State = "warm"
	}
	if !ss.lastUse.IsZero() {
		st.LastUsed = ss.lastUse.UTC().Format(time.RFC3339Nano)
	}
	return st
}

// sessionDefaults fills the session knobs of Options.
func sessionDefaults(o Options) Options {
	if o.MaxSessions <= 0 {
		o.MaxSessions = 64
	}
	if o.SessionBytes <= 0 {
		o.SessionBytes = 256 << 20
	}
	return o
}

// updateSessionGauges refreshes the roster gauges; callers hold sessMu.
func (s *Server) updateSessionGauges() {
	warm := 0
	for _, ss := range s.sessions {
		if ss.bytes > 0 {
			warm++
		}
	}
	s.metrics.Gauge("service.sessions.count", float64(len(s.sessions)))
	s.metrics.Gauge("service.sessions.warm", float64(warm))
	s.metrics.Gauge("service.sessions.bytes", float64(s.warmBytes))
}

// CreateSession admits one session: validate, build the warm engine,
// journal the creation (fsync) and register it. Admission mirrors job
// submission — ErrDraining 503, ErrSessionLimit 429, ErrExists 409,
// ErrTooLarge 413; other errors are 400-class spec problems.
func (s *Server) CreateSession(spec SessionSpec) (SessionStatus, error) {
	if spec.ID != "" && !validID(spec.ID) {
		return SessionStatus{}, fmt.Errorf("service: invalid session id %q (want [A-Za-z0-9._-]{1,64})", spec.ID)
	}
	js := spec.jobSpec()
	m, err := buildModel(&js)
	if err != nil {
		return SessionStatus{}, fmt.Errorf("service: bad circuit: %w", err)
	}
	gates := m.G.C.NumGates()
	if s.opt.MaxGates > 0 && gates > s.opt.MaxGates {
		return SessionStatus{}, fmt.Errorf("%w: %d gates > limit %d", ErrTooLarge, gates, s.opt.MaxGates)
	}
	if s.Draining() {
		return SessionStatus{}, ErrDraining
	}

	// The expensive part — the initial full taped sweep — runs outside
	// every lock; only the registration below is serialized.
	eng := ssta.NewHier(m, m.UnitSizes(), ssta.HierOptions{})
	bytes := eng.MemoryBytes()

	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	if s.Draining() {
		return SessionStatus{}, ErrDraining
	}
	if len(s.sessions) >= s.opt.MaxSessions {
		s.metrics.Count("service.sessions.rejected", 1)
		return SessionStatus{}, ErrSessionLimit
	}
	if spec.ID == "" {
		spec.ID = fmt.Sprintf("sess-%06d", s.sessSeq+1)
	}
	if _, dup := s.sessions[spec.ID]; dup {
		return SessionStatus{}, fmt.Errorf("%w: %q", ErrExists, spec.ID)
	}
	s.sessSeq++
	ss := &session{
		id:      spec.ID,
		seq:     s.sessSeq,
		spec:    spec,
		created: time.Now(),
		sizes:   append([]float64(nil), eng.Sizes()...),
		eng:     eng,
		built:   true,
		gates:   gates,
		lastUse: time.Now(),
		bytes:   bytes,
	}
	// The roster entry is durable before the client hears 201 — the
	// same fsync-before-2xx contract as job acceptance, so a restarted
	// daemon recovers its session roster.
	if err := s.journal.append(journalRecord{T: "session", ID: ss.id, Seq: ss.seq, Session: &ss.spec}); err != nil {
		return SessionStatus{}, err
	}
	s.sessions[ss.id] = ss
	s.sessOrder = append(s.sessOrder, ss.id)
	s.sessLRU = append(s.sessLRU, ss)
	s.warmBytes += bytes
	s.evictOverBudgetLocked(ss)
	s.metrics.Count("service.sessions.created", 1)
	s.updateSessionGauges()
	st := ss.status()
	tmax := eng.Tmax()
	st.Mu, st.Sigma = tmax.Mu, tmax.Sigma()
	return st, nil
}

// CloseSession removes a session from the roster and journals the
// closure so a restart does not resurrect it.
func (s *Server) CloseSession(id string) error {
	if s.Draining() {
		return ErrDraining
	}
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	ss := s.sessions[id]
	if ss == nil {
		return fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	ss.closed = true
	s.dropEngineLocked(ss)
	delete(s.sessions, id)
	for i, sid := range s.sessOrder {
		if sid == id {
			s.sessOrder = append(s.sessOrder[:i], s.sessOrder[i+1:]...)
			break
		}
	}
	if err := s.journal.append(journalRecord{T: "session-closed", ID: id}); err != nil {
		return err
	}
	s.metrics.Count("service.sessions.closed", 1)
	s.updateSessionGauges()
	return nil
}

// SessionStatus returns one session's status.
func (s *Server) SessionStatus(id string) (SessionStatus, error) {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	ss := s.sessions[id]
	if ss == nil {
		return SessionStatus{}, fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	return ss.status(), nil
}

// Sessions lists every live session in creation order.
func (s *Server) Sessions() []SessionStatus {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	out := make([]SessionStatus, 0, len(s.sessOrder))
	for _, id := range s.sessOrder {
		out = append(out, s.sessions[id].status())
	}
	return out
}

// RecoveredSessions returns the IDs of sessions restored from the
// journal at construction, in creation order.
func (s *Server) RecoveredSessions() []string {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	return append([]string(nil), s.recoveredSess...)
}

// lookupSession bumps the session in the LRU and returns it.
func (s *Server) lookupSession(id string) (*session, error) {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	ss := s.sessions[id]
	if ss == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	ss.lastUse = time.Now()
	s.bumpLRULocked(ss)
	return ss, nil
}

// bumpLRULocked moves a warm session to the most-recently-used end;
// callers hold sessMu.
func (s *Server) bumpLRULocked(ss *session) {
	for i, c := range s.sessLRU {
		if c == ss {
			copy(s.sessLRU[i:], s.sessLRU[i+1:])
			s.sessLRU[len(s.sessLRU)-1] = ss
			return
		}
	}
}

// dropEngineLocked evicts a session's warm engine from the cache
// accounting; callers hold sessMu. The engine object itself may still
// be in use by an in-flight operation holding the session mutex — that
// operation keeps its own reference and finishes safely; the session's
// sizes (not the engine) are the authoritative state, so the next
// touch rebuilds bit-identically.
func (s *Server) dropEngineLocked(ss *session) {
	if ss.bytes == 0 {
		return
	}
	s.warmBytes -= ss.bytes
	ss.bytes = 0
	ss.eng = nil
	for i, c := range s.sessLRU {
		if c == ss {
			s.sessLRU = append(s.sessLRU[:i], s.sessLRU[i+1:]...)
			break
		}
	}
}

// evictOverBudgetLocked sheds least-recently-used warm engines until
// the byte budget holds, never evicting the session being touched;
// callers hold sessMu.
func (s *Server) evictOverBudgetLocked(keep *session) {
	for s.warmBytes > s.opt.SessionBytes {
		var victim *session
		for _, c := range s.sessLRU {
			if c != keep {
				victim = c
				break
			}
		}
		if victim == nil {
			return // only the touched session is warm; keep it
		}
		s.dropEngineLocked(victim)
		s.metrics.Count("service.sessions.evicted", 1)
	}
}

// reapIdleSessions evicts engines idle past the deadline (the roster
// entries stay; the next touch rebuilds). Runs from the Start reaper.
func (s *Server) reapIdleSessions(idle time.Duration) {
	cutoff := time.Now().Add(-idle)
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	for _, ss := range s.sessions {
		if ss.bytes > 0 && ss.lastUse.Before(cutoff) {
			s.dropEngineLocked(ss)
			s.metrics.Count("service.sessions.evicted", 1)
			s.metrics.Count("service.sessions.idle_evicted", 1)
		}
	}
	s.updateSessionGauges()
}

// ensureEngine returns the session's warm engine, rebuilding it from
// the spec and current sizes when evicted. The boolean reports a
// transparent rebuild (surfaced to the client as `rebuilt`). Callers
// hold the session mutex.
func (s *Server) ensureEngine(ss *session) (*ssta.Hier, bool, error) {
	s.sessMu.Lock()
	eng := ss.eng
	s.sessMu.Unlock()
	if eng != nil {
		return eng, false, nil
	}
	// Rebuild outside both locks: the engine contract makes the fresh
	// engine at the session's current sizes bit-identical to the
	// evicted one, so the eviction is transparent to the client.
	js := ss.spec.jobSpec()
	m, err := buildModel(&js)
	if err != nil {
		return nil, false, fmt.Errorf("service: session %s rebuild: %w", ss.id, err)
	}
	sizes := ss.sizes
	if sizes == nil {
		sizes = m.UnitSizes()
	}
	eng = ssta.NewHier(m, sizes, ssta.HierOptions{})
	bytes := eng.MemoryBytes()

	s.sessMu.Lock()
	ss.eng = eng
	ss.bytes = bytes
	ss.gates = m.G.C.NumGates()
	if ss.sizes == nil {
		ss.sizes = append([]float64(nil), eng.Sizes()...)
	}
	rebuilt := ss.built || ss.recovered
	ss.built = true
	if rebuilt {
		ss.rebuilds++
	}
	s.warmBytes += bytes
	s.sessLRU = append(s.sessLRU, ss)
	s.evictOverBudgetLocked(ss)
	s.updateSessionGauges()
	s.sessMu.Unlock()
	if rebuilt {
		s.metrics.Count("service.sessions.rebuilt", 1)
	}
	return eng, rebuilt, nil
}

// resolveNudges validates a nudge batch against the engine's circuit:
// every key must name a gate and every size must be finite and
// positive (the engine itself panics on non-finite sizes — the guard
// at its API boundary — so the service rejects them with a 400 here,
// before they reach the PATCH path). Sizes outside the model's
// [1, limit] are accepted on purpose: a what-if session explores
// sizings the solver's bounds would not reach, and the engine times
// any positive finite size exactly. The batch returns in sorted gate
// order, making the application order deterministic.
func resolveNudges(eng *ssta.Hier, sizes map[string]float64) ([]nudge, error) {
	if len(sizes) == 0 {
		return nil, errors.New("service: empty sizes map")
	}
	c := eng.Model().G.C
	out := make([]nudge, 0, len(sizes))
	for name, v := range sizes {
		id, ok := c.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("service: unknown gate %q", name)
		}
		if c.Nodes[id].Kind != netlist.KindGate {
			return nil, fmt.Errorf("service: node %q is not a gate", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return nil, fmt.Errorf("service: gate %q size %v is not a positive finite speed factor", name, v)
		}
		out = append(out, nudge{name: name, id: id, s: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, nil
}

// finiteMoments reports whether both circuit delay moments are finite.
func finiteMoments(mv stats.MV) bool {
	return !math.IsNaN(mv.Mu) && !math.IsInf(mv.Mu, 0) && !math.IsNaN(mv.Var) && !math.IsInf(mv.Var, 0)
}

// nudge is one validated (gate, size) pair of a PATCH batch.
type nudge struct {
	name string
	id   netlist.NodeID
	s    float64
}

// Moments is a rendered (mu, sigma) pair of the circuit delay.
type Moments struct {
	Mu    float64 `json:"mu"`
	Sigma float64 `json:"sigma"`
}

// NudgeReply answers a PATCH /sizes: the new circuit delay after the
// batch, plus the rebuild marker.
type NudgeReply struct {
	ID      string `json:"id"`
	Applied int    `json:"applied"`
	Rebuilt bool   `json:"rebuilt"`
	Moments
}

// SessionNudge applies a batch of size nudges to the session's warm
// engine — O(dirty cone) per batch, not O(V) — and returns the new
// circuit delay. The whole batch is atomic under the per-session
// queue. A batch that leaves the circuit delay non-finite (a finite
// but vanishing size makes a gate's delay overflow) is undone and
// rejected: the gates take their previous sizes back in the engine
// and the session, and since the engine state is a pure function of
// the sizes, the next Update restores it bit for bit.
func (s *Server) SessionNudge(id string, sizes map[string]float64) (NudgeReply, error) {
	ss, err := s.lookupSession(id)
	if err != nil {
		return NudgeReply{}, err
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	eng, rebuilt, err := s.ensureEngine(ss)
	if err != nil {
		return NudgeReply{}, err
	}
	batch, err := resolveNudges(eng, sizes)
	if err != nil {
		return NudgeReply{}, err
	}
	prev := make([]float64, len(batch))
	for i, n := range batch {
		prev[i] = eng.Sizes()[n.id]
		eng.SetSize(n.id, n.s)
		ss.sizes[n.id] = n.s
	}
	tmax := eng.Update()
	if !finiteMoments(tmax) {
		for i, n := range batch {
			eng.SetSize(n.id, prev[i])
			ss.sizes[n.id] = prev[i]
		}
		eng.Update()
		return NudgeReply{}, fmt.Errorf("service: nudge batch leaves the circuit delay non-finite (mu %v, var %v); sizes restored", tmax.Mu, tmax.Var)
	}
	s.metrics.Count("service.sessions.nudges", int64(len(batch)))
	return NudgeReply{
		ID: ss.id, Applied: len(batch), Rebuilt: rebuilt,
		Moments: Moments{Mu: tmax.Mu, Sigma: tmax.Sigma()},
	}, nil
}

// WhatIfReply answers a what-if probe: the base and trial circuit
// delays and their difference. Session state is untouched.
type WhatIfReply struct {
	ID         string  `json:"id"`
	Rebuilt    bool    `json:"rebuilt"`
	Base       Moments `json:"base"`
	Trial      Moments `json:"trial"`
	DeltaMu    float64 `json:"delta_mu"`
	DeltaSigma float64 `json:"delta_sigma"`
}

// SessionWhatIf evaluates a trial nudge batch under Trial/Rollback:
// the engine — and the session — are bitwise unchanged afterwards.
func (s *Server) SessionWhatIf(id string, sizes map[string]float64) (WhatIfReply, error) {
	ss, err := s.lookupSession(id)
	if err != nil {
		return WhatIfReply{}, err
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	eng, rebuilt, err := s.ensureEngine(ss)
	if err != nil {
		return WhatIfReply{}, err
	}
	batch, err := resolveNudges(eng, sizes)
	if err != nil {
		return WhatIfReply{}, err
	}
	base := eng.Update()
	eng.Trial()
	for _, n := range batch {
		eng.SetSize(n.id, n.s)
	}
	trial := eng.Update()
	eng.Rollback()
	if !finiteMoments(trial) {
		return WhatIfReply{}, fmt.Errorf("service: what-if batch leaves the circuit delay non-finite (mu %v, var %v)", trial.Mu, trial.Var)
	}
	s.metrics.Count("service.sessions.whatifs", 1)
	return WhatIfReply{
		ID: ss.id, Rebuilt: rebuilt,
		Base:       Moments{Mu: base.Mu, Sigma: base.Sigma()},
		Trial:      Moments{Mu: trial.Mu, Sigma: trial.Sigma()},
		DeltaMu:    trial.Mu - base.Mu,
		DeltaSigma: trial.Sigma() - base.Sigma(),
	}, nil
}

// OutputTiming is one primary output's arrival moments.
type OutputTiming struct {
	Name  string  `json:"name"`
	Mu    float64 `json:"mu"`
	Sigma float64 `json:"sigma"`
}

// GateTiming is one gate's criticality and sensitivity row.
type GateTiming struct {
	Gate string `json:"gate"`
	// Criticality is d muTmax / d mu_t — the statistical critical-path
	// membership weight in [0, 1].
	Criticality float64 `json:"criticality"`
	// Sensitivity is d(mu + k*sigma)/dS — the gradient the sizing loop
	// ranks moves by.
	Sensitivity float64 `json:"sensitivity"`
	Size        float64 `json:"size"`
}

// TimingReply answers a timing query from the warm engine.
type TimingReply struct {
	ID      string  `json:"id"`
	Rebuilt bool    `json:"rebuilt"`
	K       float64 `json:"k"`
	Moments
	// Phi is mu + k*sigma of the circuit delay.
	Phi float64 `json:"phi"`
	// Outputs lists every primary output's arrival moments.
	Outputs []OutputTiming `json:"outputs"`
	// Critical lists the top gates by criticality (all gates when the
	// query asks top=0), ties broken by gate name ascending (the order
	// of ssta.TopCritical).
	Critical []GateTiming `json:"critical"`
}

// SessionTiming reads the session's current timing view: circuit
// delay moments, per-output arrivals, and per-gate criticality plus
// mu+k*sigma sensitivities — all from the warm tape, no fresh sweep.
// k == 0 selects the session's default risk factor; top bounds the
// Critical list (<= 0 returns every gate), ranked by criticality
// descending with ties by gate name ascending. The cost is two O(V)
// adjoints plus an O(V log top) ranking, with O(top) allocation.
func (s *Server) SessionTiming(id string, k float64, top int) (TimingReply, error) {
	if k == 0 {
		return s.sessionTiming(id, nil, top)
	}
	return s.sessionTiming(id, &k, top)
}

// sessionTiming is SessionTiming with the risk factor passed as
// present or absent (nil selects the session default), so an explicit
// k = 0 — mean-only timing — is distinguishable from an omitted one.
func (s *Server) sessionTiming(id string, kq *float64, top int) (TimingReply, error) {
	if kq != nil && (math.IsNaN(*kq) || math.IsInf(*kq, 0)) {
		return TimingReply{}, fmt.Errorf("service: risk factor k=%v is not finite", *kq)
	}
	ss, err := s.lookupSession(id)
	if err != nil {
		return TimingReply{}, err
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	eng, rebuilt, err := s.ensureEngine(ss)
	if err != nil {
		return TimingReply{}, err
	}
	k := ss.spec.K
	if k == 0 {
		k = 3
	}
	if kq != nil {
		k = *kq
	}
	tmax := eng.Update()
	c := eng.Model().G.C
	crit := eng.Criticality()
	ids := ssta.TopCritical(c, crit, top)
	rows := make([]GateTiming, len(ids))
	sizes := eng.Sizes()
	for i, g := range ids {
		rows[i] = GateTiming{Gate: c.Nodes[g].Name, Criticality: crit[g], Size: sizes[g]}
	}
	// crit is engine-owned scratch; the adjoint pass below overwrites
	// it, so the criticalities were copied into rows first. No pass
	// clears a slab: each leaves it all zero for the next, so running
	// criticality first changes no bit of phi or the gradient.
	phi, grad := eng.GradMuPlusKSigma(k)
	for i, g := range ids {
		rows[i].Sensitivity = grad[g]
	}
	outs := make([]OutputTiming, 0, len(c.Outputs))
	for _, o := range c.Outputs {
		arr := eng.Arrival(o)
		outs = append(outs, OutputTiming{Name: c.Nodes[o].Name, Mu: arr.Mu, Sigma: arr.Sigma()})
	}
	s.metrics.Count("service.sessions.timing", 1)
	return TimingReply{
		ID: ss.id, Rebuilt: rebuilt, K: k,
		Moments:  Moments{Mu: tmax.Mu, Sigma: tmax.Sigma()},
		Phi:      phi,
		Outputs:  outs,
		Critical: rows,
	}, nil
}
