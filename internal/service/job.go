package service

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/nlp"
	"repro/internal/sizing"
)

// JobSpec is the submit payload: a netlist plus a sizing specification,
// in the same textual syntax the statsize CLI accepts. Exactly one of
// Circuit (a built-in name) or Netlist (inline netlist text, with
// Format naming the dialect) selects the circuit.
type JobSpec struct {
	// ID optionally names the job. IDs are client-visible, must match
	// [A-Za-z0-9._-]{1,64}, and must be unique across the daemon's
	// lifetime (journal included); an empty ID gets a generated
	// job-<seq> name. Client-supplied IDs make retried submissions
	// idempotent: resubmitting an accepted ID returns 409.
	ID string `json:"id,omitempty"`
	// Circuit names a built-in circuit: tree7, fig2, apex1, apex2, k2.
	Circuit string `json:"circuit,omitempty"`
	// Netlist carries inline netlist text; Format selects the reader:
	// "ckt" (default), "blif" or "bench".
	Netlist string `json:"netlist,omitempty"`
	Format  string `json:"format,omitempty"`
	// Objective and Constraints use the statsize syntax: "mu",
	// "mu+3sigma", "area", "sigma", "-sigma"; "mu+3sigma<=120",
	// "mu=6.5".
	Objective   string   `json:"objective"`
	Constraints []string `json:"constraints,omitempty"`
	// Formulation is "reduced" (default) or "full"; Solver is "lbfgs"
	// (default) or "newton" (full-space only).
	Formulation string `json:"formulation,omitempty"`
	Solver      string `json:"solver,omitempty"`
	// SigmaK is the sigma model factor sigma_t = SigmaK*mu_t (default
	// 0.25); Limit the maximum speed factor (default 3).
	SigmaK float64 `json:"sigma_k,omitempty"`
	Limit  float64 `json:"limit,omitempty"`
	// Workers is accepted and ignored: every solve is serial. The
	// field stays on the wire so requests and journaled specs that set
	// it keep decoding under the strict JSON decoder.
	Workers int `json:"workers,omitempty"`
	// TimeoutMS caps the job's wall clock; 0 inherits the server
	// default. The server's JobTimeout, when set, clamps it.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// MaxOuter overrides the ALM outer-iteration budget (0 = solver
	// default).
	MaxOuter int `json:"max_outer,omitempty"`
	// Greedy routes the job through the TILOS-style sensitivity sizer
	// on the incremental SSTA engine instead of the NLP solver; it
	// needs a mu+Ksigma<= constraint.
	Greedy bool `json:"greedy,omitempty"`
}

// JobResult is the terminal payload of a job, journaled on completion
// and served by the result endpoint. Every field except RuntimeMS is
// deterministic: a recovered job's result is bit-identical to the
// uninterrupted run's (the chaos acceptance contract).
type JobResult struct {
	// S holds the optimized speed factors indexed by NodeID.
	S []float64 `json:"s"`
	// Mu, Sigma and Area are the circuit delay moments and the paper's
	// area measure at S.
	Mu    float64 `json:"mu"`
	Sigma float64 `json:"sigma"`
	Area  float64 `json:"area"`
	// Status is the solver status string ("converged", ...); "greedy"
	// for greedy jobs. StatusCode is the stable integer (int
	// nlp.Status; -1 for greedy).
	Status     string `json:"status"`
	StatusCode int    `json:"status_code"`
	// Outer/Inner/FuncEvals are the whole-solve counters (restored
	// across resumes, so a recovered job reports uninterrupted
	// totals); greedy jobs report Steps in Outer.
	Outer     int `json:"outer"`
	Inner     int `json:"inner,omitempty"`
	FuncEvals int `json:"func_evals,omitempty"`
	// Method is the inner method that produced the iterate (ladder
	// position included); Fallback marks a greedy-fallback sizing
	// after NumericalFailure; Met reports the greedy deadline check.
	Method   string `json:"method,omitempty"`
	Fallback bool   `json:"fallback,omitempty"`
	Met      bool   `json:"met,omitempty"`
	// Retries counts NumericalFailure retry attempts consumed;
	// Recovered marks a job resumed by a daemon restart.
	Retries   int  `json:"retries,omitempty"`
	Recovered bool `json:"recovered,omitempty"`
	// RuntimeMS is wall clock across all attempts in this process —
	// the only nondeterministic field.
	RuntimeMS int64 `json:"runtime_ms"`
}

// JobState is a job's position in the supervision state machine.
type JobState int

// Job states. Queued → Running → (RetryWait → Running)* → one of the
// terminal states Done/Failed/Cancelled. A drain or kill moves Running
// back to Queued (the journal still holds the acceptance, so the next
// start recovers the job).
const (
	JobQueued JobState = iota
	JobRunning
	JobRetryWait
	JobDone
	JobFailed
	JobCancelled
)

func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobRetryWait:
		return "retry-wait"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	case JobCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("JobState(%d)", int(s))
	}
}

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// JobStatus is the status-endpoint view of a job.
type JobStatus struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Recovered bool   `json:"recovered,omitempty"`
	Retries   int    `json:"retries,omitempty"`
	Stalls    int    `json:"stalls,omitempty"`
	Error     string `json:"error,omitempty"`
	Submitted string `json:"submitted,omitempty"`
	Started   string `json:"started,omitempty"`
	Finished  string `json:"finished,omitempty"`
	// Result carries the terminal result summary (present once the
	// job reaches a terminal state).
	Result *JobResult `json:"result,omitempty"`
}

// validID reports whether a client-supplied job ID is safe to use as a
// journal key and a checkpoint file name.
func validID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '-' || r == '_' || r == '.':
		default:
			return false
		}
	}
	// "." and ".." would escape the state directory.
	return strings.Trim(id, ".") != ""
}

// buildModel resolves the spec's circuit and binds the delay model.
// A limit below 1 or a sigma factor whose model yields a negative or
// NaN sigma is rejected here, at admission, rather than inside the
// job.
func buildModel(spec *JobSpec) (*delay.Model, error) {
	if spec.Limit != 0 && !(spec.Limit >= 1) {
		return nil, fmt.Errorf("limit %v is below 1", spec.Limit)
	}
	sigmaK := spec.SigmaK
	if sigmaK == 0 {
		sigmaK = 0.25
	}
	sigma := delay.Proportional{K: sigmaK}
	// The model is linear in the mean, so one unit of mean delay
	// exposes a bad factor.
	if err := delay.ValidateSigmaModel(sigma, 0, 1); err != nil {
		return nil, fmt.Errorf("sigma_k %v: %w", sigmaK, err)
	}
	var (
		circ *netlist.Circuit
		lib  *delay.Library
		err  error
	)
	switch {
	case spec.Circuit != "" && spec.Netlist != "":
		return nil, fmt.Errorf("spec has both circuit %q and an inline netlist", spec.Circuit)
	case spec.Circuit != "":
		circ, lib, err = builtinCircuit(spec.Circuit)
	case spec.Netlist != "":
		lib = delay.Default()
		r := strings.NewReader(spec.Netlist)
		switch spec.Format {
		case "", "ckt":
			circ, err = netlist.ReadCKT(r)
		case "blif":
			circ, err = netlist.ReadBLIF(r)
		case "bench":
			circ, err = netlist.ReadBench(r)
		default:
			return nil, fmt.Errorf("unknown netlist format %q", spec.Format)
		}
	default:
		return nil, fmt.Errorf("spec names no circuit")
	}
	if err != nil {
		return nil, err
	}
	g, err := netlist.Compile(circ)
	if err != nil {
		return nil, err
	}
	m, err := delay.Bind(g, lib)
	if err != nil {
		return nil, err
	}
	if spec.Limit != 0 {
		m.Limit = spec.Limit
	}
	m.Sigma = sigma
	return m, nil
}

// builtinCircuit resolves the built-in circuit names the CLIs accept.
func builtinCircuit(name string) (*netlist.Circuit, *delay.Library, error) {
	switch name {
	case "tree7":
		return netlist.Tree7(), delay.PaperTree(), nil
	case "fig2":
		return netlist.Fig2Example(), delay.Default(), nil
	case "apex1":
		return netlist.Apex1Like(), delay.Default(), nil
	case "apex2":
		return netlist.Apex2Like(), delay.Default(), nil
	case "k2":
		return netlist.K2Like(), delay.Default(), nil
	default:
		return nil, nil, fmt.Errorf("unknown built-in circuit %q", name)
	}
}

// sizingSpec lowers the JSON job spec onto a sizing.Spec (recorder,
// checkpointing and fault seams are attached by the supervisor).
func sizingSpec(spec *JobSpec) (sizing.Spec, error) {
	var sp sizing.Spec
	obj, err := sizing.ParseObjective(spec.Objective)
	if err != nil {
		return sp, err
	}
	sp.Objective = obj
	for _, c := range spec.Constraints {
		con, err := sizing.ParseConstraint(c)
		if err != nil {
			return sp, err
		}
		sp.Constraints = append(sp.Constraints, con)
	}
	switch spec.Formulation {
	case "", "reduced":
		sp.Formulation = sizing.Reduced
	case "full":
		sp.Formulation = sizing.FullSpace
	default:
		return sp, fmt.Errorf("unknown formulation %q", spec.Formulation)
	}
	switch spec.Solver {
	case "", "lbfgs":
		sp.Solver.Method = nlp.LBFGS
	case "newton":
		sp.Solver.Method = nlp.NewtonCG
	default:
		return sp, fmt.Errorf("unknown solver %q", spec.Solver)
	}
	sp.Solver.MaxOuter = spec.MaxOuter
	if spec.Greedy {
		// Validate the deadline requirement at admission, not at run
		// time: GreedyFromSpec needs a mu+Ksigma<= constraint.
		if _, ok := sizing.GreedyFromSpec(sp); !ok {
			return sp, fmt.Errorf("greedy jobs need a mu+Ksigma<= deadline constraint")
		}
	}
	return sp, nil
}

// job is the in-memory supervision record of one accepted solve.
// Mutable fields are guarded by the server mutex; the running solve
// only touches them through the server's state helpers.
type job struct {
	id   string
	seq  int
	spec JobSpec

	state     JobState
	recovered bool // resumed from a previous process's journal
	attempt   int  // solve attempts in this process (retries + 1 once running)
	retries   int  // NumericalFailure retries consumed
	stalls    int  // watchdog stall episodes
	errMsg    string

	cancel    func() // non-nil while running; user/stall cancellation
	pace      *pacer // the running job's own pacer (nil when unpaced)
	cancelled bool   // the cancel endpoint fired (vs drain/kill)

	submitted, started, finished time.Time

	result *JobResult
	hub    *eventHub
}

// status renders the mutex-guarded view; callers hold the server lock.
func (j *job) status() JobStatus {
	st := JobStatus{
		ID:        j.id,
		State:     j.state.String(),
		Recovered: j.recovered,
		Retries:   j.retries,
		Stalls:    j.stalls,
		Error:     j.errMsg,
		Result:    j.result,
	}
	if !j.submitted.IsZero() {
		st.Submitted = j.submitted.UTC().Format(time.RFC3339Nano)
	}
	if !j.started.IsZero() {
		st.Started = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		st.Finished = j.finished.UTC().Format(time.RFC3339Nano)
	}
	return st
}
