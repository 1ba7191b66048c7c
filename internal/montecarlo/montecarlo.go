// Package montecarlo implements sampling-based statistical timing
// analysis: per-sample gate delays are drawn from their distributions
// and propagated with deterministic max/add. This is the approach of
// the paper's reference [9] (Jyu), which the paper dismisses for
// optimization inner loops as too slow — a claim quantified by the
// ablation benchmarks — but which serves here as the ground-truth
// validator for the analytic operators: Monte Carlo makes no
// independence assumption across reconvergent paths, so the gap
// between its estimate and the analytic sweep bounds the error the
// paper accepts in section 3.
package montecarlo

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/delay"
	"repro/internal/dist"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Options configures a Monte Carlo run.
type Options struct {
	// Samples is the number of circuit delay samples to draw.
	Samples int
	// Seed seeds the generator; equal options reproduce runs exactly.
	Seed int64
	// KeepSamples retains the per-sample circuit delays (sorted) in
	// the result for quantile and KS computations.
	KeepSamples bool
	// Workers sets how many goroutines draw samples: <= 0 uses one
	// per CPU. The sample loop is sharded into fixed-size blocks with
	// substream generators derived from Seed, so the result is
	// bit-identical for every worker count.
	Workers int
	// Recorder, when non-nil, receives aggregate run telemetry: the
	// "mc.run" span, one "mc.shard" span per sample block (count and
	// busy time, exposing shard balance), the sample counter and the
	// shard-grid gauge. A nil Recorder costs one branch.
	Recorder telemetry.Recorder
}

// Result summarizes a Monte Carlo timing run.
type Result struct {
	// Mu and Sigma are the sample moments of the circuit delay; Sigma
	// uses the unbiased sample (Bessel, N-1) divisor and is 0 for a
	// single sample.
	Mu, Sigma float64
	// Samples holds the sorted circuit delays if requested.
	Samples []float64
}

// shardSamples is the fixed number of samples per shard. The shard
// grid depends only on Options.Samples — never on the worker count —
// so every worker count draws the identical sample set.
const shardSamples = 4096

// shardSeed derives shard i's substream seed from the run seed with a
// splitmix64-style finalizer, giving well-separated streams for
// adjacent shard indices.
func shardSeed(seed int64, shard int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(shard+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// shardMoments holds one shard's Welford accumulators.
type shardMoments struct {
	n        int
	mean, m2 float64
	keep     []float64
}

// Run samples the circuit delay distribution of model m under speed
// factors S. The sample loop is sharded: each fixed-size block of
// samples is drawn from its own substream generator and the per-shard
// Welford moments are merged with Chan's pairwise combination in shard
// order, so the result depends only on (Samples, Seed), not on
// Options.Workers.
func Run(m *delay.Model, S []float64, opt Options) (*Result, error) {
	return RunCtx(context.Background(), m, S, opt)
}

// RunCtx is Run under a cancellation context. Cancellation is polled
// at shard boundaries only — a worker always finishes the shard it is
// drawing — so every worker goroutine joins the barrier and none can
// leak. A cancelled run returns (nil, ctx.Err()) and no partial
// moments; an uncancelled run is bit-identical to Run for every
// worker count.
func RunCtx(ctx context.Context, m *delay.Model, S []float64, opt Options) (*Result, error) {
	if opt.Samples < 1 {
		return nil, fmt.Errorf("montecarlo: need at least 1 sample, got %d", opt.Samples)
	}
	done := ctx.Done()
	g := m.G
	n := len(g.C.Nodes)

	// Pre-compute per-gate delay distributions once; they do not vary
	// across samples.
	gateMu := make([]float64, n)
	gateSigma := make([]float64, n)
	for _, id := range g.C.GateIDs() {
		mv := m.GateMV(id, S)
		gateMu[id] = mv.Mu
		gateSigma[id] = mv.Sigma()
	}

	rec := opt.Recorder
	tRun := telemetry.StartSpan(rec)
	nShards := (opt.Samples + shardSamples - 1) / shardSamples
	shards := make([]shardMoments, nShards)
	// runShard draws shard i's block of samples into shards[i] using
	// the caller's per-worker scratch slabs. With a recorder attached
	// each block's busy time folds into the "mc.shard" span (workers
	// record concurrently; the metrics cells are atomic) and into the
	// worker's own scope stack under the mc.run tree node.
	runShard := func(sc *mcScratch, st *telemetry.Stack, i int) {
		t0 := telemetry.StartSpan(rec)
		defer telemetry.EndSpan(rec, "mc.shard", t0)
		st.Push("mc.shard")
		defer st.Pop()
		rng := rand.New(rand.NewSource(shardSeed(opt.Seed, i)))
		count := min(shardSamples, opt.Samples-i*shardSamples)
		sm := &shards[i]
		sm.n = count
		if opt.KeepSamples {
			sm.keep = make([]float64, 0, count)
		}
		runShardLanes(m, gateMu, gateSigma, opt, sc, count, sm, rng)
	}

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > nShards {
		workers = nShards
	}
	if workers == 1 {
		sc := newMCScratch(n)
		st := telemetry.StackAt(rec, "mc.run")
		for i := range shards {
			if cancelled(done) {
				return nil, ctx.Err()
			}
			runShard(sc, st, i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sc := newMCScratch(n)
				st := telemetry.StackAt(rec, "mc.run")
				for {
					if cancelled(done) {
						return
					}
					i := int(next.Add(1)) - 1
					if i >= nShards {
						return
					}
					runShard(sc, st, i)
				}
			}()
		}
		wg.Wait()
		if cancelled(done) {
			return nil, ctx.Err()
		}
	}

	// Merge the per-shard moments with Chan's pairwise combination,
	// folding in fixed shard order so the merge itself is
	// deterministic.
	var (
		tot      int
		mean, m2 float64
	)
	for i := range shards {
		sm := &shards[i]
		if tot == 0 {
			tot, mean, m2 = sm.n, sm.mean, sm.m2
			continue
		}
		na, nb := float64(tot), float64(sm.n)
		delta := sm.mean - mean
		tot += sm.n
		nt := float64(tot)
		mean += delta * nb / nt
		m2 += sm.m2 + delta*delta*na*nb/nt
	}
	sigma := 0.0
	if tot > 1 {
		// Sample (Bessel) divisor: unbiased variance estimate for
		// small-sample comparison against the analytic sigma.
		sigma = sqrt(m2 / float64(tot-1))
	}
	if rec != nil {
		rec.Count("mc.samples", int64(opt.Samples))
		rec.Gauge("mc.shards", float64(nShards))
		rec.Gauge("mc.lanes", laneWidth)
		telemetry.EndSpan(rec, "mc.run", tRun)
	}
	r := &Result{Mu: mean, Sigma: sigma}
	if opt.KeepSamples {
		keep := make([]float64, 0, opt.Samples)
		for i := range shards {
			keep = append(keep, shards[i].keep...)
		}
		sort.Float64s(keep)
		r.Samples = keep
	}
	return r, nil
}

// cancelled polls a context's done channel without blocking.
func cancelled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// Yield returns the fraction of samples meeting the deadline. The
// result must have been produced with KeepSamples set; an empty
// sample set has no defined yield and returns NaN.
func (r *Result) Yield(deadline float64) float64 {
	if r.Samples == nil {
		panic("montecarlo: Yield requires KeepSamples")
	}
	if len(r.Samples) == 0 {
		return math.NaN()
	}
	// First index with sample > deadline.
	i := sort.SearchFloat64s(r.Samples, deadline)
	// SearchFloat64s returns the first index with s >= deadline;
	// samples equal to the deadline meet it, so advance over ties.
	for i < len(r.Samples) && r.Samples[i] == deadline {
		i++
	}
	return float64(i) / float64(len(r.Samples))
}

// Quantile returns the empirical p-quantile of the sampled delays
// using the nearest-rank convention: the smallest sample x such that
// at least ceil(p*n) of the n samples are <= x, i.e.
// Samples[ceil(p*n)-1]. This makes Quantile the inverse of Yield at
// the boundaries: Yield(Quantile(p)) >= p for every p in (0, 1].
// p <= 0 returns the minimum sample, p >= 1 the maximum. An empty
// sample set has no quantiles, and a NaN p selects none: both return
// NaN instead of panicking on an impossible rank (guarding callers
// that filtered every sample away before asking).
func (r *Result) Quantile(p float64) float64 {
	if r.Samples == nil {
		panic("montecarlo: Quantile requires KeepSamples")
	}
	n := len(r.Samples)
	if n == 0 || math.IsNaN(p) {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return r.Samples[i]
}

// KSAgainst returns the Kolmogorov-Smirnov distance between the
// sampled delays and the normal law with the given moments, the
// module's measure of "how Gaussian" the true circuit delay is
// (paper section 3 argues the normal approximation is adequate).
func (r *Result) KSAgainst(mv stats.MV) float64 {
	if r.Samples == nil {
		panic("montecarlo: KSAgainst requires KeepSamples")
	}
	return dist.KSNormal(r.Samples, mv.Normal())
}

// Compare holds the analytic-vs-Monte-Carlo moment gap for a circuit.
type Compare struct {
	Analytic stats.MV
	MC       Result
	// MuErr and SigmaErr are |analytic - MC| for mean and sigma.
	MuErr, SigmaErr float64
}

// CompareAnalytic runs Monte Carlo and reports the gap to the analytic
// moments computed by the caller (typically ssta.Analyze(...).Tmax).
func CompareAnalytic(m *delay.Model, S []float64, analytic stats.MV, opt Options) (*Compare, error) {
	return CompareAnalyticCtx(context.Background(), m, S, analytic, opt)
}

// CompareAnalyticCtx is CompareAnalytic under a cancellation context;
// a cancelled run returns (nil, ctx.Err()).
func CompareAnalyticCtx(ctx context.Context, m *delay.Model, S []float64, analytic stats.MV, opt Options) (*Compare, error) {
	r, err := RunCtx(ctx, m, S, opt)
	if err != nil {
		return nil, err
	}
	c := &Compare{Analytic: analytic, MC: *r}
	c.MuErr = abs(analytic.Mu - r.Mu)
	c.SigmaErr = abs(analytic.Sigma() - r.Sigma)
	return c, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// sqrt guards math.Sqrt so a tiny negative from Welford rounding
// cannot produce NaN.
func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
