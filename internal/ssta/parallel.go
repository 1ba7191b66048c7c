package ssta

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/delay"
)

// The parallel sweeps exploit the levelized structure of the circuit:
// all nodes of one level are mutually independent (every fanin edge
// crosses strictly upward in level), so a level can be processed by a
// worker pool behind a barrier. Determinism is by construction:
//
//   - Forward: each node's moments are a pure function of its fanins'
//     already-final moments, and every node owns its result slots, so
//     the scheduling order cannot change a single bit.
//   - Backward: workers only *compute* per-node adjoint contributions
//     into per-node scratch; the contributions are *applied* by the
//     coordinating goroutine in the fixed bucket order after the level
//     barrier, reproducing the serial accumulation order exactly.
//
// Both sweeps (forwardInto and backwardInto) are therefore
// bit-identical to their serial paths for any worker count.

// parallelMinNodes is the circuit size below which the parallel entry
// points fall back to the serial sweep: below a few hundred nodes the
// per-level synchronization costs more than the arithmetic it spreads.
const parallelMinNodes = 256

// minLevelParallel is the bucket size below which a level is processed
// inline by the coordinating goroutine instead of being fanned out.
const minLevelParallel = 32

// resolveWorkers maps the shared Workers convention onto a concrete
// count: <= 0 means one worker per CPU, anything else is taken as-is.
func resolveWorkers(workers int) int {
	if workers <= 0 {
		return runtime.NumCPU()
	}
	return workers
}

// runLevel executes fn(i) for every i in [0, n) on up to workers
// goroutines (the caller included) and returns only when all calls
// are done — the level barrier. Work is handed out as contiguous
// chunks; fn must write only to slots owned by item i.
func runLevel(workers, n int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < minLevelParallel {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := chunk; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	for i := 0; i < chunk; i++ {
		fn(i)
	}
	wg.Wait()
}

// AnalyzeWorkers is the uncancellable AnalyzeCtx at the given worker
// count.
func AnalyzeWorkers(m *delay.Model, S []float64, withTape bool, workers int) *Result {
	r, _ := AnalyzeCtx(context.Background(), m, S, withTape, SweepOptions{Workers: workers})
	return r
}

// GradMuPlusKSigmaWorkers returns phi = mu + k*sigma of the circuit
// delay and d phi/d S: one taped forward sweep plus one adjoint sweep
// at the given worker count.
func GradMuPlusKSigmaWorkers(m *delay.Model, S []float64, k float64, workers int) (float64, []float64) {
	r := AnalyzeWorkers(m, S, true, workers)
	phi, sMu, sVar := ObjectiveMuPlusKSigma(r.Tmax, k)
	var sc adjointScratch
	return phi, r.backwardInto(nil, m, S, sMu, sVar, workers, &sc, nil)
}
