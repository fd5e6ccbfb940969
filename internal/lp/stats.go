package lp

// Engine observability for the revised simplex: every time the sparse LU
// engine declines a solve and hands it to the dense tableau authority, the
// reason is recorded as a typed BasisDriftError, counted, and offered to an
// optional debug hook. PR 4's fixed-interval reinversion could silently eat
// accuracy between rebuilds; the LU engine instead measures its drift every
// pivot, and this file makes the resulting decisions visible — up to the
// hslbd /statz endpoint (internal/serve reads EngineStats into its
// snapshot).

import (
	"fmt"
	"sync/atomic"
)

// BasisDriftError describes why the revised engine abandoned a solve and
// fell back to the dense tableau path. Stage names the fallback rung;
// Residual is the measured quantity that tripped it (meaning depends on the
// stage: relative reduced-cost drift, phase-1 residual, bound violation, or
// 0 for structural declines like a singular factorization).
type BasisDriftError struct {
	Stage    string  // "factor-singular", "drift", "phase1", "iterlimit", "sanity", "unbounded-doubt"
	Residual float64 // the measured residual behind the verdict (0 if structural)
}

func (e *BasisDriftError) Error() string {
	return fmt.Sprintf("lp: revised engine fallback at %s (residual %g)", e.Stage, e.Residual)
}

// Process-global engine counters. Monotonic; cheap enough to maintain
// unconditionally. They are aggregates across every Problem in the process
// (the serve layer runs one process per shard, so per-process is the useful
// granularity).
var (
	engFallbacks atomic.Int64 // solves declined to the dense tableau, any stage
	engDrifts    atomic.Int64 // drift-check trips (each forces a refactorization)
	engRefactors atomic.Int64 // LU refactorizations, scheduled or forced
	engUpdates   atomic.Int64 // successful Forrest–Tomlin updates

	crashInstalls atomic.Int64 // crash bases installed and verified (phase 1 skipped)
	crashDeclines atomic.Int64 // crash hints declined (infeasible point, singular basis…)
)

// EngineStats is a snapshot of the revised engine's global counters.
// Solves mirrors the route counter maintained by solveColdAuto.
type EngineStats struct {
	Solves    int64 // cold solves answered by the revised engine
	Fallbacks int64 // solves declined to the dense tableau
	Drifts    int64 // incremental-pricing drift trips
	Refactors int64 // LU refactorizations
	Updates   int64 // Forrest–Tomlin updates applied

	CrashInstalls int64 // crash bases installed and verified (phase 1 skipped)
	CrashDeclines int64 // crash hints declined (solve proceeded cold)
}

// ReadEngineStats returns the current revised-engine counters.
func ReadEngineStats() EngineStats {
	return EngineStats{
		Solves:    revisedSolves.Load(),
		Fallbacks: engFallbacks.Load(),
		Drifts:    engDrifts.Load(),
		Refactors: engRefactors.Load(),
		Updates:   engUpdates.Load(),

		CrashInstalls: crashInstalls.Load(),
		CrashDeclines: crashDeclines.Load(),
	}
}

// debugFallback observes every revised-engine fallback. Testing aid; the
// fallback itself always happens — the hook only watches.
var debugFallback func(*BasisDriftError)

// SetFallbackDebug installs an observer for revised-engine fallbacks (nil
// disables). The hook runs synchronously on the solving goroutine.
func SetFallbackDebug(f func(*BasisDriftError)) { debugFallback = f }

// engineFallback records one decline: counter, then hook.
func engineFallback(stage string, residual float64) {
	engFallbacks.Add(1)
	if f := debugFallback; f != nil {
		f(&BasisDriftError{Stage: stage, Residual: residual})
	}
}
