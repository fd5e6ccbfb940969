package serve

import (
	"sync/atomic"

	"repro/internal/lp"
)

// counters are the service's expvar-style monitoring counters, exported as
// JSON by /v1/statz. All fields are monotonically increasing except
// inFlight (a gauge).
//
// Counting discipline (pinned by TestSingleflightCounterAudit): counters
// describing *requests* — requests, hits, misses, collapsed, canceled,
// rejected, bounded — increment once per request, in the handler, even
// when many requests share one flight. Counters describing *solver work* —
// solves, solveErrors, pivots, certified, certFallbacks, inFlight —
// increment once per flight-leader dispatch, no matter how many waiters
// observe the outcome. A miss that is not collapsed costs exactly one
// solve (pinned by TestOneSolvePerMiss in cmd/hslbd).
type counters struct {
	requests    atomic.Int64 // solve-family requests admitted to decoding
	hits        atomic.Int64 // per-budget cache hits
	misses      atomic.Int64 // cache misses (triggered or joined a solve)
	collapsed   atomic.Int64 // requests that joined another request's in-flight solve
	solves      atomic.Int64 // solver invocations actually run
	rejected    atomic.Int64 // requests bounced by admission control
	canceled    atomic.Int64 // requests whose client went away first
	solveErrors atomic.Int64 // solver dispatches that ended in an error
	bounded     atomic.Int64 // responses serving a deadline-bounded incumbent
	pivots      atomic.Int64 // total simplex pivots across all solves
	inFlight    atomic.Int64 // solves currently running (gauge)

	// The min-max /v1/solve route (see dispatch).
	certified     atomic.Int64 // solves answered by the parametric optimum and its certificate
	certFallbacks atomic.Int64 // solves whose certificate failed and so ran the MINLP

	// Cache snapshot persistence (see snapshot.go).
	snapshotLoaded  atomic.Int64 // entries restored from the last snapshot load
	snapshotDropped atomic.Int64 // snapshot entries rejected by re-validation
}

// Stats is the JSON snapshot shape of the service counters.
type Stats struct {
	Requests    int64 `json:"requests"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Collapsed   int64 `json:"collapsed"`
	Solves      int64 `json:"solves"`
	Rejected    int64 `json:"rejected"`
	Canceled    int64 `json:"canceled"`
	SolveErrors int64 `json:"solveErrors"`
	Bounded     int64 `json:"bounded"`
	Pivots      int64 `json:"pivots"`
	InFlight    int64 `json:"inFlight"`
	CacheSize   int64 `json:"cacheSize"`

	Certified     int64 `json:"certified"`
	CertFallbacks int64 `json:"certFallbacks"`

	// Cache snapshots.
	SnapshotLoaded  int64 `json:"snapshotLoaded"`
	SnapshotDropped int64 `json:"snapshotDropped"`

	// Crash bases (process-global, from lp.ReadEngineStats). Installs vs
	// declines is the crash hit rate: declines rising means the heuristic
	// points stopped rounding to feasible vertices and solves silently
	// went cold.
	EngineCrashInstalls int64 `json:"engineCrashInstalls"`
	EngineCrashDeclines int64 `json:"engineCrashDeclines"`
}

func (c *counters) snapshot(cacheLen int) Stats {
	eng := lp.ReadEngineStats()
	return Stats{
		Requests:    c.requests.Load(),
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Collapsed:   c.collapsed.Load(),
		Solves:      c.solves.Load(),
		Rejected:    c.rejected.Load(),
		Canceled:    c.canceled.Load(),
		SolveErrors: c.solveErrors.Load(),
		Bounded:     c.bounded.Load(),
		Pivots:      c.pivots.Load(),
		InFlight:    c.inFlight.Load(),
		CacheSize:   int64(cacheLen),

		Certified:     c.certified.Load(),
		CertFallbacks: c.certFallbacks.Load(),

		SnapshotLoaded:  c.snapshotLoaded.Load(),
		SnapshotDropped: c.snapshotDropped.Load(),

		EngineCrashInstalls: eng.CrashInstalls,
		EngineCrashDeclines: eng.CrashDeclines,
	}
}
