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
// rejected, bounded, tableHits, degraded — increment once per request, in
// the handler, even when many requests share one flight. Counters
// describing *solver work* — solves, solveErrors, pivots, certified,
// certFallbacks, tableSolves, inFlight, sheds, shedErrors,
// peerChecks/Hits/Errors — increment once per flight-leader dispatch, no
// matter how many waiters observe the outcome.
type counters struct {
	requests    atomic.Int64 // solve-family requests admitted to decoding
	hits        atomic.Int64 // per-budget cache hits
	misses      atomic.Int64 // cache misses (triggered or joined a solve)
	collapsed   atomic.Int64 // requests that joined another request's in-flight solve
	solves      atomic.Int64 // solver invocations actually run (incl. table verification)
	rejected    atomic.Int64 // requests bounced by admission control
	canceled    atomic.Int64 // requests whose client went away first
	solveErrors atomic.Int64 // solver dispatches that ended in an error
	bounded     atomic.Int64 // responses serving a deadline-bounded incumbent
	pivots      atomic.Int64 // total simplex pivots across all solves
	inFlight    atomic.Int64 // solves currently running (gauge)

	// The min-max /v1/solve route (see dispatch), table verification
	// included.
	certified     atomic.Int64 // solves answered by the parametric optimum and its certificate
	certFallbacks atomic.Int64 // solves whose certificate failed and so ran the MINLP

	// Parametric breakpoint tables (see table.go).
	tableHits      atomic.Int64 // requests answered from a verified table bracket
	tableSolves    atomic.Int64 // extra solves spent verifying bracket endpoints
	tableConflicts atomic.Int64 // endpoint verifications that contradicted the analytic bracket

	// Load shedding (tier-1 pressure response; see runSolve/tryShed).
	sheds      atomic.Int64 // flights downgraded to the parametric heuristic
	shedErrors atomic.Int64 // shed attempts whose heuristic solve itself failed
	degraded   atomic.Int64 // requests answered with a degraded (shed) solution

	// Peer cache-fill (fleet mode; see peerFill/handlePeerFill).
	peerChecks atomic.Int64 // peer probes issued by flight leaders
	peerHits   atomic.Int64 // probes that returned a usable cached solution
	peerErrors atomic.Int64 // probes that failed (transport, engine mismatch, bad body)

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
	CacheShards int64 `json:"cacheShards"` // stripe count of the solution cache

	Certified     int64 `json:"certified"`
	CertFallbacks int64 `json:"certFallbacks"`

	TableHits      int64 `json:"tableHits"`
	TableSolves    int64 `json:"tableSolves"`
	TableConflicts int64 `json:"tableConflicts"`
	TableFamilies  int64 `json:"tableFamilies"` // families holding a table
	TableSegments  int64 `json:"tableSegments"` // verified brackets across all families

	// Load shedding and fleet peer cache-fill.
	Sheds           int64 `json:"sheds"`
	ShedErrors      int64 `json:"shedErrors"`
	Degraded        int64 `json:"degraded"`
	PeerChecks      int64 `json:"peerChecks"`
	PeerHits        int64 `json:"peerHits"`
	PeerErrors      int64 `json:"peerErrors"`
	SnapshotLoaded  int64 `json:"snapshotLoaded"`
	SnapshotDropped int64 `json:"snapshotDropped"`

	// Revised-simplex engine health (process-global, from lp.ReadEngineStats):
	// how often the sparse LU engine answered cold solves itself versus
	// declining to the dense tableau authority, and how hard the basis
	// representation worked (Forrest–Tomlin updates vs refactorizations,
	// drift-check trips). A fallback or drift rate creeping up is the first
	// outward sign of a numerically hostile instance family.
	EngineSolves    int64 `json:"engineSolves"`
	EngineFallbacks int64 `json:"engineFallbacks"`
	EngineDrifts    int64 `json:"engineDrifts"`
	EngineRefactors int64 `json:"engineRefactors"`
	EngineUpdates   int64 `json:"engineUpdates"`

	// Crash bases. Installs vs declines is the crash hit rate: declines
	// rising means the heuristic points stopped rounding to feasible
	// vertices and solves silently went cold.
	EngineCrashInstalls int64 `json:"engineCrashInstalls"`
	EngineCrashDeclines int64 `json:"engineCrashDeclines"`
}

func (c *counters) snapshot(cacheLen, cacheShards, tableFamilies, tableSegments int) Stats {
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
		CacheShards: int64(cacheShards),

		Certified:     c.certified.Load(),
		CertFallbacks: c.certFallbacks.Load(),

		TableHits:      c.tableHits.Load(),
		TableSolves:    c.tableSolves.Load(),
		TableConflicts: c.tableConflicts.Load(),
		TableFamilies:  int64(tableFamilies),
		TableSegments:  int64(tableSegments),

		Sheds:           c.sheds.Load(),
		ShedErrors:      c.shedErrors.Load(),
		Degraded:        c.degraded.Load(),
		PeerChecks:      c.peerChecks.Load(),
		PeerHits:        c.peerHits.Load(),
		PeerErrors:      c.peerErrors.Load(),
		SnapshotLoaded:  c.snapshotLoaded.Load(),
		SnapshotDropped: c.snapshotDropped.Load(),

		EngineSolves:    eng.Solves,
		EngineFallbacks: eng.Fallbacks,
		EngineDrifts:    eng.Drifts,
		EngineRefactors: eng.Refactors,
		EngineUpdates:   eng.Updates,

		EngineCrashInstalls: eng.CrashInstalls,
		EngineCrashDeclines: eng.CrashDeclines,
	}
}
