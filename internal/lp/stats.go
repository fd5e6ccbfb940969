package lp

// Crash-basis observability: every crash hint an Incremental solve installs
// or declines is counted in a process-global counter, read by the hslbd
// /statz endpoint (internal/serve reads EngineStats into its snapshot).

import "sync/atomic"

// Process-global crash counters. Monotonic; cheap enough to maintain
// unconditionally. They are aggregates across every Problem in the process.
var (
	crashInstalls atomic.Int64 // crash bases installed and verified (phase 1 skipped)
	crashDeclines atomic.Int64 // crash hints declined (infeasible point, singular basis…)
)

// EngineStats is a snapshot of the LP layer's global crash counters.
type EngineStats struct {
	CrashInstalls int64 // crash bases installed and verified (phase 1 skipped)
	CrashDeclines int64 // crash hints declined (solve proceeded cold)
}

// ReadEngineStats returns the current crash counters.
func ReadEngineStats() EngineStats {
	return EngineStats{
		CrashInstalls: crashInstalls.Load(),
		CrashDeclines: crashDeclines.Load(),
	}
}
