// Package serve is the long-running HTTP/JSON face of the HSLB solver: a
// cached, batching solve service layered on the library's
// SolveContext/RunPipelineContext APIs.
//
// Endpoints:
//
//	POST /v1/solve      — the automatic route (min-max: certified parametric
//	                      optimum, MINLP when the proof fails; otherwise the
//	                      MINLP with parametric fallback)
//	POST /v1/minlp      — the paper's MINLP route, no fallback
//	POST /v1/parametric — the specialized parametric solver
//	GET  /v1/healthz    — liveness
//	GET  /v1/statz      — expvar-style counters (hits, misses, collapsed, ...)
//
// Repeated-query serving is where static load balancing beats dynamic
// schemes: the same instance shapes recur, so the service canonicalizes
// each instance (stable task order, normalized constraint spelling,
// power-of-two scale normalization of the cache key) and answers most
// solves from a bounded LRU cache in sub-millisecond time. Concurrent
// identical requests collapse into one solve (singleflight), admission
// control bounds the number of solver invocations in flight, and
// per-request deadlines map onto the MINLP's graceful degradation
// (bounded incumbent + optimality gap instead of an error).
//
// Determinism contract: the service always solves the canonical instance
// with SolverOptions.Canonical set, so the Solution block of a response is
// a pure function of the canonical instance — byte-identical whether it
// was served from cache, joined an in-flight solve, or solved fresh, and
// independent of the task order the request arrived in. See DESIGN.md
// "Service architecture".
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	hslb "repro"
	"repro/internal/core"
	"repro/internal/fleet"
)

// ServerOptions tunes the service. The zero value is invalid — use
// DefaultOptions as the base — and every field is validated by New, which
// returns *OptionError at construction instead of failing at first request.
type ServerOptions struct {
	// CacheSize bounds the solution cache (entries). Must be positive
	// unless DisableCache is set.
	CacheSize int
	// CacheShards is the stripe count of the solution cache (rounded up to
	// a power of two; per-shard locks). 0 selects an automatic count from
	// GOMAXPROCS; 1 recovers the exact single-LRU eviction order. Must be
	// non-negative.
	CacheShards int
	// ShedCapacity enables the load-shedding tier: when admission control
	// would reject a solve (all slots busy, queue timeout expired), up to
	// this many concurrent requests are instead answered by the cheap
	// parametric heuristic solver and marked "degraded":true in meta —
	// tier 1 of the pressure response, with 429 as tier 2 once shed
	// capacity is also exhausted. 0 disables shedding (every admission
	// failure is a 429). Must be non-negative. Degraded answers are never
	// cached.
	ShedCapacity int
	// SelfID names this replica on the fleet's consistent-hash ring;
	// required when Peers is set, ignored otherwise. Every fleet member
	// (replicas and gateway) must use the same ID set and ring geometry.
	SelfID string
	// Peers lists the other replicas of the fleet for peer cache-fill: on
	// a cache miss the flight leader first asks the key's ring owners
	// (excluding itself) for their cached solution before spending a solve
	// slot, so replicas share solves instead of duplicating them. IDs must
	// be unique, non-empty, and distinct from SelfID.
	Peers []ReplicaSpec
	// PeerTimeout bounds each peer cache-fill probe; 0 means a 250ms
	// default. Must be non-negative. Probes are best-effort: any error or
	// timeout falls through to a normal solve.
	PeerTimeout time.Duration
	// SnapshotPath, when non-empty, is where LoadSnapshotFile/
	// SaveSnapshotFile persist the solution cache across restarts (used by
	// cmd/hslbd's -snapshot flag; the Server itself never touches the path
	// spontaneously).
	SnapshotPath string
	// TableCacheSize bounds the parametric breakpoint-table cache
	// (families). When positive, every proven-optimal min-max solve also
	// certifies the budget bracket on which its allocation is constant
	// (two extra verification solves per bracket), and later requests for
	// the same task family at any budget inside a certified bracket are
	// answered at cache-hit cost without solving. 0 disables tables; must
	// be non-negative.
	TableCacheSize int
	// DisableCache turns the solution cache off (every request solves);
	// the differential test harness uses this as its reference server.
	DisableCache bool
	// MaxInFlight bounds concurrently running solver invocations; must be
	// positive. Cache hits are not counted — they do not solve.
	MaxInFlight int
	// QueueTimeout is how long a request waits for a free solve slot
	// before being rejected with 429; 0 rejects immediately when
	// saturated. Must be non-negative.
	QueueTimeout time.Duration
	// BatchWindow delays each leader solve by this much so that bursts of
	// identical requests collapse into it (singleflight batching); 0
	// disables the delay. Must be non-negative.
	BatchWindow time.Duration
	// DefaultDeadline applies to requests that set no deadlineMs; 0 means
	// unlimited. Must be non-negative.
	DefaultDeadline time.Duration
	// MaxDeadline caps per-request deadlines (0 = uncapped). Must be
	// non-negative.
	MaxDeadline time.Duration
	// MaxTasks / MaxTotalNodes / MaxBodyBytes reject oversized requests
	// at the door. All must be positive.
	MaxTasks      int
	MaxTotalNodes int
	MaxBodyBytes  int64
	// Parallelism is forwarded to SolverOptions.Parallelism for every
	// solve (0 = one worker per CPU, negative = serial). Any value is
	// valid; results are bit-identical regardless.
	Parallelism int
}

// DefaultOptions is the recommended starting configuration.
func DefaultOptions() ServerOptions {
	return ServerOptions{
		CacheSize:     4096,
		CacheShards:   0, // automatic power-of-two stripe count
		MaxInFlight:   runtime.GOMAXPROCS(0),
		QueueTimeout:  2 * time.Second,
		BatchWindow:   0,
		MaxTasks:      4096,
		MaxTotalNodes: 1 << 20,
		MaxBodyBytes:  4 << 20,
	}
}

// ReplicaSpec names one fleet member: a stable ID (the consistent-hash
// ring identity) and the base URL its HTTP interface listens on.
type ReplicaSpec struct {
	ID  string
	URL string
}

// OptionError reports an invalid ServerOptions field at construction time.
type OptionError struct {
	Field  string
	Value  interface{}
	Reason string
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("serve: invalid ServerOptions.%s = %v: %s", e.Field, e.Value, e.Reason)
}

// Validate checks every field; New calls it so a misconfigured server can
// never start serving.
func (o *ServerOptions) Validate() error {
	if !o.DisableCache && o.CacheSize <= 0 {
		return &OptionError{Field: "CacheSize", Value: o.CacheSize,
			Reason: "must be positive (or set DisableCache)"}
	}
	if o.TableCacheSize < 0 {
		return &OptionError{Field: "TableCacheSize", Value: o.TableCacheSize,
			Reason: "must be non-negative (0 disables parametric tables)"}
	}
	if o.CacheShards < 0 {
		return &OptionError{Field: "CacheShards", Value: o.CacheShards,
			Reason: "must be non-negative (0 selects the automatic stripe count)"}
	}
	if o.ShedCapacity < 0 {
		return &OptionError{Field: "ShedCapacity", Value: o.ShedCapacity,
			Reason: "must be non-negative (0 disables load shedding)"}
	}
	if o.PeerTimeout < 0 {
		return &OptionError{Field: "PeerTimeout", Value: o.PeerTimeout,
			Reason: "must be non-negative"}
	}
	if len(o.Peers) > 0 {
		if o.SelfID == "" {
			return &OptionError{Field: "SelfID", Value: o.SelfID,
				Reason: "required when Peers is set (this replica must be on the ring)"}
		}
		seen := map[string]bool{o.SelfID: true}
		for _, p := range o.Peers {
			if p.ID == "" || p.URL == "" {
				return &OptionError{Field: "Peers", Value: p,
					Reason: "every peer needs a non-empty ID and URL"}
			}
			if seen[p.ID] {
				return &OptionError{Field: "Peers", Value: p.ID,
					Reason: "peer IDs must be unique and distinct from SelfID"}
			}
			seen[p.ID] = true
		}
	}
	if o.MaxInFlight <= 0 {
		return &OptionError{Field: "MaxInFlight", Value: o.MaxInFlight, Reason: "must be positive"}
	}
	if o.QueueTimeout < 0 {
		return &OptionError{Field: "QueueTimeout", Value: o.QueueTimeout, Reason: "must be non-negative"}
	}
	if o.BatchWindow < 0 {
		return &OptionError{Field: "BatchWindow", Value: o.BatchWindow, Reason: "must be non-negative"}
	}
	if o.BatchWindow > time.Minute {
		return &OptionError{Field: "BatchWindow", Value: o.BatchWindow,
			Reason: "batching beyond a minute holds solve slots idle; configure a cache instead"}
	}
	if o.DefaultDeadline < 0 {
		return &OptionError{Field: "DefaultDeadline", Value: o.DefaultDeadline, Reason: "must be non-negative"}
	}
	if o.MaxDeadline < 0 {
		return &OptionError{Field: "MaxDeadline", Value: o.MaxDeadline, Reason: "must be non-negative"}
	}
	if o.MaxDeadline > 0 && o.DefaultDeadline > o.MaxDeadline {
		return &OptionError{Field: "DefaultDeadline", Value: o.DefaultDeadline,
			Reason: "must not exceed MaxDeadline (the default would be silently capped on every request)"}
	}
	if o.MaxTasks <= 0 {
		return &OptionError{Field: "MaxTasks", Value: o.MaxTasks, Reason: "must be positive"}
	}
	if o.MaxTotalNodes <= 0 {
		return &OptionError{Field: "MaxTotalNodes", Value: o.MaxTotalNodes, Reason: "must be positive"}
	}
	if o.MaxBodyBytes <= 0 {
		return &OptionError{Field: "MaxBodyBytes", Value: o.MaxBodyBytes, Reason: "must be positive"}
	}
	return nil
}

// Server is the solve service. Create with New, expose via Handler, stop
// with Close (which cancels all in-flight solves).
type Server struct {
	opts    ServerOptions
	cache   *solutionCache // nil when disabled
	tables  *tableCache    // nil when disabled (TableCacheSize == 0)
	flight  *flightGroup
	sem     chan struct{}
	shedSem chan struct{} // nil when shedding disabled
	stats   counters
	mux     *http.ServeMux

	// leaders counts running flight leaders (runSolve). A leader extends
	// the breakpoint table after its waiters have their answer, so tests
	// wait on it before reading table or counter state.
	leaders sync.WaitGroup

	// Peer cache-fill state (nil / empty without Peers): the fleet ring
	// over SelfID + peer IDs, the peer base URLs, and the probe client.
	ring       *fleet.Ring
	peerURL    map[string]string
	peerClient *http.Client

	base   context.Context
	cancel context.CancelFunc
}

// New validates opts and builds a Server.
func New(opts ServerOptions) (*Server, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	s := &Server{
		opts:   opts,
		flight: newFlightGroup(),
		sem:    make(chan struct{}, opts.MaxInFlight),
		mux:    http.NewServeMux(),
	}
	if !opts.DisableCache {
		s.cache = newSolutionCache(opts.CacheSize, opts.CacheShards)
	}
	if opts.TableCacheSize > 0 {
		s.tables = newTableCache(opts.TableCacheSize)
	}
	if opts.ShedCapacity > 0 {
		s.shedSem = make(chan struct{}, opts.ShedCapacity)
	}
	if len(opts.Peers) > 0 {
		s.ring = fleet.NewRing(fleet.DefaultVNodes)
		s.ring.Add(opts.SelfID)
		s.peerURL = make(map[string]string, len(opts.Peers))
		for _, p := range opts.Peers {
			s.ring.Add(p.ID)
			s.peerURL[p.ID] = p.URL
		}
		to := opts.PeerTimeout
		if to == 0 {
			to = 250 * time.Millisecond
		}
		s.peerClient = &http.Client{Timeout: to}
	}
	s.base, s.cancel = context.WithCancel(context.Background())
	s.mux.HandleFunc("/v1/solve", s.solveHandler(routeSolve))
	s.mux.HandleFunc("/v1/minlp", s.solveHandler(routeMINLP))
	s.mux.HandleFunc("/v1/parametric", s.solveHandler(routeParametric))
	s.mux.HandleFunc("/v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/statz", s.handleStatz)
	s.mux.HandleFunc("/v1/peerfill", s.handlePeerFill)
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close cancels every in-flight solve. The server must not serve new
// requests afterwards.
func (s *Server) Close() { s.cancel() }

// Stats snapshots the service counters.
func (s *Server) Stats() Stats {
	n, shards := 0, 0
	if s.cache != nil {
		n, shards = s.cache.Len(), s.cache.ShardCount()
	}
	fams, segs := 0, 0
	if s.tables != nil {
		fams, segs = s.tables.len(), s.tables.segments()
	}
	return s.stats.snapshot(n, shards, fams, segs)
}

// Solver routes. The route is part of both the cache key and the flight
// key: the routes tie-break alternate optima differently.
const (
	routeSolve      = "solve"
	routeMINLP      = "minlp"
	routeParametric = "parametric"
)

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, &httpError{status: 405, body: ErrorBody{ErrorDetail{
			Code: CodeMethodNotAllowed, Message: "use GET"}}})
		return
	}
	writeJSON(w, 200, map[string]interface{}{
		"status":   "ok",
		"inFlight": s.stats.inFlight.Load(),
	})
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, &httpError{status: 405, body: ErrorBody{ErrorDetail{
			Code: CodeMethodNotAllowed, Message: "use GET"}}})
		return
	}
	writeJSON(w, 200, s.Stats())
}

// solveHandler builds the POST handler of one solver route. The pipeline
// is: decode → validate → fit samples → canonicalize → cache → singleflight
// → admission control → solve → render against the requesting instance.
func (s *Server) solveHandler(route string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, &httpError{status: 405, body: ErrorBody{ErrorDetail{
				Code: CodeMethodNotAllowed, Message: "use POST"}}})
			return
		}
		s.stats.requests.Add(1)
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
		if err != nil {
			writeError(w, badRequest("reading body: %v", err))
			return
		}
		req, herr := decodeSolveRequest(body, &s.opts)
		if herr != nil {
			writeError(w, herr)
			return
		}
		prob, herr := buildProblem(req)
		if herr != nil {
			writeError(w, herr)
			return
		}
		if route == routeMINLP {
			// Objectives and models outside the convex outer-approximation
			// framework are refused before admission.
			err := prob.CheckConvex()
			if prob.Objective == core.MaxMin {
				err = core.ErrObjectiveUnsupported
			}
			if err != nil {
				writeError(w, mapSolveError(err))
				return
			}
		}

		canon := canonicalize(route, prob)
		meta := MetaBody{Route: route}

		// Fast path: the canonical instance was solved before.
		if s.cache != nil {
			if sol, ok := s.cache.Get(canon.key); ok {
				s.stats.hits.Add(1)
				meta.Cached = true
				writeSolution(w, prob, canon, sol, meta, "hit")
				return
			}
		}
		// Second fast path: this exact budget was never solved, but an
		// earlier solve of the same task family certified a breakpoint
		// bracket covering it. The hit is promoted into the per-budget
		// cache so repeats of this budget take the first fast path.
		if s.tables != nil {
			if sol, ok := s.tables.lookup(canon.tkey, canon.prob.TotalNodes); ok {
				s.stats.tableHits.Add(1)
				meta.TableHit = true
				if s.cache != nil {
					s.cache.Put(canon.key, sol)
				}
				writeSolution(w, prob, canon, sol, meta, "table")
				return
			}
		}
		s.stats.misses.Add(1)

		deadline := s.effectiveDeadline(req.DeadlineMs)
		flightKey := fmt.Sprintf("%s|%d", canon.key, deadline)
		call, leader := s.flight.join(s.base, flightKey)
		if leader {
			s.leaders.Add(1)
			go func() {
				defer s.leaders.Done()
				s.runSolve(route, flightKey, call, canon, deadline)
			}()
		} else {
			s.stats.collapsed.Add(1)
			meta.Collapsed = true
		}

		select {
		case <-call.done:
		case <-r.Context().Done():
			s.flight.leave(flightKey, call)
			s.stats.canceled.Add(1)
			// The client is gone; this write is best-effort.
			writeError(w, &httpError{status: 499, body: ErrorBody{ErrorDetail{
				Code: CodeCanceled, Message: "client closed request"}}})
			return
		}
		s.flight.leave(flightKey, call)
		if call.err != nil {
			if he, ok := call.err.(*httpError); ok {
				// Typed admission rejection. rejected is a request-scoped
				// counter, so every waiter bounced by the shared flight
				// counts, not just the leader (which used to under-count
				// collapsed rejections).
				if he.body.Error.Code == CodeQueueFull {
					s.stats.rejected.Add(1)
				}
				writeError(w, he)
				return
			}
			if errors.Is(call.err, context.Canceled) {
				// The solve was abandoned (all waiters left) or the server is
				// shutting down; either way this write is best-effort.
				writeError(w, &httpError{status: 499, body: ErrorBody{ErrorDetail{
					Code: CodeCanceled, Message: "solve canceled"}}})
				return
			}
			// solveErrors is flight-scoped and was already counted by the
			// leader in runSolve (counting here double-counted one failed
			// solve once per collapsed waiter).
			writeError(w, mapSolveError(call.err))
			return
		}
		sol := call.sol
		if sol.bounded {
			s.stats.bounded.Add(1)
		}
		state := "miss"
		switch call.via {
		case viaShed:
			// Tier-1 pressure response: the admission gate was saturated and
			// the flight was downgraded to the parametric heuristic answer.
			// Marked so clients (and the load harness) can tell a degraded
			// answer from the route's real one.
			meta.Degraded = true
			state = "shed"
			s.stats.degraded.Add(1)
		case viaPeer:
			meta.PeerFill = true
			state = "peer"
		}
		writeSolution(w, prob, canon, sol, meta, state)
	}
}

// effectiveDeadline resolves a request's deadlineMs against the server's
// default and cap.
func (s *Server) effectiveDeadline(deadlineMs int64) time.Duration {
	d := time.Duration(deadlineMs) * time.Millisecond
	if d == 0 {
		d = s.opts.DefaultDeadline
	}
	if s.opts.MaxDeadline > 0 && (d == 0 || d > s.opts.MaxDeadline) {
		d = s.opts.MaxDeadline
	}
	return d
}

// runSolve is the leader goroutine of one flight: batch-window wait, peer
// cache-fill probe, admission control (with the load-shedding downgrade on
// saturation), solve, publish, cache.
func (s *Server) runSolve(route, flightKey string, call *flightCall, canon *canonical, deadline time.Duration) {
	if s.opts.BatchWindow > 0 {
		t := time.NewTimer(s.opts.BatchWindow)
		select {
		case <-t.C:
		case <-call.ctx.Done():
			t.Stop()
			s.flight.complete(flightKey, call, nil, call.ctx.Err())
			return
		}
	}

	// Peer cache-fill: before spending a solve slot, ask the key's ring
	// owners whether they already hold the canonical solution. A hit costs
	// one small GET instead of a solve; any failure falls through.
	if s.ring != nil {
		if sol := s.peerFill(call.ctx, canon.key); sol != nil {
			if s.cache != nil {
				s.cache.Put(canon.key, sol)
			}
			call.via = viaPeer
			s.flight.complete(flightKey, call, sol, nil)
			return
		}
	}

	// Admission: one slot per running solve, bounded queue wait. On
	// saturation, tier 1 of the pressure response downgrades the flight to
	// the parametric heuristic (tryShed); tier 2 — shedding disabled or
	// shed capacity also exhausted — is the 429.
	var queue <-chan time.Time
	if s.opts.QueueTimeout > 0 {
		t := time.NewTimer(s.opts.QueueTimeout)
		defer t.Stop()
		queue = t.C
	}
	select {
	case s.sem <- struct{}{}:
	default:
		admitted := false
		if queue != nil {
			select {
			case s.sem <- struct{}{}:
				admitted = true
			case <-queue:
			case <-call.ctx.Done():
				s.flight.complete(flightKey, call, nil, call.ctx.Err())
				return
			}
		}
		if !admitted {
			if s.tryShed(route, flightKey, call, canon) {
				return
			}
			// rejected is counted per waiter in solveHandler.
			s.flight.complete(flightKey, call, nil, errQueueFull)
			return
		}
	}
	defer func() { <-s.sem }()

	s.stats.solves.Add(1)
	s.stats.inFlight.Add(1)
	alloc, err := s.dispatch(call.ctx, route, canon.prob, deadline)
	s.stats.inFlight.Add(-1)
	if err == nil && alloc.Bounded && call.ctx.Err() != nil {
		// The graceful solver contract turns mid-solve cancellation into a
		// bounded incumbent; for the service that is a cancellation
		// artifact (abandoned flight or shutdown), not a publishable
		// result — a deadline-bounded incumbent has ctx.Err() == nil.
		err = call.ctx.Err()
	}
	if err != nil {
		if !errors.Is(err, context.Canceled) {
			// Flight-scoped: one failed dispatch counts once, however many
			// collapsed waiters observe it.
			s.stats.solveErrors.Add(1)
		}
		s.flight.complete(flightKey, call, nil, err)
		return
	}
	s.stats.pivots.Add(int64(alloc.Pivots))
	sol := fromAllocation(alloc)
	if s.cache != nil && !sol.bounded {
		// Only proven-optimal solutions are replayable; a bounded
		// incumbent is whatever the deadline happened to allow.
		s.cache.Put(canon.key, sol)
	}
	s.flight.complete(flightKey, call, sol, nil)
	// Waiters are unblocked; spend this flight's admission slot certifying
	// the breakpoint bracket around this budget before releasing it.
	if !sol.bounded {
		s.maybeExtendTable(route, canon, alloc, sol, deadline)
	}
}

// maybeExtendTable turns one proven-optimal solve into a verified
// breakpoint bracket: SegmentBounds yields the analytic budget range on
// which the allocation is provably constant, the far endpoints of that
// range are re-solved with the same route solver, and only a bracket whose
// endpoints bit-match the claim is stored. Runs on the flight leader after
// waiters are unblocked, still inside the admission slot, so verification
// work is bounded the same way as request work.
func (s *Server) maybeExtendTable(route string, canon *canonical, alloc *core.Allocation, sol *canonSolution, deadline time.Duration) {
	if s.tables == nil {
		return
	}
	n := canon.prob.TotalNodes
	if _, ok := s.tables.lookup(canon.tkey, n); ok {
		return // some bracket already covers this budget
	}
	lo, hi, ok := canon.prob.SegmentBounds(alloc, s.opts.MaxTotalNodes)
	if !ok || hi <= lo {
		// Non-analytic shape or a width-1 bracket: the per-budget cache
		// already serves repeats, a table adds nothing.
		return
	}
	ctx := s.base
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(s.base, deadline)
		defer cancel()
	}
	verify := func(m int) bool {
		if m == n {
			return true
		}
		s.stats.solves.Add(1)
		s.stats.tableSolves.Add(1)
		va, err := s.dispatch(ctx, route, canon.prob.WithBudget(m), deadline)
		if err != nil || va.Bounded {
			return false // could not certify (deadline/shutdown); not a conflict
		}
		s.stats.pivots.Add(int64(va.Pivots))
		if va.Makespan != alloc.Makespan {
			s.stats.tableConflicts.Add(1)
			return false
		}
		for i := range alloc.Nodes {
			if va.Nodes[i] != alloc.Nodes[i] {
				s.stats.tableConflicts.Add(1)
				return false
			}
		}
		return true
	}
	if !verify(lo) || !verify(hi) {
		return
	}
	s.tables.insert(canon.tkey, lo, hi, sol)
}

// dispatch runs the route's solver on the canonical instance. Canonical
// tie-breaking is always on: it is what makes responses a pure function of
// the canonical instance.
//
// The automatic route answers min-max without UseAllNodes with the
// parametric optimum in canonical form, proven optimal by
// Problem.CertifyMinMax, and runs hslb.SolveContext (the MINLP, under the
// deadline) only when that proof fails. Where the MINLP proves optimality
// its makespan has the same bits, so both give the same canonical node
// vector; only the solver counters of meta differ, and read 0 here.
func (s *Server) dispatch(ctx context.Context, route string, p *core.Problem, deadline time.Duration) (*core.Allocation, error) {
	opts := core.SolverOptions{
		Deadline:    deadline,
		Parallelism: s.opts.Parallelism,
		Canonical:   true,
	}
	switch route {
	case routeMINLP:
		return p.SolveMINLPContext(ctx, opts)
	case routeParametric:
		a, err := p.SolveParametricContext(ctx)
		if err != nil {
			return nil, err
		}
		return p.CanonicalAllocation(a), nil
	default:
		if p.Objective == core.MinMax && !p.UseAllNodes {
			a, err := p.SolveParametricContext(ctx)
			if err != nil {
				return nil, err
			}
			if a = p.CanonicalAllocation(a); p.CertifyMinMax(a) {
				s.stats.certified.Add(1)
				return a, nil
			}
			s.stats.certFallbacks.Add(1)
		}
		return hslb.SolveContext(ctx, p, opts)
	}
}

var errQueueFull = &httpError{status: 429, body: ErrorBody{ErrorDetail{
	Code: CodeQueueFull, Message: "all solve slots busy and the queue timeout expired"}}}

// writeSolution renders and writes the 200 response.
func writeSolution(w http.ResponseWriter, p *core.Problem, canon *canonical, sol *canonSolution, meta MetaBody, cacheState string) {
	meta.SolverNodes = sol.solverNodes
	meta.LPSolves = sol.lpSolves
	meta.OACuts = sol.oaCuts
	meta.Pivots = sol.pivots
	w.Header().Set("X-HSLB-Cache", cacheState)
	writeJSON(w, 200, SolveResponse{Solution: buildSolution(p, canon, sol), Meta: meta})
}

func writeError(w http.ResponseWriter, e *httpError) {
	writeJSON(w, e.status, e.body)
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
