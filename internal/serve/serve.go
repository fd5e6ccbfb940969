// Package serve is the long-running HTTP/JSON face of the HSLB solver: a
// cached solve service behind one admission gate, layered on the library's
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
// One process answers every request along one path, with no branch chosen
// by an option: decode → canonicalize → per-budget cache → flight →
// admission (wait up to QueueTimeout, then 429) → dispatch → encode. Repeated
// queries are where static load balancing beats dynamic schemes: the same
// instance shapes recur, so the service canonicalizes each instance (stable
// task order, normalized constraint spelling, power-of-two scale
// normalization of the cache key) and answers most solves from a bounded
// LRU cache in sub-millisecond time. Concurrent identical requests collapse
// into one solve (singleflight), admission control bounds the number of
// solver invocations in flight, and per-request deadlines map onto the
// MINLP's graceful degradation (bounded incumbent + optimality gap instead
// of an error). A miss costs exactly one solve, and no work of a request
// keeps running after its answer is written.
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
	"time"

	hslb "repro"
	"repro/internal/core"
)

// ServerOptions tunes the service. The zero value is invalid — use
// DefaultOptions as the base — and every field is validated by New, which
// returns *OptionError at construction instead of failing at first request.
type ServerOptions struct {
	// CacheSize bounds the solution cache (entries). Must be positive
	// unless DisableCache is set.
	CacheSize int
	// SnapshotPath, when non-empty, is where LoadSnapshotFile/
	// SaveSnapshotFile persist the solution cache across restarts (used by
	// cmd/hslbd's -snapshot flag; the Server itself never touches the path
	// spontaneously).
	SnapshotPath string
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
}

// DefaultOptions is the recommended starting configuration.
func DefaultOptions() ServerOptions {
	return ServerOptions{
		CacheSize:     4096,
		MaxInFlight:   runtime.GOMAXPROCS(0),
		QueueTimeout:  2 * time.Second,
		MaxTasks:      4096,
		MaxTotalNodes: 1 << 20,
		MaxBodyBytes:  4 << 20,
	}
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
	if o.MaxInFlight <= 0 {
		return &OptionError{Field: "MaxInFlight", Value: o.MaxInFlight, Reason: "must be positive"}
	}
	if o.QueueTimeout < 0 {
		return &OptionError{Field: "QueueTimeout", Value: o.QueueTimeout, Reason: "must be non-negative"}
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
	opts   ServerOptions
	cache  *solutionCache // nil when disabled
	flight *flightGroup
	sem    chan struct{}
	stats  counters
	mux    *http.ServeMux

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
		s.cache = newSolutionCache(opts.CacheSize)
	}
	s.base, s.cancel = context.WithCancel(context.Background())
	s.mux.HandleFunc("/v1/solve", s.solveHandler(routeSolve))
	s.mux.HandleFunc("/v1/minlp", s.solveHandler(routeMINLP))
	s.mux.HandleFunc("/v1/parametric", s.solveHandler(routeParametric))
	s.mux.HandleFunc("/v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/statz", s.handleStatz)
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close cancels every in-flight solve. The server must not serve new
// requests afterwards.
func (s *Server) Close() { s.cancel() }

// Stats snapshots the service counters.
func (s *Server) Stats() Stats {
	n := 0
	if s.cache != nil {
		n = s.cache.Len()
	}
	return s.stats.snapshot(n)
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
		s.stats.misses.Add(1)

		deadline := s.effectiveDeadline(req.DeadlineMs)
		flightKey := fmt.Sprintf("%s|%d", canon.key, deadline)
		call, leader := s.flight.join(s.base, flightKey)
		if leader {
			go s.runSolve(route, flightKey, call, canon, deadline)
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
		if call.sol.bounded {
			s.stats.bounded.Add(1)
		}
		writeSolution(w, prob, canon, call.sol, meta, "miss")
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

// runSolve is the leader goroutine of one flight: admission, solve, cache,
// publish. It returns once the answer is published: no work of the flight
// outlives its waiters' answer.
func (s *Server) runSolve(route, flightKey string, call *flightCall, canon *canonical, deadline time.Duration) {
	// Admission: one slot per running solve; a flight that finds every slot
	// busy waits up to QueueTimeout, then every waiter gets the 429
	// (rejected is counted per waiter in solveHandler).
	select {
	case s.sem <- struct{}{}:
	default:
		var err error = errQueueFull
		if s.opts.QueueTimeout > 0 {
			t := time.NewTimer(s.opts.QueueTimeout)
			select {
			case s.sem <- struct{}{}:
				err = nil
			case <-t.C:
			case <-call.ctx.Done():
				err = call.ctx.Err()
			}
			t.Stop()
		}
		if err != nil {
			s.flight.complete(flightKey, call, nil, err)
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
	opts := core.SolverOptions{Deadline: deadline, Canonical: true}
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
