package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	hslb "repro"
	"repro/internal/core"
	"repro/internal/perfmodel"
)

// SolveRequest is the JSON body of the /v1/solve, /v1/minlp, and
// /v1/parametric endpoints. Each task carries either fitted performance
// coefficients (params) or raw benchmark samples (samples) to be fitted
// server-side — exactly one of the two.
type SolveRequest struct {
	Tasks       []TaskRequest `json:"tasks"`
	TotalNodes  int           `json:"totalNodes"`
	Objective   string        `json:"objective,omitempty"`   // default "min-max"
	UseAllNodes bool          `json:"useAllNodes,omitempty"` // require Σ n = N
	// DeadlineMs bounds the solve wall clock; on expiry the best incumbent
	// is served with bounded=true and its optimality gap (see
	// SolverOptions.Deadline). 0 means the server's default; values past
	// maxDeadlineMs are rejected.
	DeadlineMs int64 `json:"deadlineMs,omitempty"`
	// FitSeed seeds the multistart fit of sample-bearing tasks (default 1);
	// ignored for tasks that already carry params.
	FitSeed uint64 `json:"fitSeed,omitempty"`
}

// TaskRequest is one task of a SolveRequest.
type TaskRequest struct {
	Name     string             `json:"name,omitempty"`
	Params   *ParamsRequest     `json:"params,omitempty"`
	Samples  []perfmodel.Sample `json:"samples,omitempty"`
	MinNodes int                `json:"minNodes,omitempty"`
	MaxNodes int                `json:"maxNodes,omitempty"`
	Allowed  []int              `json:"allowed,omitempty"`
}

// ParamsRequest mirrors perfmodel.Params: T(n) = a/n + b·n^c + d.
type ParamsRequest struct {
	A float64 `json:"a"`
	B float64 `json:"b"`
	C float64 `json:"c"`
	D float64 `json:"d"`
}

// Error codes of the typed error body. Stable API surface: clients switch
// on these, not on message text.
const (
	CodeBadRequest          = "bad_request"
	CodeInsufficientSamples = "insufficient_samples"
	CodeNoIncumbent         = "no_incumbent"
	CodeUnsupported         = "objective_unsupported"
	CodeQueueFull           = "queue_full"
	CodeCanceled            = "canceled"
	CodeMethodNotAllowed    = "method_not_allowed"
	CodeInternal            = "internal"
	// CodeNotFound is the /v1/peerfill miss: the asked-for canonical key is
	// not in this replica's cache.
	CodeNotFound = "not_found"
	// CodeReplicaUnavailable is the gateway's "no replica answered": the
	// key's owner and its failover both failed at the transport level.
	CodeReplicaUnavailable = "replica_unavailable"
)

// ErrorBody is the typed JSON error envelope: {"error": {...}}.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail names the failure. Task and BestBound are populated when the
// underlying typed error carries them (InsufficientSamplesError and
// NonConvexError name the offending task; NoIncumbentError proves a bound
// even when no feasible point was found).
type ErrorDetail struct {
	Code      string   `json:"code"`
	Message   string   `json:"message"`
	Task      string   `json:"task,omitempty"`
	BestBound *float64 `json:"bestBound,omitempty"`
}

// httpError is the handler-internal error carrying its HTTP mapping.
type httpError struct {
	status int
	body   ErrorBody
}

func (e *httpError) Error() string { return e.body.Error.Message }

func badRequest(format string, args ...interface{}) *httpError {
	return &httpError{status: 400, body: ErrorBody{ErrorDetail{
		Code: CodeBadRequest, Message: fmt.Sprintf(format, args...),
	}}}
}

// maxDeadlineMs is the largest deadlineMs whose time.Duration does not
// overflow; a larger value would wrap negative and slip past MaxDeadline.
const maxDeadlineMs = math.MaxInt64 / int64(time.Millisecond)

// decodeSolveRequest parses and validates a request body. It is a pure
// function of its inputs (fuzzed by FuzzRequestDecode) and must reject —
// never panic on — arbitrary bytes: NaN/Inf coefficient spellings, negative
// counts, and budgets beyond opts.MaxTotalNodes all return typed errors.
func decodeSolveRequest(data []byte, opts *ServerOptions) (*SolveRequest, *httpError) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var req SolveRequest
	if err := dec.Decode(&req); err != nil {
		return nil, badRequest("malformed JSON: %v", err)
	}
	if dec.More() {
		return nil, badRequest("trailing data after JSON body")
	}
	if len(req.Tasks) == 0 {
		return nil, badRequest("tasks must be non-empty")
	}
	if len(req.Tasks) > opts.MaxTasks {
		return nil, badRequest("too many tasks: %d (server limit %d)", len(req.Tasks), opts.MaxTasks)
	}
	if req.TotalNodes <= 0 {
		return nil, badRequest("totalNodes must be positive, got %d", req.TotalNodes)
	}
	if req.TotalNodes > opts.MaxTotalNodes {
		return nil, badRequest("totalNodes %d exceeds the server limit %d", req.TotalNodes, opts.MaxTotalNodes)
	}
	if req.DeadlineMs < 0 {
		return nil, badRequest("deadlineMs must be non-negative, got %d", req.DeadlineMs)
	}
	if req.DeadlineMs > maxDeadlineMs {
		return nil, badRequest("deadlineMs %d exceeds the largest representable deadline %d", req.DeadlineMs, maxDeadlineMs)
	}
	if req.Objective == "" {
		req.Objective = "min-max"
	}
	if _, err := core.ParseObjective(req.Objective); err != nil {
		return nil, badRequest("%v", err)
	}
	for i := range req.Tasks {
		if herr := validateTask(i, &req.Tasks[i], req.TotalNodes); herr != nil {
			return nil, herr
		}
	}
	return &req, nil
}

func validateTask(i int, t *TaskRequest, total int) *httpError {
	name := t.Name
	if name == "" {
		name = fmt.Sprintf("task[%d]", i)
	}
	if (t.Params == nil) == (len(t.Samples) == 0) {
		return badRequest("task %s: exactly one of params and samples is required", name)
	}
	if t.Params != nil {
		for _, f := range []struct {
			n string
			v float64
		}{{"a", t.Params.A}, {"b", t.Params.B}, {"c", t.Params.C}, {"d", t.Params.D}} {
			if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
				return badRequest("task %s: params.%s must be finite and non-negative, got %v", name, f.n, f.v)
			}
		}
	}
	for _, s := range t.Samples {
		if !(s.Nodes >= 1) || math.IsInf(s.Nodes, 0) ||
			!(s.Time > 0) || math.IsInf(s.Time, 0) {
			return badRequest("task %s: samples need nodes ≥ 1 and time > 0, got (%v, %v)", name, s.Nodes, s.Time)
		}
	}
	if t.MinNodes < 0 || t.MaxNodes < 0 {
		return badRequest("task %s: minNodes/maxNodes must be non-negative", name)
	}
	if t.MaxNodes > 0 && t.MinNodes > t.MaxNodes {
		return badRequest("task %s: minNodes %d exceeds maxNodes %d", name, t.MinNodes, t.MaxNodes)
	}
	for k, n := range t.Allowed {
		if n < 1 {
			return badRequest("task %s: allowed counts must be ≥ 1, got %d", name, n)
		}
		if k > 0 && n <= t.Allowed[k-1] {
			return badRequest("task %s: allowed set must be strictly increasing", name)
		}
		if n > total {
			return badRequest("task %s: allowed count %d exceeds totalNodes %d", name, n, total)
		}
	}
	return nil
}

// buildProblem turns a validated request into a core.Problem in request
// task order, fitting sample-bearing tasks with a deterministic seed. A
// task with fewer than four surviving samples maps the pipeline's
// *InsufficientSamplesError onto HTTP 422.
func buildProblem(req *SolveRequest) (*core.Problem, *httpError) {
	obj, err := core.ParseObjective(req.Objective)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	p := &core.Problem{TotalNodes: req.TotalNodes, Objective: obj, UseAllNodes: req.UseAllNodes}
	p.Tasks = make([]core.Task, len(req.Tasks))
	for i := range req.Tasks {
		rt := &req.Tasks[i]
		name := rt.Name
		if name == "" {
			name = fmt.Sprintf("task[%d]", i)
		}
		t := core.Task{Name: name, MinNodes: rt.MinNodes, MaxNodes: rt.MaxNodes}
		if rt.Allowed != nil {
			t.Allowed = append([]int(nil), rt.Allowed...)
		}
		if rt.Params != nil {
			t.Perf = perfmodel.Params{A: rt.Params.A, B: rt.Params.B, C: rt.Params.C, D: rt.Params.D}
		} else {
			if len(rt.Samples) < 4 {
				ierr := &hslb.InsufficientSamplesError{Task: name, Got: len(rt.Samples), Need: 4}
				return nil, &httpError{status: 422, body: ErrorBody{ErrorDetail{
					Code: CodeInsufficientSamples, Message: ierr.Error(), Task: name,
				}}}
			}
			seed := req.FitSeed
			if seed == 0 {
				seed = 1
			}
			fit, err := perfmodel.Fit(rt.Samples, perfmodel.FitOptions{Seed: seed, Parallelism: -1})
			if err != nil {
				return nil, badRequest("task %s: fit failed: %v", name, err)
			}
			t.Perf = fit.Params
		}
		p.Tasks[i] = t
	}
	if err := p.Validate(); err != nil {
		return nil, badRequest("%v", err)
	}
	return p, nil
}

// canonSolution is the route-independent essence of a solved canonical
// instance: the canonical-order node vector, the limit flags, and the
// solver diagnostics. Predicted times are recomputed per request (see
// lruCache), so they never appear here. Only unbounded (proven-optimal)
// values are cached; bounded ones flow through the singleflight group to
// their waiters and are then dropped.
type canonSolution struct {
	nodes     []int
	bounded   bool
	bestBound float64
	gap       float64

	solverNodes int
	lpSolves    int
	oaCuts      int
	pivots      int
}

// SolutionBody is the deterministic part of a solve response: everything in
// it is a pure function of the canonical instance, so a cached response and
// a cache-disabled solve of the same instance marshal to identical bytes.
type SolutionBody struct {
	Status     string      `json:"status"` // "optimal" or "bounded"
	Objective  float64     `json:"objective"`
	Allocation []TaskAlloc `json:"allocation"`
	Makespan   float64     `json:"makespan"`
	MinTime    float64     `json:"minTime"`
	SumTime    float64     `json:"sumTime"`
	Imbalance  float64     `json:"imbalance"`
	Used       int         `json:"used"`
	// BestBound/Gap are only meaningful for bounded responses; an unproven
	// bound (-Inf) or infinite gap is reported as absent (JSON cannot
	// carry Inf), with status "bounded" signalling "no proven bound".
	BestBound float64 `json:"bestBound,omitempty"`
	Gap       float64 `json:"gap,omitempty"`
}

// TaskAlloc is one task's share of the allocation, in request task order
// with request names.
type TaskAlloc struct {
	Name  string  `json:"name"`
	Nodes int     `json:"nodes"`
	Time  float64 `json:"time"`
}

// MetaBody carries the per-response serving metadata; unlike SolutionBody
// it may legitimately differ between a cached and a fresh response.
type MetaBody struct {
	Cached    bool `json:"cached"`
	Collapsed bool `json:"collapsed,omitempty"` // joined another request's solve
	// TableHit marks a response served from a verified parametric
	// breakpoint bracket: this exact budget was never solved, but the
	// allocation is certified constant across a bracket containing it.
	TableHit bool `json:"tableHit,omitempty"`
	// Degraded marks a load-shed response: admission was saturated and this
	// answer came from the parametric heuristic instead of the route's real
	// solver. Clients that need the route's exact optimum should retry later.
	Degraded bool `json:"degraded,omitempty"`
	// PeerFill marks a response whose solution was pulled from a fleet
	// peer's cache instead of being solved locally.
	PeerFill    bool   `json:"peerFill,omitempty"`
	Route       string `json:"route"`
	SolverNodes int    `json:"solverNodes,omitempty"`
	LPSolves    int    `json:"lpSolves,omitempty"`
	OACuts      int    `json:"oaCuts,omitempty"`
	Pivots      int    `json:"pivots,omitempty"`
}

// SolveResponse is the full response envelope.
type SolveResponse struct {
	Solution SolutionBody `json:"solution"`
	Meta     MetaBody     `json:"meta"`
}

// buildSolution renders a canonical solution against the requesting
// instance: nodes are un-permuted into request order and all derived
// quantities are re-evaluated on the request's own problem, which makes the
// body bit-identical to what a direct, uncached solve of this exact request
// would report.
func buildSolution(p *core.Problem, c *canonical, sol *canonSolution) SolutionBody {
	nodes := c.unpermute(sol.nodes)
	a := p.Evaluate(nodes)
	body := SolutionBody{
		Status:    "optimal",
		Objective: p.ObjectiveValue(a),
		Makespan:  a.Makespan,
		MinTime:   a.MinTime,
		SumTime:   a.SumTime,
		Imbalance: a.Imbalance,
		Used:      a.Used,
	}
	if sol.bounded {
		body.Status = "bounded"
		if !math.IsInf(sol.bestBound, 0) && !math.IsNaN(sol.bestBound) {
			body.BestBound = sol.bestBound
		}
		if !math.IsInf(sol.gap, 0) && !math.IsNaN(sol.gap) {
			body.Gap = sol.gap
		}
	}
	body.Allocation = make([]TaskAlloc, len(nodes))
	for i := range nodes {
		body.Allocation[i] = TaskAlloc{Name: p.Tasks[i].Name, Nodes: nodes[i], Time: a.Times[i]}
	}
	return body
}

// fromAllocation extracts the canonical solution from a solver allocation
// (which is in canonical task order, since the service always solves the
// canonicalized instance).
func fromAllocation(a *core.Allocation) *canonSolution {
	return &canonSolution{
		nodes:       append([]int(nil), a.Nodes...),
		bounded:     a.Bounded,
		bestBound:   a.BestBound,
		gap:         a.Gap,
		solverNodes: a.SolverNodes,
		lpSolves:    a.LPSolves,
		oaCuts:      a.OACuts,
		pivots:      a.Pivots,
	}
}

// mapSolveError converts solver errors into their typed HTTP form.
func mapSolveError(err error) *httpError {
	var noInc *core.NoIncumbentError
	var nonConvex *core.NonConvexError
	switch {
	case errors.As(err, &noInc):
		det := ErrorDetail{Code: CodeNoIncumbent, Message: err.Error()}
		if !math.IsInf(noInc.BestBound, 0) && !math.IsNaN(noInc.BestBound) {
			bb := noInc.BestBound
			det.BestBound = &bb
		}
		return &httpError{status: 504, body: ErrorBody{det}}
	case errors.Is(err, core.ErrObjectiveUnsupported):
		return &httpError{status: 400, body: ErrorBody{ErrorDetail{
			Code: CodeUnsupported, Message: err.Error(),
		}}}
	case errors.As(err, &nonConvex):
		return &httpError{status: 400, body: ErrorBody{ErrorDetail{
			Code: CodeUnsupported, Message: err.Error(), Task: nonConvex.Task,
		}}}
	default:
		return &httpError{status: 500, body: ErrorBody{ErrorDetail{
			Code: CodeInternal, Message: err.Error(),
		}}}
	}
}
