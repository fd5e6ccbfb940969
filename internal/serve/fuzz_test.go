package serve

import (
	"testing"
	"time"
)

// FuzzRequestDecode hammers the request decoder with arbitrary bytes. The
// contract under test: decodeSolveRequest either returns a validated
// request or a typed *httpError — it must never panic, whatever the bytes
// spell (NaN/Inf coefficients, negative counts, absurd sizes, truncated
// JSON). Every accepted request resolves to a deadline in [0, MaxDeadline]
// when the server caps deadlines, and to a non-negative one when it does
// not. When decoding succeeds on a parameter-only request, problem
// construction must succeed too: validation is supposed to be complete, not
// best-effort.
func FuzzRequestDecode(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`not json at all`,
		`{"totalNodes": 8, "tasks": [{"params": {"a": 1, "b": 0.1, "c": 1, "d": 0}}]}`,
		`{"totalNodes": 8, "tasks": [{"params": {"a": 1e308, "b": 1e308, "c": 50, "d": 1e308}},
			{"params": {"a": 5e-324, "c": 0.001}}]}`,
		`{"totalNodes": 8, "tasks": [{"params": {"a": NaN}}]}`,
		`{"totalNodes": 8, "tasks": [{"params": {"a": -1}}]}`,
		`{"totalNodes": -8, "tasks": [{"params": {"a": 1}}]}`,
		`{"totalNodes": 99999999999999999999, "tasks": [{"params": {"a": 1}}]}`,
		`{"totalNodes": 8, "tasks": [{"samples": [{"nodes": 1, "time": 1}]}]}`,
		`{"totalNodes": 8, "tasks": [{"samples": [{"nodes": -1, "time": 0}]}]}`,
		`{"totalNodes": 8, "deadlineMs": -9223372036854775808, "tasks": [{"params": {"a": 1}}]}`,
		`{"totalNodes": 8, "deadlineMs": 9223372036854, "tasks": [{"params": {"a": 1}}]}`,
		`{"totalNodes": 8, "deadlineMs": 9223372036855, "tasks": [{"params": {"a": 1}}]}`,
		`{"totalNodes": 8, "deadlineMs": 9223372036854775807, "tasks": [{"params": {"a": 1}}]}`,
		`{"totalNodes": 8, "objective": "min-max", "useAllNodes": true,
			"tasks": [{"params": {"a": 1}, "minNodes": 3, "maxNodes": 2, "allowed": [5, 2]}]}`,
		`{"totalNodes": 8, "tasks": [{"params": {"a": 1}, "allowed": [0, -3, 9999]}]}`,
		`{"totalNodes": 8, "tasks": [{"params": {"a": 1}}]} trailing`,
		`{"totalNodes": 8, "unknown": true, "tasks": [{"params": {"a": 1}}]}`,
		`[1, 2, 3]`,
		`"just a string"`,
		"{\"totalNodes\": 8, \"tasks\": [{\"name\": \"\\u0000\", \"params\": {\"a\": 1}}]}",
		zeroOverheadBody,
		overflowMinNodesBody,
		overflowAllNodesBody,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	opts := DefaultOptions()
	opts.MaxTasks = 64 // keep adversarial inputs cheap to validate
	uncapped := &Server{opts: opts}
	capped := &Server{opts: opts}
	capped.opts.MaxDeadline = time.Minute
	f.Fuzz(func(t *testing.T, data []byte) {
		req, herr := decodeSolveRequest(data, &opts)
		if (req == nil) == (herr == nil) {
			t.Fatalf("decode returned req=%v err=%v: exactly one must be set", req, herr)
		}
		if herr != nil {
			if herr.status < 400 || herr.status > 499 {
				t.Fatalf("decoder error mapped to status %d, want 4xx", herr.status)
			}
			if herr.body.Error.Code == "" || herr.body.Error.Message == "" {
				t.Fatalf("untyped decode error: %+v", herr.body)
			}
			return
		}
		if d := uncapped.effectiveDeadline(req.DeadlineMs); d < 0 {
			t.Fatalf("deadlineMs %d resolved to negative deadline %v", req.DeadlineMs, d)
		}
		if d := capped.effectiveDeadline(req.DeadlineMs); d < 0 || d > capped.opts.MaxDeadline {
			t.Fatalf("deadlineMs %d resolved to %v, outside [0, %v]", req.DeadlineMs, d, capped.opts.MaxDeadline)
		}
		// Sample-bearing tasks run the (expensive, already-fuzzed) fitter;
		// restrict the construction check to parameter-only requests.
		for _, task := range req.Tasks {
			if len(task.Samples) > 0 {
				return
			}
		}
		prob, herr := buildProblem(req)
		if (prob == nil) == (herr == nil) {
			t.Fatalf("buildProblem returned prob=%v err=%v", prob, herr)
		}
		if prob != nil {
			if err := prob.Validate(); err != nil {
				t.Fatalf("decoder accepted a request that builds an invalid problem: %v", err)
			}
			// Canonicalization must hold its permutation invariant on
			// anything that decodes.
			c := canonicalize(routeSolve, prob)
			if len(c.perm) != len(prob.Tasks) {
				t.Fatalf("canonical perm length %d for %d tasks", len(c.perm), len(prob.Tasks))
			}
			seen := make([]bool, len(c.perm))
			for _, ri := range c.perm {
				if ri < 0 || ri >= len(seen) || seen[ri] {
					t.Fatalf("canonical perm %v is not a permutation", c.perm)
				}
				seen[ri] = true
			}
		}
	})
}
