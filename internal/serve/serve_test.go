package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// newTestServer spins up a Server behind httptest; mutate tweaks the
// options (nil for defaults).
func newTestServer(t *testing.T, mutate func(*ServerOptions)) (*Server, *httptest.Server) {
	t.Helper()
	opts := DefaultOptions()
	if mutate != nil {
		mutate(&opts)
	}
	srv, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

func postJSON(t *testing.T, url, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp.StatusCode, resp.Header, data
}

// rawResponse splits a 200 body into the byte-comparable solution block and
// the decoded meta block.
type rawResponse struct {
	Solution json.RawMessage `json:"solution"`
	Meta     MetaBody        `json:"meta"`
}

func decodeResponse(t *testing.T, data []byte) (rawResponse, SolutionBody) {
	t.Helper()
	var raw rawResponse
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatalf("decoding response %s: %v", data, err)
	}
	var sol SolutionBody
	if err := json.Unmarshal(raw.Solution, &sol); err != nil {
		t.Fatalf("decoding solution: %v", err)
	}
	return raw, sol
}

func decodeError(t *testing.T, data []byte) ErrorDetail {
	t.Helper()
	var body ErrorBody
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatalf("decoding error body %s: %v", data, err)
	}
	return body.Error
}

const twoTaskBody = `{
  "totalNodes": 64,
  "tasks": [
    {"name": "frag-a", "params": {"a": 1200, "b": 0.004, "c": 1.1, "d": 1.5}},
    {"name": "frag-b", "params": {"a": 300, "b": 0.001, "c": 1.05, "d": 2.0}},
    {"name": "frag-c", "params": {"a": 900, "b": 0.002, "c": 1.2, "d": 0.5}}
  ]
}`

// TestEndpointsHappyPath: all three solve routes accept the same body and
// return a well-formed optimal solution; a repeat hits the cache and
// marshals to identical bytes.
func TestEndpointsHappyPath(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	for _, route := range []string{"solve", "minlp", "parametric"} {
		url := ts.URL + "/v1/" + route
		status, hdr, data := postJSON(t, url, twoTaskBody)
		if status != 200 {
			t.Fatalf("%s: status %d body %s", route, status, data)
		}
		if got := hdr.Get("X-HSLB-Cache"); got != "miss" {
			t.Fatalf("%s: first request X-HSLB-Cache = %q, want miss", route, got)
		}
		raw, sol := decodeResponse(t, data)
		if raw.Meta.Cached || raw.Meta.Route != route {
			t.Fatalf("%s: meta %+v", route, raw.Meta)
		}
		if sol.Status != "optimal" {
			t.Fatalf("%s: status %q", route, sol.Status)
		}
		if len(sol.Allocation) != 3 || sol.Allocation[0].Name != "frag-a" ||
			sol.Allocation[1].Name != "frag-b" || sol.Allocation[2].Name != "frag-c" {
			t.Fatalf("%s: allocation not in request order: %+v", route, sol.Allocation)
		}
		used := 0
		maxTime := 0.0
		for _, a := range sol.Allocation {
			if a.Nodes < 1 {
				t.Fatalf("%s: task %s got %d nodes", route, a.Name, a.Nodes)
			}
			used += a.Nodes
			if a.Time > maxTime {
				maxTime = a.Time
			}
		}
		if used != sol.Used || used > 64 {
			t.Fatalf("%s: used %d (body says %d)", route, used, sol.Used)
		}
		if sol.Makespan != maxTime || sol.Objective != sol.Makespan {
			t.Fatalf("%s: makespan %v vs max time %v", route, sol.Makespan, maxTime)
		}

		status2, hdr2, data2 := postJSON(t, url, twoTaskBody)
		if status2 != 200 {
			t.Fatalf("%s repeat: status %d", route, status2)
		}
		if got := hdr2.Get("X-HSLB-Cache"); got != "hit" {
			t.Fatalf("%s repeat: X-HSLB-Cache = %q, want hit", route, got)
		}
		raw2, _ := decodeResponse(t, data2)
		if !raw2.Meta.Cached {
			t.Fatalf("%s repeat: not served from cache", route)
		}
		if !bytes.Equal(raw.Solution, raw2.Solution) {
			t.Fatalf("%s: cached solution differs:\n%s\n%s", route, raw.Solution, raw2.Solution)
		}
	}
	st := srv.Stats()
	if st.Hits != 3 || st.Misses != 3 || st.Solves != 3 || st.CacheSize != 3 {
		t.Fatalf("counters after 3×(miss+hit): %+v", st)
	}
}

func TestHealthzStatz(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	resp.Body.Close()

	status, _, data := postJSON(t, ts.URL+"/v1/healthz", "{}")
	if status != 405 || decodeError(t, data).Code != CodeMethodNotAllowed {
		t.Fatalf("POST healthz: %d %s", status, data)
	}

	resp, err = http.Get(ts.URL + "/v1/statz")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("statz decode: %v", err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 405 {
		t.Fatalf("GET solve: %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestMalformedRequests: every malformed body maps to a typed 400, never a
// panic or an untyped 500.
func TestMalformedRequests(t *testing.T) {
	_, ts := newTestServer(t, func(o *ServerOptions) {
		o.MaxTasks = 8
		o.MaxTotalNodes = 1 << 16
	})
	cases := []struct {
		name string
		body string
	}{
		{"empty body", ``},
		{"not json", `{"totalNodes": `},
		{"trailing data", `{"totalNodes": 4, "tasks": [{"params": {"a": 1}}]} true`},
		{"unknown field", `{"totalNodes": 4, "bogus": 1, "tasks": [{"params": {"a": 1}}]}`},
		{"no tasks", `{"totalNodes": 4, "tasks": []}`},
		{"zero nodes", `{"totalNodes": 0, "tasks": [{"params": {"a": 1}}]}`},
		{"negative nodes", `{"totalNodes": -3, "tasks": [{"params": {"a": 1}}]}`},
		{"huge nodes", `{"totalNodes": 99999999, "tasks": [{"params": {"a": 1}}]}`},
		{"too many tasks", `{"totalNodes": 4, "tasks": [` +
			strings.Repeat(`{"params": {"a": 1}},`, 8) + `{"params": {"a": 1}}]}`},
		{"bad objective", `{"totalNodes": 4, "objective": "min-avg", "tasks": [{"params": {"a": 1}}]}`},
		{"negative deadline", `{"totalNodes": 4, "deadlineMs": -5, "tasks": [{"params": {"a": 1}}]}`},
		{"nan param", `{"totalNodes": 4, "tasks": [{"params": {"a": NaN}}]}`},
		{"string param", `{"totalNodes": 4, "tasks": [{"params": {"a": "fast"}}]}`},
		{"negative param", `{"totalNodes": 4, "tasks": [{"params": {"a": -1}}]}`},
		{"params and samples", `{"totalNodes": 4, "tasks": [{"params": {"a": 1},
			"samples": [{"nodes": 1, "time": 2}]}]}`},
		{"neither params nor samples", `{"totalNodes": 4, "tasks": [{"name": "x"}]}`},
		{"bad sample", `{"totalNodes": 4, "tasks": [{"samples": [
			{"nodes": 0, "time": 2}, {"nodes": 2, "time": 1},
			{"nodes": 3, "time": 1}, {"nodes": 4, "time": 1}]}]}`},
		{"negative minNodes", `{"totalNodes": 4, "tasks": [{"params": {"a": 1}, "minNodes": -2}]}`},
		{"min above max", `{"totalNodes": 4, "tasks": [{"params": {"a": 1}, "minNodes": 3, "maxNodes": 2}]}`},
		{"unsorted allowed", `{"totalNodes": 4, "tasks": [{"params": {"a": 1}, "allowed": [4, 2]}]}`},
		{"allowed above total", `{"totalNodes": 4, "tasks": [{"params": {"a": 1}, "allowed": [2, 8]}]}`},
		{"tasks first, empty", `{"tasks": [], "totalNodes": 4}`},
		{"negative a with c", `{"totalNodes": 8, "tasks": [{"params": {"a": -1, "c": 1}}]}`},
		{"bare words", `not json`},
		// One millisecond past the largest deadline a time.Duration holds.
		{"overflowing deadline", `{"totalNodes": 8, "deadlineMs": 9223372036855, "tasks": [{"params": {"a": 1, "c": 1}}]}`},
	}
	for _, tc := range cases {
		status, _, data := postJSON(t, ts.URL+"/v1/solve", tc.body)
		if status != 400 {
			t.Fatalf("%s: status %d body %s", tc.name, status, data)
		}
		if det := decodeError(t, data); det.Code != CodeBadRequest || det.Message == "" {
			t.Fatalf("%s: error detail %+v", tc.name, det)
		}
	}
}

// TestRejectsAtEdge: a body that fails decoding or validation is refused
// before it reaches the cache or the solver, and the refusal is the same
// bytes on every solver route, since all three share one decoder.
func TestRejectsAtEdge(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	for _, body := range []string{
		`{"tasks": [], "totalNodes": 4}`,
		`{"totalNodes": 8, "tasks": [{"params": {"a": -1, "c": 1}}]}`,
		`not json`,
		// One millisecond past the largest deadline a time.Duration holds.
		`{"totalNodes": 8, "deadlineMs": 9223372036855, "tasks": [{"params": {"a": 1, "c": 1}}]}`,
	} {
		status, _, ref := postJSON(t, ts.URL+"/v1/solve", body)
		if status != 400 || decodeError(t, ref).Code != CodeBadRequest {
			t.Fatalf("%q: status %d body %s, want a typed 400", body, status, ref)
		}
		for _, route := range []string{"minlp", "parametric"} {
			status, _, data := postJSON(t, ts.URL+"/v1/"+route, body)
			if status != 400 || !bytes.Equal(data, ref) {
				t.Fatalf("%q: /v1/%s answers %d %s, /v1/solve 400 %s", body, route, status, data, ref)
			}
		}
	}
	st := srv.Stats()
	if st.Requests != 12 || st.Hits != 0 || st.Misses != 0 || st.Solves != 0 ||
		st.Rejected != 0 || st.CacheSize != 0 {
		t.Fatalf("statz after 12 malformed bodies: %+v, want 12 requests and no cache or solver work", st)
	}
}

func TestInsufficientSamples(t *testing.T) {
	_, ts := newTestServer(t, nil)
	body := `{"totalNodes": 16, "tasks": [{"name": "sparse", "samples": [
		{"nodes": 1, "time": 10}, {"nodes": 2, "time": 6}]}]}`
	status, _, data := postJSON(t, ts.URL+"/v1/solve", body)
	if status != 422 {
		t.Fatalf("status %d body %s", status, data)
	}
	det := decodeError(t, data)
	if det.Code != CodeInsufficientSamples || det.Task != "sparse" {
		t.Fatalf("error detail %+v", det)
	}
}

func TestSampleFittingPath(t *testing.T) {
	// A task given enough samples is fitted server-side and solved like any
	// other; the fit is seeded, so repeating the request hits the cache.
	_, ts := newTestServer(t, nil)
	body := `{"totalNodes": 32, "tasks": [
		{"name": "fitted", "samples": [
			{"nodes": 1, "time": 100}, {"nodes": 2, "time": 52},
			{"nodes": 4, "time": 27}, {"nodes": 8, "time": 15},
			{"nodes": 16, "time": 9}]},
		{"name": "direct", "params": {"a": 80, "b": 0.01, "c": 1.0, "d": 1.0}}]}`
	status, _, data := postJSON(t, ts.URL+"/v1/solve", body)
	if status != 200 {
		t.Fatalf("status %d body %s", status, data)
	}
	_, sol := decodeResponse(t, data)
	if sol.Status != "optimal" || len(sol.Allocation) != 2 {
		t.Fatalf("solution %+v", sol)
	}
	_, _, data2 := postJSON(t, ts.URL+"/v1/solve", body)
	raw2, _ := decodeResponse(t, data2)
	if !raw2.Meta.Cached {
		t.Fatal("seeded fit should canonicalize to the same key on repeat")
	}
}

func TestMinlpMaxMinUnsupported(t *testing.T) {
	_, ts := newTestServer(t, nil)
	body := `{"totalNodes": 16, "objective": "max-min", "tasks": [
		{"params": {"a": 10, "c": 1}}, {"params": {"a": 20, "c": 1}}]}`
	status, _, data := postJSON(t, ts.URL+"/v1/minlp", body)
	if status != 400 {
		t.Fatalf("status %d body %s", status, data)
	}
	if det := decodeError(t, data); det.Code != CodeUnsupported {
		t.Fatalf("error detail %+v", det)
	}
	// The automatic route handles it via the parametric fallback.
	status, _, data = postJSON(t, ts.URL+"/v1/solve", body)
	if status != 200 {
		t.Fatalf("auto route: status %d body %s", status, data)
	}
	if _, sol := decodeResponse(t, data); sol.Status != "optimal" {
		t.Fatalf("auto route solution %+v", sol)
	}
}

// bigBody builds a request large enough that a nanosecond deadline cannot
// complete the branch-and-bound proof.
func bigBody(seed int) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"totalNodes": 4096, "tasks": [`)
	for i := 0; i < 10; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"params": {"a": %d, "b": 0.00%d1, "c": 1.%d, "d": %d.5}}`,
			50000+i*7919+seed*104729, i+1, (i+seed)%7+1, i%3)
	}
	b.WriteString("]}")
	return b.String()
}

// TestDeadlineExpiry: with an effectively zero deadline the MINLP route
// must degrade gracefully — a bounded incumbent with its gap, or a typed
// 504 carrying the proven bound — and must never cache the deadline
// artifact.
func TestDeadlineExpiry(t *testing.T) {
	srv, ts := newTestServer(t, func(o *ServerOptions) {
		o.DefaultDeadline = time.Nanosecond
	})
	sawLimit := false
	optimal := 0
	for seed := 0; seed < 10 && !sawLimit; seed++ {
		status, _, data := postJSON(t, ts.URL+"/v1/minlp", bigBody(seed))
		switch status {
		case 200:
			_, sol := decodeResponse(t, data)
			switch sol.Status {
			case "optimal":
				// The root relaxation happened to be integral; try another.
				optimal++
			case "bounded":
				sawLimit = true
				if sol.Gap < 0 {
					t.Fatalf("negative gap: %+v", sol)
				}
				if sol.BestBound != 0 && sol.BestBound > sol.Objective+1e-6 {
					t.Fatalf("bound above incumbent: %+v", sol)
				}
			default:
				t.Fatalf("status %q", sol.Status)
			}
		case 504:
			sawLimit = true
			det := decodeError(t, data)
			if det.Code != CodeNoIncumbent {
				t.Fatalf("504 detail %+v", det)
			}
		default:
			t.Fatalf("status %d body %s", status, data)
		}
	}
	if !sawLimit {
		t.Fatal("no instance hit the nanosecond deadline; enlarge bigBody")
	}
	if st := srv.Stats(); st.CacheSize != int64(optimal) {
		t.Fatalf("deadline artifacts leaked into the cache: %+v (optimal=%d)", st, optimal)
	}
}

// TestMaxDeadlineClamp: a huge client deadline is clamped to MaxDeadline
// on the MINLP route.
func TestMaxDeadlineClamp(t *testing.T) {
	_, ts := newTestServer(t, func(o *ServerOptions) {
		o.MaxDeadline = time.Nanosecond
	})
	sawLimit := false
	for seed := 0; seed < 10 && !sawLimit; seed++ {
		body := strings.Replace(bigBody(seed), `{"totalNodes"`, `{"deadlineMs": 3600000, "totalNodes"`, 1)
		status, _, data := postJSON(t, ts.URL+"/v1/minlp", body)
		if status == 504 {
			sawLimit = true
			continue
		}
		if status != 200 {
			t.Fatalf("status %d body %s", status, data)
		}
		if _, sol := decodeResponse(t, data); sol.Status == "bounded" {
			sawLimit = true
		}
	}
	if !sawLimit {
		t.Fatal("hour-long client deadline was not clamped to the server cap")
	}
}

// TestSolveRouteCertified: min-max /v1/solve answers with the certified
// parametric optimum, so even a nanosecond deadline, which the MINLP cannot
// meet, gets an optimal answer without a branch-and-bound node. Where the
// MINLP proves its answer, both routes serve the same solution bytes.
func TestSolveRouteCertified(t *testing.T) {
	srv, ts := newTestServer(t, func(o *ServerOptions) {
		o.DefaultDeadline = time.Nanosecond
	})
	for seed := 0; seed < 10; seed++ {
		status, hdr, data := postJSON(t, ts.URL+"/v1/solve", bigBody(seed))
		if status != 200 || hdr.Get("X-HSLB-Cache") != "miss" {
			t.Fatalf("seed %d: status %d cache %q body %s", seed, status, hdr.Get("X-HSLB-Cache"), data)
		}
		raw, sol := decodeResponse(t, data)
		if sol.Status != "optimal" || raw.Meta.SolverNodes != 0 {
			t.Fatalf("seed %d: status %q solverNodes %d, want optimal with no MINLP node", seed, sol.Status, raw.Meta.SolverNodes)
		}
		req, herr := decodeSolveRequest([]byte(bigBody(seed)), &srv.opts)
		if herr != nil {
			t.Fatal(herr)
		}
		prob, herr := buildProblem(req)
		if herr != nil {
			t.Fatal(herr)
		}
		want, err := prob.SolveParametric()
		if err != nil {
			t.Fatal(err)
		}
		if sol.Makespan != want.Makespan {
			t.Fatalf("seed %d: makespan %v, SolveParametric %v", seed, sol.Makespan, want.Makespan)
		}
		status, hdr, data2 := postJSON(t, ts.URL+"/v1/solve", bigBody(seed))
		if raw2, _ := decodeResponse(t, data2); status != 200 || hdr.Get("X-HSLB-Cache") != "hit" ||
			!bytes.Equal(raw2.Solution, raw.Solution) {
			t.Fatalf("seed %d: repeat status %d cache %q", seed, status, hdr.Get("X-HSLB-Cache"))
		}
	}
	if st := srv.Stats(); st.Certified != 10 || st.CertFallbacks != 0 || st.Bounded != 0 {
		t.Fatalf("statz after 10 certified solves: %+v", st)
	}

	_, open := newTestServer(t, nil)
	_, _, minlp := postJSON(t, open.URL+"/v1/minlp", twoTaskBody)
	_, _, auto := postJSON(t, open.URL+"/v1/solve", twoTaskBody)
	rawM, solM := decodeResponse(t, minlp)
	rawA, _ := decodeResponse(t, auto)
	if solM.Status != "optimal" || rawM.Meta.SolverNodes == 0 {
		t.Fatalf("/v1/minlp did not prove twoTaskBody: %s", minlp)
	}
	if !bytes.Equal(rawA.Solution, rawM.Solution) {
		t.Fatalf("/v1/solve and /v1/minlp solutions differ:\n%s\n%s", rawA.Solution, rawM.Solution)
	}
}

// TestOverflowingDeadlineRejected: a deadlineMs whose time.Duration would
// wrap negative (and so slip past MaxDeadline) is refused with the typed
// 400; the largest representable one is accepted and capped by
// MaxDeadline.
func TestOverflowingDeadlineRejected(t *testing.T) {
	srv, ts := newTestServer(t, func(o *ServerOptions) {
		o.MaxDeadline = time.Minute
	})
	withDeadline := func(ms string) string {
		return strings.Replace(twoTaskBody, `"totalNodes"`, `"deadlineMs": `+ms+`, "totalNodes"`, 1)
	}
	status, _, data := postJSON(t, ts.URL+"/v1/solve", withDeadline("9223372036855"))
	if status != 400 {
		t.Fatalf("overflowing deadline: status %d body %s, want 400", status, data)
	}
	if det := decodeError(t, data); det.Code != CodeBadRequest {
		t.Fatalf("overflowing deadline: detail %+v, want %s", det, CodeBadRequest)
	}

	largest := withDeadline("9223372036854")
	req, herr := decodeSolveRequest([]byte(largest), &srv.opts)
	if herr != nil {
		t.Fatalf("largest representable deadline rejected: %v", herr)
	}
	if d := srv.effectiveDeadline(req.DeadlineMs); d != time.Minute {
		t.Fatalf("largest representable deadline resolved to %v, want the %v cap", d, time.Minute)
	}
	if status, _, data := postJSON(t, ts.URL+"/v1/solve", largest); status != 200 {
		t.Fatalf("largest representable deadline: status %d body %s", status, data)
	}
}

// Two-task, 8-node min-max bodies whose first task has nᶜ overflow for
// c = 2000. With b = 0 the overhead term is absent and every time is
// finite; with b = 1 the model time is +Inf above one node, which the
// decoder refuses whether or not the optimum would avoid those counts.
const (
	zeroOverheadBody = `{"totalNodes": 8, "tasks": [
		{"name": "steep", "params": {"a": 10, "b": 0, "c": 2000, "d": 1}},
		{"name": "plain", "params": {"a": 30, "b": 0.01, "c": 1.1, "d": 1}}]}`
	overflowMinNodesBody = `{"totalNodes": 8, "tasks": [
		{"name": "steep", "params": {"a": 10, "b": 1, "c": 2000, "d": 1}, "minNodes": 2},
		{"name": "plain", "params": {"a": 30, "b": 0.01, "c": 1.1, "d": 1}}]}`
	overflowAllNodesBody = `{"totalNodes": 8, "useAllNodes": true, "tasks": [
		{"name": "steep", "params": {"a": 10, "b": 1, "c": 2000, "d": 1}},
		{"name": "plain", "params": {"a": 30, "b": 0.01, "c": 1.1, "d": 1}}]}`
)

// TestNonFiniteModelTimes: a model time that overflows used to be served as
// an empty HTTP 200 (a NaN or +Inf makespan fails JSON encoding after the
// header is written) and cached. A b = 0 task is now answered on every
// route at the DP optimum, and a task whose time overflows on its
// admissible counts gets the typed 400.
func TestNonFiniteModelTimes(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	req, herr := decodeSolveRequest([]byte(zeroOverheadBody), &srv.opts)
	if herr != nil {
		t.Fatal(herr)
	}
	prob, herr := buildProblem(req)
	if herr != nil {
		t.Fatal(herr)
	}
	dp, err := prob.SolveDP()
	if err != nil || math.IsInf(dp.Makespan, 0) || math.IsNaN(dp.Makespan) {
		t.Fatalf("DP: makespan %v err %v", dp.Makespan, err)
	}
	for _, route := range []string{"solve", "minlp", "parametric"} {
		status, _, data := postJSON(t, ts.URL+"/v1/"+route, zeroOverheadBody)
		if status != 200 || len(data) == 0 {
			t.Fatalf("%s: b = 0 body: status %d body %q", route, status, data)
		}
		if _, sol := decodeResponse(t, data); sol.Status != "optimal" || sol.Makespan != dp.Makespan {
			t.Fatalf("%s: b = 0 body: %s makespan %v, DP %v", route, sol.Status, sol.Makespan, dp.Makespan)
		}
		for _, body := range []string{overflowMinNodesBody, overflowAllNodesBody} {
			status, _, data := postJSON(t, ts.URL+"/v1/"+route, body)
			if status != 400 {
				t.Fatalf("%s: overflowing model: status %d body %q, want 400", route, status, data)
			}
			if det := decodeError(t, data); det.Code != CodeBadRequest || !strings.Contains(det.Message, "overflows") {
				t.Fatalf("%s: overflowing model: error %+v", route, det)
			}
		}
	}
	if st := srv.Stats(); st.CacheSize != 3 || st.Solves != 3 {
		t.Fatalf("statz: %+v, want one solve and one cache entry per route", st)
	}
}

// TestClientCancellation: a client that goes away mid-request releases its
// interest; the last-to-leave cancels the in-flight solve.
func TestClientCancellation(t *testing.T) {
	srv, ts := newParkingServer(t, nil)
	srv.sem <- struct{}{} // park the leader in admission so timing is ours
	defer func() { <-srv.sem }()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/solve", strings.NewReader(twoTaskBody))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	// Wait until the request has joined the flight group, then hang up.
	waitFor(t, func() bool { return flightWaiters(srv) == 1 }, "request joined the flight group")
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("client saw %v, want context.Canceled", err)
	}
	// The abandoned flight must be torn down and counted, and the leader's
	// solve context cancelled so no solver work runs for nobody.
	waitFor(t, func() bool { return flightWaiters(srv) == 0 }, "flight group drained")
	waitFor(t, func() bool { return srv.Stats().Canceled == 1 }, "canceled counter")
	if st := srv.Stats(); st.Solves != 0 || st.CacheSize != 0 {
		t.Fatalf("abandoned request still solved: %+v", st)
	}
}

// TestCancellationReachesSolver: an already-abandoned flight context makes
// the solver return context.Canceled through SolveContext, not a result.
func TestCancellationReachesSolver(t *testing.T) {
	srv, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	call, leader := srv.flight.join(srv.base, "k")
	if !leader {
		t.Fatal("first join must lead")
	}
	srv.flight.leave("k", call) // last waiter leaves → ctx cancelled
	req, herr := decodeSolveRequest([]byte(twoTaskBody), &srv.opts)
	if herr != nil {
		t.Fatalf("decode: %v", herr)
	}
	prob, herr := buildProblem(req)
	if herr != nil {
		t.Fatalf("build: %v", herr)
	}
	canon := canonicalize(routeSolve, prob)
	srv.runSolve(routeSolve, "k", call, canon, 0)
	<-call.done
	if !errors.Is(call.err, context.Canceled) {
		t.Fatalf("solve returned (%v, %v), want context.Canceled", call.sol, call.err)
	}
}

// TestSingleflightCollapse: concurrent identical requests share one solve.
func TestSingleflightCollapse(t *testing.T) {
	const clients = 6
	srv, ts := newParkingServer(t, func(o *ServerOptions) { o.DisableCache = true })
	srv.sem <- struct{}{} // park the leader until every client has joined
	var wg sync.WaitGroup
	solutions := make([][]byte, clients)
	collapsed := make([]bool, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(twoTaskBody))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				errs[i] = err
				return
			}
			if resp.StatusCode != 200 {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, data)
				return
			}
			var raw rawResponse
			if err := json.Unmarshal(data, &raw); err != nil {
				errs[i] = err
				return
			}
			solutions[i] = raw.Solution
			collapsed[i] = raw.Meta.Collapsed
		}(i)
	}
	waitFor(t, func() bool { return flightWaiters(srv) == clients }, "every client joined the flight")
	<-srv.sem
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	nCollapsed := 0
	for i := 0; i < clients; i++ {
		if !bytes.Equal(solutions[i], solutions[0]) {
			t.Fatalf("client %d got a different solution", i)
		}
		if collapsed[i] {
			nCollapsed++
		}
	}
	st := srv.Stats()
	if st.Solves != 1 {
		t.Fatalf("%d clients caused %d solves, want 1 (stats %+v)", clients, st.Solves, st)
	}
	if st.Collapsed != clients-1 || nCollapsed != clients-1 {
		t.Fatalf("collapsed counter %d / meta count %d, want %d", st.Collapsed, nCollapsed, clients-1)
	}
	if st.Misses != clients {
		t.Fatalf("misses %d, want %d", st.Misses, clients)
	}
}

// TestQueueFull: with every solve slot taken and no queue budget, new work
// is rejected with a typed 429.
func TestQueueFull(t *testing.T) {
	srv, ts := newTestServer(t, func(o *ServerOptions) {
		o.MaxInFlight = 1
		o.QueueTimeout = 0
	})
	srv.sem <- struct{}{} // occupy the only slot
	defer func() { <-srv.sem }()
	status, _, data := postJSON(t, ts.URL+"/v1/solve", twoTaskBody)
	if status != 429 {
		t.Fatalf("status %d body %s", status, data)
	}
	if det := decodeError(t, data); det.Code != CodeQueueFull {
		t.Fatalf("error detail %+v", det)
	}
	if st := srv.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected counter %+v", st)
	}
}

// TestCacheEviction: the LRU stays bounded and evicts in exact
// least-recently-used order.
func TestCacheEviction(t *testing.T) {
	srv, ts := newTestServer(t, func(o *ServerOptions) { o.CacheSize = 2 })
	// Note the distinct c exponents: with c shared, a = 10 vs 20 would be an
	// exact power-of-two rescaling and correctly share one cache slot.
	bodies := []string{
		`{"totalNodes": 8, "tasks": [{"params": {"a": 10, "c": 1.0}}]}`,
		`{"totalNodes": 8, "tasks": [{"params": {"a": 20, "c": 1.1}}]}`,
		`{"totalNodes": 8, "tasks": [{"params": {"a": 30, "c": 1.2}}]}`,
	}
	for _, b := range bodies {
		postJSON(t, ts.URL+"/v1/solve", b)
	}
	if st := srv.Stats(); st.CacheSize != 2 {
		t.Fatalf("cache size %d, want 2", st.CacheSize)
	}
	// The first body was evicted: requesting it again is a miss.
	_, hdr, _ := postJSON(t, ts.URL+"/v1/solve", bodies[0])
	if hdr.Get("X-HSLB-Cache") != "miss" {
		t.Fatal("evicted entry still served from cache")
	}
	// The third is still resident.
	_, hdr, _ = postJSON(t, ts.URL+"/v1/solve", bodies[2])
	if hdr.Get("X-HSLB-Cache") != "hit" {
		t.Fatal("resident entry missed")
	}
}

// TestConcurrentClients hammers one server from many goroutines over a few
// distinct instances: all responses must succeed and agree per instance.
// The first wave parks until every client has joined its instance's
// flight, so it costs one solve per instance; the second wave is all cache
// hits. Run under -race this doubles as the data-race check on cache,
// flight group, and counters.
func TestConcurrentClients(t *testing.T) {
	srv, ts := newParkingServer(t, nil)
	bodies := []string{
		twoTaskBody,
		`{"totalNodes": 32, "tasks": [{"params": {"a": 100, "b": 0.01, "c": 1.1, "d": 1}},
			{"params": {"a": 50, "c": 1}}]}`,
		`{"totalNodes": 16, "objective": "min-sum", "tasks": [{"params": {"a": 10, "c": 1}},
			{"params": {"a": 5, "c": 1}}]}`,
	}
	const perBody = 8
	var mu sync.Mutex
	first := make([][]byte, len(bodies))
	wave := func(release func()) {
		var wg sync.WaitGroup
		for bi := range bodies {
			for c := 0; c < perBody; c++ {
				wg.Add(1)
				go func(bi int) {
					defer wg.Done()
					resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(bodies[bi]))
					if err != nil {
						t.Errorf("body %d: %v", bi, err)
						return
					}
					defer resp.Body.Close()
					data, _ := io.ReadAll(resp.Body)
					if resp.StatusCode != 200 {
						t.Errorf("body %d: status %d: %s", bi, resp.StatusCode, data)
						return
					}
					var raw rawResponse
					if err := json.Unmarshal(data, &raw); err != nil {
						t.Errorf("body %d: %v", bi, err)
						return
					}
					mu.Lock()
					defer mu.Unlock()
					if first[bi] == nil {
						first[bi] = raw.Solution
					} else if !bytes.Equal(first[bi], raw.Solution) {
						t.Errorf("body %d: divergent solutions", bi)
					}
				}(bi)
			}
		}
		release()
		wg.Wait()
	}
	clients := int64(len(bodies) * perBody)
	srv.sem <- struct{}{}
	wave(func() {
		waitFor(t, func() bool { return flightWaiters(srv) == int(clients) }, "every client joined a flight")
		<-srv.sem
	})
	if st := srv.Stats(); st.Solves != int64(len(bodies)) || st.Collapsed != clients-int64(len(bodies)) {
		t.Fatalf("parked wave: %+v, want %d solves and %d collapsed", st, len(bodies), clients-int64(len(bodies)))
	}
	wave(func() {})
	if st := srv.Stats(); st.Hits != clients || st.Solves != int64(len(bodies)) {
		t.Fatalf("second wave: %+v, want %d hits and no new solve", st, clients)
	}
}

// failingParametricBody is an instance the parametric route reliably fails
// on: max-min requires handing out the whole budget, but the allowed sets
// can only sum to 4, 6, or 8 nodes — never 7.
const failingParametricBody = `{
  "totalNodes": 7,
  "objective": "max-min",
  "tasks": [
    {"params": {"a": 100, "b": 0, "c": 1, "d": 0}, "allowed": [2, 4]},
    {"params": {"a": 80, "b": 0, "c": 1, "d": 0}, "allowed": [2, 4]}
  ]
}`

// TestSingleflightCounterAudit pins the counting discipline under
// singleflight collapse on a failing solve. Historically solveErrors was
// counted once per waiter — k collapsed requests sharing one failed
// dispatch reported k+1 solver errors. The audit: request-scoped counters
// move once per request, flight-scoped ones once per dispatch.
func TestSingleflightCounterAudit(t *testing.T) {
	srv, ts := newParkingServer(t, nil)
	srv.sem <- struct{}{} // park the leader until every client has joined
	const clients = 4
	var wg sync.WaitGroup
	statuses := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/parametric", "application/json",
				strings.NewReader(failingParametricBody))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			resp.Body.Close()
			statuses[i] = resp.StatusCode
		}(i)
	}
	waitFor(t, func() bool { return flightWaiters(srv) == clients }, "every client joined the flight")
	<-srv.sem
	wg.Wait()
	for i, s := range statuses {
		if s != 500 {
			t.Fatalf("client %d: status %d, want 500 (instance no longer fails?)", i, s)
		}
	}
	st := srv.Stats()
	if st.Requests != clients || st.Misses != clients {
		t.Fatalf("request-scoped counters: %+v, want requests=misses=%d", st, clients)
	}
	if st.Solves != 1 || st.SolveErrors != 1 {
		t.Fatalf("flight-scoped counters: %+v, want solves=solveErrors=1 for %d collapsed clients", st, clients)
	}
	if st.Collapsed != clients-1 {
		t.Fatalf("collapsed = %d, want %d", st.Collapsed, clients-1)
	}
	if st.Hits != 0 || st.Rejected != 0 || st.Bounded != 0 {
		t.Fatalf("unexpected counter movement: %+v", st)
	}
}

// TestQueueFullRejectedPerWaiter: admission rejection is a request-scoped
// verdict. Every waiter sharing the rejected flight gets the 429 and must
// be counted — the old flight-scoped count reported 1 rejection for any
// number of collapsed clients.
func TestQueueFullRejectedPerWaiter(t *testing.T) {
	srv, ts := newParkingServer(t, func(o *ServerOptions) { o.QueueTimeout = time.Second })
	srv.sem <- struct{}{} // occupy the only solve slot
	defer func() { <-srv.sem }()
	// Stop every client at its flight join, so the leader's queue timer
	// starts only once all of them are about to join its flight.
	srv.flight.mu.Lock()
	release := sync.OnceFunc(srv.flight.mu.Unlock)
	defer release()

	const clients = 3
	var wg sync.WaitGroup
	statuses := make([]int, clients)
	codes := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(twoTaskBody))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			data := make([]byte, 4096)
			n, _ := resp.Body.Read(data)
			resp.Body.Close()
			statuses[i] = resp.StatusCode
			var body ErrorBody
			_ = json.Unmarshal(data[:n], &body)
			codes[i] = body.Error.Code
		}(i)
	}
	waitFor(t, func() bool { return srv.Stats().Misses == clients }, "every client reached the flight group")
	release()
	wg.Wait()
	for i := range statuses {
		if statuses[i] != 429 || codes[i] != CodeQueueFull {
			t.Fatalf("client %d: status %d code %q, want 429 %q", i, statuses[i], codes[i], CodeQueueFull)
		}
	}
	st := srv.Stats()
	if st.Rejected != clients {
		t.Fatalf("rejected = %d, want %d (one per bounced waiter): %+v", st.Rejected, clients, st)
	}
	if st.Solves != 0 || st.SolveErrors != 0 {
		t.Fatalf("a rejected flight must not count as solver work: %+v", st)
	}
	if st.Collapsed != clients-1 {
		t.Fatalf("collapsed = %d, want %d (the clients did not share one flight)", st.Collapsed, clients-1)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// newParkingServer is a test server with one solve slot and a minute of
// queue budget: a test that holds the slot (srv.sem <- struct{}{}) parks
// every flight leader in admission until it frees the slot.
func newParkingServer(t *testing.T, mutate func(*ServerOptions)) (*Server, *httptest.Server) {
	return newTestServer(t, func(o *ServerOptions) {
		o.MaxInFlight = 1
		o.QueueTimeout = time.Minute
		if mutate != nil {
			mutate(o)
		}
	})
}

// flightWaiters counts the requests currently joined to a flight.
func flightWaiters(srv *Server) int {
	srv.flight.mu.Lock()
	defer srv.flight.mu.Unlock()
	n := 0
	for _, c := range srv.flight.calls {
		n += c.waiters
	}
	return n
}
