package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/perfmodel"
)

func TestSameSeedSameStream(t *testing.T) {
	stream := func(w *workload, seed int64) []byte {
		var buf bytes.Buffer
		for _, r := range append(w.plan(seed, 24, 2).warmup, w.plan(seed, 24, 2).timed...) {
			fmt.Fprintf(&buf, "%s %d %s\n", r.path, r.at, r.body)
		}
		return buf.Bytes()
	}
	for i := range workloads {
		w := &workloads[i]
		a, b, c := stream(w, 7), stream(w, 7), stream(w, 8)
		if len(a) == 0 {
			t.Fatalf("%s: empty stream", w.name)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different request streams", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", w.name)
		}
	}
}

// oneTaskRequest is a request whose only answer is one node, makespan 1.
func oneTaskRequest(at time.Duration) *request {
	inst := newInstance(1, 1)
	inst.params[0] = perfmodel.Params{A: 1, C: 1}
	r := newRequest(pathParametric, inst, 0)
	r.ref, r.at = 1, at
	return r
}

func TestOpenLoopCountsStallAgainstLaterRequests(t *testing.T) {
	const stall = 300 * time.Millisecond
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if served.Add(1) == 1 {
			time.Sleep(stall)
		}
		fmt.Fprint(w, `{"solution":{"status":"optimal","allocation":[{"name":"frag-0","nodes":1}],"makespan":1}}`)
	}))
	defer srv.Close()
	c := newClient(srv.URL, 1, nil)
	defer c.close()
	var reqs []*request
	for i := 0; i < 4; i++ {
		reqs = append(reqs, oneTaskRequest(time.Duration(i)*20*time.Millisecond))
	}
	outs, _ := runOpen(c, reqs, 1)
	for i := range outs {
		if outs[i].check(); !outs[i].ok() {
			t.Fatalf("request %d: %v", i, outs[i].err)
		}
	}
	// Request 1 was due 20ms after the stalled request 0 and waited for it.
	if got, min := outs[1].latency(), stall-20*time.Millisecond; got < min {
		t.Errorf("request 1 latency %v, want at least %v", got, min)
	}
	if got := outs[1].sent.Sub(outs[1].due); got < stall/2 {
		t.Errorf("request 1 waited %v before it was sent, want the stall", got)
	}
}

func TestRefusedRequestIsSentAgain(t *testing.T) {
	const wait = 50 * time.Millisecond
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if served.Add(1) <= 2 {
			time.Sleep(wait) // a queue wait that ends in a refusal
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":{"code":"queue_full"}}`)
			return
		}
		fmt.Fprint(w, `{"solution":{"status":"optimal","allocation":[{"name":"frag-0","nodes":1}],"makespan":1}}`)
	}))
	defer srv.Close()
	c := newClient(srv.URL, 1, nil)
	defer c.close()
	o := c.send(oneTaskRequest(0), 0)
	if o.check(); !o.ok() {
		t.Fatalf("request failed after %d attempts: %v", o.attempts, o.err)
	}
	if o.attempts != 3 || o.refused != 2 {
		t.Errorf("%d attempts, %d refused; want 3 and 2", o.attempts, o.refused)
	}
	if got := o.latency(); got < 2*wait {
		t.Errorf("latency %v does not include the two refusals' waits", got)
	}
	e2e := endToEndValues(&result{outs: []outcome{o}})
	if v := e2e["slo_attainment"]; v.v != 0 {
		t.Errorf("a request answered after refusals met its latency limit: slo_attainment %v", v.v)
	}
	if v := e2e["error_rate"]; v.v != 0 {
		t.Errorf("a request answered after refusals counted as failed: error_rate %v", v.v)
	}

	// A request refused on every attempt fails.
	served.Store(-100)
	o = c.send(oneTaskRequest(0), 1)
	if o.check(); o.ok() || o.attempts != maxAttempts || o.refused != maxAttempts {
		t.Errorf("always refused: ok=%v after %d attempts, %d refused; want a failure after %d", o.ok(), o.attempts, o.refused, maxAttempts)
	}
}

func TestCheckRejectsMovedNode(t *testing.T) {
	inst := newInstance(3, 12)
	inst.params[0] = perfmodel.Params{A: 100, B: 0.1, C: 1, D: 1}
	inst.params[1] = perfmodel.Params{A: 60, B: 0.1, C: 1.2, D: 2}
	inst.params[2] = perfmodel.Params{A: 30, B: 0.05, C: 1, D: 0}
	p := problem(inst, inst.budget)
	a, err := p.SolveParametric()
	if err != nil {
		t.Fatal(err)
	}
	a = p.CanonicalAllocation(a)
	r := newRequest(pathParametric, inst, 0)
	r.ref = a.Makespan
	answer := func(nodes []int) *wireResponse {
		var resp wireResponse
		resp.Solution.Status = "optimal"
		for i, n := range nodes {
			resp.Solution.Allocation = append(resp.Solution.Allocation, struct {
				Name  string `json:"name"`
				Nodes int    `json:"nodes"`
			}{inst.names[i], n})
		}
		resp.Solution.Makespan = p.Evaluate(nodes).Makespan
		return &resp
	}
	if err := checkAnswer(r, answer(a.Nodes)); err != nil {
		t.Fatalf("the optimal answer failed its check: %v", err)
	}
	moved := append([]int(nil), a.Nodes...)
	moved[0]--
	moved[1]++
	if moved[0] < 1 {
		t.Fatalf("test instance gives task 0 a single node: %v", a.Nodes)
	}
	if err := checkAnswer(r, answer(moved)); err == nil {
		t.Errorf("moving one node from task 0 to task 1 (%v → %v) passed the check", a.Nodes, moved)
	}
	swapped := answer(a.Nodes)
	swapped.Solution.Allocation[0].Name, swapped.Solution.Allocation[1].Name = inst.names[1], inst.names[0]
	if err := checkAnswer(r, swapped); err == nil {
		t.Error("an allocation out of request order passed the check")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root in
// step with the metrics and workloads this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	var declared []metricDef
	for _, d := range endToEnd {
		if d.declared {
			declared = append(declared, d)
		}
	}
	compare := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, m, d)
			}
			if (m.Bound != nil) != d.declared || (m.Bound != nil && *m.Bound != d.bound) {
				t.Errorf("%s %s: bound differs from the program's %v", kind, d.name, d.bound)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, declared)
	compare("per_layer", b.PerLayer, perLayer)
}
