package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	hslb "repro"
	"repro/internal/core"
)

// fleetHarness is a running N-replica fleet behind one gateway: each
// replica peers with the other N-1 for cache fill, and the gateway routes
// by canonical key over the same ring.
type fleetHarness struct {
	servers  []*Server
	tss      []*httptest.Server
	specs    []ReplicaSpec
	handlers []http.Handler // indirection so a replica can be "restarted"
	gw       *Gateway
	gwTS     *httptest.Server
}

// newFleet builds the harness. The handler indirection exists for the
// chaos test: closing tss[i] kills the replica, and re-serving handlers[i]
// (or a fresh Server's handler) on the same address restarts it.
func newFleet(t *testing.T, n int, mutate func(i int, o *ServerOptions)) *fleetHarness {
	t.Helper()
	h := &fleetHarness{
		servers:  make([]*Server, n),
		tss:      make([]*httptest.Server, n),
		specs:    make([]ReplicaSpec, n),
		handlers: make([]http.Handler, n),
	}
	for i := 0; i < n; i++ {
		i := i
		h.tss[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h.handlers[i].ServeHTTP(w, r)
		}))
		h.specs[i] = ReplicaSpec{ID: fmt.Sprintf("r%d", i), URL: h.tss[i].URL}
	}
	for i := 0; i < n; i++ {
		opts := DefaultOptions()
		// Local httptest peers are fast, but a parallel test run can stall a
		// probe past the 250ms production default; the tests are about
		// correctness, not probe latency.
		opts.PeerTimeout = 2 * time.Second
		opts.SelfID = h.specs[i].ID
		for j, spec := range h.specs {
			if j != i {
				opts.Peers = append(opts.Peers, spec)
			}
		}
		if mutate != nil {
			mutate(i, &opts)
		}
		srv, err := New(opts)
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		h.servers[i] = srv
		h.handlers[i] = srv.Handler()
	}
	gw, err := NewGateway(GatewayOptions{Replicas: h.specs})
	if err != nil {
		t.Fatalf("NewGateway: %v", err)
	}
	h.gw = gw
	h.gwTS = httptest.NewServer(gw.Handler())
	t.Cleanup(func() {
		h.gwTS.Close()
		for i := range h.tss {
			h.tss[i].Close()
			h.servers[i].Close()
		}
	})
	return h
}

// replicaIndex maps an X-HSLB-Replica header back to the harness index.
func (h *fleetHarness) replicaIndex(t *testing.T, id string) int {
	t.Helper()
	for i, spec := range h.specs {
		if spec.ID == id {
			return i
		}
	}
	t.Fatalf("unknown replica id %q", id)
	return -1
}

// postOwner posts a body through the gateway and reports which replica
// answered.
func postOwner(t *testing.T, h *fleetHarness, route, body string) (MetaBody, []byte, int) {
	t.Helper()
	resp, err := http.Post(h.gwTS.URL+"/v1/"+route, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST via gateway: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("gateway status %d", resp.StatusCode)
	}
	var raw rawResponse
	data := mustReadAll(t, resp)
	mustUnmarshal(t, data, &raw)
	return raw.Meta, raw.Solution, h.replicaIndex(t, resp.Header.Get("X-HSLB-Replica"))
}

func mustReadAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func mustUnmarshal(t *testing.T, data []byte, v interface{}) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("decode %s: %v", data, err)
	}
}

// TestReplicatedDifferential is the fleet-scale differential battery: a
// ~1000-check sweep asserting that a 3-replica consistent-hash fleet
// behind the gateway, a single-process server, and the direct library
// agree byte-for-byte on every instance — across the cache/table/shedding
// ablations (even trials run on a plain-cache fleet, odd trials on a fleet
// with parametric tables and the shed tier armed) and across permuted and
// power-of-two-rescaled request spellings.
func TestReplicatedDifferential(t *testing.T) {
	trials := 250 // ≥1000 byte-comparisons: ~4+ checks per trial
	if testing.Short() {
		trials = 30
	}

	plain := newFleet(t, 3, nil)
	ablated := newFleet(t, 3, func(i int, o *ServerOptions) {
		o.TableCacheSize = 8
		o.ShedCapacity = 2
	})
	fleets := []*fleetHarness{plain, ablated}

	_, singleTS := newTestServer(t, nil)

	rng := rand.New(rand.NewSource(20260808))
	checks := 0
	failures := 0
	peerFills := 0
	for trial := 0; trial < trials; trial++ {
		p := randomCanonProblem(rng)
		switch trial % 5 {
		case 3:
			p.Objective = core.MinSum
		case 4:
			p.Objective = core.MaxMin
		}
		fleet := fleets[trial%2]

		perm, _ := permuteProblem(rng, p)
		e := rng.Intn(13) - 6
		if e == 0 {
			e = 3
		}
		variants := []*core.Problem{p, perm, scaleProblem(perm, e)}

		var ownerIdx int
		skip := false
		for vi, v := range variants {
			if skip {
				continue
			}
			body := requestFromProblem(v)
			resp, err := http.Post(fleet.gwTS.URL+"/v1/solve", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatalf("trial %d variant %d: %v", trial, vi, err)
			}
			data := mustReadAll(t, resp)
			status := resp.StatusCode
			replica := resp.Header.Get("X-HSLB-Replica")
			resp.Body.Close()

			refStatus, _, refSol, refData := postRaw(t, singleTS.URL+"/v1/solve", body)
			if status != 200 && vi == 0 {
				// A rejected request (random instances can carry allowed
				// counts beyond the budget) or a rare solver failure: the
				// whole stack must fail identically, byte for byte.
				if refStatus != status || !bytes.Equal(data, refData) {
					t.Fatalf("trial %d: fleet and single-process servers disagree on failure (%d vs %d):\n%s\n%s",
						trial, status, refStatus, data, refData)
				}
				if status == 500 {
					failures++
				}
				checks++
				skip = true
				continue
			}
			if status != 200 || refStatus != 200 {
				t.Fatalf("trial %d variant %d: gateway %d, single %d: %s", trial, vi, status, refStatus, data)
			}
			var raw rawResponse
			mustUnmarshal(t, data, &raw)
			if vi == 0 {
				ownerIdx = fleet.replicaIndex(t, replica)
			} else {
				// Canonical routing: every spelling lands on the owner and
				// hits its cache.
				if got := fleet.replicaIndex(t, replica); got != ownerIdx {
					t.Fatalf("trial %d variant %d routed to replica %d, owner is %d", trial, vi, got, ownerIdx)
				}
				if !raw.Meta.Cached {
					t.Fatalf("trial %d variant %d missed the owner's cache (meta %+v)", trial, vi, raw.Meta)
				}
			}
			if !bytes.Equal(raw.Solution, refSol) {
				t.Fatalf("trial %d variant %d: fleet diverges from single-process server\nfleet:  %s\nsingle: %s",
					trial, vi, raw.Solution, refSol)
			}
			checks++
		}
		if skip {
			continue
		}

		// Peer cache-fill differential: ask a non-owner replica directly.
		// Its local miss must be answered from the owner's cache (PeerFill)
		// with the identical bytes, without solving.
		other := (ownerIdx + 1) % len(fleet.servers)
		body := requestFromProblem(p)
		_, meta, sol, data := postRaw(t, fleet.tss[other].URL+"/v1/solve", body)
		if !meta.PeerFill && !meta.Cached {
			t.Fatalf("trial %d: non-owner replica solved locally instead of peer-filling (meta %+v, %s)", trial, meta, data)
		}
		if meta.PeerFill {
			peerFills++
		}
		_, _, refSol, _ := postRaw(t, singleTS.URL+"/v1/solve", body)
		if !bytes.Equal(sol, refSol) {
			t.Fatalf("trial %d: peer-filled response diverges\npeer:   %s\nsingle: %s", trial, sol, refSol)
		}
		checks++

		// Direct-library comparison (the canonical polish pins a unique
		// optimum only for the MinMax family).
		if p.Objective == core.MinMax && !p.UseAllNodes {
			var bodySol SolutionBody
			mustUnmarshal(t, sol, &bodySol)
			direct, err := hslb.Solve(p, hslb.SolverOptions{Canonical: true})
			if err != nil {
				t.Fatalf("trial %d: direct solve: %v", trial, err)
			}
			for i := range p.Tasks {
				if bodySol.Allocation[i].Nodes != direct.Nodes[i] || bodySol.Allocation[i].Time != direct.Times[i] {
					t.Fatalf("trial %d task %d: fleet (%d, %v) vs direct (%d, %v)", trial, i,
						bodySol.Allocation[i].Nodes, bodySol.Allocation[i].Time, direct.Nodes[i], direct.Times[i])
				}
			}
			if bodySol.Makespan != direct.Makespan {
				t.Fatalf("trial %d: makespan %v vs direct %v", trial, bodySol.Makespan, direct.Makespan)
			}
			checks++
		}
	}

	if failures*20 > trials {
		t.Fatalf("%d/%d trials hit solver failures — no longer rare", failures, trials)
	}
	if !testing.Short() && checks < 1000 {
		t.Fatalf("only %d byte-comparisons ran, want ≥ 1000", checks)
	}
	if peerFills == 0 {
		t.Fatal("no peer cache-fills happened — the fleet never shared a solve")
	}
	// Work conservation per fleet: each non-failed trial solved exactly
	// once across its three replicas (variants hit the owner's cache, the
	// non-owner peer-filled); table-bracket verification solves are the
	// only extra dispatches.
	for fi, fleet := range fleets {
		var solves, tableSolves, peerHits int64
		for _, srv := range fleet.servers {
			st := srv.Stats()
			solves += st.Solves
			tableSolves += st.TableSolves
			peerHits += st.PeerHits
		}
		fleetTrials := trials / 2
		if fi < trials%2 {
			fleetTrials++
		}
		if got := solves - tableSolves; got > int64(fleetTrials) {
			t.Fatalf("fleet %d: %d request solves for %d trials — replicas duplicated work", fi, got, fleetTrials)
		}
		if peerHits == 0 {
			t.Fatalf("fleet %d: no peer cache-fill hits", fi)
		}
	}
	t.Logf("replicated differential: %d trials, %d byte-comparisons, %d peer fills, %d solver failures",
		trials, checks, peerFills, failures)
}

// TestPeerFillCounterAudit extends the singleflight counter audit to the
// peer-fill path: a batch of identical requests collapsing onto one flight
// on a non-owner replica costs exactly one peer probe and zero solves,
// while the request-scoped counters move once per request.
func TestPeerFillCounterAudit(t *testing.T) {
	h := newFleet(t, 2, func(i int, o *ServerOptions) {
		if i == 1 {
			o.BatchWindow = 300 * time.Millisecond
		}
	})
	// Seed the owner (replica 0) directly so its cache holds the key.
	_, _, seedSol, _ := postRaw(t, h.tss[0].URL+"/v1/solve", twoTaskBody)

	const clients = 4
	var start, wg sync.WaitGroup
	start.Add(1)
	sols := make([][]byte, clients)
	metas := make([]MetaBody, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			_, meta, sol, _ := postRaw(t, h.tss[1].URL+"/v1/solve", twoTaskBody)
			sols[i], metas[i] = sol, meta
		}(i)
	}
	start.Done()
	wg.Wait()
	for i := 0; i < clients; i++ {
		if !metas[i].PeerFill {
			t.Fatalf("client %d: not peer-filled (meta %+v)", i, metas[i])
		}
		if !bytes.Equal(sols[i], seedSol) {
			t.Fatalf("client %d: peer-filled bytes diverge from the owner's", i)
		}
	}
	st := h.servers[1].Stats()
	if st.Requests != clients || st.Misses != clients {
		t.Fatalf("request-scoped counters: %+v, want requests=misses=%d", st, clients)
	}
	if st.Collapsed != clients-1 {
		t.Fatalf("collapsed = %d, want %d", st.Collapsed, clients-1)
	}
	if st.PeerChecks != 1 || st.PeerHits != 1 {
		t.Fatalf("flight-scoped peer counters: %+v, want peerChecks=peerHits=1", st)
	}
	if st.Solves != 0 || st.PeerErrors != 0 {
		t.Fatalf("peer-filled flight must not solve: %+v", st)
	}
	// The fill was cached: the next request is a plain local hit.
	_, meta, _, _ := postRaw(t, h.tss[1].URL+"/v1/solve", twoTaskBody)
	if !meta.Cached {
		t.Fatalf("peer-filled solution was not cached locally (meta %+v)", meta)
	}
}

// TestShedDegradedAnswer pins tier 1 of the pressure response: with every
// solve slot taken and shed capacity armed, a request gets the parametric
// heuristic answer marked degraded — byte-identical in its solution block
// to the /v1/parametric route's answer for the same instance — and the
// degraded answer is never cached, so the next uncontended request gets
// the route's real solve.
func TestShedDegradedAnswer(t *testing.T) {
	srv, ts := newTestServer(t, func(o *ServerOptions) {
		o.MaxInFlight = 1
		o.QueueTimeout = 0
		o.ShedCapacity = 2
	})
	_, refTS := newTestServer(t, nil)

	srv.sem <- struct{}{} // saturate admission
	status, hdr, data := postJSON(t, ts.URL+"/v1/solve", twoTaskBody)
	if status != 200 {
		t.Fatalf("shed request: status %d body %s", status, data)
	}
	if hdr.Get("X-HSLB-Cache") != "shed" {
		t.Fatalf("X-HSLB-Cache = %q, want shed", hdr.Get("X-HSLB-Cache"))
	}
	raw, _ := decodeResponse(t, data)
	if !raw.Meta.Degraded {
		t.Fatalf("meta not marked degraded: %+v", raw.Meta)
	}
	// The degraded solution block is exactly the parametric route's.
	_, _, refSol, _ := postRaw(t, refTS.URL+"/v1/parametric", twoTaskBody)
	if !bytes.Equal(raw.Solution, refSol) {
		t.Fatalf("degraded answer diverges from the parametric route\nshed:       %s\nparametric: %s", raw.Solution, refSol)
	}
	st := srv.Stats()
	if st.Sheds != 1 || st.Degraded != 1 || st.Solves != 0 || st.Rejected != 0 {
		t.Fatalf("shed counters: %+v, want sheds=degraded=1, solves=rejected=0", st)
	}
	if st.CacheSize != 0 {
		t.Fatal("degraded answer was cached")
	}

	// Slot released: the same instance now gets the real route answer,
	// solved fresh (the shed left no cache entry behind).
	<-srv.sem
	_, hdr, data = postJSON(t, ts.URL+"/v1/solve", twoTaskBody)
	if hdr.Get("X-HSLB-Cache") != "miss" {
		t.Fatalf("post-shed request X-HSLB-Cache = %q, want miss", hdr.Get("X-HSLB-Cache"))
	}
	raw, _ = decodeResponse(t, data)
	if raw.Meta.Degraded {
		t.Fatalf("uncontended request still degraded: %+v", raw.Meta)
	}
}

// TestShedTierTo429: tier 2 — when shed capacity is itself exhausted the
// typed 429 comes back, and with shedding disabled (the default) the 429
// is immediate, preserving the pre-fleet admission contract.
func TestShedTierTo429(t *testing.T) {
	srv, ts := newTestServer(t, func(o *ServerOptions) {
		o.MaxInFlight = 1
		o.QueueTimeout = 0
		o.ShedCapacity = 1
	})
	srv.sem <- struct{}{}     // saturate admission
	srv.shedSem <- struct{}{} // and shed capacity
	status, _, data := postJSON(t, ts.URL+"/v1/solve", twoTaskBody)
	if status != 429 {
		t.Fatalf("status %d body %s", status, data)
	}
	if det := decodeError(t, data); det.Code != CodeQueueFull {
		t.Fatalf("error %+v", det)
	}
	st := srv.Stats()
	if st.Sheds != 0 || st.Degraded != 0 || st.Rejected != 1 {
		t.Fatalf("tier-2 counters: %+v", st)
	}
}

// TestShedCounterAudit: the shed is flight-scoped, the degraded verdict is
// request-scoped — a batch collapsing onto one shed flight runs the
// heuristic once and marks every waiter degraded.
func TestShedCounterAudit(t *testing.T) {
	srv, ts := newTestServer(t, func(o *ServerOptions) {
		o.MaxInFlight = 1
		o.QueueTimeout = 0
		o.ShedCapacity = 1
		o.BatchWindow = 300 * time.Millisecond
	})
	srv.sem <- struct{}{}
	defer func() { <-srv.sem }()

	const clients = 4
	var start, wg sync.WaitGroup
	start.Add(1)
	degraded := make([]bool, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			_, meta, _, _ := postRaw(t, ts.URL+"/v1/solve", twoTaskBody)
			degraded[i] = meta.Degraded
		}(i)
	}
	start.Done()
	wg.Wait()
	for i, d := range degraded {
		if !d {
			t.Fatalf("client %d: answer not degraded", i)
		}
	}
	st := srv.Stats()
	if st.Sheds != 1 {
		t.Fatalf("sheds = %d, want 1 (flight-scoped)", st.Sheds)
	}
	if st.Degraded != clients {
		t.Fatalf("degraded = %d, want %d (request-scoped)", st.Degraded, clients)
	}
	if st.Solves != 0 || st.Collapsed != clients-1 {
		t.Fatalf("counters: %+v", st)
	}
}

// TestGatewayChaos kills the replica that owns an instance while requests
// are in flight: the gateway must fail over to the second ring owner and
// return byte-identical answers, counting each transport failure exactly
// once; after the replica restarts (cold) on the same address, routing
// returns to it and it refills from its peers.
func TestGatewayChaos(t *testing.T) {
	h := newFleet(t, 3, nil)
	// Baseline through the healthy fleet.
	meta, want, ownerIdx := postOwner(t, h, "solve", twoTaskBody)
	if meta.Cached {
		t.Fatalf("first request cached: %+v", meta)
	}

	// Kill the owner with prejudice.
	addr := h.tss[ownerIdx].Listener.Addr().String()
	h.tss[ownerIdx].CloseClientConnections()
	h.tss[ownerIdx].Close()

	const clients = 4
	var start, wg sync.WaitGroup
	start.Add(1)
	sols := make([][]byte, clients)
	idxs := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			_, sols[i], idxs[i] = postOwner(t, h, "solve", twoTaskBody)
		}(i)
	}
	start.Done()
	wg.Wait()
	for i := 0; i < clients; i++ {
		if idxs[i] == ownerIdx {
			t.Fatalf("client %d: answered by the dead replica", i)
		}
		if !bytes.Equal(sols[i], want) {
			t.Fatalf("client %d: failover answer diverges\nfailover: %s\nhealthy:  %s", i, sols[i], want)
		}
	}
	gst := h.gw.Stats()
	if gst.Retries != clients {
		t.Fatalf("retries = %d, want %d (exactly one failover per request)", gst.Retries, clients)
	}
	if gst.Unavailable != 0 {
		t.Fatalf("unavailable = %d, want 0 (the failover replica was healthy)", gst.Unavailable)
	}

	// Restart: a fresh, cold replica on the same address under the same
	// ring identity. Routing returns to it, and its first answer is a peer
	// cache-fill from the failover replica that solved during the outage.
	opts := DefaultOptions()
	opts.SelfID = h.specs[ownerIdx].ID
	for j, spec := range h.specs {
		if j != ownerIdx {
			opts.Peers = append(opts.Peers, spec)
		}
	}
	fresh, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	h.handlers[ownerIdx] = fresh.Handler()
	var l net.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		l, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarting replica on %s: %v", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.handlers[ownerIdx].ServeHTTP(w, r)
	})}
	go hs.Serve(l)
	defer hs.Close()

	meta, sol, idx := postOwner(t, h, "solve", twoTaskBody)
	if idx != ownerIdx {
		t.Fatalf("after restart, request routed to %d, owner is %d", idx, ownerIdx)
	}
	if !meta.PeerFill {
		t.Fatalf("restarted replica did not peer-fill (meta %+v)", meta)
	}
	if !bytes.Equal(sol, want) {
		t.Fatalf("post-restart answer diverges\nrestart: %s\nhealthy: %s", sol, want)
	}
	if g2 := h.gw.Stats(); g2.Retries != gst.Retries {
		t.Fatalf("restart added retries: %d → %d", gst.Retries, g2.Retries)
	}
}

// TestGatewayAllReplicasDown: when the owner and its failover are both
// unreachable the gateway answers a typed 502 and counts it once.
func TestGatewayAllReplicasDown(t *testing.T) {
	h := newFleet(t, 2, nil)
	h.tss[0].Close()
	h.tss[1].Close()
	status, _, data := postJSON(t, h.gwTS.URL+"/v1/solve", twoTaskBody)
	if status != 502 {
		t.Fatalf("status %d body %s", status, data)
	}
	if det := decodeError(t, data); det.Code != CodeReplicaUnavailable {
		t.Fatalf("error %+v", det)
	}
	gst := h.gw.Stats()
	if gst.Unavailable != 1 || gst.Retries != 1 {
		t.Fatalf("gateway stats %+v, want unavailable=1 retries=1", gst)
	}
}

// TestGatewayRejectsAtEdge: a request a replica would reject is rejected
// by the gateway with the identical typed error, before any forwarding.
func TestGatewayRejectsAtEdge(t *testing.T) {
	h := newFleet(t, 2, nil)
	_, ts := newTestServer(t, nil)
	for _, body := range []string{
		`{"tasks": [], "totalNodes": 4}`,
		`{"totalNodes": 8, "tasks": [{"params": {"a": -1, "c": 1}}]}`,
		`not json`,
		// One millisecond past the largest deadline a time.Duration holds.
		`{"totalNodes": 8, "deadlineMs": 9223372036855, "tasks": [{"params": {"a": 1, "c": 1}}]}`,
	} {
		gwStatus, _, gwData := postJSON(t, h.gwTS.URL+"/v1/solve", body)
		refStatus, _, refData := postJSON(t, ts.URL+"/v1/solve", body)
		if gwStatus != 400 || gwStatus != refStatus || !bytes.Equal(gwData, refData) {
			t.Fatalf("edge rejection diverges for %q:\ngateway: %d %s\nreplica: %d %s",
				body, gwStatus, gwData, refStatus, refData)
		}
	}
	if gst := h.gw.Stats(); gst.Forwarded != 0 || gst.BadRequests != 4 {
		t.Fatalf("gateway stats %+v, want forwarded=0 badRequests=4", gst)
	}
}
