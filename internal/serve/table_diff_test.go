package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	hslb "repro"
	"repro/internal/core"
)

// withBudget is the serve-test variant of core.Problem.WithBudget: the same
// task family at a different node budget.
func withBudget(p *core.Problem, n int) *core.Problem {
	return &core.Problem{Tasks: p.Tasks, TotalNodes: n,
		Objective: p.Objective, UseAllNodes: p.UseAllNodes}
}

// sweetSpotProblem builds the production shape parametric tables exist for:
// every task restricted to power-of-two node counts (the paper's GDDI
// sweet spots), which makes the optimal allocation constant across wide
// budget brackets.
func sweetSpotProblem(rng *rand.Rand, k, total int) *core.Problem {
	tasks := make([]core.Task, k)
	for i := range tasks {
		var allowed []int
		for n := 1; n <= total; n *= 2 {
			allowed = append(allowed, n)
		}
		tasks[i] = core.Task{
			Name:    fmt.Sprintf("t%d", i),
			Perf:    randomCanonProblemOnce(rng).Tasks[0].Perf,
			Allowed: allowed,
		}
	}
	return &core.Problem{Tasks: tasks, TotalNodes: total, Objective: core.MinMax}
}

// TestDifferentialParametricTable is the tentpole gate: a ~1000-budget
// differential sweep (short mode: a slice) asserting that a table-enabled
// server is byte-identical, budget for budget, to a cache-disabled
// reference server and — for the min-max family — bit-identical to direct
// library solves rotated across the dense/sparse/warm/Kelley ablations.
// Every budget is then replayed: the replay must be served (per-budget
// cache or table bracket) and byte-identical to the first pass. Zero
// bracket conflicts are tolerated across the whole sweep.
func TestDifferentialParametricTable(t *testing.T) {
	trials := 125 // ×8 budgets ≈ 1000 per-budget differential checks
	if testing.Short() {
		trials = 15
	}

	tabOpts := DefaultOptions()
	tabOpts.TableCacheSize = 64
	tabSrv, err := New(tabOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer tabSrv.Close()
	tab := httptest.NewServer(tabSrv.Handler())
	defer tab.Close()

	refOpts := DefaultOptions()
	refOpts.DisableCache = true
	refSrv, err := New(refOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer refSrv.Close()
	ref := httptest.NewServer(refSrv.Handler())
	defer ref.Close()

	rng := rand.New(rand.NewSource(20260808))
	checks := 0
	for trial := 0; trial < trials; trial++ {
		var p *core.Problem
		if trial%4 == 3 {
			p = sweetSpotProblem(rng, 2+rng.Intn(4), 48+rng.Intn(200))
		} else {
			p = randomCanonProblem(rng)
		}
		if trial%6 == 5 {
			p.Objective = core.MinSum // no tables; correctness must be unaffected
		}
		route := "parametric"
		if trial%4 == 1 {
			route = "solve"
		}

		base := p.TotalNodes
		type firstPass struct {
			status int
			sol    json.RawMessage
		}
		seen := map[int]firstPass{}
		for dn := -3; dn <= 4; dn++ {
			n := base + dn
			if n < 1 {
				continue
			}
			body := requestFromProblem(withBudget(p, n))
			status, _, sol, data := postRaw(t, tab.URL+"/v1/"+route, body)
			refStatus, refMeta, refSol, refData := postRaw(t, ref.URL+"/v1/"+route, body)
			if refMeta.Cached || refMeta.TableHit {
				t.Fatalf("reference server served from a cache it must not have")
			}
			if status != refStatus {
				t.Fatalf("trial %d %s N=%d: table server status %d, reference %d\n%s\n%s",
					trial, route, n, status, refStatus, data, refData)
			}
			if status != 200 {
				if !bytes.Equal(data, refData) {
					t.Fatalf("trial %d %s N=%d: servers disagree on failure body\n%s\n%s",
						trial, route, n, data, refData)
				}
				seen[n] = firstPass{status: status}
				continue
			}
			if !bytes.Equal(sol, refSol) {
				t.Fatalf("trial %d %s N=%d: table server diverges from reference\ntable: %s\nref:   %s",
					trial, route, n, sol, refSol)
			}
			seen[n] = firstPass{status: status, sol: sol}
			checks++

			// Direct-library ablation check: the canonical polish pins a
			// unique optimum for the min-max family, so the served body must
			// bit-match a fresh solve on every solver path.
			if p.Objective == core.MinMax && !p.UseAllNodes {
				cfg := equivConfigs[(trial*7+dn+3)%len(equivConfigs)]
				opts := cfg.opts
				opts.Canonical = true
				direct, err := hslb.Solve(withBudget(p, n), opts)
				if err != nil {
					t.Fatalf("trial %d N=%d (%s): direct solve: %v", trial, n, cfg.name, err)
				}
				var sb SolutionBody
				if err := json.Unmarshal(sol, &sb); err != nil {
					t.Fatal(err)
				}
				for i := range direct.Nodes {
					if sb.Allocation[i].Nodes != direct.Nodes[i] || sb.Allocation[i].Time != direct.Times[i] {
						t.Fatalf("trial %d N=%d (%s): served allocation diverges from direct solve\nserved: %+v\ndirect: %v / %v",
							trial, n, cfg.name, sb.Allocation, direct.Nodes, direct.Times)
					}
				}
				if sb.Makespan != direct.Makespan {
					t.Fatalf("trial %d N=%d (%s): makespan %v vs %v", trial, n, cfg.name, sb.Makespan, direct.Makespan)
				}
			}
		}

		// Replay every budget: now everything must be served without a fresh
		// solve and stay byte-identical.
		for n, fp := range seen {
			body := requestFromProblem(withBudget(p, n))
			status, meta, sol, data := postRaw(t, tab.URL+"/v1/"+route, body)
			if status != fp.status {
				t.Fatalf("trial %d %s N=%d: replay status %d, first pass %d: %s",
					trial, route, n, status, fp.status, data)
			}
			if status != 200 {
				continue
			}
			if !meta.Cached && !meta.TableHit {
				t.Fatalf("trial %d %s N=%d: replay was solved fresh (meta %+v)", trial, route, n, meta)
			}
			if !bytes.Equal(sol, fp.sol) {
				t.Fatalf("trial %d %s N=%d: replay diverges from first pass\nreplay: %s\nfirst:  %s",
					trial, route, n, sol, fp.sol)
			}
		}
	}

	st := tabSrv.Stats()
	if st.TableConflicts != 0 {
		t.Fatalf("bracket verification found %d conflicts across the sweep (stats %+v)", st.TableConflicts, st)
	}
	if st.TableHits == 0 {
		t.Fatalf("sweep never served from a table — the tentpole path did not run (stats %+v)", st)
	}
	if st.TableSegments == 0 || st.TableSolves == 0 {
		t.Fatalf("no brackets were certified (stats %+v)", st)
	}
	t.Logf("differential table sweep: %d per-budget checks, stats %+v", checks, st)
}

// TestParametricTableServing pins the serving mechanics end to end: one
// solve certifies a bracket; a request at a different budget inside it is
// answered from the table (tableHit meta, "table" cache header) and
// promoted into the per-budget cache, so its replay is a plain hit.
func TestParametricTableServing(t *testing.T) {
	srv, ts := newTestServer(t, func(o *ServerOptions) { o.TableCacheSize = 8 })
	rng := rand.New(rand.NewSource(7))
	p := sweetSpotProblem(rng, 3, 600)
	status, _, _, data := postRaw(t, ts.URL+"/v1/parametric", requestFromProblem(p))
	if status != 200 {
		t.Fatalf("base solve: %d %s", status, data)
	}
	srv.leaders.Wait()
	st := srv.Stats()
	if st.TableSegments == 0 {
		t.Fatalf("sweet-spot solve certified no bracket (stats %+v)", st)
	}

	// White-box: read the certified bracket and pick an unseen interior
	// budget.
	canon := canonicalize(routeParametric, p)
	srv.tables.mu.Lock()
	entry := srv.tables.m[canon.tkey].Value.(*tableEntry)
	seg := entry.segs[0]
	srv.tables.mu.Unlock()
	if seg.hi <= seg.lo {
		t.Fatalf("degenerate bracket [%d,%d]", seg.lo, seg.hi)
	}
	inner := (seg.lo + seg.hi) / 2
	if inner == p.TotalNodes {
		inner++
	}

	body := requestFromProblem(withBudget(p, inner))
	status, meta, sol, _ := postRaw(t, ts.URL+"/v1/parametric", body)
	if status != 200 || !meta.TableHit || meta.Cached {
		t.Fatalf("interior budget %d not served from the table: status %d meta %+v", inner, status, meta)
	}
	if got := srv.Stats().TableHits; got != 1 {
		t.Fatalf("tableHits = %d, want 1", got)
	}

	// Promotion: the replay is a plain per-budget cache hit, byte-identical.
	resp, err := http.Post(ts.URL+"/v1/parametric", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-HSLB-Cache"); got != "hit" {
		t.Fatalf("replay X-HSLB-Cache = %q, want hit (promotion failed)", got)
	}
	_, meta2, sol2, _ := postRaw(t, ts.URL+"/v1/parametric", body)
	if !meta2.Cached || meta2.TableHit {
		t.Fatalf("replay meta %+v", meta2)
	}
	if !bytes.Equal(sol, sol2) {
		t.Fatalf("promoted replay diverges:\n%s\n%s", sol, sol2)
	}
}

// TestTableCacheEvictionInvalidation: evicting a family's table forgets its
// brackets (requests solve again), while a table surviving a per-budget
// cache eviction still serves the evicted budget.
func TestTableCacheEvictionInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	famA := sweetSpotProblem(rng, 3, 500)
	famB := sweetSpotProblem(rng, 3, 500)

	// Part 1: table LRU churn. With room for one family, solving B evicts
	// A's table, so A's certified bracket no longer serves.
	srv, ts := newTestServer(t, func(o *ServerOptions) { o.TableCacheSize = 1 })
	if status, _, _, data := postRaw(t, ts.URL+"/v1/parametric", requestFromProblem(famA)); status != 200 {
		t.Fatalf("famA: %d %s", status, data)
	}
	srv.leaders.Wait()
	canonA := canonicalize(routeParametric, famA)
	srv.tables.mu.Lock()
	elA, okA := srv.tables.m[canonA.tkey]
	var segA tableSeg
	if okA {
		segA = elA.Value.(*tableEntry).segs[0]
	}
	srv.tables.mu.Unlock()
	if !okA || segA.hi <= segA.lo {
		t.Fatalf("famA certified no usable bracket")
	}
	if status, _, _, data := postRaw(t, ts.URL+"/v1/parametric", requestFromProblem(famB)); status != 200 {
		t.Fatalf("famB: %d %s", status, data)
	}
	srv.leaders.Wait()
	st := srv.Stats()
	if st.TableFamilies != 1 {
		t.Fatalf("table LRU not bounded: %+v", st)
	}
	inner := (segA.lo + segA.hi) / 2
	if inner == famA.TotalNodes {
		inner++
	}
	_, meta, _, _ := postRaw(t, ts.URL+"/v1/parametric", requestFromProblem(withBudget(famA, inner)))
	if meta.TableHit {
		t.Fatalf("evicted family still served from a table (meta %+v)", meta)
	}

	// Part 2: the opposite survival order. With a one-entry per-budget
	// cache, solving B evicts A's per-budget entry, but A's table bracket
	// (room for both families now) still answers A's original budget.
	srv2, ts2 := newTestServer(t, func(o *ServerOptions) {
		o.CacheSize = 1
		o.TableCacheSize = 8
	})
	if status, _, _, data := postRaw(t, ts2.URL+"/v1/parametric", requestFromProblem(famA)); status != 200 {
		t.Fatalf("famA: %d %s", status, data)
	}
	srv2.leaders.Wait()
	if status, _, _, data := postRaw(t, ts2.URL+"/v1/parametric", requestFromProblem(famB)); status != 200 {
		t.Fatalf("famB: %d %s", status, data)
	}
	srv2.leaders.Wait()
	if st := srv2.Stats(); st.CacheSize != 1 {
		t.Fatalf("per-budget cache not bounded: %+v", st)
	}
	_, meta, _, _ = postRaw(t, ts2.URL+"/v1/parametric", requestFromProblem(famA))
	if !meta.TableHit || meta.Cached {
		t.Fatalf("evicted budget not re-served from the surviving table (meta %+v)", meta)
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
// singleflight batching on a failing solve. Historically solveErrors was
// counted once per waiter — a batch of k collapsed requests sharing one
// failed dispatch reported k+1 solver errors. The audit: request-scoped
// counters move once per request, flight-scoped ones once per dispatch.
func TestSingleflightCounterAudit(t *testing.T) {
	srv, ts := newTestServer(t, func(o *ServerOptions) {
		o.BatchWindow = 500 * time.Millisecond
	})
	const clients = 4
	var start, wg sync.WaitGroup
	start.Add(1)
	statuses := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
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
	start.Done()
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
		t.Fatalf("flight-scoped counters: %+v, want solves=solveErrors=1 for %d batched clients", st, clients)
	}
	if st.Collapsed != clients-1 {
		t.Fatalf("collapsed = %d, want %d (batch window missed?)", st.Collapsed, clients-1)
	}
	if st.Hits != 0 || st.Rejected != 0 || st.Bounded != 0 || st.TableHits != 0 {
		t.Fatalf("unexpected counter movement: %+v", st)
	}
}

// TestQueueFullRejectedPerWaiter: admission rejection is a request-scoped
// verdict. Every waiter sharing the rejected flight gets the 429 and must
// be counted — the old flight-scoped count reported 1 rejection for any
// number of collapsed clients.
func TestQueueFullRejectedPerWaiter(t *testing.T) {
	srv, ts := newTestServer(t, func(o *ServerOptions) {
		o.MaxInFlight = 1
		o.QueueTimeout = 100 * time.Millisecond
		o.BatchWindow = 200 * time.Millisecond
	})
	srv.sem <- struct{}{} // occupy the only solve slot
	defer func() { <-srv.sem }()

	const clients = 3
	var start, wg sync.WaitGroup
	start.Add(1)
	statuses := make([]int, clients)
	codes := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
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
	start.Done()
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
}
