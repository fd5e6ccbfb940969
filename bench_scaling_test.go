package hslb

// Scaling sweep for the LP layer's cold solves (see DESIGN.md, "Sparse
// kernels and presolve"). Each size builds the min-max T-series allocation LP — the
// paper's load-balancing shape, with one pick row and one load row per
// fragment family — and solves it three ways: a cold Problem.Solve through
// the pattern kernels ("sparse"), the same through the dense authority
// ("dense"), and an Incremental solve from the heuristic crash hint
// ("crash", the path every MINLP root takes):
//
//	go test . -run xxx -bench BenchmarkScaling -benchtime 1x
//
// TestMain collects the per-size records into BENCH_scaling.json and prints
// a per-N dense-vs-sparse and cold-vs-crash summary for the CI job log.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/lp"
	"repro/internal/stats"
)

// scalingRecord is one (size, variant) measurement in BENCH_scaling.json.
type scalingRecord struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	Variant     string  `json:"variant"` // "sparse", "dense", or "crash"
	NsPerOp     float64 `json:"ns_per_op"`
	Pivots      float64 `json:"pivots_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// scalingMeta stamps each BENCH_scaling.json with the environment it was
// measured in, so archived artifacts from different commits and runners
// can be compared without guessing.
type scalingMeta struct {
	Commit    string `json:"commit,omitempty"`
	Date      string `json:"date"`
	GoVersion string `json:"go_version"`
}

var scalingRecords []scalingRecord

// scalingSizes is the full sweep; short mode stops at scalingShortCap to
// keep the CI smoke fast.
var scalingSizes = []int{128, 256, 512, 1024}

const scalingShortCap = 512

// minmaxTSeriesLP builds the continuous relaxation of the paper's min-max
// allocation problem at N fragment families: for each family a pick row
// (Σ_k z_fk = 1 over K sweet-spot configs), a load row coupling the family
// to the makespan T (Σ_k time_fk·z_fk − T ≤ 0), and one global node-budget
// row. Rows touch K+1 of the K·N+1 columns, the sparsity the kernels are
// built for.
//
// The second return is the paper-style heuristic hint the crash layer
// consumes: bisect the makespan target, give each family the cheapest
// (fewest-node) configuration meeting it, and value T at the selection's
// makespan. This is the greedy static allocation a production caller has
// in hand before any LP runs — not a solved optimum.
func minmaxTSeriesLP(n int, seed uint64) (*lp.Problem, []float64) {
	const K = 4
	rng := stats.NewRNG(seed)
	p := lp.NewProblem()
	T := p.AddVariable(0, lp.Inf, 1, "T")
	budget := make([]lp.Term, 0, K*n)
	famVars := make([][K]int, n)
	famTimes := make([][K]float64, n)
	famNodes := make([][K]float64, n)
	for f := 0; f < n; f++ {
		pick := make([]lp.Term, K)
		load := make([]lp.Term, 0, K+1)
		nodes := 1 + rng.Intn(8)
		a := rng.Range(50, 500)
		for k := 0; k < K; k++ {
			z := p.AddVariable(0, 1, 0, "")
			pick[k] = lp.Term{Var: z, Coef: 1}
			// DLB-style time curve: work/nodes plus a linear overhead.
			t := a/float64(nodes) + 0.1*float64(nodes) + rng.Range(0, 5)
			load = append(load, lp.Term{Var: z, Coef: t})
			budget = append(budget, lp.Term{Var: z, Coef: float64(nodes)})
			famVars[f][k], famTimes[f][k], famNodes[f][k] = z, t, float64(nodes)
			nodes *= 2
		}
		p.AddConstraint(pick, lp.EQ, 1, "")
		load = append(load, lp.Term{Var: T, Coef: -1})
		p.AddConstraint(load, lp.LE, 0, "")
	}
	// Smallest configs average 4.5 nodes per family; 6N leaves room to pick
	// while keeping the budget row binding (families want larger configs).
	nodeCap := 6 * float64(n)
	p.AddConstraint(budget, lp.LE, nodeCap, "")

	// Bisection on the makespan target: feasible(tgt) picks per family the
	// cheapest config with time ≤ tgt and checks the node budget.
	pickAt := func(tgt float64) ([]int, bool) {
		sel := make([]int, n)
		tot := 0.0
		for f := 0; f < n; f++ {
			bi, bn := -1, math.Inf(1)
			for k := 0; k < K; k++ {
				if famTimes[f][k] <= tgt && famNodes[f][k] < bn {
					bn, bi = famNodes[f][k], k
				}
			}
			if bi < 0 {
				return nil, false
			}
			sel[f] = bi
			tot += bn
		}
		return sel, tot <= nodeCap
	}
	lo, hi := 0.0, 0.0
	for f := 0; f < n; f++ {
		mn := math.Inf(1)
		for k := 0; k < K; k++ {
			if famTimes[f][k] < mn {
				mn = famTimes[f][k]
			}
		}
		if mn > lo {
			lo = mn
		}
		if famTimes[f][0] > hi {
			hi = famTimes[f][0]
		}
	}
	if hi < lo {
		hi = lo
	}
	var sel []int
	for it := 0; it < 60; it++ {
		mid := 0.5 * (lo + hi)
		if s, ok := pickAt(mid); ok {
			sel, hi = s, mid
		} else {
			lo = mid
		}
	}
	if sel == nil {
		sel, _ = pickAt(hi)
	}
	hint := make([]float64, p.NumVariables())
	maxT := 0.0
	for f := 0; f < n; f++ {
		hint[famVars[f][sel[f]]] = 1
		if t := famTimes[f][sel[f]]; t > maxT {
			maxT = t
		}
	}
	hint[T] = maxT
	return p, hint
}

// scalingSolve runs one solve of the variant: a cold Problem.Solve, or for
// "crash" a fresh Incremental's first solve, which installs the hint.
func scalingSolve(p *lp.Problem, variant string) (*lp.Solution, error) {
	if variant == "crash" {
		return lp.NewIncremental(p).Solve()
	}
	return p.Solve()
}

func benchScalingAt(b *testing.B, n int, variant string) {
	// Pin the solves to one P, as solveAllocsAndPivots does: a goroutine
	// resumed on another P after a stop-the-world finds that P's sync.Pool
	// slot empty and regrows the solver scratch, so allocs/op would depend
	// on the scheduler instead of the code.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b.ReportAllocs()
	p, hint := minmaxTSeriesLP(n, 4242)
	switch variant {
	case "dense":
		p.DisableSparse = true
	case "crash":
		p.SetCrashPoint(hint)
	}
	// Settle the heap before timing: earlier sweep sizes leave pooled
	// arenas and a grown GC target behind.
	runtime.GC()
	b.ResetTimer()
	var pivots int
	var allocs uint64
	best := int64(math.MaxInt64)
	for i := 0; i < b.N; i++ {
		// Two identical solves: the first warms the workspace pool, the
		// second is the one whose allocations and pivots are recorded.
		// Time is the faster of the two, which keeps the shared vCPU's
		// steal noise out of the baseline's time column.
		for r := 0; r < 2; r++ {
			a0 := mallocsNow()
			t0 := time.Now()
			sol, err := scalingSolve(p, variant)
			d := time.Since(t0).Nanoseconds()
			a1 := mallocsNow()
			if err != nil || sol.Status != lp.Optimal {
				b.Fatalf("N=%d %s: status %v err %v", n, variant, sol.Status, err)
			}
			if d < best {
				best = d
			}
			if r == 1 {
				pivots += sol.Pivots
				allocs += a1 - a0
			}
		}
	}
	b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
	benchMu.Lock()
	scalingRecords = append(scalingRecords, scalingRecord{
		Name:        b.Name(),
		N:           n,
		Variant:     variant,
		NsPerOp:     float64(best),
		Pivots:      float64(pivots) / float64(b.N),
		AllocsPerOp: float64(allocs) / float64(b.N),
	})
	benchMu.Unlock()
}

// BenchmarkScaling sweeps the min-max T-series LP from N=128 to N=1024
// fragment families through the sparse, crash and dense variants.
func BenchmarkScaling(b *testing.B) {
	for _, n := range scalingSizes {
		if testing.Short() && n > scalingShortCap {
			b.Logf("short mode: skipping N=%d (cap %d)", n, scalingShortCap)
			continue
		}
		for _, variant := range []string{"sparse", "crash", "dense"} {
			n, variant := n, variant
			b.Run(fmt.Sprintf("N=%d/%s", n, variant), func(b *testing.B) {
				benchScalingAt(b, n, variant)
			})
		}
	}
}

// compareScalingBaseline diffs fresh records against the committed
// BENCH_scaling.json per N and variant, on all three metrics. Only the
// counts trip: pivots/op (>10% more trips — pivot counts are
// deterministic per commit, so any growth is a real algorithmic
// regression, and the slack only covers tie-breaking drift) and allocs/op
// (>20% more trips — measured after a pool-warming solve on one P, the
// count repeats exactly from sweep to sweep). time/op is printed against
// the baseline for the log but never trips: the baseline was recorded on
// another host, and a 1x wall-clock reading on a shared runner measures
// the host as much as the code. It prints a benchstat-style summary and, when the SCALING_GATE
// environment variable is non-empty, fails the process on any tripped
// point; the bench-smoke job opts in, local runs just see the table.
func compareScalingBaseline(fresh []scalingRecord) (regressed bool) {
	buf, err := os.ReadFile("BENCH_scaling.json")
	if err != nil {
		return false // no committed baseline: nothing to compare
	}
	var base struct {
		Benchmarks []scalingRecord `json:"benchmarks"`
	}
	if err := json.Unmarshal(buf, &base); err != nil {
		fmt.Fprintln(os.Stderr, "scaling baseline unreadable:", err)
		return false
	}
	baseBy := map[string]scalingRecord{}
	for _, r := range base.Benchmarks {
		baseBy[fmt.Sprintf("%d/%s", r.N, r.Variant)] = r
	}
	fmt.Println("\nscaling vs committed baseline (time/op, pivots/op, allocs/op):")
	for _, r := range fresh {
		key := fmt.Sprintf("%d/%s", r.N, r.Variant)
		b, ok := baseBy[key]
		if !ok || b.NsPerOp <= 0 {
			continue
		}
		dT := (r.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
		flag := ""
		var dP, dA float64
		if b.Pivots > 0 {
			dP = (r.Pivots - b.Pivots) / b.Pivots * 100
			if dP > 10 {
				flag += "  << PIVOT REGRESSION"
				regressed = true
			}
		}
		if b.AllocsPerOp > 0 {
			dA = (r.AllocsPerOp - b.AllocsPerOp) / b.AllocsPerOp * 100
			if dA > 20 {
				flag += "  << ALLOC REGRESSION"
				regressed = true
			}
		}
		fmt.Printf("  N=%-5d %-6s time %9.2fms → %9.2fms %+6.1f%%   pivots %+6.1f%%   allocs %+6.1f%%%s\n",
			r.N, r.Variant, b.NsPerOp/1e6, r.NsPerOp/1e6, dT, dP, dA, flag)
	}
	return regressed
}

func writeScalingJSON() {
	sort.Slice(scalingRecords, func(i, j int) bool {
		if scalingRecords[i].N != scalingRecords[j].N {
			return scalingRecords[i].N < scalingRecords[j].N
		}
		return scalingRecords[i].Variant < scalingRecords[j].Variant
	})
	regressed := compareScalingBaseline(scalingRecords)
	meta := scalingMeta{
		Date:      time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		meta.Commit = strings.TrimSpace(string(out))
	}
	buf, err := json.MarshalIndent(struct {
		Meta       scalingMeta     `json:"meta"`
		Benchmarks []scalingRecord `json:"benchmarks"`
	}{meta, scalingRecords}, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "scaling collector:", err)
		return
	}
	if err := os.WriteFile("BENCH_scaling.json", append(buf, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "scaling collector:", err)
		return
	}
	// Per-N dense-vs-sparse summary for the CI job log.
	bySize := map[int]map[string]scalingRecord{}
	sizes := []int{}
	for _, r := range scalingRecords {
		if bySize[r.N] == nil {
			bySize[r.N] = map[string]scalingRecord{}
			sizes = append(sizes, r.N)
		}
		bySize[r.N][r.Variant] = r
	}
	sort.Ints(sizes)
	fmt.Println("\ndense vs sparse cold solve (time/op, pivots/op, allocs/op):")
	for _, n := range sizes {
		s, okS := bySize[n]["sparse"]
		d, okD := bySize[n]["dense"]
		if !okS || !okD {
			continue
		}
		fmt.Printf("  N=%-5d time %9.1fms → %8.1fms (%5.2fx)   pivots %7.0f → %7.0f   allocs %7.0f → %7.0f\n",
			n, d.NsPerOp/1e6, s.NsPerOp/1e6, safeRatio(d.NsPerOp, s.NsPerOp),
			d.Pivots, s.Pivots, d.AllocsPerOp, s.AllocsPerOp)
	}
	fmt.Println("\ncold vs crash-hinted Incremental solve (time/op, pivots/op):")
	for _, n := range sizes {
		s, okS := bySize[n]["sparse"]
		c, okC := bySize[n]["crash"]
		if !okS || !okC {
			continue
		}
		fmt.Printf("  N=%-5d time %9.1fms → %8.1fms (%5.2fx)   pivots %7.0f → %7.0f (%5.2fx)\n",
			n, s.NsPerOp/1e6, c.NsPerOp/1e6, safeRatio(s.NsPerOp, c.NsPerOp),
			s.Pivots, c.Pivots, safeRatio(s.Pivots, c.Pivots))
	}
	if regressed && os.Getenv("SCALING_GATE") != "" {
		fmt.Fprintln(os.Stderr, "SCALING_GATE: >10% pivots/op or >20% allocs/op regression against committed BENCH_scaling.json")
		os.Exit(1)
	}
}

// solveAllocsAndPivots cold-solves the N-family T-series LP once (after a
// pool-warming solve) and returns the heap allocations and pivots of the
// measured solve. Both solves run pinned to one P: the stop-the-world in
// mallocsNow can resume the goroutine on another P, whose sync.Pool slot
// holds none of the warmed engine scratch, and the measured solve would
// then regrow every buffer.
func solveAllocsAndPivots(t *testing.T, n int) (allocs uint64, pivots int) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p, _ := minmaxTSeriesLP(n, 4242)
	if sol, err := p.Solve(); err != nil || sol.Status != lp.Optimal {
		t.Fatalf("N=%d warm-up: status %v err %v", n, sol.Status, err)
	}
	a0 := mallocsNow()
	sol, err := p.Solve()
	if err != nil || sol.Status != lp.Optimal {
		t.Fatalf("N=%d: status %v err %v", n, sol.Status, err)
	}
	return mallocsNow() - a0, sol.Pivots
}

// TestScalingAllocsSubLinearInPivots pins the workspace pooling win: a cold
// sparse solve's heap allocation count must grow strictly sub-linearly in
// its pivot count. The tableau arena, pattern rows and pricing scratch live
// in pooled, amortized-growth buffers, so quadrupling the instance — which
// more than triples the pivots at these sizes — may only grow allocations
// by problem-build terms, never by a per-pivot term. The 0.75 headroom
// keeps runner noise out while still failing if any hot-loop allocation
// sneaks back in (per-pivot allocation would push the alloc ratio to ≥ the
// pivot ratio).
func TestScalingAllocsSubLinearInPivots(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates on its own schedule; Mallocs counts are meaningless under -race")
	}
	nSmall, nLarge := 128, 512
	if testing.Short() {
		nSmall, nLarge = 128, 256
	}
	aS, pS := solveAllocsAndPivots(t, nSmall)
	aL, pL := solveAllocsAndPivots(t, nLarge)
	if pS <= 0 || pL <= pS {
		t.Fatalf("degenerate pivot counts: %d, %d", pS, pL)
	}
	allocRatio := float64(aL) / float64(aS)
	pivotRatio := float64(pL) / float64(pS)
	t.Logf("N=%d: %d allocs, %d pivots; N=%d: %d allocs, %d pivots (alloc ratio %.2f, pivot ratio %.2f)",
		nSmall, aS, pS, nLarge, aL, pL, allocRatio, pivotRatio)
	if allocRatio > 0.75*pivotRatio {
		t.Errorf("allocations no longer sub-linear in pivots: alloc ratio %.2f vs pivot ratio %.2f (limit 0.75x)",
			allocRatio, pivotRatio)
	}
}
