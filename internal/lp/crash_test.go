package lp

import (
	"math"
	"math/rand"
	"testing"
)

// buildCrashTSeries builds the N-family min-max T-series LP (one EQ pick
// row and one LE load row per family, one dense node-budget row) together
// with the paper-style heuristic hint the crash layer consumes: bisect the
// makespan target and give each family the cheapest configuration meeting
// it. The hint is exactly the greedy allocation a production caller would
// pass through SetCrashPoint, not a solved optimum.
func buildCrashTSeries(n int, seed int64) (*Problem, []float64) {
	rng := rand.New(rand.NewSource(seed))
	p := NewProblem()
	T := p.AddVariable(0, Inf, 1, "T")
	type fam struct {
		vars  []int
		times []float64
		nodes []float64
	}
	fams := make([]fam, n)
	nodeVars := []Term{}
	for f := 0; f < n; f++ {
		K := 4
		vars := make([]int, K)
		times := make([]float64, K)
		nn := make([]float64, K)
		nodes := float64(1 + rng.Intn(8))
		a := 50 + 450*rng.Float64()
		for k := 0; k < K; k++ {
			t := a/nodes + 0.1*nodes + 5*rng.Float64()
			v := p.AddVariable(0, 1, 0, "")
			vars[k], times[k], nn[k] = v, t, nodes
			nodeVars = append(nodeVars, Term{Var: v, Coef: nodes})
			nodes *= 2
		}
		fams[f] = fam{vars, times, nn}
		pick := make([]Term, K)
		for k := 0; k < K; k++ {
			pick[k] = Term{Var: vars[k], Coef: 1}
		}
		p.AddConstraint(pick, EQ, 1, "")
		load := make([]Term, 0, K+1)
		for k := 0; k < K; k++ {
			load = append(load, Term{Var: vars[k], Coef: times[k]})
		}
		load = append(load, Term{Var: T, Coef: -1})
		p.AddConstraint(load, LE, 0, "")
	}
	p.AddConstraint(nodeVars, LE, 6*float64(n), "")

	budget := 6 * float64(n)
	pick := func(tgt float64) (float64, []int, bool) {
		tot := 0.0
		sel := make([]int, len(fams))
		for fi, f := range fams {
			bi, bn := -1, math.Inf(1)
			for k, t := range f.times {
				if t <= tgt && f.nodes[k] < bn {
					bn, bi = f.nodes[k], k
				}
			}
			if bi < 0 {
				return 0, nil, false
			}
			sel[fi] = bi
			tot += bn
		}
		return tot, sel, true
	}
	lo, hi := 0.0, 0.0
	for _, f := range fams {
		mn := math.Inf(1)
		for _, t := range f.times {
			if t < mn {
				mn = t
			}
		}
		if mn > lo {
			lo = mn
		}
		if f.times[0] > hi {
			hi = f.times[0]
		}
	}
	if hi < lo {
		hi = lo
	}
	var bestSel []int
	for it := 0; it < 60; it++ {
		mid := 0.5 * (lo + hi)
		if tot, sel, ok := pick(mid); ok && tot <= budget {
			bestSel = sel
			hi = mid
		} else {
			lo = mid
		}
	}
	if bestSel == nil {
		_, bestSel, _ = pick(hi)
	}
	hint := make([]float64, p.NumVariables())
	maxT := 0.0
	for fi, f := range fams {
		hint[f.vars[bestSel[fi]]] = 1
		if t := f.times[bestSel[fi]]; t > maxT {
			maxT = t
		}
	}
	hint[0] = maxT
	return p, hint
}

// TestCrashTSeriesMatchesCold pins the crash layer's contract on the
// paper's own shape: a crash-hinted Incremental solve must reach the same
// optimum as the unhinted cold solve, install (not decline) on this
// well-formed hint, and hold up to the KKT certificate.
func TestCrashTSeriesMatchesCold(t *testing.T) {
	n := 512
	if testing.Short() {
		n = 128
	}
	p, hint := buildCrashTSeries(n, 4242)
	s0 := ReadEngineStats()
	cold, err := p.Solve()
	if err != nil || cold.Status != Optimal {
		t.Fatalf("cold: %v %v", cold.Status, err)
	}
	p2 := p.Clone()
	p2.SetCrashPoint(hint)
	warm, err := NewIncremental(p2).Solve()
	if err != nil || warm.Status != Optimal {
		t.Fatalf("crash: %v %v", warm.Status, err)
	}
	s1 := ReadEngineStats()
	t.Logf("cold pivots=%d crash pivots=%d installs=%d declines=%d",
		cold.Pivots, warm.Pivots,
		s1.CrashInstalls-s0.CrashInstalls, s1.CrashDeclines-s0.CrashDeclines)
	if s1.CrashInstalls <= s0.CrashInstalls {
		t.Errorf("crash basis declined on a well-formed T-series hint")
	}
	if math.Abs(warm.Obj-cold.Obj) > 1e-6*(1+math.Abs(cold.Obj)) {
		t.Fatalf("obj mismatch: %g vs %g", warm.Obj, cold.Obj)
	}
	if err := VerifyKKT(p2, warm, 1e-6); err != nil {
		t.Fatalf("KKT: %v", err)
	}
}

// TestCrashIncrementalWarmPath drives the crash hint through the
// Incremental (dense warm) engine: install, solve, then keep reoptimizing
// after a bound tighten, the branch-and-bound access pattern.
func TestCrashIncrementalWarmPath(t *testing.T) {
	n := 512
	if testing.Short() {
		n = 128
	}
	p, hint := buildCrashTSeries(n, 4242)
	cold, err := p.Solve()
	if err != nil || cold.Status != Optimal {
		t.Fatalf("cold: %v %v", cold.Status, err)
	}
	p2, _ := buildCrashTSeries(n, 4242)
	p2.SetCrashPoint(hint)
	i0 := ReadEngineStats().CrashInstalls
	inc := NewIncremental(p2)
	sol, err := inc.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("warm crash: %v %v", sol.Status, err)
	}
	if d := math.Abs(sol.Obj - cold.Obj); d > 1e-7*(1+math.Abs(cold.Obj)) {
		t.Fatalf("objective mismatch: %g vs %g", sol.Obj, cold.Obj)
	}
	if got := ReadEngineStats().CrashInstalls; got <= i0 {
		t.Fatalf("crashInstalls did not increment: %d -> %d", i0, got)
	}
	if err := VerifyKKT(p2, sol, 1e-6); err != nil {
		t.Fatalf("KKT: %v", err)
	}
	inc.TightenBound(1, 0, 0)
	sol2, err := inc.Solve()
	if err != nil || sol2.Status != Optimal {
		t.Fatalf("reopt after tighten: %v %v", sol2.Status, err)
	}
}

// randomBatteryLP builds a small random box-bounded LP: up to 8 variables,
// up to 8 rows of mixed sense with small integer coefficients. The
// population deliberately includes infeasible and unbounded instances —
// the battery checks agreement of verdicts, not just optima.
func randomBatteryLP(rng *rand.Rand) *Problem {
	p := NewProblem()
	nv := 1 + rng.Intn(8)
	for j := 0; j < nv; j++ {
		hi := float64(rng.Intn(20))
		if rng.Intn(8) == 0 {
			hi = Inf
		}
		p.AddVariable(0, hi, float64(rng.Intn(21)-10), "")
	}
	nc := rng.Intn(9)
	for c := 0; c < nc; c++ {
		var terms []Term
		for v := 0; v < nv; v++ {
			if coef := rng.Intn(11) - 5; coef != 0 {
				terms = append(terms, Term{Var: v, Coef: float64(coef)})
			}
		}
		if len(terms) == 0 {
			continue
		}
		p.AddConstraint(terms, Sense(rng.Intn(3)), float64(rng.Intn(41)-10), "")
	}
	return p
}

// randomCrashPoint draws a hint of varying quality: the cold optimum, a
// perturbation of it, or a uniformly random point in the boxes. Poor hints
// must decline or repair, never corrupt the answer.
func randomCrashPoint(rng *rand.Rand, p *Problem, coldX []float64) []float64 {
	n := p.NumVariables()
	hint := make([]float64, n)
	switch mode := rng.Intn(3); {
	case mode == 0 && coldX != nil:
		copy(hint, coldX)
	case mode == 1 && coldX != nil:
		for j := range hint {
			hint[j] = coldX[j] + rng.NormFloat64()
		}
	default:
		for j := range hint {
			hint[j] = float64(rng.Intn(25)) - 5
		}
	}
	return hint
}

// TestCrashVsColdBattery solves ~1000 random instances twice — cold, and
// through an Incremental with a crash hint of varying quality — and demands identical status, an
// objective match to 1e-9 (relative), and a clean KKT certificate on the
// crash-path optimum. This is the paranoid-fallback contract: a hint can
// save pivots or be declined, but it can never change the answer.
func TestCrashVsColdBattery(t *testing.T) {
	iters := 1000
	if testing.Short() {
		iters = 200
	}
	rng := rand.New(rand.NewSource(20260808))
	installs, declines := 0, 0
	s0 := ReadEngineStats()
	for it := 0; it < iters; it++ {
		p := randomBatteryLP(rng)
		cold, err := p.Solve()
		if err != nil {
			t.Fatalf("iter %d cold: %v", it, err)
		}
		var coldX []float64
		if cold.Status == Optimal {
			coldX = cold.X
		}
		q := p.Clone()
		q.SetCrashPoint(randomCrashPoint(rng, p, coldX))
		crash, err := NewIncremental(q).Solve()
		if err != nil {
			t.Fatalf("iter %d crash: %v", it, err)
		}
		if crash.Status != cold.Status {
			t.Fatalf("iter %d: status diverged cold=%v crash=%v", it, cold.Status, crash.Status)
		}
		if cold.Status != Optimal {
			continue
		}
		if math.Abs(crash.Obj-cold.Obj) > 1e-9*(1+math.Abs(cold.Obj)) {
			t.Fatalf("iter %d: obj diverged cold=%.12g crash=%.12g", it, cold.Obj, crash.Obj)
		}
		if err := VerifyKKT(q, crash, 1e-6); err != nil {
			t.Fatalf("iter %d: crash optimum fails certificate: %v", it, err)
		}
	}
	s1 := ReadEngineStats()
	installs = int(s1.CrashInstalls - s0.CrashInstalls)
	declines = int(s1.CrashDeclines - s0.CrashDeclines)
	t.Logf("%d instances: %d installs, %d declines", iters, installs, declines)
	if installs == 0 {
		t.Errorf("battery never installed a crash basis; the layer is dead code on this population")
	}
	if declines == 0 {
		t.Errorf("battery never declined; the random hints should exercise the fallback")
	}
}

// FuzzCrashBasis feeds arbitrary instances plus arbitrary crash points to
// an Incremental solve: no panic, and any claimed optimum must match the unhinted
// solve and pass the KKT certificate.
func FuzzCrashBasis(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 5, 1, 10, 5, 1, 3, 7, 0, 4, 9, 9})
	f.Add([]byte{5, 6, 0, 0, 255, 31, 1, 128, 9, 2, 100, 200, 50, 25, 12, 6, 3, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeLP(data)
		cold, err := p.Solve()
		if err != nil {
			return
		}
		q := p.Clone()
		hint := make([]float64, p.NumVariables())
		for j := range hint {
			if len(data) > 0 {
				hint[j] = float64(int8(data[j%len(data)]))
			}
		}
		q.SetCrashPoint(hint)
		crash, err := NewIncremental(q).Solve()
		if err != nil {
			return
		}
		if crash.Status != cold.Status {
			t.Fatalf("status diverged: cold=%v crash=%v", cold.Status, crash.Status)
		}
		if cold.Status != Optimal {
			return
		}
		if math.Abs(crash.Obj-cold.Obj) > 1e-6*(1+math.Abs(cold.Obj)) {
			t.Fatalf("obj diverged: cold=%g crash=%g", cold.Obj, crash.Obj)
		}
		if err := VerifyKKT(q, crash, 1e-6); err != nil {
			t.Fatalf("crash optimum fails certificate: %v", err)
		}
	})
}
