package lp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/stats"
)

// checkAgainstCold solves inc warm and the same problem cold, and asserts
// matching status, objective within objTol, and a KKT certificate on the
// warm solution.
func checkAgainstCold(t *testing.T, inc *Incremental, b *Basis, label string) *Solution {
	t.Helper()
	warm, err := inc.SolveFrom(b)
	if err != nil {
		t.Fatalf("%s: warm solve error: %v", label, err)
	}
	cold, err := inc.Problem().Clone().Solve()
	if err != nil {
		t.Fatalf("%s: cold solve error: %v", label, err)
	}
	if warm.Status != cold.Status {
		t.Fatalf("%s: status mismatch warm=%v cold=%v", label, warm.Status, cold.Status)
	}
	if warm.Status != Optimal {
		return warm
	}
	if d := math.Abs(warm.Obj - cold.Obj); d > 1e-9*(1+math.Abs(cold.Obj)) {
		t.Fatalf("%s: objective mismatch warm=%.12g cold=%.12g (Δ=%g)", label, warm.Obj, cold.Obj, d)
	}
	if err := VerifyKKT(inc.Problem(), warm, 1e-6); err != nil {
		t.Fatalf("%s: warm KKT: %v", label, err)
	}
	if warm.Basis == nil {
		t.Fatalf("%s: optimal warm solution missing basis snapshot", label)
	}
	return warm
}

func TestIncrementalTightenBound(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable(0, 10, -1, "x")
	y := p.AddVariable(0, 10, -2, "y")
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 12, "cap")
	p.AddConstraint([]Term{{x, 1}, {y, 3}}, LE, 24, "mix")

	inc := NewIncremental(p)
	sol := checkAgainstCold(t, inc, nil, "root")
	root := sol.Basis

	// Branch-like sequence: tighten, solve, retighten from the root basis.
	inc.TightenBound(y, 0, 3)
	checkAgainstCold(t, inc, root, "y<=3")
	inc.TightenBound(y, 4, 10)
	checkAgainstCold(t, inc, root, "y>=4")
	inc.TightenBound(y, 5, 5) // fixed within the box
	checkAgainstCold(t, inc, root, "y=5")
	inc.TightenBound(y, 0, 10) // relax back
	checkAgainstCold(t, inc, root, "relaxed")
}

func TestIncrementalAddRow(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable(0, 4, -3, "x")
	y := p.AddVariable(0, 4, -5, "y")
	p.AddConstraint([]Term{{x, 3}, {y, 2}}, LE, 18, "m")

	inc := NewIncremental(p)
	checkAgainstCold(t, inc, nil, "root")

	// Cutting-plane-like sequence: rows arrive one at a time.
	inc.AddRow([]Term{{x, 1}, {y, 1}}, LE, 5, "cut1")
	checkAgainstCold(t, inc, nil, "cut1")
	inc.AddRow([]Term{{x, -1}, {y, 1}}, GE, -1, "cut2")
	checkAgainstCold(t, inc, nil, "cut2")
	inc.AddRow([]Term{{x, 1}, {y, 2}}, EQ, 8, "eqcut")
	checkAgainstCold(t, inc, nil, "eqcut")
}

func TestIncrementalInfeasibleChildKeepsWarmState(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable(0, 10, -1, "x")
	y := p.AddVariable(0, 10, -1, "y")
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, GE, 5, "floor")

	inc := NewIncremental(p)
	sol := checkAgainstCold(t, inc, nil, "root")
	root := sol.Basis

	// Empty box child: must not poison the warm state.
	inc.TightenBound(x, 6, 2)
	if s, err := inc.SolveFrom(root); err != nil || s.Status != Infeasible {
		t.Fatalf("empty box: got status %v err %v", s.Status, err)
	}
	inc.TightenBound(x, 0, 10)
	checkAgainstCold(t, inc, root, "after empty box")

	// LP-infeasible child (bounds force row violation).
	inc.TightenBound(x, 0, 1)
	inc.TightenBound(y, 0, 1)
	if s, err := inc.SolveFrom(root); err != nil || s.Status != Infeasible {
		t.Fatalf("lp-infeasible child: got status %v err %v", s.Status, err)
	}
	inc.TightenBound(x, 0, 10)
	inc.TightenBound(y, 0, 10)
	checkAgainstCold(t, inc, root, "after infeasible child")
}

func TestIncrementalStaleBasisIgnored(t *testing.T) {
	build := func() *Problem {
		p := NewProblem()
		x := p.AddVariable(0, 4, -1, "x")
		y := p.AddVariable(0, 4, -1, "y")
		p.AddConstraint([]Term{{x, 1}, {y, 2}}, LE, 6, "r")
		return p
	}
	incA := NewIncremental(build())
	solA, err := incA.Solve()
	if err != nil || solA.Status != Optimal {
		t.Fatalf("A: %v %v", solA.Status, err)
	}
	// A basis from a different standardization must be ignored, not crash.
	incB := NewIncremental(build())
	checkAgainstCold(t, incB, solA.Basis, "foreign basis")
}

func TestIncrementalCostChangeFallsBackCold(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable(0, 4, -1, "x")
	p.AddConstraint([]Term{{x, 1}}, LE, 3, "r")
	inc := NewIncremental(p)
	checkAgainstCold(t, inc, nil, "root")
	p.SetCost(x, 2) // outside the warm class: minimum moves to x=0
	sol := checkAgainstCold(t, inc, nil, "after cost change")
	if math.Abs(sol.X[x]) > 1e-9 {
		t.Fatalf("expected x=0 after cost flip, got %g", sol.X[x])
	}
}

func TestIncrementalPlainSolveHasNilBasis(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable(0, 1, -1, "x")
	p.AddConstraint([]Term{{x, 1}}, LE, 1, "r")
	sol, err := p.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("%v %v", sol, err)
	}
	if sol.Basis != nil {
		t.Fatal("plain Problem.Solve must not export a basis")
	}
}

// randomWarmInstance builds a random LP plus a mutation script mirroring
// the branch-and-bound / cutting-plane access pattern.
func randomWarmInstance(rng *rand.Rand) *Problem {
	p := NewProblem()
	n := 2 + rng.Intn(5)
	for j := 0; j < n; j++ {
		lo := float64(rng.Intn(5))
		hi := lo + float64(1+rng.Intn(9))
		if rng.Float64() < 0.15 {
			lo = math.Inf(-1) // kind-1 column
		}
		cost := math.Round((rng.Float64()*4-2)*8) / 8
		p.AddVariable(lo, hi, cost, "")
	}
	rowsN := 1 + rng.Intn(4)
	for i := 0; i < rowsN; i++ {
		var terms []Term
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.6 {
				terms = append(terms, Term{j, math.Round((rng.Float64()*4-2)*8) / 8})
			}
		}
		if len(terms) == 0 {
			terms = append(terms, Term{rng.Intn(n), 1})
		}
		sense := LE
		switch rng.Intn(4) {
		case 0:
			sense = GE
		case 1:
			sense = EQ
		}
		rhs := math.Round((rng.Float64()*20 - 4)) // mildly biased feasible
		p.AddConstraint(terms, sense, rhs, "")
	}
	return p
}

// TestWarmMatchesColdProperty is the 1000-instance fuzzed warm-vs-cold
// property: every warm reoptimization after a random sequence of bound
// tightenings and row additions must match a from-scratch cold solve in
// status and objective (1e-9 relative) and carry a KKT certificate.
func TestWarmMatchesColdProperty(t *testing.T) {
	instances := 1000
	if testing.Short() {
		instances = 120
	}
	rng := rand.New(rand.NewSource(20260806))
	for k := 0; k < instances; k++ {
		p := randomWarmInstance(rng)
		inc := NewIncremental(p)
		warm, err := inc.Solve()
		if err != nil {
			t.Fatalf("instance %d: root error: %v", k, err)
		}
		cold, _ := p.Clone().Solve()
		if warm.Status != cold.Status {
			t.Fatalf("instance %d: root status warm=%v cold=%v", k, warm.Status, cold.Status)
		}
		var parent *Basis
		if warm.Status == Optimal {
			parent = warm.Basis
		}
		steps := 2 + rng.Intn(4)
		for s := 0; s < steps; s++ {
			// Mutate: mostly bound tightenings, sometimes a new row.
			if rng.Float64() < 0.35 {
				var terms []Term
				for j := 0; j < p.NumVariables(); j++ {
					if rng.Float64() < 0.5 {
						terms = append(terms, Term{j, math.Round((rng.Float64()*4-2)*8) / 8})
					}
				}
				if len(terms) == 0 {
					terms = append(terms, Term{0, 1})
				}
				sense := LE
				if rng.Intn(3) == 0 {
					sense = GE
				}
				inc.AddRow(terms, sense, math.Round(rng.Float64()*20-2), "")
			} else {
				v := rng.Intn(p.NumVariables())
				lo, hi := p.Bounds(v)
				if math.IsInf(lo, -1) {
					// Keep the bound class: only move the finite side.
					inc.TightenBound(v, lo, hi-rng.Float64()*2)
				} else {
					nlo := lo + rng.Float64()*2
					nhi := hi - rng.Float64()*2
					if rng.Float64() < 0.2 {
						nhi = nlo // fix
					}
					inc.TightenBound(v, nlo, nhi)
				}
			}
			w, err := inc.SolveFrom(parent)
			if err != nil {
				t.Fatalf("instance %d step %d: warm error: %v", k, s, err)
			}
			c, err := p.Clone().Solve()
			if err != nil {
				t.Fatalf("instance %d step %d: cold error: %v", k, s, err)
			}
			if w.Status != c.Status {
				t.Fatalf("instance %d step %d: status warm=%v cold=%v", k, s, w.Status, c.Status)
			}
			if w.Status == Optimal {
				if d := math.Abs(w.Obj - c.Obj); d > 1e-9*(1+math.Abs(c.Obj)) {
					t.Fatalf("instance %d step %d: obj warm=%.12g cold=%.12g", k, s, w.Obj, c.Obj)
				}
				if err := VerifyKKT(p, w, 1e-6); err != nil {
					t.Fatalf("instance %d step %d: warm KKT: %v", k, s, err)
				}
				parent = w.Basis
			}
		}
	}
}

// TestWarmPivotAdvantage asserts the headline perf property on a
// branch-and-bound-like workload: reoptimizing children from the parent
// basis must use far fewer pivots than cold solves.
func TestWarmPivotAdvantage(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := NewProblem()
	n := 24
	for j := 0; j < n; j++ {
		p.AddVariable(0, 1, rng.Float64()*2-1, "")
	}
	for i := 0; i < 16; i++ {
		var terms []Term
		for j := 0; j < n; j++ {
			terms = append(terms, Term{j, rng.Float64()})
		}
		p.AddConstraint(terms, LE, float64(n)/3, "")
	}
	inc := NewIncremental(p)
	root, err := inc.Solve()
	if err != nil || root.Status != Optimal {
		t.Fatalf("root: %v %v", root, err)
	}
	warmPivots, coldPivots := 0, 0
	children := 0
	for j := 0; j < n && children < 40; j++ {
		for _, fix := range []float64{0, 1} {
			inc.TightenBound(j, fix, fix)
			w, err := inc.SolveFrom(root.Basis)
			if err != nil {
				t.Fatal(err)
			}
			c, err := p.Clone().Solve()
			if err != nil {
				t.Fatal(err)
			}
			if w.Status == Optimal {
				warmPivots += w.Pivots
				coldPivots += c.Pivots
				children++
			}
			inc.TightenBound(j, 0, 1)
		}
	}
	if children == 0 {
		t.Fatal("no optimal children")
	}
	t.Logf("children=%d warm pivots=%d cold pivots=%d", children, warmPivots, coldPivots)
	if warmPivots*3 > coldPivots {
		t.Fatalf("warm start too weak: warm=%d cold=%d pivots (want ≥3×)", warmPivots, coldPivots)
	}
}

// randomBoxLP builds a packing LP: n columns boxed in [0, hi] with mostly
// negative costs, and m ≤-rows with nonnegative coefficients sized to bind.
// x = 0 stays feasible under every bound halving and every cut addCut adds,
// so a walk over it never turns infeasible.
func randomBoxLP(rng *rand.Rand, n, m int) *Problem {
	p := NewProblem()
	hi := make([]float64, n)
	for j := range hi {
		hi[j] = float64(1 + rng.Intn(8))
		p.AddVariable(0, hi[j], rng.Float64()*2-1.5, "")
	}
	for i := 0; i < m; i++ {
		var terms []Term
		full := 0.0
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.4 {
				c := rng.Float64()
				terms = append(terms, Term{j, c})
				full += c * hi[j]
			}
		}
		if len(terms) == 0 {
			terms = append(terms, Term{rng.Intn(n), 1})
			full = 1
		}
		p.AddConstraint(terms, LE, 0.3*full, "")
	}
	return p
}

// halveBound halves the upper bound of a random column.
func halveBound(rng *rand.Rand, inc *Incremental) {
	v := rng.Intn(inc.Problem().NumVariables())
	lo, hi := inc.Problem().Bounds(v)
	inc.TightenBound(v, lo, hi/2)
}

// addCut adds a ≤-row with nonnegative coefficients that cuts off x, the
// current optimum, by a tenth of its activity.
func addCut(rng *rand.Rand, inc *Incremental, x []float64) {
	var terms []Term
	act := 0.0
	for j := range x {
		if rng.Float64() < 0.3 {
			c := rng.Float64()
			terms = append(terms, Term{j, c})
			act += c * x[j]
		}
	}
	if len(terms) == 0 {
		terms = append(terms, Term{0, 1})
		act = x[0]
	}
	rhs := 0.9 * act
	if rhs <= 0 {
		rhs = 1
	}
	inc.AddRow(terms, LE, rhs, "")
}

func relClose(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Max(1, math.Abs(want))
}

// TestPivotedTableauRefactorizes pins the row-pivoted refactorization.
// After warm solves, a tableau row holds a mix of pristine rows, so the row
// a basic column sits on says nothing about which pristine row can carry
// it; refactor must still succeed and reproduce the live basic values and
// reduced costs.
func TestPivotedTableauRefactorizes(t *testing.T) {
	instances := 200
	if testing.Short() {
		instances = 50
	}
	rng := rand.New(rand.NewSource(20261018))
	failed := 0
	for k := 0; k < instances; k++ {
		p := randomBoxLP(rng, 30, 20)
		inc := NewIncremental(p)
		for s := 0; s <= 10; s++ {
			if s > 0 {
				halveBound(rng, inc)
			}
			if sol, err := inc.Solve(); err != nil || sol.Status != Optimal {
				t.Fatalf("instance %d solve %d: %v %v", k, s, sol, err)
			}
		}
		live := inc.t
		want := make(map[int]float64, len(live.basis))
		for i, c := range live.basis {
			want[c] = live.b[i]
		}
		d := append([]float64(nil), live.d...)
		if !inc.refactor() {
			failed++
			continue
		}
		got := inc.t
		for i, c := range got.basis {
			if w, ok := want[c]; !ok || !relClose(got.b[i], w, 1e-9) {
				t.Fatalf("instance %d: basic column %d refactorized to %.17g, live %.17g (basic %v)", k, c, got.b[i], w, ok)
			}
		}
		for j := range d {
			if !relClose(got.d[j], d[j], 1e-9) {
				t.Fatalf("instance %d: reduced cost %d refactorized to %.17g, live %.17g", k, j, got.d[j], d[j])
			}
		}
	}
	if failed > 0 {
		t.Fatalf("%d of %d refactorizations declared a live basis singular", failed, instances)
	}
}

// TestWarmWalkStaysWarm walks random LPs through the branch-and-bound
// access pattern — bound halvings mixed with cut rows, each node solved
// from the previous node's basis — and demands that only the first solve
// of each walk is cold: the dual simplex must absorb every change within
// its budget. Every node must also match the cold authority's objective.
func TestWarmWalkStaysWarm(t *testing.T) {
	instances := 300
	if testing.Short() {
		instances = 60
	}
	rng := rand.New(rand.NewSource(20261019))
	extra := 0
	for k := 0; k < instances; k++ {
		p := randomBoxLP(rng, 40, 25)
		inc := NewIncremental(p)
		sol, err := inc.Solve()
		if err != nil || sol.Status != Optimal {
			t.Fatalf("instance %d root: %v %v", k, sol, err)
		}
		for s := 0; s < 30; s++ {
			if rng.Intn(3) == 0 {
				addCut(rng, inc, sol.X)
			} else {
				halveBound(rng, inc)
			}
			sol, err = inc.SolveFrom(sol.Basis)
			if err != nil || sol.Status != Optimal {
				t.Fatalf("instance %d step %d: %v %v", k, s, sol, err)
			}
			cold, err := p.Clone().Solve()
			if err != nil || !relClose(sol.Obj, cold.Obj, 1e-9) {
				t.Fatalf("instance %d step %d: warm obj %.12g, cold %.12g (%v)", k, s, sol.Obj, cold.Obj, err)
			}
		}
		_, cold := inc.Stats()
		extra += cold - 1
	}
	if extra != 0 {
		t.Fatalf("%d cold rebuilds beyond the first solve of each of %d walks", extra, instances)
	}
}

// TestSnapshotReinstallsExactly re-installs earlier snapshots of a walk
// under the bounds at which each was optimal. The exchange install must
// land on that optimal vertex outright: zero pivots and the node's
// objective.
func TestSnapshotReinstallsExactly(t *testing.T) {
	instances := 100
	if testing.Short() {
		instances = 25
	}
	rng := rand.New(rand.NewSource(20261020))
	type node struct {
		lo, hi []float64
		basis  *Basis
		obj    float64
	}
	checks, pivoted := 0, 0
	for k := 0; k < instances; k++ {
		p := randomBoxLP(rng, 30, 20)
		n := p.NumVariables()
		inc := NewIncremental(p)
		sol, err := inc.Solve()
		for c := 0; c < 5 && err == nil; c++ {
			addCut(rng, inc, sol.X)
			sol, err = inc.Solve()
		}
		if err != nil || sol.Status != Optimal {
			t.Fatalf("instance %d cuts: %v %v", k, sol, err)
		}
		walk := make([]node, 20)
		for s := range walk {
			halveBound(rng, inc)
			sol, err = inc.SolveFrom(sol.Basis)
			if err != nil || sol.Status != Optimal {
				t.Fatalf("instance %d step %d: %v %v", k, s, sol, err)
			}
			nd := node{lo: make([]float64, n), hi: make([]float64, n), basis: sol.Basis, obj: sol.Obj}
			for v := 0; v < n; v++ {
				nd.lo[v], nd.hi[v] = p.Bounds(v)
			}
			walk[s] = nd
		}
		for c := 0; c < 3; c++ {
			nd := walk[rng.Intn(len(walk)-1)]
			for v := 0; v < n; v++ {
				inc.TightenBound(v, nd.lo[v], nd.hi[v])
			}
			got, err := inc.SolveFrom(nd.basis)
			if err != nil || got.Status != Optimal {
				t.Fatalf("instance %d: re-install: %v %v", k, got, err)
			}
			if !relClose(got.Obj, nd.obj, 1e-9) {
				t.Fatalf("instance %d: re-installed obj %.12g, node's %.12g", k, got.Obj, nd.obj)
			}
			checks++
			if got.Pivots != 0 {
				pivoted++
			}
		}
	}
	if pivoted > 0 {
		t.Fatalf("%d of %d re-installed snapshots took pivots", pivoted, checks)
	}
}

// tSeriesInstance builds a small copy of the paper's min-max allocation
// shape (the bench_scaling generator, shrunk): per family a pick row over K
// configs, a load row coupling the family to the makespan T, and one global
// budget row. The T column couples every load row, so a pivot on it fills
// the tableau column across every load row.
func tSeriesInstance(rng *stats.RNG, families int) *Problem {
	const K = 3
	p := NewProblem()
	T := p.AddVariable(0, Inf, 1, "T")
	budget := make([]Term, 0, K*families)
	for f := 0; f < families; f++ {
		pick := make([]Term, K)
		load := make([]Term, 0, K+1)
		nodes := 1 + rng.Intn(6)
		a := rng.Range(40, 400)
		for k := 0; k < K; k++ {
			z := p.AddVariable(0, 1, 0, "")
			pick[k] = Term{Var: z, Coef: 1}
			tm := a/float64(nodes) + 0.1*float64(nodes) + rng.Range(0, 4)
			load = append(load, Term{Var: z, Coef: tm})
			budget = append(budget, Term{Var: z, Coef: float64(nodes)})
			nodes *= 2
		}
		p.AddConstraint(pick, EQ, 1, "")
		load = append(load, Term{Var: T, Coef: -1})
		p.AddConstraint(load, LE, 0, "")
	}
	p.AddConstraint(budget, LE, rng.Range(3.5, 6)*float64(families), "")
	return p
}

// TestWarmDualRHSWalk drives the warm dual simplex — an RHS walk on the
// budget row plus a bound tightening mid-walk, the branch-and-bound access
// pattern. Verdict and objective must match the cold authority at every
// step.
func TestWarmDualRHSWalk(t *testing.T) {
	walks := 60
	if testing.Short() {
		walks = 15
	}
	for seed := 0; seed < walks; seed++ {
		rng := stats.NewRNG(uint64(seed) + 55001)
		fam := 6 + rng.Intn(14)
		p := tSeriesInstance(rng, fam)
		budgetRow := p.NumConstraints() - 1
		base := p.rows[budgetRow].RHS
		inc := NewIncremental(p)
		if _, err := inc.Solve(); err != nil {
			t.Fatalf("seed %d: cold start: %v", seed, err)
		}
		for step := 0; step < 8; step++ {
			inc.SetRHS(budgetRow, base*(1-0.08*float64(step)))
			if step == 4 {
				// A bound tightening mid-walk, as branching would do.
				v := 1 + rng.Intn(p.NumVariables()-1)
				inc.TightenBound(v, 0, 0.5)
			}
			warm, err := inc.Solve()
			if err != nil {
				t.Fatalf("seed %d step %d: warm: %v", seed, step, err)
			}
			cold := p.Clone()
			cold.DisableSparse = true
			want, err := cold.Solve()
			if err != nil {
				t.Fatalf("seed %d step %d: cold: %v", seed, step, err)
			}
			if warm.Status != want.Status {
				t.Fatalf("seed %d step %d: status %v (warm) vs %v (cold)",
					seed, step, warm.Status, want.Status)
			}
			if warm.Status == Optimal {
				scale := 1 + math.Abs(want.Obj)
				if diff := math.Abs(warm.Obj - want.Obj); diff > 1e-6*scale {
					t.Fatalf("seed %d step %d: obj %v vs %v",
						seed, step, warm.Obj, want.Obj)
				}
			}
		}
	}
}
