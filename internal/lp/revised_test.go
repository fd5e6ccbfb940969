package lp

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// Property batteries for the revised engine's sparse LU basis
// (lu.go) and devex pricing (devex.go). TestSparseMatchesDenseProperty
// already fuzzes small instances across the sparsity dial; the batteries
// here are shaped to make the LU machinery actually work — pivot paths
// long enough to run through multiple Forrest–Tomlin update cycles and
// scheduled refactorizations, degenerate faces that stress the drift
// checks, and the devex/Dantzig ablation on both the cold and warm paths.

// tSeriesInstance builds a small copy of the paper's min-max allocation
// shape (the bench_scaling generator, shrunk): per family a pick row over K
// configs, a load row coupling the family to the makespan T, and one global
// budget row. The T column couples every load row, so FTRAN/BTRAN results
// are dense in the row dimension — exactly the regime the LU engine's
// density-abort closures are built for.
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

// luBatteryInstance alternates between the structured T-series shape and a
// free-form random LP large enough to outlast luMaxUpdates (so scheduled
// reinversions happen mid-solve, not only at the end).
func luBatteryInstance(rng *stats.RNG, seed int) *Problem {
	if seed%2 == 0 {
		return tSeriesInstance(rng, 8+rng.Intn(40))
	}
	return randomLP(rng, 20+rng.Intn(40), 15+rng.Intn(30))
}

// TestLUvsDenseProperty: the sparse-LU revised engine must reproduce the
// dense tableau authority's verdict on ~1000 instances whose pivot paths
// exercise the full Forrest–Tomlin update/reinversion cycle, and every
// Optimal claim must carry a KKT certificate. Objectives are compared under
// the same scaled discipline as tol.go (relative to the optimum magnitude).
func TestLUvsDenseProperty(t *testing.T) {
	instances := 1000
	if testing.Short() {
		instances = 120
	}
	before := revisedSolves.Load()
	for seed := 0; seed < instances; seed++ {
		rng := stats.NewRNG(uint64(seed) + 88001)
		p := luBatteryInstance(rng, seed)
		dense := p.Clone()
		dense.DisableSparse = true

		got, err := p.Solve()
		if err != nil {
			t.Fatalf("seed %d: sparse err %v", seed, err)
		}
		want, err := dense.Solve()
		if err != nil {
			t.Fatalf("seed %d: dense err %v", seed, err)
		}
		if got.Status != want.Status {
			t.Fatalf("seed %d: status %v (LU) vs %v (dense)", seed, got.Status, want.Status)
		}
		if got.Status != Optimal {
			continue
		}
		scale := 1 + math.Abs(want.Obj)
		if diff := math.Abs(got.Obj - want.Obj); diff > 1e-6*scale {
			t.Fatalf("seed %d: obj %v (LU) vs %v (dense), diff %g", seed, got.Obj, want.Obj, diff)
		}
		if err := VerifyKKT(p, got, 1e-6); err != nil {
			t.Fatalf("seed %d: KKT on LU solution: %v", seed, err)
		}
	}
	if revisedSolves.Load() == before {
		t.Fatal("battery never reached the revised LU engine")
	}
}

// TestDevexAblationProperty: devex weights may only steer pivot ORDER —
// with and without DisableDevex, cold Problem.Solve calls (the revised
// engine, which is the only devex consumer) must reach the same verdict
// and objective on every instance. The pivot totals of both policies are
// logged for the record; on this mixed family devex saves ~5% of pivots
// (see DESIGN.md), so no ratio is asserted.
func TestDevexAblationProperty(t *testing.T) {
	instances := 500
	if testing.Short() {
		instances = 80
	}
	pivDevex, pivDantzig := 0, 0
	for seed := 0; seed < instances; seed++ {
		rng := stats.NewRNG(uint64(seed) + 99001)
		p := luBatteryInstance(rng, seed)
		ablated := p.Clone()
		ablated.DisableDevex = true

		got, err := p.Solve()
		if err != nil {
			t.Fatalf("seed %d: devex err %v", seed, err)
		}
		want, err := ablated.Solve()
		if err != nil {
			t.Fatalf("seed %d: dantzig err %v", seed, err)
		}
		if got.Status != want.Status {
			t.Fatalf("seed %d: status %v (devex) vs %v (dantzig)", seed, got.Status, want.Status)
		}
		if got.Status == Optimal {
			scale := 1 + math.Abs(want.Obj)
			if diff := math.Abs(got.Obj - want.Obj); diff > 1e-6*scale {
				t.Fatalf("seed %d: obj %v (devex) vs %v (dantzig), diff %g", seed, got.Obj, want.Obj, diff)
			}
		}
		pivDevex += got.Pivots
		pivDantzig += want.Pivots
	}
	t.Logf("cold pivots: devex %d vs dantzig %d (%.2fx)", pivDevex, pivDantzig,
		float64(pivDevex)/float64(pivDantzig))
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

// TestFTDriftDegenerate runs the LU engine across Klee–Minty cubes and
// perturbed variants — maximally degenerate pivot paths where every pivot
// hammers the same few rows, the worst case for Forrest–Tomlin drift. The
// engine must either stay accurate through its update/refactorization
// ladder or decline to the dense authority; both end in the known optimum.
// Engine drift/fallback counters are snapshotted to show which of the two
// happened (diagnostic only — either is a correct outcome).
func TestFTDriftDegenerate(t *testing.T) {
	s0 := ReadEngineStats()
	for _, n := range []int{4, 6, 8, 10, 12} {
		for pert := 0; pert < 3; pert++ {
			rng := stats.NewRNG(uint64(n*100 + pert))
			p := NewProblem()
			vars := make([]int, n)
			for j := 0; j < n; j++ {
				c := -math.Pow(2, float64(n-1-j))
				if pert > 0 {
					c *= 1 + 1e-9*rng.Range(-1, 1)
				}
				vars[j] = p.AddVariable(0, Inf, c, "")
			}
			for i := 0; i < n; i++ {
				terms := []Term{{vars[i], 1}}
				for j := 0; j < i; j++ {
					terms = append(terms, Term{vars[j], math.Pow(2, float64(i-j+1))})
				}
				p.AddConstraint(terms, LE, math.Pow(5, float64(i+1)), "")
			}
			sol, err := p.Solve()
			if err != nil {
				t.Fatalf("n=%d pert=%d: %v", n, pert, err)
			}
			if sol.Status != Optimal {
				t.Fatalf("n=%d pert=%d: status %v", n, pert, sol.Status)
			}
			want := -math.Pow(5, float64(n))
			if math.Abs(sol.Obj-want) > 1e-6*math.Abs(want) {
				t.Fatalf("n=%d pert=%d: obj %v, want %v", n, pert, sol.Obj, want)
			}
			if err := VerifyKKT(p, sol, 1e-6); err != nil {
				t.Fatalf("n=%d pert=%d: KKT: %v", n, pert, err)
			}
		}
	}
	s1 := ReadEngineStats()
	t.Logf("degenerate battery: %d updates, %d refactors, %d drift trips, %d fallbacks",
		s1.Updates-s0.Updates, s1.Refactors-s0.Refactors,
		s1.Drifts-s0.Drifts, s1.Fallbacks-s0.Fallbacks)
}
