package lp

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// sparseInstance generates LPs big enough that the sparse kernels really
// pivot (the tiny presolve-oriented instances barely exercise them), with
// a sparsity dial covering both the pattern-friendly regime and the dense
// regime that trips the fill-in fallback.
func sparseInstance(rng *stats.RNG) *Problem {
	p := NewProblem()
	n := 6 + rng.Intn(20)
	q := func(lo, hi float64) float64 {
		return math.Round(rng.Range(lo, hi)*8) / 8
	}
	for j := 0; j < n; j++ {
		lo := q(0, 3)
		p.AddVariable(lo, lo+q(1, 8), q(-4, 4), "")
	}
	m := 3 + rng.Intn(14)
	density := 0.15 + 0.7*rng.Float64()
	for i := 0; i < m; i++ {
		var terms []Term
		for j := 0; j < n; j++ {
			if rng.Float64() < density {
				terms = append(terms, Term{Var: j, Coef: q(-3, 3)})
			}
		}
		if len(terms) == 0 {
			terms = []Term{{Var: rng.Intn(n), Coef: 1}}
		}
		p.AddConstraint(terms, Sense(rng.Intn(3)), q(-6, 24), "")
	}
	return p
}

// tSeriesOrRandomLP alternates between the paper's T-series shape and a
// dense random LP (k even: T-series with 8–47 families; k odd: 20–59
// variables, 15–44 rows).
func tSeriesOrRandomLP(rng *stats.RNG, k int) *Problem {
	if k%2 == 0 {
		return tSeriesInstance(rng, 8+rng.Intn(40))
	}
	return randomLP(rng, 20+rng.Intn(40), 15+rng.Intn(30))
}

// checkSparseMatchesDense solves `instances` generated problems (instance k
// from seed base+k) with solve, once as built and once pinned to the dense
// kernels, and requires the same status, objectives within 1e-9 relative,
// and a KKT certificate on every sparse optimum.
func checkSparseMatchesDense(t *testing.T, base, instances int,
	gen func(rng *stats.RNG, k int) *Problem,
	solve func(p *Problem) (*Solution, error)) {
	t.Helper()
	for k := 0; k < instances; k++ {
		seed := base + k
		p := gen(stats.NewRNG(uint64(seed)), k)
		dense := p.Clone()
		dense.DisableSparse = true

		got, err := solve(p)
		if err != nil {
			t.Fatalf("seed %d: sparse solve error: %v", seed, err)
		}
		want, err := solve(dense)
		if err != nil {
			t.Fatalf("seed %d: dense solve error: %v", seed, err)
		}
		if got.Status != want.Status {
			t.Fatalf("seed %d: status %v (sparse) vs %v (dense)", seed, got.Status, want.Status)
		}
		if got.Status != Optimal {
			continue
		}
		if math.Abs(got.Obj-want.Obj) > 1e-9*(1+math.Abs(want.Obj)) {
			t.Fatalf("seed %d: obj %.12g (sparse) vs %.12g (dense)", seed, got.Obj, want.Obj)
		}
		if err := VerifyKKT(p, got, 1e-6); err != nil {
			t.Fatalf("seed %d: sparse certificate: %v", seed, err)
		}
	}
}

func sparseGen(rng *stats.RNG, _ int) *Problem { return sparseInstance(rng) }

func problemSolve(p *Problem) (*Solution, error) { return p.Solve() }

// TestSparseMatchesDenseProperty isolates the sparse solve path: cold
// Problem.Solve with the pattern-aware tableau kernels must reproduce the
// dense authority over 1000 fuzzed instances spanning sparse to dense fill.
func TestSparseMatchesDenseProperty(t *testing.T) {
	instances := 1000
	if testing.Short() {
		instances = 150
	}
	checkSparseMatchesDense(t, 7001, instances, sparseGen, problemSolve)
}

// TestTSeriesSparseMatchesDenseProperty holds cold sparse solves to the
// dense authority on ~1000 larger instances — the paper's T-series shape,
// whose makespan column couples every load row, alternating with dense
// random LPs — whose pivot paths run far longer than sparseInstance's.
func TestTSeriesSparseMatchesDenseProperty(t *testing.T) {
	instances := 1000
	if testing.Short() {
		instances = 120
	}
	checkSparseMatchesDense(t, 88001, instances, tSeriesOrRandomLP, problemSolve)
}

// TestTableauSparseCold holds solveCold, called with no workspace, to the
// dense authority on 400 fuzzed instances. Problem.Solve is solveCold over
// a pooled workspace, so this differs from TestSparseMatchesDenseProperty
// only in that workspace and in its seed.
func TestTableauSparseCold(t *testing.T) {
	instances := 400
	if testing.Short() {
		instances = 80
	}
	checkSparseMatchesDense(t, 90001, instances, sparseGen,
		func(p *Problem) (*Solution, error) {
			sol, _, _, err := solveCold(p, nil, nil)
			return sol, err
		})
}

// TestWarmSparseComposition drives a branch-and-bound-like warm sequence
// (tighten bounds, add rows, reoptimize from the parent basis) with the
// sparse kernels on, checking every step against a cold solve pinned to
// the dense authority — the full composition the warm clients (milp, nlp)
// rely on.
func TestWarmSparseComposition(t *testing.T) {
	instances := 200
	if testing.Short() {
		instances = 40
	}
	for seed := 0; seed < instances; seed++ {
		rng := stats.NewRNG(uint64(seed) + 40409)
		p := sparseInstance(rng)
		inc := NewIncremental(p)
		warm, err := inc.Solve()
		if err != nil {
			t.Fatalf("seed %d: root warm error: %v", seed, err)
		}
		var parent *Basis
		if warm.Status == Optimal {
			parent = warm.Basis
		}
		q := func(lo, hi float64) float64 {
			return math.Round(rng.Range(lo, hi)*8) / 8
		}
		for s := 0; s < 3; s++ {
			if rng.Intn(3) == 0 {
				var terms []Term
				for j := 0; j < p.NumVariables(); j++ {
					if rng.Intn(3) == 0 {
						terms = append(terms, Term{Var: j, Coef: q(-2, 2)})
					}
				}
				if len(terms) == 0 {
					terms = []Term{{Var: 0, Coef: 1}}
				}
				sense := LE
				if rng.Intn(3) == 0 {
					sense = GE
				}
				inc.AddRow(terms, sense, q(0, 20), "")
			} else {
				v := rng.Intn(p.NumVariables())
				lo, hi := p.Bounds(v)
				nlo := lo + rng.Float64()
				nhi := hi - rng.Float64()
				if nhi < nlo {
					nhi = nlo
				}
				inc.TightenBound(v, nlo, nhi)
			}
			w, err := inc.SolveFrom(parent)
			if err != nil {
				t.Fatalf("seed %d step %d: warm error: %v", seed, s, err)
			}
			authority := p.Clone()
			authority.DisableSparse = true
			c, err := authority.Solve()
			if err != nil {
				t.Fatalf("seed %d step %d: dense cold error: %v", seed, s, err)
			}
			if w.Status != c.Status {
				t.Fatalf("seed %d step %d: status warm-sparse=%v dense-cold=%v", seed, s, w.Status, c.Status)
			}
			if w.Status == Optimal {
				if d := math.Abs(w.Obj - c.Obj); d > 1e-9*(1+math.Abs(c.Obj)) {
					t.Fatalf("seed %d step %d: obj warm-sparse=%.12g dense-cold=%.12g", seed, s, w.Obj, c.Obj)
				}
				if err := VerifyKKT(p, w, 1e-6); err != nil {
					t.Fatalf("seed %d step %d: warm-sparse certificate: %v", seed, s, err)
				}
				parent = w.Basis
			}
		}
	}
}

// TestDenseFallbackGuard pins the tableau fill-in guard: a fully dense
// instance must (a) solve correctly and (b) actually drop to the dense
// kernels mid-solve rather than pay pattern maintenance on 100% fill. The
// guard lives in the tableau kernels, so this drives solveCold directly.
func TestDenseFallbackGuard(t *testing.T) {
	rng := stats.NewRNG(99)
	p := NewProblem()
	n := 12
	for j := 0; j < n; j++ {
		p.AddVariable(0, 10, rng.Range(-3, 3), "")
	}
	for i := 0; i < n; i++ {
		terms := make([]Term, n)
		for j := 0; j < n; j++ {
			terms[j] = Term{Var: j, Coef: rng.Range(0.5, 2)}
		}
		p.AddConstraint(terms, LE, rng.Range(20, 60), "")
	}
	dropped := false
	debugSparseDrop = func(pivots, nnz, m, n int) { dropped = true }
	defer func() { debugSparseDrop = nil }()
	sol, _, _, err := solveCold(p, nil, nil)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("solve: %v %v", sol.Status, err)
	}
	if !dropped {
		t.Fatalf("fully dense instance never tripped the density guard")
	}
	dense := p.Clone()
	dense.DisableSparse = true
	ref, _ := dense.Solve()
	if math.Abs(sol.Obj-ref.Obj) > 1e-9*(1+math.Abs(ref.Obj)) {
		t.Fatalf("obj %.12g vs dense %.12g", sol.Obj, ref.Obj)
	}
	if err := VerifyKKT(p, sol, 1e-8); err != nil {
		t.Fatalf("certificate: %v", err)
	}
}
