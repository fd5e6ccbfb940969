package lp

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// kleeMintyCube builds the n-dimensional Klee–Minty cube
// max Σ 2^(n-1-j) x_j; with perturb set, every cost is scaled by a random
// factor within 1e-9 of 1. Either way the optimum is x_n = 5^n, others 0,
// objective -5^n.
func kleeMintyCube(n int, rng *stats.RNG, perturb bool) *Problem {
	p := NewProblem()
	vars := make([]int, n)
	for j := 0; j < n; j++ {
		c := -math.Pow(2, float64(n-1-j))
		if perturb {
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
	return p
}

// Klee–Minty cubes are the classic worst case for Dantzig pricing; they
// must still solve correctly (possibly after many pivots).
func TestKleeMinty(t *testing.T) {
	for _, n := range []int{3, 5, 8} {
		sol, err := kleeMintyCube(n, nil, false).Solve()
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal {
			t.Fatalf("n=%d: status %v", n, sol.Status)
		}
		want := -math.Pow(5, float64(n))
		if math.Abs(sol.Obj-want) > 1e-6*math.Abs(want) {
			t.Fatalf("n=%d: obj %v, want %v", n, sol.Obj, want)
		}
	}
}

// TestKleeMintyDegenerateKKT runs Klee–Minty cubes and perturbed variants —
// maximally degenerate pivot paths where every pivot hammers the same few
// rows, the worst case for accumulated drift in the tableau. Every solve
// must end in the known optimum and carry a KKT certificate.
func TestKleeMintyDegenerateKKT(t *testing.T) {
	for _, n := range []int{4, 6, 8, 10, 12} {
		for pert := 0; pert < 3; pert++ {
			rng := stats.NewRNG(uint64(n*100 + pert))
			p := kleeMintyCube(n, rng, pert > 0)
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
}

// A pathological scale mix: coefficients spanning 10 orders of magnitude.
func TestScaleRobustness(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable(0, Inf, 1e-6, "x")
	y := p.AddVariable(0, Inf, 1e4, "y")
	p.AddConstraint([]Term{{x, 1e6}, {y, 1e-4}}, GE, 1e6, "")
	sol, err := p.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("status %v err %v", sol.Status, err)
	}
	// Cheapest way to satisfy the row: x = 1 (cost 1e-6).
	if math.Abs(sol.X[x]-1) > 1e-6 {
		t.Fatalf("x = %v", sol.X)
	}
}

// Zero-width ranges everywhere: the fixed-variable substitution path.
func TestAllFixedVariables(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable(2, 2, 3, "x")
	y := p.AddVariable(-1, -1, 5, "y")
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 1.5, "")
	sol, err := p.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("status %v err %v", sol.Status, err)
	}
	if sol.X[x] != 2 || sol.X[y] != -1 {
		t.Fatalf("x = %v", sol.X)
	}
	if math.Abs(sol.Obj-1) > 1e-12 {
		t.Fatalf("obj = %v", sol.Obj)
	}
	// And an infeasible fixed combination.
	p2 := NewProblem()
	a := p2.AddVariable(2, 2, 0, "a")
	p2.AddConstraint([]Term{{a, 1}}, GE, 3, "")
	sol2, err := p2.Solve()
	if err != nil || sol2.Status != Infeasible {
		t.Fatalf("status %v err %v, want infeasible", sol2.Status, err)
	}
}
