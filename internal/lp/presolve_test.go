package lp

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// presolveInstance generates a small LP of the shape a presolve pass would
// reduce: fixed variables, singleton rows of all senses and signs,
// duplicate terms, rows that empty out once the fixed columns are
// substituted, and plain multi-term rows. Branch-and-bound node problems
// have this shape, and the cold engines take it unreduced. Values are
// quantized to eighths so feasibility questions never land in the
// tolerance gray zone where the two engines could legitimately disagree.
func presolveInstance(rng *stats.RNG) *Problem {
	p := NewProblem()
	n := 2 + rng.Intn(6)
	q := func(lo, hi float64) float64 {
		return math.Round(rng.Range(lo, hi)*8) / 8
	}
	for j := 0; j < n; j++ {
		lo := q(-4, 2)
		hi := lo + q(0, 6)
		if rng.Intn(4) == 0 {
			hi = lo // fixed at input
		}
		p.AddVariable(lo, hi, q(-5, 5), "")
	}
	m := 1 + rng.Intn(7)
	for i := 0; i < m; i++ {
		var terms []Term
		switch rng.Intn(4) {
		case 0: // singleton
			c := q(-3, 3)
			if c == 0 {
				c = 1
			}
			terms = []Term{{Var: rng.Intn(n), Coef: c}}
		case 1: // pair, possibly duplicating a variable
			terms = []Term{
				{Var: rng.Intn(n), Coef: q(-3, 3)},
				{Var: rng.Intn(n), Coef: q(-3, 3)},
			}
		default:
			k := 2 + rng.Intn(n)
			for v := 0; v < n && len(terms) < k; v++ {
				if rng.Intn(2) == 0 {
					terms = append(terms, Term{Var: v, Coef: q(-3, 3)})
				}
			}
			if len(terms) == 0 {
				terms = []Term{{Var: 0, Coef: 1}}
			}
		}
		sense := Sense(rng.Intn(3))
		p.AddConstraint(terms, sense, q(-8, 8), "")
	}
	return p
}

// comparePaths solves p through the default cold route (the tableau's
// pattern kernels) and through the pinned dense authority, then
// cross-checks status, objective, and both KKT certificates.
func comparePaths(t *testing.T, seed int, p *Problem) {
	t.Helper()
	dense := p.Clone()
	dense.DisableSparse = true

	got, err := p.Solve()
	if err != nil {
		t.Fatalf("seed %d: default solve error: %v", seed, err)
	}
	want, err := dense.Solve()
	if err != nil {
		t.Fatalf("seed %d: dense solve error: %v", seed, err)
	}
	if got.Status != want.Status {
		t.Fatalf("seed %d: status %v (default) vs %v (dense authority)", seed, got.Status, want.Status)
	}
	if got.Status != Optimal {
		return
	}
	if math.Abs(got.Obj-want.Obj) > 1e-9*(1+math.Abs(want.Obj)) {
		t.Fatalf("seed %d: obj %.12g (default) vs %.12g (dense authority)", seed, got.Obj, want.Obj)
	}
	if err := VerifyKKT(p, got, 1e-6); err != nil {
		t.Fatalf("seed %d: default-path certificate: %v", seed, err)
	}
	if err := VerifyKKT(dense, want, 1e-6); err != nil {
		t.Fatalf("seed %d: dense-path certificate: %v", seed, err)
	}
}

// TestPresolveRoundTripProperty: on a population heavy in the structure a
// presolve pass would remove (fixed columns; singleton, empty and
// duplicate rows), the default cold route must match the dense authority's
// status and objective and carry a full KKT certificate, values and duals
// alike.
func TestPresolveRoundTripProperty(t *testing.T) {
	instances := 1000
	if testing.Short() {
		instances = 150
	}
	for seed := 0; seed < instances; seed++ {
		rng := stats.NewRNG(uint64(seed) + 11)
		comparePaths(t, seed, presolveInstance(rng))
	}
}

// TestPresolveReduces pins the answer on a problem a presolve pass would
// reduce to the single column y: a fixed variable, a row that empties once
// it is substituted, an equality singleton that fixes z, and rows that
// become bounds on y. The cold route takes it unreduced and must return
// the solution and duals with a KKT certificate.
func TestPresolveReduces(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable(2, 2, 3, "x") // fixed at input
	y := p.AddVariable(0, 10, -1, "y")
	z := p.AddVariable(0, 10, 1, "z")
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 8, "")  // y ≤ 6 after substitution
	p.AddConstraint([]Term{{x, 2}}, LE, 5, "")          // empties: 4 ≤ 5
	p.AddConstraint([]Term{{z, 1}}, EQ, 4, "")          // fixes z
	p.AddConstraint([]Term{{y, 1}, {z, 1}}, LE, 20, "") // slack either way

	sol, err := p.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("solve: %v %v", sol.Status, err)
	}
	wantX := []float64{2, 6, 4}
	for j, w := range wantX {
		if math.Abs(sol.X[j]-w) > 1e-9 {
			t.Fatalf("X[%d] = %g, want %g", j, sol.X[j], w)
		}
	}
	if err := VerifyKKT(p, sol, 1e-8); err != nil {
		t.Fatalf("certificate: %v", err)
	}
	// The y ≤ 6 row binds (cost favors large y): its dual must carry y's
	// cost, c_y = -1.
	if math.Abs(sol.Dual[0]-(-1)) > 1e-9 {
		t.Fatalf("dual[0] = %g, want -1", sol.Dual[0])
	}
	if sol.Dual[1] != 0 || sol.Dual[3] != 0 {
		t.Fatalf("slack rows must carry zero duals, got %g %g", sol.Dual[1], sol.Dual[3])
	}
}

// TestPresolveTrivialInfeasible: contradictions a presolve pass would
// catch without a simplex (an empty row, a singleton crossing its
// variable's bounds, an out-of-range equality singleton) must come back
// Infeasible from Solve.
func TestPresolveTrivialInfeasible(t *testing.T) {
	cases := []func() *Problem{
		func() *Problem { // empty row violation
			p := NewProblem()
			x := p.AddVariable(1, 1, 0, "x")
			p.AddConstraint([]Term{{x, 1}}, GE, 3, "")
			return p
		},
		func() *Problem { // singleton forces bound crossing
			p := NewProblem()
			x := p.AddVariable(0, 5, 1, "x")
			p.AddConstraint([]Term{{x, 1}}, GE, 4, "")
			p.AddConstraint([]Term{{x, 1}}, LE, 2, "")
			return p
		},
		func() *Problem { // EQ singleton out of range
			p := NewProblem()
			x := p.AddVariable(0, 1, 1, "x")
			p.AddConstraint([]Term{{x, 2}}, EQ, 7, "")
			return p
		},
	}
	for i, mk := range cases {
		sol, err := mk().Solve()
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if sol.Status != Infeasible {
			t.Fatalf("case %d: status %v, want Infeasible", i, sol.Status)
		}
	}
}

// TestPresolveAllEliminated: a problem whose equality singletons fix
// every variable still solves to its unique point with a certificate.
func TestPresolveAllEliminated(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable(0, 9, 2, "x")
	y := p.AddVariable(-3, 3, -1, "y")
	p.AddConstraint([]Term{{x, 1}}, EQ, 4, "")
	p.AddConstraint([]Term{{y, 2}}, EQ, -2, "")
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 10, "")
	sol, err := p.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("solve: %v %v", sol.Status, err)
	}
	if math.Abs(sol.X[0]-4) > 1e-12 || math.Abs(sol.X[1]-(-1)) > 1e-12 {
		t.Fatalf("X = %v, want [4 -1]", sol.X)
	}
	if math.Abs(sol.Obj-9) > 1e-12 {
		t.Fatalf("obj = %g, want 9", sol.Obj)
	}
	if err := VerifyKKT(p, sol, 1e-9); err != nil {
		t.Fatalf("certificate: %v", err)
	}
}
