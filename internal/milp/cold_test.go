package milp

import (
	"math"
	"testing"

	"repro/internal/lp"
	"repro/internal/stats"
)

// randomInstance builds a small bounded random MILP: box-bounded variables
// (most integer), a handful of random rows, and occasionally an SOS1 set
// over fresh binaries. Degenerate corners — infeasible rows, empty integer
// sets, dominated SOS members — are all fair game: the properties under
// test compare two solves of the same instance.
func randomInstance(rng *stats.RNG) (*lp.Problem, []int, []SOS1) {
	p := lp.NewProblem()
	nv := 2 + rng.Intn(5)
	var ints []int
	for i := 0; i < nv; i++ {
		ub := float64(1 + rng.Intn(10))
		v := p.AddVariable(0, ub, rng.Range(-10, 10), "")
		if rng.Float64() < 0.7 {
			ints = append(ints, v)
		}
	}
	nc := 1 + rng.Intn(4)
	for c := 0; c < nc; c++ {
		var terms []lp.Term
		for v := 0; v < nv; v++ {
			if rng.Float64() < 0.6 {
				terms = append(terms, lp.Term{Var: v, Coef: rng.Range(-5, 5)})
			}
		}
		if len(terms) == 0 {
			continue
		}
		sense := lp.LE
		switch {
		case rng.Float64() < 0.2:
			sense = lp.GE
		case rng.Float64() < 0.1:
			sense = lp.EQ
		}
		p.AddConstraint(terms, sense, rng.Range(-5, 20), "")
	}
	var sos []SOS1
	if rng.Float64() < 0.3 {
		k := 3 + rng.Intn(3)
		vars := make([]int, k)
		weights := make([]float64, k)
		terms := make([]lp.Term, k)
		for i := range vars {
			vars[i] = p.AddVariable(0, 1, rng.Range(-5, 0), "")
			weights[i] = float64(i + 1)
			terms[i] = lp.Term{Var: vars[i], Coef: 1}
		}
		p.AddConstraint(terms, lp.LE, 1, "")
		ints = append(ints, vars...)
		sos = append(sos, SOS1{Vars: vars, Weights: weights})
	}
	return p, ints, sos
}

// TestColdNodeMatchesWarmProperty holds the cold node path — each node LP
// built afresh and answered by lp.Problem.Solve, the tableau's cold
// two-phase solve — to the warm default over a large
// population of random instances: every cold node LP must carry a valid KKT
// certificate, and status and objective must match the warm tree's.
func TestColdNodeMatchesWarmProperty(t *testing.T) {
	instances := 1000
	if testing.Short() {
		instances = 120
	}
	for seed := 0; seed < instances; seed++ {
		rng := stats.NewRNG(uint64(seed) + 1)
		p, ints, sos := randomInstance(rng)
		kkt := func(p *lp.Problem, sol *lp.Solution) {
			if sol.Status != lp.Optimal {
				return
			}
			if err := lp.VerifyKKT(p, sol, 1e-6); err != nil {
				t.Fatalf("seed %d: cold node LP certificate: %v", seed, err)
			}
		}
		cold := Solve(p.Clone(), ints, sos, Options{MaxNodes: 20000, DebugLPCheck: kkt, DisableWarmStart: true})
		warm := Solve(p.Clone(), ints, sos, Options{MaxNodes: 20000})
		if cold.Status != warm.Status {
			t.Fatalf("seed %d: status %v (cold) vs %v (warm)", seed, cold.Status, warm.Status)
		}
		if cold.Status != Optimal {
			continue
		}
		if diff := math.Abs(cold.Obj - warm.Obj); diff > 1e-9*(1+math.Abs(warm.Obj)) {
			t.Fatalf("seed %d: obj %v (cold) vs %v (warm)", seed, cold.Obj, warm.Obj)
		}
	}
}
