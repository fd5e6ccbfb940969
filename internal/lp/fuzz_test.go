package lp

import (
	"math"
	"testing"
)

// decodeLP deterministically builds a small LP from fuzz bytes: up to six
// box-bounded variables (occasionally unbounded above) and up to six rows
// with int8-scaled coefficients. The decoder accepts any byte string, so
// the fuzzer explores infeasible, unbounded, degenerate, and empty
// instances alike.
func decodeLP(data []byte) *Problem {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	p := NewProblem()
	nv := 1 + int(next())%6
	nc := int(next()) % 7
	for i := 0; i < nv; i++ {
		hi := float64(next() % 32)
		if next()%8 == 0 {
			hi = Inf
		}
		p.AddVariable(0, hi, float64(int8(next())), "")
	}
	for c := 0; c < nc; c++ {
		var terms []Term
		for v := 0; v < nv; v++ {
			if coef := float64(int8(next())); coef != 0 {
				terms = append(terms, Term{Var: v, Coef: coef})
			}
		}
		sense := Sense(next() % 3)
		rhs := float64(int8(next()))
		if len(terms) > 0 {
			p.AddConstraint(terms, sense, rhs, "")
		}
	}
	return p
}

// FuzzSimplex feeds arbitrary small standard-form instances to the simplex
// solver: it must never panic, and any claimed optimum must be a finite
// point that satisfies the variable boxes and rows to tolerance.
func FuzzSimplex(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 5, 1, 10, 5, 1, 3, 7, 0, 4})
	f.Add([]byte{5, 6, 0, 0, 255, 31, 1, 128, 9, 2, 100, 200, 50, 25, 12, 6, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeLP(data)
		sol, err := p.Solve()
		if err != nil || sol.Status != Optimal {
			return // rejecting is fine; claiming optimality is what we audit
		}
		if len(sol.X) != p.NumVariables() {
			t.Fatalf("len(X) = %d, want %d", len(sol.X), p.NumVariables())
		}
		if math.IsNaN(sol.Obj) || math.IsInf(sol.Obj, 0) {
			t.Fatalf("optimal status with objective %v", sol.Obj)
		}
		for i, x := range sol.X {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("X[%d] = %v", i, x)
			}
		}
		// A claimed optimum must at least be a KKT point; the decoder only
		// emits coefficients of magnitude ≤ 127, so a modest absolute
		// tolerance is meaningful.
		if err := VerifyKKT(p, sol, 1e-6); err != nil {
			t.Fatalf("optimal solution fails certificate: %v (X=%v)", err, sol.X)
		}
	})
}

// decodePresolveLP builds on decodeLP's byte diet but skews the population
// toward the structure a presolve pass would remove: fixed variables
// (lo == hi), nonzero lower bounds, and singleton rows.
func decodePresolveLP(data []byte) *Problem {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	p := NewProblem()
	nv := 1 + int(next())%6
	nc := int(next()) % 7
	for i := 0; i < nv; i++ {
		lo := float64(int8(next()) % 16)
		span := float64(next() % 16)
		if next()%4 == 0 {
			span = 0 // fixed at input
		}
		p.AddVariable(lo, lo+span, float64(int8(next())), "")
	}
	for c := 0; c < nc; c++ {
		var terms []Term
		if next()%3 == 0 { // singleton row
			coef := float64(int8(next()))
			if coef == 0 {
				coef = 1
			}
			terms = []Term{{Var: int(next()) % nv, Coef: coef}}
		} else {
			for v := 0; v < nv; v++ {
				if coef := float64(int8(next())); coef != 0 {
					terms = append(terms, Term{Var: v, Coef: coef})
				}
			}
		}
		sense := Sense(next() % 3)
		rhs := float64(int8(next()))
		if len(terms) > 0 {
			p.AddConstraint(terms, sense, rhs, "")
		}
	}
	return p
}

// FuzzPresolve audits the cold route on decodePresolveLP's population: on
// any decodable instance, the default path (the tableau's pattern
// kernels) must agree with the pinned dense authority on
// status, match its objective, and produce a full KKT certificate.
func FuzzPresolve(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 2, 0, 1, 5, 0, 0, 3, 1, 7, 2, 0, 4, 1, 1, 2, 9})
	f.Add([]byte{4, 5, 1, 4, 0, 200, 2, 0, 0, 3, 0, 3, 5, 1, 128, 127, 64, 32, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodePresolveLP(data)
		dense := p.Clone()
		dense.DisableSparse = true

		got, err := p.Solve()
		if err != nil {
			return // structurally invalid models may reject either way
		}
		want, err := dense.Solve()
		if err != nil {
			t.Fatalf("dense authority rejected what default accepted: %v", err)
		}
		if got.Status != want.Status {
			t.Fatalf("status %v (default) vs %v (dense authority)", got.Status, want.Status)
		}
		if got.Status != Optimal {
			return
		}
		if math.Abs(got.Obj-want.Obj) > 1e-6*(1+math.Abs(want.Obj)) {
			t.Fatalf("obj %.12g (default) vs %.12g (dense authority)", got.Obj, want.Obj)
		}
		if err := VerifyKKT(p, got, 1e-6); err != nil {
			t.Fatalf("certificate: %v", err)
		}
	})
}
