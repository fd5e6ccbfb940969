package lp_test

import (
	"math"
	"testing"

	"repro/internal/lp"
)

// nearParallelCutLP is a minimized branch-and-bound node LP captured from an
// outer-approximation master that made the dense tableau pivot itself into
// numeric garbage: the three oa[perf[t2]] rows (and the two oa[perf[t4]]
// rows) are near-parallel copies of the same cut whose coefficients differ
// only around 1e-6 relative. After the first of them pivots, the others'
// tableau entries are pure cancellation noise — and a single-pass exact
// ratio test is then forced to pivot on a ~1e-7 entry, amplifying every
// tableau value by its reciprocal. Two such pivots inflated reduced costs to
// ~1e14 and produced an "optimal" solution with x[n(t0)] ≈ 34 against an
// upper bound of 17, which in turn made the MILP layer branch forever
// (floor(34) ≥ 17 leaves the child identical to its parent).
//
// The two-pass Harris ratio test (tableau.run) fixes this by relaxing each
// basic bound by a slack relative to that bound's own magnitude and then
// pivoting on the largest admissible entry.
func nearParallelCutLP() *lp.Problem {
	p := lp.NewProblem()
	p.AddVariable(0, 10.45286474974421, 1, "T")
	p.AddVariable(3, 17, 0, "n[t0]")
	p.AddVariable(0, 1, 0, "z[t0=3]")
	p.AddVariable(0, 1, 0, "z[t0=7]")
	p.AddVariable(0, 1, 0, "z[t0=13]")
	p.AddVariable(0, 1, 0, "z[t0=16]")
	p.AddVariable(0, 1, 0, "z[t0=17]")
	p.AddVariable(3, 93, 0, "n[t1]")
	p.AddVariable(1, 93, 0, "n[t2]")
	p.AddVariable(1, 93, 0, "n[t3]")
	p.AddVariable(1, 93, 0, "n[t4]")
	p.AddConstraint([]lp.Term{{Var: 8, Coef: -0.2816967520299447}, {Var: 0, Coef: -1}}, lp.LE, -1.1746480489164406, "oa[perf[t2]]")
	p.AddConstraint([]lp.Term{{Var: 8, Coef: -0.2816953832080269}, {Var: 0, Coef: -1}}, lp.LE, -1.1746451975293033, "oa[perf[t2]]")
	p.AddConstraint([]lp.Term{{Var: 8, Coef: -0.28169538320802423}, {Var: 0, Coef: -1}}, lp.LE, -1.1746451975292977, "oa[perf[t2]]")
	p.AddConstraint([]lp.Term{{Var: 10, Coef: -0.03305176785262576}, {Var: 0, Coef: -1}}, lp.LE, -1.1757521169033385, "oa[perf[t4]]")
	p.AddConstraint([]lp.Term{{Var: 1, Coef: -0.0345165719802828}, {Var: 0, Coef: -1}}, lp.LE, -1.1746277491233088, "oa[perf[t0]]")
	p.AddConstraint([]lp.Term{{Var: 10, Coef: -0.033036700967000066}, {Var: 0, Coef: -1}}, lp.LE, -1.1754841462407115, "oa[perf[t4]]")
	return p
}

// TestNearParallelCutsStayInBounds replays the recorded tableau corruption
// on every solver path and asserts the one invariant the defect broke: an
// Optimal solution respects its own variable bounds.
func TestNearParallelCutsStayInBounds(t *testing.T) {
	for _, cfg := range []struct {
		name   string
		sparse bool
	}{
		{"dense", false},
		{"sparse", true},
	} {
		p := nearParallelCutLP()
		p.DisableSparse = !cfg.sparse
		sol, err := p.Solve()
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		if sol.Status != lp.Optimal {
			t.Fatalf("%s: status %v, want optimal", cfg.name, sol.Status)
		}
		for j := 0; j < p.NumVariables(); j++ {
			lo, hi := p.Bounds(j)
			if sol.X[j] < lo-1e-6 || sol.X[j] > hi+1e-6 {
				t.Fatalf("%s: x[%d]=%v outside [%v, %v]", cfg.name, j, sol.X[j], lo, hi)
			}
		}
		// The optimum: every n variable at its largest admissible value,
		// T at the worst of the cut intercepts there.
		if math.Abs(sol.X[1]-17) > 1e-6 {
			t.Fatalf("%s: x[n(t0)]=%v, want 17", cfg.name, sol.X[1])
		}
		if math.Abs(sol.Obj-0.5878460254585012) > 1e-7 {
			t.Fatalf("%s: obj=%v, want ≈ 0.5878460254585012", cfg.name, sol.Obj)
		}
	}
}
