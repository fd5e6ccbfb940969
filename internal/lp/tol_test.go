package lp

import (
	"math"
	"testing"
)

// TestToleranceAudit pins every named tolerance of the LP layer to its
// audited value and discipline. The table is deliberately exhaustive: a new
// epsilon must be added here (and to tol.go) rather than inlined at its use
// site, and changing a value is a reviewed decision, not a drive-by edit.
func TestToleranceAudit(t *testing.T) {
	for _, tc := range []struct {
		name  string
		value float64
		want  float64
		// scaled tolerances are multiplied by a power-of-two problem
		// scale before judging an absolute residual; dimensionless ones
		// are applied as-is.
		scaled   bool
		consumer string
	}{
		{"costEps", costEps, 1e-9, false, "reduced-cost optimality (priceEntering)"},
		{"pivotEps", pivotEps, 1e-9, false, "minimum primal pivot magnitude (tableau.run, install)"},
		{"feasEps", feasEps, 1e-7, true, "phase-1 infeasibility verdict (solveCold)"},
		{"ratioTieEps", ratioTieEps, 1e-12, false, "ratio-test tie window (run, dual ratio test)"},
		{"boundSnapEps", boundSnapEps, 1e-11, false, "basic-value bound hygiene clamp"},
		{"progressRelEps", progressRelEps, 1e-9, false, "stall detection, relative to 1+|obj|"},
		{"artPivotEps", artPivotEps, 1e-7, false, "pivoting zero artificials out after phase 1"},
		{"dualFeasEps", dualFeasEps, 1e-7, false, "reduced-cost sign check on installed bases (warm)"},
		{"dualPivotEps", dualPivotEps, 1e-7, false, "minimum dual pivot |α| (runDual)"},
		{"warmAcceptEps", warmAcceptEps, 1e-7, true, "warm Optimal acceptance vs RHS scale"},
	} {
		if tc.value != tc.want {
			t.Errorf("%s = %g, want %g (%s)", tc.name, tc.value, tc.want, tc.consumer)
		}
	}
}

// TestPow2Scale pins the scale function every SCALED tolerance multiplies
// by: exact powers of two (no rounding when applied), unit floor, and exact
// equivariance under power-of-two rescaling of its input.
func TestPow2Scale(t *testing.T) {
	for _, tc := range []struct{ in, want float64 }{
		{0, 1}, {0.25, 1}, {1, 1}, {1.5, 2}, {2, 4}, {3, 4},
		{-3, 4}, {93, 128}, {1e6, 1 << 20}, {math.Inf(1), 1},
		{math.NaN(), 1},
	} {
		if got := pow2Scale(tc.in); got != tc.want {
			t.Errorf("pow2Scale(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	// Exactness: the scale of a 2^e-rescaled value is exactly 2^e times
	// the scale — the property that keeps accept/reject decisions
	// bit-identical across power-of-two rescalings (above the unit floor).
	for _, v := range []float64{1.75, 93, 6287.49, 1e12} {
		for e := 0; e <= 40; e += 5 {
			want := math.Ldexp(pow2Scale(v), e)
			if got := pow2Scale(math.Ldexp(v, e)); got != want {
				t.Fatalf("pow2Scale(%v·2^%d) = %v, want %v", v, e, got, want)
			}
		}
	}
	// A power-of-two scale times any tolerance is exact: multiplying only
	// shifts the exponent.
	if feasTol(128) != math.Ldexp(feasEps, 7) {
		t.Fatal("feasTol(128) is not an exact exponent shift of feasEps")
	}
}

// TestPrimalScale: the standardized-RHS magnitude ignores non-finite
// entries, applies the unit floor, and scales exactly.
func TestPrimalScale(t *testing.T) {
	if got := primalScale(nil); got != 1 {
		t.Fatalf("primalScale(nil) = %v, want 1", got)
	}
	if got := primalScale([]float64{0.1, -0.2}); got != 1 {
		t.Fatalf("primalScale(small) = %v, want unit floor 1", got)
	}
	b := []float64{1.5, -93, 2, math.Inf(1)}
	if got := primalScale(b); got != 128 {
		t.Fatalf("primalScale = %v, want 128 (from |−93|, Inf ignored)", got)
	}
	scaled := make([]float64, len(b))
	for i := range b {
		scaled[i] = math.Ldexp(b[i], 9)
	}
	if got, want := primalScale(scaled), math.Ldexp(128, 9); got != want {
		t.Fatalf("primalScale(2^9·b) = %v, want %v", got, want)
	}
}

// TestWarmFeasTolScaling: the warm-acceptance tolerance tracks the
// power-of-two magnitude of the wrapped problem's right-hand sides, exactly.
func TestWarmFeasTolScaling(t *testing.T) {
	build := func(e int) *Problem {
		p := NewProblem()
		x := p.AddVariable(0, 10, 1, "x")
		y := p.AddVariable(0, 10, 0, "y")
		p.AddConstraint([]Term{{Var: x, Coef: 1}, {Var: y, Coef: 2}}, GE, math.Ldexp(3, e), "r1")
		p.AddConstraint([]Term{{Var: x, Coef: 1}}, LE, math.Ldexp(9, e), "r2")
		return p
	}
	base := warmFeasTol(build(0))
	if base != warmAcceptEps*16 {
		t.Fatalf("warmFeasTol = %v, want warmAcceptEps·16 (scale from RHS 9)", base)
	}
	for _, e := range []int{-3, 1, 12} {
		if got, want := warmFeasTol(build(e)), math.Ldexp(base, e); got != want {
			t.Fatalf("warmFeasTol at 2^%d = %v, want exactly %v", e, got, want)
		}
	}
}

// TestInfeasibleConfirmDebugHook: the sparse→dense infeasibility
// confirmation hook observes disagreements without changing verdicts, and
// a genuinely infeasible instance is still reported infeasible (confirmed
// by the dense authority, not silently healed into something else).
func TestInfeasibleConfirmDebugHook(t *testing.T) {
	calls := 0
	SetInfeasibleConfirmDebug(func(resid float64, dense Status) { calls++ })
	defer SetInfeasibleConfirmDebug(nil)

	p := NewProblem()
	x := p.AddVariable(0, 1, 1, "x")
	p.AddConstraint([]Term{{Var: x, Coef: 1}}, GE, 2, "impossible")
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
	// The kernels agreed (genuine infeasibility): the hook must not fire.
	if calls != 0 {
		t.Fatalf("confirmation hook fired %d times on an agreed verdict", calls)
	}
}

// TestVerdictScaleInvariance is the LP-layer slice of the battery. Exact
// bit-equivariance of the full stack is provided one layer up: core
// normalizes the time dimension by a power of two before the LP is built,
// so two rescaled instances present identical bytes to this package (the
// serve equivariance suite asserts that end to end). What the LP layer's
// SCALED tolerances must guarantee on their own is weaker but essential:
// a feasibility verdict never flips when the data's magnitude changes, and
// the optimum tracks the rescale to relative round-off — without scaled
// feasTol/warmFeasTol, a large-magnitude instance whose phase-1 residual
// is pure round-off would be declared Infeasible.
func TestVerdictScaleInvariance(t *testing.T) {
	feasible := func(e int, dense bool) *Problem {
		p := NewProblem()
		x := p.AddVariable(0, math.Ldexp(10.45286474974421, e), 1, "T")
		n2 := p.AddVariable(1, 93, 0, "n2")
		n4 := p.AddVariable(1, 93, 0, "n4")
		s := func(v float64) float64 { return math.Ldexp(v, e) }
		p.AddConstraint([]Term{{Var: n2, Coef: s(-0.2816967520299447)}, {Var: x, Coef: -1}}, LE, s(-1.1746480489164406), "c1")
		p.AddConstraint([]Term{{Var: n2, Coef: s(-0.2816953832080269)}, {Var: x, Coef: -1}}, LE, s(-1.1746451975293033), "c2")
		p.AddConstraint([]Term{{Var: n4, Coef: s(-0.03305176785262576)}, {Var: x, Coef: -1}}, LE, s(-1.1757521169033385), "c3")
		p.AddConstraint([]Term{{Var: n2, Coef: 1}, {Var: n4, Coef: 1}}, LE, 90, "cap")
		p.DisableSparse = dense
		return p
	}
	infeasible := func(e int, dense bool) *Problem {
		p := NewProblem()
		x := p.AddVariable(0, 1, 1, "x")
		y := p.AddVariable(0, 1, 0, "y")
		s := func(v float64) float64 { return math.Ldexp(v, e) }
		p.AddConstraint([]Term{{Var: x, Coef: s(1)}, {Var: y, Coef: s(1)}}, GE, s(3), "impossible")
		p.DisableSparse = dense
		return p
	}
	// Only the cut rows scale (the time dimension); the node columns and
	// the cap row stay O(1)–O(100), so the standardized tableau mixes
	// magnitudes exactly the way real rescaled instances do.
	for _, dense := range []bool{false, true} {
		base, err := feasible(0, dense).Solve()
		if err != nil || base.Status != Optimal {
			t.Fatalf("base solve (dense=%v): %v %+v", dense, err, base)
		}
		for _, e := range []int{-20, -6, 3, 10, 24} {
			sol, err := feasible(e, dense).Solve()
			if err != nil || sol.Status != Optimal {
				t.Fatalf("2^%d solve (dense=%v): %v %+v", e, dense, err, sol)
			}
			want := math.Ldexp(base.Obj, e)
			if rel := math.Abs(sol.Obj-want) / want; rel > 1e-9 {
				t.Fatalf("dense=%v 2^%d: obj %v vs shifted base %v (rel err %g)",
					dense, e, sol.Obj, want, rel)
			}
			bad, err := infeasible(e, dense).Solve()
			if err != nil {
				t.Fatalf("2^%d infeasible solve (dense=%v): %v", e, dense, err)
			}
			if bad.Status != Infeasible {
				t.Fatalf("dense=%v 2^%d: infeasible instance reported %v", dense, e, bad.Status)
			}
		}
	}
}
