package core

import (
	"fmt"
	"math"
)

// NonConvexError reports a task whose performance model is not convex
// (b > 0 with c < 1). Outer approximation is valid only for convex time
// functions (DESIGN.md decision 1), so SolveMINLP refuses such a problem
// instead of returning an answer it cannot prove.
type NonConvexError struct {
	Task string
}

func (e *NonConvexError) Error() string {
	return fmt.Sprintf("core: task %q has a non-convex performance model (b > 0, c < 1); the MINLP needs convex times, use SolveParametric", e.Task)
}

// CheckConvex returns a *NonConvexError naming the first task whose
// performance model is not convex, or nil when every task's is.
func (p *Problem) CheckConvex() error {
	for i := range p.Tasks {
		if !p.Tasks[i].Perf.Convex() {
			return &NonConvexError{Task: p.Tasks[i].Name}
		}
	}
	return nil
}

// CertifyMinMax reports whether a is provably an optimal allocation of the
// min-max problem p. The proof has two probes. The allocation itself shows
// that its makespan M is reachable. The parametric feasibility test at
// M⁻ = math.Nextafter(M, 0), the next float below M, shows that nothing
// better is: no admissible allocation fits the budget when every task must
// finish by M⁻, either because the tasks' smallest counts achieving M⁻ sum
// past TotalNodes, or because some task cannot reach M⁻ at all.
//
// The test needs no convexity: T(n) = a/n + b·nᶜ + d has one stationary
// point for every c > 0, so the counts achieving a target form one
// interval, and the smallest is found by bisection. What the bisection
// does assume is that the float evaluation of T is monotone on each
// branch. Three guards make a non-monotone evaluation refuse the proof
// instead of faking it:
//   - the admissible count just below each allocated count has T > M⁻;
//   - the admissible count just below each probed count has T > M⁻, so the
//     probe found the first count to reach M⁻;
//   - an integer-range task reported unable to reach M⁻ has T > M⁻ at both
//     ends of its range and at the integers around its ArgMin, where its
//     minimum lies. Allowed sets are scanned exhaustively.
//
// CertifyMinMax is false for any other objective, for UseAllNodes (the
// probe is the ≤-budget form), and for an allocation that is infeasible or
// whose Makespan field does not match its node vector. It costs
// O(k log N).
func (p *Problem) CertifyMinMax(a *Allocation) bool {
	if a == nil || p.Objective != MinMax || p.UseAllNodes || !p.Feasible(a.Nodes) {
		return false
	}
	e := p.Evaluate(a.Nodes)
	m := a.Makespan
	if e.Makespan != m || math.IsInf(m, 0) {
		return false // also refuses NaN
	}
	for _, t := range e.Times {
		if !(t <= m) {
			return false // a NaN time escapes Makespan's max
		}
	}
	if m <= 0 {
		return true // times are non-negative
	}
	below := math.Nextafter(m, 0)
	for i, n := range a.Nodes {
		if p.reachesBelow(i, n, below) {
			return false
		}
	}
	need := 0
	for i := range p.Tasks {
		g, ok := p.minNodesAchieving(i, below)
		if !ok {
			return p.cannotReach(i, below)
		}
		if p.reachesBelow(i, g, below) {
			return false
		}
		need += g
	}
	return need > p.TotalNodes
}

// reachesBelow reports whether the admissible count just below n has a
// time ≤ target for task i.
func (p *Problem) reachesBelow(i, n int, target float64) bool {
	t := &p.Tasks[i]
	d, ok := t.nextDown(n, p.TotalNodes)
	return ok && t.Perf.Eval(float64(d)) <= target
}

// cannotReach confirms that task i has no admissible count with time
// ≤ target. minNodesAchieving scans an allowed set exhaustively; on an
// integer range the minimum of T lies at an end or at an integer next to
// ArgMin, so checking those points confirms the bisection's verdict.
func (p *Problem) cannotReach(i int, target float64) bool {
	t := &p.Tasks[i]
	if t.Allowed != nil {
		return true
	}
	lo, hi := t.rangeFor(p.TotalNodes)
	am := t.Perf.ArgMin() // +Inf when T never turns upward
	for _, x := range []float64{float64(lo), float64(hi), math.Floor(am), math.Ceil(am)} {
		n := hi
		if x < float64(hi) {
			n = clampInt(int(x), lo, hi)
		}
		if !(t.Perf.Eval(float64(n)) > target) {
			return false
		}
	}
	return true
}
