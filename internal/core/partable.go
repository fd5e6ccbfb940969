package core

import (
	"context"
	"fmt"
	"math"
	"sort"
)

// Parametric breakpoint tables: the optimal allocation of a min-max
// instance is piecewise-constant in the node budget N. Each segment
// [FromN, ToN] shares one node vector and one makespan; a table over a
// budget range answers any N in the range by binary search instead of a
// fresh solve (DESIGN.md "Parametric breakpoint tables").
//
// The walk is analytic, not trial-and-error: with M* the optimal makespan
// at budget N, the minimal budget needing is f(M*) = Σ_i g_i(M*) where
// g_i(v) is the smallest admissible node count with T_i(n) ≤ v, and the
// first budget that improves on M* is f(v_max) for v_max the largest
// per-task candidate time strictly below M*. Both are O(k log N) to
// evaluate, so extending a segment costs a vanishing fraction of a solve.
// Every emitted segment boundary is still verified against a cold solve;
// a mismatch (never observed — the differential battery hunts for one)
// falls back to bisecting the true boundary.

// TableSegment is one constant piece of a parametric table: for every
// budget n in [FromN, ToN] the canonical optimal allocation is Nodes with
// makespan Makespan.
type TableSegment struct {
	FromN    int     `json:"fromN"`
	ToN      int     `json:"toN"`
	Nodes    []int   `json:"nodes"`
	Makespan float64 `json:"makespan"`
}

// ParametricTable is the full piecewise-constant allocation table of one
// instance family (fixed tasks and objective, budget N varying) over
// [FromN, ToN]. Segments are sorted and non-overlapping but may leave
// gaps where the instance was infeasible or the solver declined.
type ParametricTable struct {
	Objective   Objective      `json:"objective"`
	UseAllNodes bool           `json:"useAllNodes"`
	FromN       int            `json:"fromN"`
	ToN         int            `json:"toN"`
	Segments    []TableSegment `json:"segments"`
	// Solves counts the solver invocations spent building the table (the
	// amortized cost of serving the whole range).
	Solves int `json:"solves"`
	// Skipped counts budgets in [FromN, ToN] not covered by any segment.
	Skipped int `json:"skipped,omitempty"`
}

// Lookup returns the segment covering budget n. The bound check is
// explicit: budgets outside [FromN, ToN] — or inside an uncovered gap —
// return ok=false and must be solved directly.
func (t *ParametricTable) Lookup(n int) (*TableSegment, bool) {
	if t == nil || n < t.FromN || n > t.ToN {
		return nil, false
	}
	i := sort.Search(len(t.Segments), func(i int) bool { return t.Segments[i].ToN >= n })
	if i == len(t.Segments) || n < t.Segments[i].FromN {
		return nil, false
	}
	return &t.Segments[i], true
}

// TableSolver solves one instance of the family; the table builder calls
// it with copies of the base problem at varying TotalNodes. Solvers must
// be deterministic: the table is only as reproducible as its solver.
type TableSolver func(ctx context.Context, p *Problem) (*Allocation, error)

// TableOptions configures BuildParametricTable.
type TableOptions struct {
	// Solve produces the allocation at one budget. nil means the exact
	// parametric route (SolveParametricContext + CanonicalAllocation).
	Solve TableSolver
	// CrossCheck, when set, is an independent solver run at every segment
	// boundary; a bit-level disagreement (nodes or makespan) aborts the
	// build with a SegmentMismatchError. Wiring the MINLP route here
	// validates integer feasibility of each segment through the
	// milp/minlp stack instead of trusting the walk.
	CrossCheck TableSolver
}

// SegmentMismatchError reports a cross-check solver disagreeing with the
// table solver at a segment boundary.
type SegmentMismatchError struct {
	N    int
	Want *Allocation
	Got  *Allocation
}

func (e *SegmentMismatchError) Error() string {
	return fmt.Sprintf("core: cross-check mismatch at N=%d: table %v (makespan %g) vs check %v (makespan %g)",
		e.N, e.Want.Nodes, e.Want.Makespan, e.Got.Nodes, e.Got.Makespan)
}

// defaultTableSolver is the exact parametric route in canonical form.
func defaultTableSolver(ctx context.Context, p *Problem) (*Allocation, error) {
	a, err := p.SolveParametricContext(ctx)
	if err != nil {
		return nil, err
	}
	return p.CanonicalAllocation(a), nil
}

// WithBudget returns a copy of the problem at a different node budget.
func (p *Problem) WithBudget(n int) *Problem {
	q := *p
	q.TotalNodes = n
	return &q
}

// BuildParametricTable computes the piecewise-constant allocation table of
// the base instance over budgets [fromN, toN]. Budgets where the problem
// is invalid or the solver errors are skipped (counted in Skipped), so a
// range starting below feasibility is handled gracefully.
//
// For min-max instances without UseAllNodes the walk is analytic: each
// solved budget yields its whole segment via SegmentBounds, the far
// boundary is verified by a fresh solve, and on the (theoretically
// impossible) event of a mismatch the true boundary is recovered by
// bisection. Other objective shapes degrade to a per-budget sweep with
// run-length merging of identical adjacent allocations — exactly as
// correct, with no amortization.
func BuildParametricTable(ctx context.Context, base *Problem, fromN, toN int, opts TableOptions) (*ParametricTable, error) {
	if fromN < 1 || toN < fromN {
		return nil, fmt.Errorf("core: invalid table range [%d, %d]", fromN, toN)
	}
	solve := opts.Solve
	if solve == nil {
		solve = defaultTableSolver
	}
	tab := &ParametricTable{
		Objective:   base.Objective,
		UseAllNodes: base.UseAllNodes,
		FromN:       fromN,
		ToN:         toN,
	}
	solveAt := func(n int) (*Allocation, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pn := base.WithBudget(n)
		if err := pn.Validate(); err != nil {
			return nil, err
		}
		tab.Solves++
		return solve(ctx, pn)
	}
	crossCheckAt := func(n int, want *Allocation) error {
		if opts.CrossCheck == nil {
			return nil
		}
		pn := base.WithBudget(n)
		got, err := opts.CrossCheck(ctx, pn)
		if err != nil {
			return err
		}
		if !sameTablePoint(want, got) {
			return &SegmentMismatchError{N: n, Want: want, Got: got}
		}
		return nil
	}

	n := fromN
	for n <= toN {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		a, err := solveAt(n)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			tab.Skipped++
			n++
			continue
		}
		end := n
		if _, hi, ok := base.WithBudget(n).SegmentBounds(a, toN); ok && hi > n {
			end = hi
			b, err := solveAt(end)
			if err != nil || !sameTablePoint(a, b) {
				if err != nil && ctx.Err() != nil {
					return nil, ctx.Err()
				}
				// The analytic boundary disagreed with the solver:
				// bisect the largest end' ≥ n whose solve still matches
				// the segment. The walk stays correct — every budget the
				// segment finally claims is bracketed by two verified
				// solves — it just stops trusting the hint here.
				lo, hi := n, end-1
				for lo < hi {
					mid := lo + (hi-lo+1)/2
					c, errM := solveAt(mid)
					if errM != nil {
						if ctx.Err() != nil {
							return nil, ctx.Err()
						}
						hi = mid - 1
						continue
					}
					if sameTablePoint(a, c) {
						lo = mid
					} else {
						hi = mid - 1
					}
				}
				end = lo
			}
		} else if mergeEnd := end; !ok {
			// Non-analytic shape (min-sum, max-min, UseAllNodes, or a
			// non-canonical allocation): extend by direct per-budget
			// solves as long as the answer is bit-identical.
			for mergeEnd < toN {
				b, err := solveAt(mergeEnd + 1)
				if err != nil || !sameTablePoint(a, b) {
					if err != nil && ctx.Err() != nil {
						return nil, ctx.Err()
					}
					break
				}
				mergeEnd++
			}
			end = mergeEnd
		}
		if err := crossCheckAt(n, a); err != nil {
			return nil, err
		}
		if end > n {
			if err := crossCheckAt(end, a); err != nil {
				return nil, err
			}
		}
		tab.Segments = append(tab.Segments, TableSegment{
			FromN:    n,
			ToN:      end,
			Nodes:    append([]int(nil), a.Nodes...),
			Makespan: a.Makespan,
		})
		n = end + 1
	}
	return tab, nil
}

// sameTablePoint reports bit-identical node vectors and makespans — the
// equality the differential gate demands between a table entry and a
// direct solve.
func sameTablePoint(a, b *Allocation) bool {
	if a == nil || b == nil || a.Bounded || b.Bounded {
		return false
	}
	if len(a.Nodes) != len(b.Nodes) || a.Makespan != b.Makespan {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			return false
		}
	}
	return true
}

// SegmentBounds computes the budget interval over which allocation a stays
// the canonical optimum of the instance family p (tasks and objective
// fixed, TotalNodes varying), capped at capN. ok requires a min-max
// objective without UseAllNodes and a canonical (minimal-resource) proven
// allocation; every other shape returns ok=false and must be handled
// per-budget.
//
// Soundness: lo is f(M*) — the canonical allocation's own node sum, the
// least budget that achieves makespan M*. Improving on M* at any budget
// requires some per-task candidate time v < M*, hence at least
// f(v_max) = Σ_i g_i(v_max) nodes for v_max the largest candidate below
// M*; budgets up to f(v_max)−1 therefore keep the optimum — and the
// solver's bisection, whose accept/reject region is identical across the
// segment — exactly at (M*, a).
func (p *Problem) SegmentBounds(a *Allocation, capN int) (lo, hi int, ok bool) {
	if a == nil || a.Bounded || p.Objective != MinMax || p.UseAllNodes {
		return 0, 0, false
	}
	if len(a.Nodes) != len(p.Tasks) || a.Used > p.TotalNodes {
		return 0, 0, false
	}
	if math.IsNaN(a.Makespan) || math.IsInf(a.Makespan, 0) {
		return 0, 0, false
	}
	if capN < p.TotalNodes {
		capN = p.TotalNodes
	}
	// Canonical check: a must be exactly the minimal allocation achieving
	// its makespan (what CanonicalAllocation produces). Anything else —
	// bounded incumbents, heuristics, over-budget fallbacks — is refused.
	used := 0
	for i := range p.Tasks {
		n, okT := p.minNodesAchieving(i, a.Makespan)
		if !okT || n != a.Nodes[i] {
			return 0, 0, false
		}
		used += n
	}
	lo = used
	// v_max: the largest candidate time strictly below M* over all tasks,
	// with each task's node range capped at capN (the widest budget the
	// claim extends to).
	vmax := math.Inf(-1)
	for i := range p.Tasks {
		if v, okT := largestTimeBelow(&p.Tasks[i], a.Makespan, capN); okT && v > vmax {
			vmax = v
		}
	}
	if math.IsInf(vmax, -1) {
		// No task has any achievable time below M*: the optimum is pinned
		// for every larger budget in range.
		return lo, capN, true
	}
	need := 0
	for i := range p.Tasks {
		g, okT := minNodesAchievingAt(&p.Tasks[i], vmax, capN)
		if !okT {
			// v_max is unreachable for some task within capN, so no
			// budget in range can improve on M*.
			return lo, capN, true
		}
		need += g
	}
	if need <= p.TotalNodes {
		// Contradicts optimality of a at the current budget; refuse the
		// claim rather than emit an unsound segment.
		return 0, 0, false
	}
	hi = need - 1
	if hi > capN {
		hi = capN
	}
	return lo, hi, true
}

// minNodesAchievingAt is the smallest admissible node count for task t
// whose predicted time is ≤ target when the instance budget is total, or
// ok=false.
func minNodesAchievingAt(t *Task, target float64, total int) (int, bool) {
	lo, hi := t.rangeFor(total)
	if t.Allowed != nil {
		for _, n := range t.Allowed {
			if n < lo || n > hi {
				continue
			}
			if t.Perf.Eval(float64(n)) <= target {
				return n, true
			}
		}
		return 0, false
	}
	n0, ok := t.Perf.MinNodesFor(target, hi)
	if !ok {
		return 0, false
	}
	if n0 < lo {
		n0 = lo
	}
	if t.Perf.Eval(float64(n0)) > target {
		return 0, false
	}
	return n0, true
}

// largestTimeBelow returns the largest predicted time strictly below m
// over the task's admissible node counts at budget total. This is the
// next breakpoint candidate the walk steps to: extra candidates only
// shrink segments, missing ones would break soundness, so both branches
// of the convex time curve are scanned.
func largestTimeBelow(t *Task, m float64, total int) (float64, bool) {
	lo, hi := t.rangeFor(total)
	if lo > hi {
		return 0, false
	}
	if t.Allowed != nil {
		best, any := math.Inf(-1), false
		for _, n := range t.Allowed {
			if n < lo || n > hi {
				continue
			}
			if v := t.Perf.Eval(float64(n)); v < m && v > best {
				best, any = v, true
			}
		}
		return best, any
	}
	best, any := math.Inf(-1), false
	// Decreasing branch: the largest value < m sits at the smallest n
	// with T(n) < m. Strict inequality via the next float below m.
	if n, ok := t.Perf.MinNodesFor(math.Nextafter(m, math.Inf(-1)), hi); ok {
		if n < lo {
			n = lo
		}
		if v := t.Perf.Eval(float64(n)); v < m {
			best, any = v, true
		}
	}
	// Increasing branch (n ≥ ⌈argmin⌉): T is nondecreasing, so the
	// largest value < m sits at the largest n with T(n) < m.
	am := t.Perf.ArgMin()
	if !math.IsInf(am, 1) && am < float64(hi) {
		start := int(math.Ceil(am))
		if start < lo {
			start = lo
		}
		if start <= hi && t.Perf.Eval(float64(start)) < m {
			loB, hiB := start, hi
			for loB < hiB {
				mid := loB + (hiB-loB+1)/2
				if t.Perf.Eval(float64(mid)) < m {
					loB = mid
				} else {
					hiB = mid - 1
				}
			}
			if v := t.Perf.Eval(float64(loB)); v < m && v > best {
				best, any = v, true
			}
		}
	}
	return best, any
}
