package lp

import (
	"math"
	"sort"
)

// LP presolve: a reduction layer in front of cold Problem.Solve.
//
// Branch-and-bound node problems arrive with most binaries pinned
// (lo == hi) and whole constraint families thereby trivialized: an SOS1
// pick row with all but one member fixed is a singleton, a min-max load
// row over a fully fixed family is empty. standardize already eliminates
// fixed *columns* (kind 3), but it keeps every *row* — and rows are what
// phase 1 pays for (one artificial each for equalities). Presolve closes
// the loop:
//
//   - fixed variables (lo == hi) are substituted into every row;
//   - empty rows are checked (0 {sense} rhs) and dropped — a clear
//     violation is a trivial infeasibility, detected without a simplex;
//   - singleton rows are absorbed into the variable's bounds (an equality
//     singleton fixes the variable, cascading) and dropped;
//   - crossed bounds (lo > hi beyond tolerance) are trivially infeasible;
//     sub-tolerance crossings are snapped to a fixed variable.
//
// The reductions cascade to a fixpoint through a worklist. The elimination
// log is replayed in reverse by postsolve to reconstruct the full original
// Solution — values for eliminated variables, and duals for eliminated
// rows via the running reduced cost of their column (an absorbed bound
// that ends up binding carries the multiplier its variable's reduced cost
// demands; a slack one carries zero) — so callers and VerifyKKT see no
// difference from an unreduced solve.
//
// Warm (Incremental) solves never presolve: their keep-fixed
// standardization must retain every column and row so later TightenBound
// calls remain absorbable. Problem.DisablePresolve opts cold solves out.

// psAction logs one eliminated singleton row for reverse replay.
type psAction struct {
	row     int     // original row index
	vr      int     // the row's single variable
	coef    float64 // its coefficient
	sense   Sense   // original row sense
	implied float64 // rhs/coef: the x value at which the row is tight
}

// presolved carries the reduction mapping from an original problem to its
// reduced form.
type presolved struct {
	orig    *Problem
	reduced *Problem
	colMap  []int     // original var -> reduced var, -1 if eliminated
	fixed   []float64 // value of eliminated vars
	rowMap  []int     // original row -> reduced row, -1 if eliminated
	rows    [][]Term  // original rows, duplicates combined (for postsolve)
	actions []psAction
}

// presolveProblem reduces p, returning (nil, Optimal) when no reduction
// applies (caller should solve p directly), (nil, Infeasible) on a trivial
// infeasibility, or the reduction mapping.
func presolveProblem(p *Problem) (*presolved, Status) {
	n, m := len(p.costs), len(p.rows)

	// Fast path: presolve can only fire from a fixed variable, a crossed
	// bound, or a (sub-)singleton row; scan for a trigger before building
	// any working state. (A multi-term row whose duplicates cancel to a
	// singleton is missed here — that is a soundness-preserving skip.)
	trigger := false
	for j := 0; j < n && !trigger; j++ {
		if p.lo[j] >= p.hi[j] && !math.IsInf(p.lo[j], 0) {
			trigger = true
		}
	}
	for i := 0; i < m && !trigger; i++ {
		if len(p.rows[i].Terms) <= 1 {
			trigger = true
		}
	}
	if !trigger {
		return nil, Optimal
	}

	lo := append([]float64(nil), p.lo...)
	hi := append([]float64(nil), p.hi...)
	isFixed := make([]bool, n)
	fixed := make([]float64, n)

	// Combine duplicate terms per row; build the var -> rows adjacency.
	rows := make([][]Term, m)
	rhs := make([]float64, m)
	alive := make([]bool, m)
	varRows := make([][]int32, n)
	for i := range p.rows {
		r := &p.rows[i]
		alive[i] = true
		rhs[i] = r.RHS
		if len(r.Terms) <= 1 {
			rows[i] = append([]Term(nil), r.Terms...)
			if len(rows[i]) == 1 && rows[i][0].Coef == 0 {
				rows[i] = rows[i][:0]
			}
		} else {
			cs := make(map[int]float64, len(r.Terms))
			for _, t := range r.Terms {
				cs[t.Var] += t.Coef
			}
			terms := make([]Term, 0, len(cs))
			for v, c := range cs {
				if c != 0 {
					terms = append(terms, Term{Var: v, Coef: c})
				}
			}
			sort.Slice(terms, func(a, b int) bool { return terms[a].Var < terms[b].Var })
			rows[i] = terms
		}
		for _, t := range rows[i] {
			varRows[t.Var] = append(varRows[t.Var], int32(i))
		}
	}
	// rows stays the immutable original (combined) form — postsolve prices
	// duals against it; substitution works on a separate copy.
	work := make([][]Term, m)
	for i := range rows {
		work[i] = append([]Term(nil), rows[i]...)
	}
	ps := &presolved{orig: p, rows: rows}

	// fixVar pins variable j at v and enqueues its rows for re-reduction.
	var queue []int32
	fixVar := func(j int, v float64) {
		isFixed[j] = true
		fixed[j] = v
		lo[j], hi[j] = v, v
		queue = append(queue, varRows[j]...)
	}

	// Initial bound screen. Input crossings mirror standardize exactly
	// (strict lo > hi is infeasible); only crossings produced later by
	// tightening get the tolerance snap.
	for j := 0; j < n; j++ {
		if lo[j] > hi[j] {
			return nil, Infeasible
		}
		if lo[j] == hi[j] && !math.IsInf(lo[j], 0) {
			isFixed[j] = true
			fixed[j] = lo[j]
		}
	}
	for i := 0; i < m; i++ {
		queue = append(queue, int32(i))
	}

	for len(queue) > 0 {
		i := int(queue[0])
		queue = queue[1:]
		if !alive[i] {
			continue
		}
		// Substitute fixed variables out of the row.
		terms := work[i]
		w := 0
		for _, t := range terms {
			if isFixed[t.Var] {
				rhs[i] -= t.Coef * fixed[t.Var]
			} else {
				terms[w] = t
				w++
			}
		}
		work[i] = terms[:w]

		switch w {
		case 0:
			// 0 {sense} rhs: either trivially satisfied or infeasible.
			viol := 0.0
			switch p.rows[i].Sense {
			case LE:
				viol = -rhs[i]
			case GE:
				viol = rhs[i]
			case EQ:
				viol = math.Abs(rhs[i])
			}
			if viol > psTol*(1+math.Abs(p.rows[i].RHS)) {
				return nil, Infeasible
			}
			alive[i] = false
		case 1:
			t := work[i][0]
			j, c := t.Var, t.Coef
			v := rhs[i] / c
			sense := p.rows[i].Sense
			// Normalize a negative coefficient: it flips the inequality.
			eff := sense
			if c < 0 {
				if sense == LE {
					eff = GE
				} else if sense == GE {
					eff = LE
				}
			}
			switch eff {
			case EQ:
				if v < lo[j]-psTol*(1+math.Abs(v)) || v > hi[j]+psTol*(1+math.Abs(v)) {
					return nil, Infeasible
				}
				alive[i] = false
				ps.actions = append(ps.actions, psAction{row: i, vr: j, coef: c, sense: sense, implied: v})
				fixVar(j, math.Min(math.Max(v, lo[j]), hi[j]))
				continue
			case LE: // x_j ≤ v
				if v < hi[j] {
					hi[j] = v
				}
			case GE: // x_j ≥ v
				if v > lo[j] {
					lo[j] = v
				}
			}
			alive[i] = false
			ps.actions = append(ps.actions, psAction{row: i, vr: j, coef: c, sense: sense, implied: v})
			if lo[j] > hi[j] {
				if lo[j]-hi[j] > psTol*(1+math.Abs(lo[j])) {
					return nil, Infeasible
				}
				hi[j] = lo[j]
			}
			if lo[j] == hi[j] && !isFixed[j] && !math.IsInf(lo[j], 0) {
				fixVar(j, lo[j])
			}
		}
	}

	// Anything reduced? (Bound tightenings without an elimination cannot
	// happen: every singleton row is dropped once processed.)
	anyFixed := false
	for j := range isFixed {
		if isFixed[j] {
			anyFixed = true
			break
		}
	}
	anyDropped := false
	for i := range alive {
		if !alive[i] {
			anyDropped = true
			break
		}
	}
	if !anyFixed && !anyDropped {
		return nil, Optimal
	}

	// Assemble the reduced problem.
	red := NewProblem()
	red.MaxIter = p.MaxIter
	red.DisableSparse = p.DisableSparse
	red.DisableDevex = p.DisableDevex
	red.DisableCrash = p.DisableCrash
	red.DisablePresolve = true
	ps.colMap = make([]int, n)
	ps.fixed = fixed
	for j := 0; j < n; j++ {
		if isFixed[j] {
			ps.colMap[j] = -1
			continue
		}
		ps.colMap[j] = red.AddVariable(lo[j], hi[j], p.costs[j], p.names[j])
	}
	// A crash hint survives the reduction: eliminated coordinates drop,
	// the rest map through colMap.
	if p.crashPoint != nil && len(p.crashPoint) == n {
		cp := make([]float64, len(red.costs))
		for j := 0; j < n; j++ {
			if c := ps.colMap[j]; c >= 0 {
				cp[c] = p.crashPoint[j]
			}
		}
		red.crashPoint = cp
	}
	ps.rowMap = make([]int, m)
	for i := 0; i < m; i++ {
		if !alive[i] {
			ps.rowMap[i] = -1
			continue
		}
		terms := make([]Term, len(work[i]))
		for k, t := range work[i] {
			terms[k] = Term{Var: ps.colMap[t.Var], Coef: t.Coef}
		}
		ps.rowMap[i] = red.AddConstraint(terms, p.rows[i].Sense, rhs[i], p.rows[i].Name)
	}
	ps.reduced = red
	return ps, Optimal
}

// postsolve maps a reduced-problem solution back onto the original
// problem: eliminated variables take their fixed values, surviving rows
// keep their duals, and eliminated singleton rows recover theirs by
// reverse replay of the elimination log.
func (ps *presolved) postsolve(sol *Solution) *Solution {
	out := &Solution{Status: sol.Status, Iterations: sol.Iterations, Pivots: sol.Pivots}
	if sol.Status != Optimal {
		return out
	}
	p := ps.orig
	n, m := len(p.costs), len(p.rows)

	x := make([]float64, n)
	for j := 0; j < n; j++ {
		if c := ps.colMap[j]; c >= 0 {
			x[j] = sol.X[c]
		} else {
			x[j] = ps.fixed[j]
		}
	}

	dual := make([]float64, m)
	// Running reduced costs c_j − Σ y_i a_ij over the duals assigned so
	// far, using the original (combined) rows: fixed variables were
	// substituted out of the reduced rows but still appear in the
	// originals that VerifyKKT and callers price against.
	red := append([]float64(nil), p.costs...)
	for i := 0; i < m; i++ {
		r := ps.rowMap[i]
		if r < 0 {
			continue
		}
		y := sol.Dual[r]
		dual[i] = y
		if y == 0 {
			continue
		}
		for _, t := range ps.rows[i] {
			red[t.Var] -= y * t.Coef
		}
	}
	// Reverse replay: an eliminated row whose implied bound the solution
	// actually sits on absorbs the variable's remaining reduced cost (the
	// first such row in replay order takes it all; any other binding row
	// then reads a zero remainder). An equality always absorbs — its
	// variable is wherever the row put it. The assigned dual is then priced
	// through the FULL original row: variables that had been substituted
	// out before this row went singleton (fixed earlier in the log) still
	// appear there, and their own absorbing rows — replayed later, since
	// they were eliminated earlier — need the updated remainder.
	for k := len(ps.actions) - 1; k >= 0; k-- {
		a := ps.actions[k]
		var y float64
		if a.sense == EQ || math.Abs(x[a.vr]-a.implied) <= psTol*(1+math.Abs(a.implied)) {
			y = red[a.vr] / a.coef
		}
		// Dual sign guard: a minimization LE row needs y ≤ 0, GE needs
		// y ≥ 0. A wrong-signed candidate means the bound binds from the
		// harmless side (the variable's own bound coincides); its
		// multiplier belongs to the variable, not this row.
		if (a.sense == LE && y > 0) || (a.sense == GE && y < 0) || math.IsInf(y, 0) || math.IsNaN(y) {
			y = 0
		}
		if y != 0 {
			dual[a.row] = y
			for _, t := range ps.rows[a.row] {
				red[t.Var] -= y * t.Coef
			}
		}
	}

	out.X = x
	out.Dual = dual
	out.Obj = p.Objective(x)
	return out
}
