package lp

// Crash basis construction: turn a caller-supplied primal point — in the
// HSLB stack, the paper's greedy LPT allocation, which is near-optimal by
// construction — into a starting BASIS, skipping phase 1 entirely and
// leaving phase 2 a handful of repair pivots instead of a cold march from
// the all-slack vertex.
//
// The rounding is deliberately simple (this is a heuristic; the verification
// is what carries correctness):
//
//  1. Map the point into standard space through the standardization's
//     variable maps and snap every coordinate within crashSnapEps of a
//     bound onto it.
//  2. Complete the slacks row by row; a row violated beyond the scaled
//     feasibility tolerance declines the whole crash.
//  3. Propose a basis: interior slacks claim their own rows (pass A);
//     interior structural columns claim a remaining row from their pattern
//     by largest pivot magnitude (pass B — this is where the makespan
//     column lands on a critical load row); rows still uncovered take
//     their best at-bound column basic, degenerately (pass C); anything
//     left keeps its slack or artificial.
//
// The proposal is then INSTALLED AND VERIFIED, never trusted:
// Incremental.rebuildFromCrash routes it through Incremental.install, the
// row-pivoted Gauss–Jordan refactorization from the pristine rows that the
// warm tableau's periodic refactor also takes, and then requires every
// artificial slot to vanish. Any failure — singular basis, a residual on
// an equality row — falls back to the ordinary cold start, so a crash hint
// can cost pivots but never correctness. A one-shot Problem.Solve never
// reads the hint.

import "math"

// crashPlan is the vertex rounding of a crash point: the rounded point in
// standard space, a proposed basic column per row (-1 keeps the row's
// slack/artificial), and the bound statuses of the nonbasic columns.
type crashPlan struct {
	u      []float64
	assign []int
	status []int8
}

// crashVal reads the t-th nonzero of standardized row i.
func crashVal(std *standard, i, t int) float64 {
	return std.a[i][std.pat[i][t]]
}

// buildCrashPlan rounds p.crashPoint to a vertex proposal for the
// standardized system. slackOf names each row's identity slack column (-1
// when the row got an artificial). nil means "no usable plan" — malformed
// point, infeasible beyond tolerance, or no pattern rows to work from.
func buildCrashPlan(p *Problem, std *standard, nPre int, slackOf []int32) *crashPlan {
	x := p.crashPoint
	if x == nil || len(x) != len(p.costs) || std.pat == nil {
		return nil
	}
	m := len(std.a)
	u := make([]float64, nPre)
	status := make([]int8, nPre)
	isSlackCol := make([]bool, nPre)
	for i := 0; i < m; i++ {
		if s := slackOf[i]; s >= 0 {
			isSlackCol[s] = true
		}
	}

	// 1. Map the point into standard (shifted/split) space.
	for j, vm := range std.vmaps {
		v := x[j]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil
		}
		switch vm.kind {
		case 0:
			u[vm.col] = v - vm.shift
		case 1:
			u[vm.col] = vm.shift - v
		case 2:
			u[vm.col] = math.Max(v, 0)
			u[vm.col2] = math.Max(-v, 0)
		}
	}

	// 2. Clamp structural coordinates into their boxes and snap the ones
	// within the (relative) snap window onto the bound.
	interior := make([]bool, nPre)
	for j := 0; j < nPre; j++ {
		if isSlackCol[j] {
			continue
		}
		lo, hi := std.lb[j], std.ub[j]
		v := u[j]
		if v < lo {
			v = lo
		}
		if v > hi {
			v = hi
		}
		if v-lo <= crashSnapEps*(1+math.Abs(lo)) {
			u[j], status[j] = lo, atLower
			continue
		}
		if !math.IsInf(hi, 1) && hi-v <= crashSnapEps*(1+math.Abs(hi)) {
			u[j] = hi
			if hi != lo {
				status[j] = atUpper
			}
			continue
		}
		u[j] = v
		interior[j] = true
	}

	// Column → rows index over the structural pattern (counting layout),
	// with the coefficient alongside for the pivot-magnitude choices. Built
	// before slack completion: the singleton-absorber step below needs
	// per-column occurrence counts.
	cnt := make([]int32, nPre+1)
	for i := 0; i < m; i++ {
		for _, j32 := range std.pat[i] {
			if int(j32) < nPre {
				cnt[j32+1]++
			}
		}
	}
	for j := 0; j < nPre; j++ {
		cnt[j+1] += cnt[j]
	}
	colRow := make([]int32, cnt[nPre])
	colCoef := make([]float64, cnt[nPre])
	fill := make([]int32, nPre)
	copy(fill, cnt[:nPre])
	for i := 0; i < m; i++ {
		for t, j32 := range std.pat[i] {
			if int(j32) >= nPre {
				continue
			}
			pos := fill[j32]
			colRow[pos] = int32(i)
			colCoef[pos] = crashVal(std, i, t)
			fill[j32] = pos + 1
		}
	}

	// 3. Slack completion: each row's slack absorbs its residual. A row
	// without a unit slack — an equality, or an inequality whose RHS sign
	// flip turned the slack into a structural column with coefficient −1 —
	// gets one more chance: a ROW-SINGLETON structural column (the flipped
	// slack or surplus is exactly that) absorbs the residual if its box
	// allows, touching no other row. Any residual beyond the SCALED
	// feasibility tolerance after that declines the crash — the point is
	// not the near-feasible allocation it claims to be.
	tol := feasTol(std.scale)
	var preAssign [][2]int
	for i := 0; i < m; i++ {
		act := 0.0
		sc := slackOf[i]
		for t, j32 := range std.pat[i] {
			j := int(j32)
			if j >= nPre || j32 == sc {
				continue
			}
			if v := u[j]; v != 0 {
				act += crashVal(std, i, t) * v
			}
		}
		if sc < 0 {
			r := std.b[i] - act
			if math.Abs(r) <= tol {
				continue
			}
			absorbed := false
			for t, j32 := range std.pat[i] {
				j := int(j32)
				if j >= nPre || cnt[j+1]-cnt[j] != 1 {
					continue
				}
				c := crashVal(std, i, t)
				if math.Abs(c) <= artPivotEps {
					continue
				}
				v := u[j] + r/c
				lo, hi := std.lb[j], std.ub[j]
				if v < lo-tol || v > hi+tol {
					continue
				}
				if v-lo <= crashSnapEps*(1+math.Abs(lo)) {
					u[j], status[j] = lo, atLower
					interior[j] = false
				} else if !math.IsInf(hi, 1) && hi-v <= crashSnapEps*(1+math.Abs(hi)) {
					u[j], status[j] = hi, atUpper
					interior[j] = false
				} else {
					// The absorber behaves exactly like an interior slack: it
					// owns its row (the row-singleton guarantee makes the
					// pivot safe) and pass B must neither park it on a bound
					// nor let another column claim the row.
					u[j] = v
					interior[j] = false
					isSlackCol[j] = true
					preAssign = append(preAssign, [2]int{i, j})
				}
				absorbed = true
				break
			}
			if !absorbed {
				return nil
			}
			continue
		}
		sv := std.b[i] - act
		if sv < -tol {
			return nil
		}
		if sv <= crashSnapEps*(1+math.Abs(std.b[i])) {
			sv = 0
		} else {
			interior[sc] = true
		}
		u[sc] = sv
	}

	assign := make([]int, m)
	rowTaken := make([]bool, m)
	colBasic := make([]bool, nPre)
	for i := range assign {
		assign[i] = -1
	}

	// Pass A: an interior slack is basic on its own row; an interior
	// singleton absorber (the flipped slack of a sign-corrected row) is the
	// same thing under a structural column index.
	for i := 0; i < m; i++ {
		if sc := slackOf[i]; sc >= 0 && interior[sc] {
			assign[i] = int(sc)
			rowTaken[i] = true
			colBasic[sc] = true
		}
	}
	for _, pa := range preAssign {
		assign[pa[0]] = pa[1]
		rowTaken[pa[0]] = true
		colBasic[pa[1]] = true
	}

	// Pass B: interior structural columns (ascending, deterministic) claim
	// the free row of their pattern with the largest pivot magnitude; a
	// column with no admissible row is parked on its nearest bound instead
	// (the verification refactorization is the authority on the residual
	// this introduces).
	for j := 0; j < nPre; j++ {
		if !interior[j] || isSlackCol[j] {
			continue
		}
		best, bestAbs := int32(-1), artPivotEps
		for t := cnt[j]; t < cnt[j+1]; t++ {
			i := colRow[t]
			if rowTaken[i] {
				continue
			}
			if a := math.Abs(colCoef[t]); a > bestAbs {
				best, bestAbs = i, a
			}
		}
		if best >= 0 {
			assign[best] = j
			rowTaken[best] = true
			colBasic[j] = true
			continue
		}
		lo, hi := std.lb[j], std.ub[j]
		if !math.IsInf(hi, 1) && hi-u[j] < u[j]-lo {
			u[j], status[j] = hi, atUpper
		} else {
			u[j], status[j] = lo, atLower
		}
	}

	// Pass C: rows still uncovered take their strongest unclaimed column
	// basic AT its bound — a degenerate but structural basis slot (on the
	// T-series pick rows this is the chosen assignment binary, which beats
	// leaving the artificial in the basis).
	for i := 0; i < m; i++ {
		if assign[i] >= 0 {
			continue
		}
		best, bestAbs := -1, artPivotEps
		for t, j32 := range std.pat[i] {
			j := int(j32)
			if j >= nPre || colBasic[j] {
				continue
			}
			if a := math.Abs(crashVal(std, i, t)); a > bestAbs {
				best, bestAbs = j, a
			}
		}
		if best >= 0 {
			assign[i] = best
			colBasic[best] = true
		}
	}
	return &crashPlan{u: u, assign: assign, status: status}
}
