package nlp

import (
	"math"

	"repro/internal/lp"
	"repro/internal/model"
)

// ConvexStatus reports the outcome of a convex NLP solve.
type ConvexStatus int

// Convex solve outcomes.
const (
	ConvexOptimal ConvexStatus = iota
	ConvexInfeasible
	ConvexUnbounded
	ConvexIterLimit
)

func (s ConvexStatus) String() string {
	switch s {
	case ConvexOptimal:
		return "optimal"
	case ConvexInfeasible:
		return "infeasible"
	case ConvexUnbounded:
		return "unbounded"
	case ConvexIterLimit:
		return "iteration limit"
	}
	return "unknown"
}

// ConvexResult is the solution of the continuous relaxation.
type ConvexResult struct {
	Status ConvexStatus
	X      []float64
	Obj    float64
	// Cuts is the number of linearization cuts generated; the caller
	// (outer approximation) reuses CutPoints to warm-start its master.
	Cuts      int
	CutPoints [][]float64
	Iters     int
	// Pivots is the total simplex pivot count across all LP resolves
	// (see lp.Solution.Pivots).
	Pivots int
}

// ConvexOptions tunes SolveConvex. Zero values select defaults.
type ConvexOptions struct {
	MaxIter int // default 400
	// Tol is the nonlinear feasibility tolerance (default 1e-7), applied
	// relative to each constraint's first-order magnitude at the candidate
	// point (model.CutScale, power-of-two factors with floor 1).
	Tol float64
	// DisableWarmStart solves every cutting-plane iteration from scratch
	// instead of dual-simplex reoptimizing from the previous basis.
	DisableWarmStart bool
	// DisableSparse pins the LP relaxation to the dense simplex kernels
	// (benchmark/ablation knob for the sparse path).
	DisableSparse bool
}

// SolveConvex minimizes the model's linear objective over its linear
// constraints, bounds, and convex nonlinear constraints, ignoring
// integrality — i.e. it solves the continuous relaxation via Kelley's
// cutting-plane method: repeatedly solve the LP relaxation, add first-order
// cuts at the solution for violated nonlinear constraints, and stop when the
// solution is nonlinear-feasible.
//
// For convex constraint functions every cut is valid, the LP objective is a
// monotone lower bound, and the method converges to the global optimum of
// the relaxation — exactly the property the paper's solver relies on.
func SolveConvex(m *model.Model, opts ConvexOptions) *ConvexResult {
	if opts.MaxIter == 0 {
		opts.MaxIter = 400
	}
	if opts.Tol == 0 {
		opts.Tol = 1e-7
	}
	p := m.LPRelaxation()
	p.DisableSparse = opts.DisableSparse
	res := &ConvexResult{}
	nl := m.Nonlinear()
	// Each iteration only appends cuts, so the previous optimal basis
	// stays dual-feasible and the incremental solver reoptimizes with a
	// handful of dual pivots instead of a full cold solve.
	var inc *lp.Incremental
	if !opts.DisableWarmStart {
		inc = lp.NewIncremental(p)
	}
	for iter := 0; iter < opts.MaxIter; iter++ {
		res.Iters = iter + 1
		var sol *lp.Solution
		var err error
		if inc != nil {
			sol, err = inc.Solve()
		} else {
			sol, err = p.Solve()
		}
		if sol != nil {
			res.Pivots += sol.Pivots
		}
		if err != nil {
			res.Status = ConvexInfeasible
			return res
		}
		switch sol.Status {
		case lp.Infeasible:
			res.Status = ConvexInfeasible
			return res
		case lp.Unbounded:
			// The LP relaxation is unbounded. If there are nonlinear
			// constraints they might bound the problem, but without a
			// finite point to cut at we cannot proceed; treat as
			// unbounded (our models always have bounded variables, so
			// this is defensive).
			res.Status = ConvexUnbounded
			return res
		case lp.IterLimit:
			res.Status = ConvexIterLimit
			return res
		}
		// Cut every violated constraint at this point (not only the
		// worst): fewer LP resolves in practice. "Violated" is judged
		// relative to the constraint's first-order magnitude at this point
		// (model.CutScale, floor 1); the linearization is computed anyway
		// for the cut, so the scale costs nothing extra. A value below Tol
		// is feasible at any scale and skips the gradient evaluation.
		added := false
		for k := range nl {
			v := nl[k].G.Value(sol.X)
			if v <= opts.Tol {
				continue
			}
			terms, rhs := m.LinearCutAt(k, sol.X)
			if v <= opts.Tol*model.CutScale(terms, rhs, sol.X) {
				continue
			}
			p.AddConstraint(terms, lp.LE, rhs, "oa["+nl[k].Name+"]")
			added = true
		}
		if !added {
			res.Status = ConvexOptimal
			res.X = sol.X
			res.Obj = m.EvalObjective(sol.X)
			return res
		}
		res.Cuts++
		res.CutPoints = append(res.CutPoints, append([]float64(nil), sol.X...))
	}
	res.Status = ConvexIterLimit
	return res
}

// ProjectedObjLowerBound returns a quick lower bound on the model objective
// from variable bounds alone (used by tests and sanity checks).
func ProjectedObjLowerBound(m *model.Model) float64 {
	terms, c := m.Objective()
	lb := c
	for _, t := range terms {
		v := m.Var(t.Var)
		if t.Coef >= 0 {
			lb += t.Coef * v.Lo
		} else {
			lb += t.Coef * v.Hi
		}
	}
	if math.IsNaN(lb) {
		return math.Inf(-1)
	}
	return lb
}
