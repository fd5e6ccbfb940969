package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/lp"
	"repro/internal/minlp"
	"repro/internal/model"
)

// SolverOptions forwards tuning knobs to the MINLP solver.
type SolverOptions struct {
	// DisableSOSBranching is the paper's ablation: branch on individual
	// binaries instead of the allocation special ordered sets.
	DisableSOSBranching bool
	// DisableWarmStart solves every LP of the Kelley relaxation and the
	// branch-and-bound tree from scratch instead of reusing the previous
	// basis (benchmark ablation; warm starts are on by default).
	DisableWarmStart bool
	// SkipNLPRelaxation starts branch-and-bound from the pure linear
	// relaxation without the initial Kelley solve.
	SkipNLPRelaxation bool
	// DisableSparse solves every LP with the dense simplex kernels
	// instead of the sparsity-aware path (benchmark ablation; the sparse
	// kernels are on by default).
	DisableSparse bool
	// DisableCrash skips the heuristic crash start: by default the MINLP
	// route runs the paper's parametric heuristic first and hands its
	// allocation to the LP layer as a crash basis for the root relaxation
	// (ablation knob; the crash-vs-cold battery exercises both settings).
	DisableCrash bool
	// CutAtFractional adds outer-approximation cuts at fractional nodes.
	CutAtFractional bool
	// Deadline bounds the wall-clock time of the solve (0 = unlimited).
	// On expiry the solve degrades gracefully: the best incumbent found so
	// far is returned with Allocation.Bounded set and its optimality gap
	// reported; when no incumbent exists yet, a *NoIncumbentError is
	// returned so callers can fall back to the parametric route.
	Deadline time.Duration
	// NodeBudget bounds the branch-and-bound tree (0 = the solver's
	// default node limit) with the same graceful degradation as Deadline.
	NodeBudget int
	// Canonical post-processes the solved allocation with
	// Problem.CanonicalAllocation, replacing whatever alternate optimum
	// the search happened to reach by the unique minimal-resource optimal
	// allocation. The makespan is unchanged; only the tie-break among
	// equally optimal assignments becomes deterministic and independent of
	// task order. The HTTP solve service sets this so cached responses are
	// reproducible; default off to preserve historical outputs.
	Canonical bool
	// DebugLPCheck, when non-nil, is invoked after every node LP solve of
	// the branch-and-bound tree (testing hook, e.g. lp.VerifyKKT).
	DebugLPCheck func(p *lp.Problem, sol *lp.Solution)
}

// ErrObjectiveUnsupported is returned by SolveMINLP for max-min, whose
// constraints S ≤ T_j(n_j) are concave-side and therefore outside the
// convex outer-approximation framework; use SolveParametric for it.
var ErrObjectiveUnsupported = errors.New("core: max-min is not convex; use SolveParametric")

// NoIncumbentError reports that a deadline-, budget-, or cancellation-
// limited MINLP solve stopped before finding any integer-feasible
// incumbent. BestBound is a valid lower bound on the optimum at stop time
// (-Inf when nothing was proven). Callers should fall back to a heuristic
// or the parametric route; hslb.Solve does so automatically.
type NoIncumbentError struct {
	BestBound float64
}

func (e *NoIncumbentError) Error() string {
	return fmt.Sprintf("core: MINLP solve stopped before any incumbent (best bound %g)", e.BestBound)
}

// BuildModel constructs the paper's MINLP (Table I structure) for the
// problem. It returns the model plus the ids of the per-task allocation
// variables (for inspection and tests).
func (p *Problem) BuildModel() (*model.Model, []int, error) {
	m, nVars, _, err := p.buildModelStart(nil)
	return m, nVars, err
}

// buildModelStart is BuildModel plus an optional primal start: when hint is
// a per-task node assignment (the paper's heuristic allocation), the model
// variables are valued at it during construction — allocation variables at
// the assigned counts, assignment binaries at the matching candidate's
// indicator, time variables at the predicted times — and the vector is
// returned for the LP layer's crash-basis construction. A nil hint returns
// a nil start.
func (p *Problem) buildModelStart(hint []int) (*model.Model, []int, []float64, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, nil, err
	}
	if p.Objective == MaxMin {
		return nil, nil, nil, ErrObjectiveUnsupported
	}
	if err := p.CheckConvex(); err != nil {
		return nil, nil, nil, err
	}
	if len(hint) != len(p.Tasks) {
		hint = nil
	}
	m := model.New()
	k := len(p.Tasks)

	// A safe upper bound for any per-task time the solver can select.
	ub := 1.0
	for i := range p.Tasks {
		t := &p.Tasks[i]
		lo, _ := t.minCandidate(p.TotalNodes)
		_, hi := t.rangeFor(p.TotalNodes)
		v := math.Max(t.Perf.Eval(float64(lo)), t.Perf.Eval(float64(hi)))
		if v > ub {
			ub = v
		}
	}
	ub *= 1.0000001

	nVars := make([]int, k)
	var timeVars []int
	var tv int
	if p.Objective == MinMax {
		tv = m.AddVar(0, ub, model.Continuous, "T")
		m.SetObjective([]model.Term{{Var: tv, Coef: 1}}, 0)
	} else { // MinSum
		timeVars = make([]int, k)
		obj := make([]model.Term, 0, k)
		for i := range p.Tasks {
			timeVars[i] = m.AddVar(0, ub, model.Continuous, fmt.Sprintf("t[%s]", p.Tasks[i].Name))
			obj = append(obj, model.Term{Var: timeVars[i], Coef: 1})
		}
		m.SetObjective(obj, 0)
	}

	var zOnes []int // assignment binaries the hint values at 1
	budget := make([]model.Term, 0, k)
	for i := range p.Tasks {
		t := &p.Tasks[i]
		lo, hi := t.rangeFor(p.TotalNodes)
		if t.Allowed != nil {
			// Discrete allocation set modelled exactly as the paper's
			// AMPL: binaries z_k with Σz = 1, n = Σ z·A_k, declared as
			// an SOS1 branched on as a set (Table I, lines 29-31).
			cands := t.candidates(p.TotalNodes)
			n := m.AddVar(float64(cands[0]), float64(cands[len(cands)-1]), model.Continuous,
				fmt.Sprintf("n[%s]", t.Name))
			nVars[i] = n
			one := make([]model.Term, 0, len(cands))
			link := []model.Term{{Var: n, Coef: -1}}
			zs := make([]int, 0, len(cands))
			wts := make([]float64, 0, len(cands))
			for _, c := range cands {
				z := m.AddBinary(fmt.Sprintf("z[%s=%d]", t.Name, c))
				zs = append(zs, z)
				wts = append(wts, float64(c))
				one = append(one, model.Term{Var: z, Coef: 1})
				link = append(link, model.Term{Var: z, Coef: float64(c)})
				if hint != nil && c == hint[i] {
					zOnes = append(zOnes, z)
				}
			}
			m.AddLinear(one, lp.EQ, 1, fmt.Sprintf("pick[%s]", t.Name))
			m.AddLinear(link, lp.EQ, 0, fmt.Sprintf("link[%s]", t.Name))
			m.AddSOS1(zs, wts, fmt.Sprintf("sos[%s]", t.Name))
		} else {
			nVars[i] = m.AddVar(float64(lo), float64(hi), model.Integer,
				fmt.Sprintf("n[%s]", t.Name))
		}
		target := tv
		if p.Objective == MinSum {
			target = timeVars[i]
		}
		m.AddNonlinear(t.Perf.Constraint(nVars[i], target), fmt.Sprintf("perf[%s]", t.Name))
		budget = append(budget, model.Term{Var: nVars[i], Coef: 1})
	}
	sense := lp.LE
	if p.UseAllNodes {
		sense = lp.EQ
	}
	m.AddLinear(budget, sense, float64(p.TotalNodes), "budget")

	var start []float64
	if hint != nil {
		start = make([]float64, m.NumVars())
		maxT := 0.0
		for i := range p.Tasks {
			tm := p.Tasks[i].Perf.Eval(float64(hint[i]))
			if tm > maxT {
				maxT = tm
			}
			start[nVars[i]] = float64(hint[i])
			if p.Objective == MinSum {
				start[timeVars[i]] = tm
			}
		}
		if p.Objective == MinMax {
			start[tv] = maxT
		}
		for _, z := range zOnes {
			start[z] = 1
		}
	}
	return m, nVars, start, nil
}

// SolveMINLP is the paper's solver route: formulate the allocation MINLP
// and solve it with LP/NLP-based branch-and-bound. Valid for the convex
// objectives (min-max and min-sum) over convex performance models; globally
// optimal by convexity. A task whose model is not convex gets a
// *NonConvexError, max-min gets ErrObjectiveUnsupported.
func (p *Problem) SolveMINLP(opts SolverOptions) (*Allocation, error) {
	return p.SolveMINLPContext(context.Background(), opts)
}

// SolveMINLPContext is SolveMINLP with cooperative cancellation and the
// graceful-degradation contract of SolverOptions.Deadline/NodeBudget: when
// the solve is stopped early (ctx cancelled, ctx or Deadline expired, or
// NodeBudget exhausted) it returns the best incumbent with Bounded, Gap,
// and BestBound set instead of an error, or a *NoIncumbentError when no
// integer-feasible point was reached. With no limit firing the result is
// bit-identical to SolveMINLP.
func (p *Problem) SolveMINLPContext(ctx context.Context, opts SolverOptions) (*Allocation, error) {
	// Normalize the time dimension to O(1) by an exact power of two before
	// formulating (see scale.go): the branch-and-bound machinery then sees
	// the same bits whatever time units the caller works in, and the LP
	// layer never faces coefficients at numerically hostile magnitudes.
	// Times in the returned allocation are computed from the ORIGINAL
	// coefficients (allocationFrom); only the solver-internal best bound
	// needs the power-of-two factor undone.
	e := p.TimeScaleExp()
	sp := p
	if e != 0 {
		sp = p.normalizedTime(e)
	}
	// The parametric heuristic is the paper's crash start: its allocation
	// becomes a primal point for the LP layer's crash-basis construction,
	// letting the root relaxation (and any cold node solve) skip phase 1.
	// Strictly best-effort — a heuristic failure just means a cold start.
	var hint []int
	if !opts.DisableCrash {
		if ha, herr := sp.SolveParametricContext(ctx); herr == nil && ha != nil {
			hint = ha.Nodes
		}
	}
	m, nVars, start, err := sp.buildModelStart(hint)
	if err != nil {
		return nil, err
	}
	// NodeBudget and Deadline degrade gracefully; exhausting the solver's
	// default node limit stays an error.
	graceful := opts.Deadline > 0 || opts.NodeBudget > 0
	res := minlp.SolveContext(ctx, m, minlp.Options{
		DisableSOSBranching: opts.DisableSOSBranching,
		DisableWarmStart:    opts.DisableWarmStart,
		SkipNLPRelaxation:   opts.SkipNLPRelaxation,
		DisableSparse:       opts.DisableSparse,
		CutAtFractional:     opts.CutAtFractional,
		MaxNodes:            opts.NodeBudget,
		TimeLimit:           opts.Deadline,
		DebugLPCheck:        opts.DebugLPCheck,
		CrashPoint:          start,
	})
	if res.Status == minlp.Limit && (graceful || ctx.Err() != nil) {
		bound := math.Ldexp(res.BestBound, e) // exact: exponent shift only
		if res.X == nil {
			return nil, &NoIncumbentError{BestBound: bound}
		}
		a := p.allocationFrom(res, nVars)
		a.Bounded = true
		a.BestBound = bound
		a.Gap = RelativeGap(p.ObjectiveValue(a), bound)
		if opts.Canonical {
			a = p.CanonicalAllocation(a)
		}
		return a, nil
	}
	if res.Status != minlp.Optimal {
		return nil, fmt.Errorf("core: MINLP solve ended with status %v", res.Status)
	}
	a := p.allocationFrom(res, nVars)
	if opts.Canonical {
		a = p.CanonicalAllocation(a)
	}
	return a, nil
}

// allocationFrom rounds the solver point into an integer allocation and
// attaches the solver statistics.
func (p *Problem) allocationFrom(res *minlp.Result, nVars []int) *Allocation {
	nodes := make([]int, len(p.Tasks))
	for i, v := range nVars {
		nodes[i] = int(math.Round(res.X[v]))
	}
	a := p.Evaluate(nodes)
	a.SolverNodes = res.Nodes
	a.LPSolves = res.LPSolves
	a.OACuts = res.OACuts
	a.Pivots = res.Pivots
	return a
}

// CanonicalAllocation maps a min-max allocation onto the canonical
// representative of its optimality class: per task, the smallest admissible
// node count whose predicted time still meets the allocation's makespan.
// Alternate optima differ only in how many spare nodes non-critical tasks
// happen to hold, and which alternate the branch-and-bound returns depends
// on task order (column order steers pivot tie-breaks); the canonical form
// is a per-task function of the makespan alone and therefore independent of
// task order — the property the solve service's cache relies on.
//
// The makespan is preserved bit for bit: the critical task's minimal count
// is exactly its current one (any smaller admissible count would exceed the
// makespan on the decreasing branch). If floating-point pathologies break
// that invariant, or the objective is not min-max, or the problem pins the
// budget (UseAllNodes: shrinking would strand nodes), the allocation is
// returned unchanged — canonicalization never degrades a solution.
func (p *Problem) CanonicalAllocation(a *Allocation) *Allocation {
	if a == nil || p.Objective != MinMax || p.UseAllNodes {
		return a
	}
	nodes := make([]int, len(p.Tasks))
	for i := range p.Tasks {
		n, ok := p.minNodesAchieving(i, a.Makespan)
		if !ok {
			return a
		}
		nodes[i] = n
	}
	c := p.Evaluate(nodes)
	if c.Makespan != a.Makespan || c.Used > p.TotalNodes {
		return a
	}
	c.SolverNodes = a.SolverNodes
	c.LPSolves = a.LPSolves
	c.OACuts = a.OACuts
	c.Pivots = a.Pivots
	c.Bounded = a.Bounded
	c.BestBound = a.BestBound
	c.Gap = a.Gap
	return c
}

// RelativeGap is the standard MIP gap (obj − bound)/max(1, |obj|), clamped
// to be non-negative and finite-aware: an unproven bound (-Inf) yields +Inf.
func RelativeGap(obj, bound float64) float64 {
	if math.IsInf(bound, -1) {
		return math.Inf(1)
	}
	g := (obj - bound) / math.Max(1, math.Abs(obj))
	if g < 0 || math.IsNaN(g) {
		return 0
	}
	return g
}

// minNodesAchieving returns the smallest admissible allocation for task i
// whose predicted time is ≤ target, or ok=false.
func (p *Problem) minNodesAchieving(i int, target float64) (int, bool) {
	return minNodesAchievingAt(&p.Tasks[i], target, p.TotalNodes)
}

// maxNodesKeeping returns the largest admissible allocation for task i whose
// predicted time is still ≥ target (used by max-min), or ok=false.
func (p *Problem) maxNodesKeeping(i int, target float64) (int, bool) {
	t := &p.Tasks[i]
	lo, hi := t.rangeFor(p.TotalNodes)
	if t.Allowed != nil {
		for k := len(t.Allowed) - 1; k >= 0; k-- {
			n := t.Allowed[k]
			if n < lo || n > hi {
				continue
			}
			if t.Perf.Eval(float64(n)) >= target {
				return n, true
			}
		}
		return 0, false
	}
	// The time curve is convex: ≥ target holds on a prefix [lo, d1] of the
	// decreasing branch and possibly a suffix [d2, hi] of the increasing
	// branch. Prefer the suffix (larger n).
	if t.Perf.Eval(float64(hi)) >= target {
		return hi, true
	}
	am := t.Perf.ArgMin()
	upper := hi
	if am < float64(upper) {
		upper = int(am)
	}
	if upper < lo {
		upper = lo
	}
	// Binary search the decreasing branch [lo, upper] for the largest n
	// with T(n) ≥ target.
	if t.Perf.Eval(float64(lo)) < target {
		return 0, false
	}
	loN, hiN := lo, upper
	for loN < hiN {
		mid := (loN + hiN + 1) / 2
		if t.Perf.Eval(float64(mid)) >= target {
			loN = mid
		} else {
			hiN = mid - 1
		}
	}
	return loN, true
}

// SolveParametric is the specialized exact solver: it bisects the objective
// level and uses the per-task inverse of the performance function. It
// supports all three objectives and serves as the independent
// cross-validation of the MINLP route (DESIGN.md, decision 4).
func (p *Problem) SolveParametric() (*Allocation, error) {
	return p.SolveParametricContext(context.Background())
}

// SolveParametricContext is SolveParametric with cooperative cancellation:
// ctx is checked between bisection iterations (and greedy rounds), and a
// cancelled run returns ctx.Err(). The route is fast and needs no
// deadline-degradation machinery; with a live ctx the result is
// bit-identical to SolveParametric.
func (p *Problem) SolveParametricContext(ctx context.Context) (*Allocation, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch p.Objective {
	case MinMax:
		return p.solveMinMaxParametric(ctx)
	case MaxMin:
		return p.solveMaxMinParametric(ctx)
	default:
		return p.solveMinSumGreedy(ctx)
	}
}

func (p *Problem) minAllocation() []int {
	nodes := make([]int, len(p.Tasks))
	for i := range p.Tasks {
		nodes[i], _ = p.Tasks[i].minCandidate(p.TotalNodes)
	}
	return nodes
}

func (p *Problem) solveMinMaxParametric(ctx context.Context) (*Allocation, error) {
	// Feasibility check of a makespan target.
	tryTarget := func(target float64) ([]int, bool) {
		nodes := make([]int, len(p.Tasks))
		used := 0
		for i := range p.Tasks {
			n, ok := p.minNodesAchieving(i, target)
			if !ok {
				return nil, false
			}
			nodes[i] = n
			used += n
		}
		if used > p.TotalNodes {
			return nil, false
		}
		return nodes, true
	}

	// Bracket: hi = makespan of the minimum allocation (always feasible),
	// lo = the best any single task can ever do (optimum is ≥ max of the
	// per-task minima... the max over tasks of their minimum achievable
	// time is a valid lower bound).
	minAlloc := p.Evaluate(p.minAllocation())
	hi := minAlloc.Makespan
	lo := 0.0
	for i := range p.Tasks {
		best := math.Inf(1)
		t := &p.Tasks[i]
		if t.Allowed != nil {
			for _, n := range t.candidates(p.TotalNodes) {
				if v := t.Perf.Eval(float64(n)); v < best {
					best = v
				}
			}
		} else {
			lo2, hi2 := t.rangeFor(p.TotalNodes)
			am := int(math.Round(t.Perf.ArgMin()))
			for _, n := range []int{lo2, hi2, clampInt(am, lo2, hi2), clampInt(am+1, lo2, hi2)} {
				if v := t.Perf.Eval(float64(n)); v < best {
					best = v
				}
			}
		}
		if best > lo {
			lo = best
		}
	}
	if lo > hi {
		lo = hi
	}
	// The convergence test is homogeneous in the time unit (no absolute
	// "+1" floor): a uniform rescale of the coefficients rescales lo, hi,
	// and the threshold together, so the bisection runs the same number of
	// iterations whatever units the caller uses. The 100-iteration cap
	// bounds the degenerate hi→0 case.
	for iter := 0; iter < 100 && hi-lo > 1e-12*hi; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		mid := (lo + hi) / 2
		if _, ok := tryTarget(mid); ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	nodes, ok := tryTarget(hi)
	if !ok {
		// Numerical edge: fall back to the always-feasible minimum
		// allocation.
		nodes = p.minAllocation()
	}
	// Spend leftover nodes where they reduce the makespan.
	p.polishMinMax(nodes)
	if p.UseAllNodes {
		used := 0
		for _, n := range nodes {
			used += n
		}
		distributeLeftover(p, nodes, p.TotalNodes-used)
	}
	return p.Evaluate(nodes), nil
}

// polishMinMax greedily grows the current makespan task while that strictly
// helps and budget remains.
func (p *Problem) polishMinMax(nodes []int) {
	used := 0
	for _, n := range nodes {
		used += n
	}
	for {
		times := make([]float64, len(nodes))
		for i := range nodes {
			times[i] = p.Tasks[i].Perf.Eval(float64(nodes[i]))
		}
		worst := argMaxF(times)
		up, ok := p.Tasks[worst].nextUp(nodes[worst], p.TotalNodes)
		if !ok || used+up-nodes[worst] > p.TotalNodes {
			return
		}
		if p.Tasks[worst].Perf.Eval(float64(up)) >= times[worst] {
			return // no longer improving (entered the increasing branch)
		}
		used += up - nodes[worst]
		nodes[worst] = up
	}
}

func (p *Problem) solveMaxMinParametric(ctx context.Context) (*Allocation, error) {
	minAlloc := p.minAllocation()
	budget := p.EffectiveBudget()
	sumMin := 0
	for _, n := range minAlloc {
		sumMin += n
	}
	// Feasibility of a floor S: every task can stay ≥ S while together
	// absorbing the whole (effective) budget.
	tryFloor := func(s float64) ([]int, bool) {
		caps := make([]int, len(p.Tasks))
		sumCap := 0
		for i := range p.Tasks {
			c, ok := p.maxNodesKeeping(i, s)
			if !ok || c < minAlloc[i] {
				return nil, false
			}
			caps[i] = c
			sumCap += c
		}
		if sumCap < budget {
			return nil, false
		}
		nodes := append([]int(nil), minAlloc...)
		leftover := budget - sumMin
		// Distribute the surplus to the currently slowest growable task:
		// any distribution within the caps keeps the floor, but this one
		// also improves the makespan as a secondary criterion.
		for leftover > 0 {
			bestI, bestUp := -1, 0
			bestTime := -1.0
			for i := range nodes {
				up, ok := p.Tasks[i].nextUp(nodes[i], p.TotalNodes)
				if !ok || up > caps[i] || up-nodes[i] > leftover {
					continue
				}
				t := p.Tasks[i].Perf.Eval(float64(nodes[i]))
				if t > bestTime {
					bestTime, bestI, bestUp = t, i, up
				}
			}
			if bestI < 0 {
				break
			}
			leftover -= bestUp - nodes[bestI]
			nodes[bestI] = bestUp
		}
		if leftover != 0 {
			return nil, false
		}
		return nodes, true
	}

	// Bracket S ∈ [0, min time at the minimum allocation].
	hi := math.Inf(1)
	for i, n := range minAlloc {
		if v := p.Tasks[i].Perf.Eval(float64(n)); v < hi {
			hi = v
		}
	}
	lo := 0.0
	best, ok := tryFloor(lo)
	if !ok {
		return nil, errors.New("core: max-min allocation cannot use all nodes (allowed-set gaps)")
	}
	// Homogeneous convergence test; see solveMinMaxParametric.
	for iter := 0; iter < 100 && hi-lo > 1e-12*hi; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		mid := (lo + hi) / 2
		if nodes, ok := tryFloor(mid); ok {
			lo = mid
			best = nodes
		} else {
			hi = mid
		}
	}
	return p.Evaluate(best), nil
}

// solveMinSumGreedy allocates by largest marginal time reduction per node.
// For unit-step tasks with convex performance functions the exchange
// argument makes this exact; with sparse allowed sets it is a (good)
// heuristic, and the MINLP route remains the exact reference.
func (p *Problem) solveMinSumGreedy(ctx context.Context) (*Allocation, error) {
	nodes := p.minAllocation()
	used := 0
	for _, n := range nodes {
		used += n
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		bestI, bestUp := -1, 0
		bestRate := 0.0
		for i := range p.Tasks {
			up, ok := p.Tasks[i].nextUp(nodes[i], p.TotalNodes)
			if !ok || used+up-nodes[i] > p.TotalNodes {
				continue
			}
			gain := p.Tasks[i].Perf.Eval(float64(nodes[i])) - p.Tasks[i].Perf.Eval(float64(up))
			rate := gain / float64(up-nodes[i])
			if rate > bestRate {
				bestRate, bestI, bestUp = rate, i, up
			}
		}
		if bestI < 0 {
			break
		}
		used += bestUp - nodes[bestI]
		nodes[bestI] = bestUp
	}
	if p.UseAllNodes {
		distributeLeftover(p, nodes, p.TotalNodes-used)
	}
	return p.Evaluate(nodes), nil
}

// SolveDP solves the allocation problem exactly by dynamic programming over
// (task, nodes-used) states. It is O(k·N·|candidates|) and intended as the
// test oracle for small N; all objectives and allowed sets are supported.
func (p *Problem) SolveDP() (*Allocation, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	k := len(p.Tasks)
	N := p.TotalNodes
	const inf = math.MaxFloat64
	worstInit := inf
	better := func(a, b float64) bool { return a < b }
	combine := func(prev, t float64) float64 { return math.Max(prev, t) } // MinMax
	switch p.Objective {
	case MaxMin:
		combine = func(prev, t float64) float64 { return math.Min(prev, t) }
		better = func(a, b float64) bool { return a > b }
		worstInit = -1
	case MinSum:
		combine = func(prev, t float64) float64 { return prev + t }
	}
	identity := 0.0
	if p.Objective == MinMax {
		identity = 0
	} else if p.Objective == MaxMin {
		identity = inf
	}

	val := make([][]float64, k+1)
	choice := make([][]int, k+1)
	for j := 0; j <= k; j++ {
		val[j] = make([]float64, N+1)
		choice[j] = make([]int, N+1)
		for m := range val[j] {
			val[j][m] = worstInit
			choice[j][m] = -1
		}
	}
	val[0][0] = identity
	for j := 1; j <= k; j++ {
		cands := p.Tasks[j-1].candidates(N)
		for m := 0; m <= N; m++ {
			if val[j-1][m] == worstInit {
				continue
			}
			for _, c := range cands {
				if m+c > N {
					break
				}
				t := p.Tasks[j-1].Perf.Eval(float64(c))
				v := combine(val[j-1][m], t)
				if choice[j][m+c] == -1 || better(v, val[j][m+c]) {
					val[j][m+c] = v
					choice[j][m+c] = c
				}
			}
		}
	}
	bestM, bestV := -1, worstInit
	loM := 0
	if p.UseAllNodes || p.Objective == MaxMin {
		loM = p.EffectiveBudget()
	}
	for m := loM; m <= N; m++ {
		if choice[k][m] == -1 && !(k == 0 && m == 0) {
			continue
		}
		if val[k][m] == worstInit {
			continue
		}
		if bestM == -1 || better(val[k][m], bestV) {
			bestM, bestV = m, val[k][m]
		}
	}
	if bestM < 0 {
		return nil, errors.New("core: DP found no feasible allocation")
	}
	nodes := make([]int, k)
	m := bestM
	for j := k; j >= 1; j-- {
		c := choice[j][m]
		nodes[j-1] = c
		m -= c
	}
	return p.Evaluate(nodes), nil
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func argMaxF(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}
