// Package minlp implements the LP/NLP-based branch-and-bound algorithm for
// convex mixed-integer nonlinear programs — the algorithm the paper uses
// (via MINOTAUR) to solve the HSLB node-allocation problems.
//
// The method, following Quesada & Grossmann (and Fletcher & Leyffer's outer
// approximation, which the paper cites):
//
//  1. Solve the continuous NLP relaxation. Its solution provides the first
//     linearization points; infeasibility or the bound it produces can end
//     the search immediately.
//  2. Build a master MILP from the linear part of the model plus
//     outer-approximation cuts at the relaxation solution.
//  3. Run a single branch-and-bound tree over the master (package milp).
//     Whenever the tree finds an integer-feasible LP point, a lazy callback
//     checks the true nonlinear constraints: violated constraints are
//     linearized at that point (a valid global cut that separates it, by
//     convexity) and the node is re-solved; points satisfying every
//     constraint become incumbents.
//
// Because the fitted HSLB performance functions are convex (coefficients
// a, b, d ≥ 0 and exponent c ≥ 1 — the paper: "the positivity of the
// coefficients implies that the nonlinear functions are convex"), every cut
// is valid and the returned solution is globally optimal, which is the
// guarantee the paper's abstract highlights.
package minlp

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/lp"
	"repro/internal/milp"
	"repro/internal/model"
	"repro/internal/nlp"
)

// lazyDebug enables tracing of the OA lazy callback (tests flip it).
var lazyDebug = false

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	Limit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case Limit:
		return "limit"
	}
	return "unknown"
}

// Options tunes the solver. Zero values select defaults.
type Options struct {
	// FeasTol is the nonlinear feasibility tolerance for accepting
	// incumbents (default 1e-6). It is applied relative to the
	// constraint's first-order magnitude at the candidate point (see
	// model.CutScale), with scale floor 1 — i.e. exactly the historical
	// absolute tolerance for O(1)-scaled models.
	FeasTol float64
	// MaxNodes bounds the branch-and-bound tree (default 200000).
	MaxNodes int
	// DisableSOSBranching forwards the ablation knob to the MILP tree.
	DisableSOSBranching bool
	// DisableWarmStart forwards to the Kelley relaxation and the MILP
	// master: every LP is then solved from scratch instead of
	// dual-simplex reoptimized from a parent basis.
	DisableWarmStart bool
	// CutAtFractional adds OA cuts at fractional node solutions too.
	CutAtFractional bool
	// DisableSparse pins every LP — Kelley relaxation and master tree —
	// to the dense simplex kernels (benchmark/ablation knob).
	DisableSparse bool
	// SkipNLPRelaxation skips step 1 (the initial Kelley solve); the
	// master then starts from the pure linear relaxation. Used by the
	// solver ablation benchmarks.
	SkipNLPRelaxation bool
	// GridCuts seeds the master with linearizations of every nonlinear
	// constraint at a geometric grid of points across its variable box
	// (default 8; negative disables). A tight initial master keeps the
	// branch-and-bound tree small on the flat objective plateaus typical
	// of allocation problems.
	GridCuts int
	// GapTol is the relative optimality gap of the master tree
	// (default 1e-7).
	GapTol float64
	// TimeLimit bounds the wall-clock time of the master tree search
	// (0 = unlimited); on expiry the best incumbent is returned with
	// status Limit.
	TimeLimit time.Duration
	// DebugLPCheck forwards to the MILP tree (testing hook).
	DebugLPCheck func(p *lp.Problem, sol *lp.Solution)
	// CrashPoint, when non-nil, is a primal point in model-variable space
	// (e.g. a heuristic allocation) handed to the LP layer as a crash
	// hint on the master problem: cold solves and warm-start rebuilds
	// construct a starting basis from it instead of marching from the
	// all-slack vertex. Node clones inherit it. Strictly best-effort: the
	// LP layer verifies every crash basis and falls back to a cold start.
	CrashPoint []float64
}

// Result is the outcome of a solve.
type Result struct {
	Status Status
	X      []float64
	Obj    float64
	// RelaxObj is the continuous relaxation optimum (a global lower
	// bound); NaN when the relaxation was skipped.
	RelaxObj float64
	// BestBound is a valid global lower bound on the optimum at the time
	// the solve stopped: equal to Obj for Optimal, the tightest of the
	// remaining tree bounds for Limit, -Inf when nothing was proven.
	// Callers use it to report the optimality gap of deadline-bounded
	// solves.
	BestBound float64
	Nodes     int
	LPSolves  int
	OACuts    int
	// Pivots is the total simplex pivot count across the Kelley
	// relaxation and the master tree (see lp.Solution.Pivots).
	Pivots int
	// WarmSolves / ColdSolves are the master tree's basis-cache
	// statistics (see milp.Result); the Kelley relaxation's LP solves are
	// counted in LPSolves but not split here.
	WarmSolves int
	ColdSolves int
}

// Solve minimizes the model. The model's nonlinear constraints must be
// convex; see the package comment.
func Solve(m *model.Model, opts Options) *Result {
	return SolveContext(context.Background(), m, opts)
}

// SolveContext is Solve with cooperative cancellation: ctx is threaded into
// the master branch-and-bound tree (see milp.SolveContext), so cancellation
// or a ctx deadline stops the search like a TimeLimit — status Limit with
// the best incumbent, if any, in X. A never-cancelled ctx is bit-identical
// to Solve.
func SolveContext(ctx context.Context, m *model.Model, opts Options) *Result {
	if opts.FeasTol == 0 {
		opts.FeasTol = 1e-6
	}
	if opts.GridCuts == 0 {
		opts.GridCuts = 8
	}
	if opts.GapTol == 0 {
		opts.GapTol = 1e-7
	}
	res := &Result{RelaxObj: math.NaN(), BestBound: math.Inf(-1)}
	if err := m.Validate(); err != nil {
		res.Status = Infeasible
		return res
	}
	if ctx.Err() != nil {
		// Cancelled before any work: nothing proven, no incumbent.
		res.Status = Limit
		return res
	}

	master := m.LPRelaxation()
	if opts.CrashPoint != nil {
		master.SetCrashPoint(opts.CrashPoint)
	}

	// Seed the master with grid linearizations: for each nonlinear
	// constraint, sweep each of its variables over a geometric grid of its
	// box (others at the box midpoint) and cut there.
	if opts.GridCuts > 0 {
		// Coordinates of linearization points are kept small in
		// magnitude: the cut right-hand side Σ∇g·x̄ − g(x̄) suffers
		// catastrophic cancellation when x̄ holds huge components (e.g.
		// a makespan variable bounded by 1e12), which would perturb the
		// cut into cutting off feasible points.
		const magCap = 1e8
		nvars := m.NumVars()
		for k := range m.Nonlinear() {
			g := m.Nonlinear()[k].G
			vars := g.Vars()
			base := make([]float64, nvars)
			for _, v := range vars {
				vi := m.Var(v)
				base[v] = clampMag(boundedBase(vi.Lo, vi.Hi), magCap)
			}
			for _, v := range vars {
				vi := m.Var(v)
				lo, hi := vi.Lo, vi.Hi
				// The degenerate-box cutoff is relative to the bound
				// magnitude; an absolute cutoff would misjudge boxes at
				// units far from O(1). An exactly-pinned box (lo == hi,
				// including 0) still skips.
				if math.IsInf(lo, -1) || math.IsInf(hi, 1) ||
					hi-lo <= 1e-12*math.Max(math.Abs(lo), math.Abs(hi)) {
					continue
				}
				lo, hi = math.Max(lo, -magCap), math.Min(hi, magCap)
				if hi <= lo {
					continue
				}
				denom := float64(opts.GridCuts - 1)
				if denom < 1 {
					denom = 1
				}
				for i := 0; i < opts.GridCuts; i++ {
					f := float64(i) / denom
					pt := append([]float64(nil), base...)
					if lo > 0 {
						pt[v] = lo * math.Pow(hi/lo, f) // geometric
					} else {
						pt[v] = lo + (hi-lo)*f // linear
					}
					if !finiteAt(g, pt) {
						continue
					}
					m.LinearizeAt(master, k, pt)
				}
			}
		}
	}

	// Step 1: continuous relaxation via Kelley's method. Its cut points
	// warm-start the master with the same linearizations.
	if !opts.SkipNLPRelaxation {
		relax := nlp.SolveConvex(m.Clone(), nlp.ConvexOptions{
			Tol:              opts.FeasTol / 10,
			DisableWarmStart: opts.DisableWarmStart,
			DisableSparse:    opts.DisableSparse,
		})
		res.LPSolves += relax.Iters
		res.Pivots += relax.Pivots
		switch relax.Status {
		case nlp.ConvexInfeasible:
			res.Status = Infeasible
			return res
		case nlp.ConvexUnbounded:
			res.Status = Unbounded
			return res
		case nlp.ConvexIterLimit:
			// Keep going with whatever cuts we got; the master remains a
			// relaxation either way.
		default:
			res.RelaxObj = relax.Obj
		}
		for _, pt := range relax.CutPoints {
			for k := range m.Nonlinear() {
				m.LinearizeAt(master, k, pt)
			}
		}
		if relax.X != nil {
			for k := range m.Nonlinear() {
				m.LinearizeAt(master, k, relax.X)
			}
		}
	}

	// Step 3: single-tree branch and bound with OA lazy cuts. Cuts are
	// deduplicated by (constraint, quantized linearization point): repeat
	// candidates sharing coordinates would otherwise flood the master
	// with identical rows.
	seen := make(map[cutKey]bool)
	varScale := quantScales(m)
	lazy := func(x []float64) []milp.LazyCut {
		var cuts []milp.LazyCut
		for k, c := range m.Nonlinear() {
			v := c.G.Value(x)
			// Fast path: CutScale ≥ 1, so v ≤ FeasTol is feasible at any
			// scale and needs no gradient evaluation.
			if v <= opts.FeasTol {
				continue
			}
			// The violation check is relative to the constraint's
			// first-order magnitude at this very point; the linearization
			// is needed for both the scale and (if violated) the cut.
			terms, rhs := m.LinearCutAt(k, x)
			if v <= opts.FeasTol*model.CutScale(terms, rhs, x) {
				continue
			}
			key := makeCutKey(k, c.G.Vars(), x, varScale)
			if seen[key] {
				if lazyDebug {
					fmt.Printf("lazy SKIP k=%d x=%v\n", k, x)
				}
				continue
			}
			seen[key] = true
			cuts = append(cuts, milp.LazyCut{Terms: terms, Sense: lp.LE, RHS: rhs, Name: "oa"})
		}
		if lazyDebug {
			fmt.Printf("lazy: x=%v -> %d cuts\n", x, len(cuts))
		}
		return cuts
	}

	sos := make([]milp.SOS1, 0, len(m.SOS()))
	for _, s := range m.SOS() {
		sos = append(sos, milp.SOS1{Vars: s.Vars, Weights: s.Weights})
	}

	mres := milp.SolveContext(ctx, master, m.IntegerVars(), sos, milp.Options{
		MaxNodes:            opts.MaxNodes,
		GapTol:              opts.GapTol,
		TimeLimit:           opts.TimeLimit,
		DisableSOSBranching: opts.DisableSOSBranching,
		DisableWarmStart:    opts.DisableWarmStart,
		DisableSparse:       opts.DisableSparse,
		CutAtFractional:     opts.CutAtFractional,
		Lazy:                lazy,
		DebugLPCheck:        opts.DebugLPCheck,
	})
	res.Nodes = mres.Nodes
	res.LPSolves += mres.LPSolves
	res.OACuts = mres.Cuts
	res.Pivots += mres.Pivots
	res.WarmSolves = mres.WarmSolves
	res.ColdSolves = mres.ColdSolves
	switch mres.Status {
	case milp.Optimal:
		res.Status = Optimal
		res.X = mres.X
		res.Obj = m.EvalObjective(mres.X)
		res.BestBound = res.Obj
	case milp.Infeasible:
		res.Status = Infeasible
		res.BestBound = math.Inf(1)
	case milp.Unbounded:
		res.Status = Unbounded
	default:
		res.Status = Limit
		if mres.X != nil {
			res.X = mres.X
			res.Obj = m.EvalObjective(mres.X)
		}
		// The master tree's bound is valid for the MINLP too (the master
		// is a relaxation); the Kelley relaxation bound may be tighter.
		res.BestBound = mres.BestBound
		if !math.IsNaN(res.RelaxObj) && res.RelaxObj > res.BestBound {
			res.BestBound = res.RelaxObj
		}
	}
	return res
}

// cutKey identifies a linearization by constraint index and quantized point.
type cutKey struct {
	k    int
	hash uint64
}

// quantScales precomputes, per variable, the reciprocal quantization step
// for cut deduplication: 2^40 divided by the power-of-two magnitude of the
// variable's box. Two linearization points collide only when they agree to
// ~1e-12 of the variable's own range — always at least as fine as the
// historical absolute 1e-6 rounding (a coarser key could merge genuinely
// different cuts and let a violated incumbent slip past the lazy check),
// and, being a pure power of two, the quantization maps exactly across
// power-of-two rescalings of the model data.
func quantScales(m *model.Model) []float64 {
	s := make([]float64, m.NumVars())
	for v := range s {
		vi := m.Var(v)
		b := 0.0
		if lo := math.Abs(vi.Lo); !math.IsInf(lo, 1) {
			b = lo
		}
		if hi := math.Abs(vi.Hi); !math.IsInf(hi, 1) && hi > b {
			b = hi
		}
		e := 0
		if b > 1 {
			_, e = math.Frexp(b)
		}
		s[v] = math.Ldexp(1, 40-e)
	}
	return s
}

func makeCutKey(k int, vars []int, x []float64, varScale []float64) cutKey {
	// FNV-style hash over the box-relative quantized coordinates.
	h := uint64(1469598103934665603)
	for _, v := range vars {
		q := int64(math.Round(x[v] * varScale[v]))
		for i := 0; i < 8; i++ {
			h ^= uint64(q >> (8 * i) & 0xff)
			h *= 1099511628211
		}
	}
	return cutKey{k: k, hash: h}
}

// boundedBase returns a representative point of [lo, hi], preferring the
// smallest-magnitude finite bound (numerically safest for cut RHS).
func boundedBase(lo, hi float64) float64 {
	switch {
	case math.IsInf(lo, -1) && math.IsInf(hi, 1):
		return 0
	case math.IsInf(lo, -1):
		return hi
	default:
		return lo
	}
}

// clampMag limits |v| to cap.
func clampMag(v, cap float64) float64 {
	if v > cap {
		return cap
	}
	if v < -cap {
		return -cap
	}
	return v
}

// finiteAt reports whether g and its gradient are finite at x.
func finiteAt(g model.Smooth, x []float64) bool {
	if v := g.Value(x); math.IsNaN(v) || math.IsInf(v, 0) {
		return false
	}
	for _, d := range g.Grad(x) {
		if math.IsNaN(d) || math.IsInf(d, 0) {
			return false
		}
	}
	return true
}

// SetLazyDebug toggles tracing of the lazy OA callback (testing aid).
func SetLazyDebug(on bool) { lazyDebug = on }
