// Package hslb is the public API of this repository: a from-scratch Go
// implementation of the Heuristic Static Load-Balancing (HSLB) algorithm of
// Alexeev, Mahajan, Leyffer, Fletcher and Fedorov ("Heuristic static
// load-balancing algorithm applied to the fragment molecular orbital
// method", SC 2012), together with every substrate the evaluation needs:
// an FMO application simulator, a Blue Gene/P-like machine model, a GDDI
// group-execution simulator, dynamic-load-balancing baselines, and a full
// MINLP optimization stack (LP simplex, convex NLP, MILP branch-and-bound
// with SOS1 branching, and LP/NLP-based outer approximation).
//
// # The algorithm
//
// HSLB replaces manual tuning of static node allocations with four steps:
//
//  1. Gather  — benchmark every task at a handful of node counts;
//  2. Fit     — least-squares fit the performance model
//     T(n) = a/n + b·nᶜ + d per task;
//  3. Solve   — find the allocation minimizing the maximum task time by
//     solving a mixed-integer nonlinear program with branch-and-bound
//     (globally optimal, since the fitted functions are convex);
//  4. Execute — run with the optimal allocation.
//
// RunPipeline drives all four steps; the sub-steps are available
// individually through the re-exported types below.
//
// # Package map
//
//   - core — allocation problems, solver routes, baselines (the paper's
//     contribution);
//   - perfmodel — the performance model and its fitting;
//   - fmo, machine, gddi, dlb — the application and machine substrates;
//   - coupled — the coupled-component layout extension;
//   - lp, nlp, milp, minlp, model — the optimization stack.
package hslb

import (
	"context"
	"errors"
	"math"

	"repro/internal/core"
	"repro/internal/perfmodel"
)

// Re-exported core types: these form the public surface of the library.
type (
	// Task is one load-balancing unit with its performance model.
	Task = core.Task
	// Problem is an allocation instance (tasks, budget, objective).
	Problem = core.Problem
	// Allocation is a solved or heuristic node assignment.
	Allocation = core.Allocation
	// Objective selects min-max (default), max-min, or min-sum.
	Objective = core.Objective
	// SolverOptions tunes the MINLP route, including the graceful
	// Deadline and NodeBudget limits.
	SolverOptions = core.SolverOptions
	// NoIncumbentError reports a limited solve that found no feasible
	// point; Solve reacts by falling back to the parametric route.
	NoIncumbentError = core.NoIncumbentError
	// Params are the performance-model coefficients a, b, c, d.
	Params = perfmodel.Params
	// Sample is one benchmark observation (nodes, seconds).
	Sample = perfmodel.Sample
	// FitResult is a fitted performance function with R² diagnostics.
	FitResult = perfmodel.FitResult
	// FitOptions tunes the least-squares fit.
	FitOptions = perfmodel.FitOptions
)

// Objectives.
const (
	MinMax = core.MinMax
	MaxMin = core.MaxMin
	MinSum = core.MinSum
)

// ParseObjective maps the canonical objective names ("min-max", "max-min",
// "min-sum") onto the Objective constants; the CLI flags and the hslbd HTTP
// service share this parser.
var ParseObjective = core.ParseObjective

// Fit estimates performance-model coefficients from benchmark samples
// (HSLB step 2).
func Fit(samples []Sample, opts FitOptions) (*FitResult, error) {
	return perfmodel.Fit(samples, opts)
}

// SuggestSampleNodes returns benchmark node counts per the paper's
// guidance: minimum, maximum, and geometric intermediates.
func SuggestSampleNodes(minNodes, maxNodes, count int) []int {
	return perfmodel.SuggestSampleNodes(minNodes, maxNodes, count)
}

// Solve runs HSLB step 3 on an assembled problem using the paper's MINLP
// route, falling back to the specialized parametric solver when the MINLP
// route does not support the objective (max-min) or a task's performance
// model is not convex.
func Solve(p *Problem, opts SolverOptions) (*Allocation, error) {
	return SolveContext(context.Background(), p, opts)
}

// SolveContext is Solve with cooperative cancellation and graceful limits:
// when opts.Deadline or opts.NodeBudget stops the branch-and-bound early
// (or ctx is cancelled mid-solve), the best incumbent is returned with
// Allocation.Bounded set and the optimality gap reported; if no incumbent
// exists yet, the specialized parametric solver supplies a feasible
// allocation instead, carrying the MINLP's proven bound. SolveContext
// always returns a feasible allocation or an error explaining why none
// exists — never an unexplained limit error.
//
// A problem with a non-convex task model (*core.NonConvexError) is solved
// by the parametric route too. Its min-max answer is proven optimal only
// when Problem.CertifyMinMax holds; otherwise, and always for min-sum, it
// comes back Bounded with no proven bound and an infinite gap.
func SolveContext(ctx context.Context, p *Problem, opts SolverOptions) (*Allocation, error) {
	a, err := p.SolveMINLPContext(ctx, opts)
	var nonConvex *core.NonConvexError
	if err == core.ErrObjectiveUnsupported || errors.As(err, &nonConvex) {
		a, perr := p.SolveParametricContext(ctx)
		if perr != nil {
			return nil, perr
		}
		// The canonical form has the same makespan, so its certificate
		// proves a optimal too.
		c := p.CanonicalAllocation(a)
		if opts.Canonical {
			a = c
		}
		if nonConvex != nil && !p.CertifyMinMax(c) {
			a.Bounded = true
			a.BestBound = math.Inf(-1)
			a.Gap = math.Inf(1)
		}
		return a, nil
	}
	var noInc *core.NoIncumbentError
	if errors.As(err, &noInc) {
		// The limited B&B proved nothing feasible yet. The parametric
		// route is fast and bounded, so run it even under a cancelled
		// ctx (detached) to honour the feasible-allocation guarantee.
		a, perr := p.SolveParametric()
		if perr != nil {
			return nil, perr
		}
		a.Bounded = true
		a.BestBound = noInc.BestBound
		a.Gap = core.RelativeGap(p.ObjectiveValue(a), noInc.BestBound)
		if opts.Canonical {
			a = p.CanonicalAllocation(a)
		}
		return a, nil
	}
	return a, err
}

// SolveParametric runs the specialized exact solver (bisection on the
// objective level), which supports all three objectives and is much faster
// at very large node counts.
func SolveParametric(p *Problem) (*Allocation, error) {
	return p.SolveParametric()
}

// Baselines for comparison tables.
var (
	// Uniform is the GDDI-default equal-groups baseline.
	Uniform = core.Uniform
	// Proportional allocates proportionally to scalable work.
	Proportional = core.Proportional
	// ManualMimic imitates the paper's human-expert tuning loop.
	ManualMimic = core.ManualMimic
)

// JobSizePoint is one point of a machine-size sweep (see SweepJobSize).
type JobSizePoint = core.JobSizePoint

// SweepJobSize, FastestSize, and CostEfficientSize implement the paper's
// "prediction of the optimal number of nodes to run a job": sweep candidate
// machine sizes, then pick either the shortest time to solution or the
// largest size that keeps parallel efficiency above a floor.
var (
	SweepJobSize      = core.SweepJobSize
	FastestSize       = core.FastestSize
	CostEfficientSize = core.CostEfficientSize
	// SweepJobSizeContext is SweepJobSize with cancellation.
	SweepJobSizeContext = core.SweepJobSizeContext
	// SweepJobSizeTable answers the sweep from one parametric breakpoint
	// table instead of one solve per candidate size, and returns the table.
	SweepJobSizeTable = core.SweepJobSizeTable
)

// ParametricTable is the piecewise-constant allocation table of an
// N-parameterized instance family: the full answer to "how would the
// optimal allocation change with the node budget", computed with a handful
// of solves by walking breakpoints instead of re-solving every budget. See
// BuildParametricTable.
type ParametricTable = core.ParametricTable

// TableSegment is one budget bracket of a ParametricTable on which the
// optimal allocation is constant.
type TableSegment = core.TableSegment

// TableOptions configures BuildParametricTable.
type TableOptions = core.TableOptions

// BuildParametricTable computes the allocation table of base over the
// budget range [fromN, toN], verifying every segment boundary against a
// fresh solve.
func BuildParametricTable(ctx context.Context, base *Problem, fromN, toN int, opts TableOptions) (*ParametricTable, error) {
	return core.BuildParametricTable(ctx, base, fromN, toN, opts)
}
