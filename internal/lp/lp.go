// Package lp implements a two-phase primal simplex solver for linear
// programs in general form:
//
//	minimize    cᵀx
//	subject to  aᵢᵀx {≤,=,≥} bᵢ
//	            loⱼ ≤ xⱼ ≤ hiⱼ   (bounds may be infinite)
//
// The solver is exactly what the HSLB optimization stack needs: robust on the
// small/medium problems produced by outer approximation and branch-and-bound,
// scaling to thousands of fragment families, deterministic, and
// dependency-free. It is the stand-in for CLP, which the paper's MINOTAUR
// solver uses for its LP relaxations.
//
// Internally the problem is reduced to standard computational form
// (min cᵀx, Ax = b, x ≥ 0) and solved with an automatic switch to Bland's
// rule to escape degenerate cycling. One engine answers every solve: the
// bounded-variable tableau simplex (simplex.go), cold through its two-phase
// primal with Dantzig pricing, warm (warm.go) through a most-violated-row
// dual simplex over a live tableau that can start from a crash basis
// (crash.go). Its pattern-aware kernels (sparse.go) run by default; their
// dense loops are the correctness authority (Problem.DisableSparse).
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Sense is the relational operator of a constraint row.
type Sense int

// Constraint senses.
const (
	LE Sense = iota // aᵀx ≤ b
	GE              // aᵀx ≥ b
	EQ              // aᵀx = b
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return "?"
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration limit"
	}
	return "unknown"
}

// ErrBadModel reports a structurally invalid problem (e.g. lo > hi).
var ErrBadModel = errors.New("lp: invalid model")

// Inf is a convenience for unbounded variable bounds.
var Inf = math.Inf(1)

// Term is one coefficient of a constraint row.
type Term struct {
	Var  int
	Coef float64
}

// Constraint is one row of the problem.
type Constraint struct {
	Terms []Term
	Sense Sense
	RHS   float64
	Name  string
}

// Problem is a linear program under construction. The zero value is an empty
// minimization problem ready for use.
type Problem struct {
	costs []float64
	lo    []float64
	hi    []float64
	names []string
	rows  []Constraint

	// MaxIter bounds simplex iterations per phase; 0 means automatic
	// (scales with problem size).
	MaxIter int

	// DisableSparse pins every solve of this problem to the dense simplex
	// kernels (full-row pivots, full-column pricing) — the correctness
	// authority the sparse path is validated against. Copied by Clone, so
	// the knob propagates through branch-and-bound node problems.
	DisableSparse bool

	// DisableCrash ignores any crash point set by SetCrashPoint: every
	// solve starts from the standard slack/artificial basis. Ablation knob
	// for the crash-vs-cold property battery. Copied by Clone.
	DisableCrash bool

	// crashPoint, when non-nil, is a caller-supplied primal point in
	// original variable space that solvers may round to a starting vertex
	// (crash basis). It is advisory: solvers verify feasibility before
	// adopting it and silently fall back to the cold start otherwise.
	crashPoint []float64
}

// NewProblem returns an empty problem.
func NewProblem() *Problem { return &Problem{} }

// AddVariable adds a variable with bounds [lo, hi] and objective coefficient
// cost, returning its index. Use -lp.Inf / lp.Inf for free bounds.
func (p *Problem) AddVariable(lo, hi, cost float64, name string) int {
	p.costs = append(p.costs, cost)
	p.lo = append(p.lo, lo)
	p.hi = append(p.hi, hi)
	p.names = append(p.names, name)
	return len(p.costs) - 1
}

// SetCost overwrites the objective coefficient of variable v.
func (p *Problem) SetCost(v int, cost float64) { p.costs[v] = cost }

// Cost returns the objective coefficient of variable v.
func (p *Problem) Cost(v int) float64 { return p.costs[v] }

// SetBounds overwrites the bounds of variable v.
func (p *Problem) SetBounds(v int, lo, hi float64) { p.lo[v], p.hi[v] = lo, hi }

// Bounds returns the bounds of variable v.
func (p *Problem) Bounds(v int) (lo, hi float64) { return p.lo[v], p.hi[v] }

// SetRHS replaces the right-hand side of constraint row i. RHS changes
// leave the dual solution dual-feasible, so Incremental solves absorb them
// warmly (RHS ranging — the budget walk of a parametric family); cold
// solves simply see the new value.
func (p *Problem) SetRHS(i int, rhs float64) { p.rows[i].RHS = rhs }

// RHS returns the right-hand side of constraint row i.
func (p *Problem) RHS(i int) float64 { return p.rows[i].RHS }

// NumVariables returns the number of variables added so far.
func (p *Problem) NumVariables() int { return len(p.costs) }

// NumConstraints returns the number of rows added so far.
func (p *Problem) NumConstraints() int { return len(p.rows) }

// AddConstraint adds the row Σ terms {sense} rhs and returns its index.
func (p *Problem) AddConstraint(terms []Term, sense Sense, rhs float64, name string) int {
	for _, t := range terms {
		if t.Var < 0 || t.Var >= len(p.costs) {
			panic(fmt.Sprintf("lp: constraint references unknown variable %d", t.Var))
		}
	}
	p.rows = append(p.rows, Constraint{Terms: append([]Term(nil), terms...), Sense: sense, RHS: rhs, Name: name})
	return len(p.rows) - 1
}

// SetCrashPoint supplies a primal point in original variable space (one
// entry per variable added so far) as a crash-basis hint: an Incremental
// solve that (re)builds its tableau rounds it to a nearby vertex and starts
// there when the vertex verifies as feasible, skipping phase 1. A one-shot
// Problem.Solve ignores the hint. The hint is advisory — an infeasible or
// malformed point is declined and the solve proceeds cold, never wrong.
// Pass nil to clear. The hint survives Clone, so branch-and-bound node
// problems inherit it.
func (p *Problem) SetCrashPoint(x []float64) {
	if x == nil {
		p.crashPoint = nil
		return
	}
	p.crashPoint = append([]float64(nil), x...)
}

// CrashPoint returns the crash hint set by SetCrashPoint (nil when unset).
func (p *Problem) CrashPoint() []float64 { return p.crashPoint }

// Clone returns a deep copy of the problem.
func (p *Problem) Clone() *Problem {
	c := &Problem{
		costs:         append([]float64(nil), p.costs...),
		lo:            append([]float64(nil), p.lo...),
		hi:            append([]float64(nil), p.hi...),
		names:         append([]string(nil), p.names...),
		rows:          make([]Constraint, len(p.rows)),
		MaxIter:       p.MaxIter,
		DisableSparse: p.DisableSparse,
		DisableCrash:  p.DisableCrash,
		crashPoint:    append([]float64(nil), p.crashPoint...),
	}
	for i, r := range p.rows {
		c.rows[i] = Constraint{Terms: append([]Term(nil), r.Terms...), Sense: r.Sense, RHS: r.RHS, Name: r.Name}
	}
	return c
}

// Solution is the result of a solve.
type Solution struct {
	Status     Status
	X          []float64 // values of the original variables (valid when Optimal)
	Obj        float64   // objective value (valid when Optimal)
	Dual       []float64 // one multiplier per constraint (valid when Optimal)
	Iterations int
	// Pivots counts basis-changing simplex pivots (bound flips excluded).
	// It is the hardware-independent work metric used by the warm-start
	// benchmarks.
	Pivots int
	// Basis is a reusable snapshot of the optimal basis, populated only by
	// Incremental solves (plain Problem.Solve leaves it nil). It can seed a
	// warm dual-simplex reoptimization via Incremental.SolveFrom.
	Basis *Basis
}

// Value evaluates the row's left-hand side at x.
func (c *Constraint) Value(x []float64) float64 {
	s := 0.0
	for _, t := range c.Terms {
		s += t.Coef * x[t.Var]
	}
	return s
}

// Violation returns how far x is from satisfying row c (0 when satisfied).
func (c *Constraint) Violation(x []float64) float64 {
	v := c.Value(x)
	switch c.Sense {
	case LE:
		return math.Max(0, v-c.RHS)
	case GE:
		return math.Max(0, c.RHS-v)
	default:
		return math.Abs(v - c.RHS)
	}
}

// MaxViolation returns the largest constraint or bound violation of x.
func (p *Problem) MaxViolation(x []float64) float64 {
	worst := 0.0
	for i := range p.rows {
		if v := p.rows[i].Violation(x); v > worst {
			worst = v
		}
	}
	for j := range p.lo {
		if v := p.lo[j] - x[j]; v > worst {
			worst = v
		}
		if v := x[j] - p.hi[j]; v > worst {
			worst = v
		}
	}
	return worst
}

// Objective evaluates cᵀx.
func (p *Problem) Objective(x []float64) float64 {
	s := 0.0
	for j, c := range p.costs {
		s += c * x[j]
	}
	return s
}
