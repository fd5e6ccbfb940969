package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/lp"
)

func TestDeadlineGracefulDegradation(t *testing.T) {
	// With a sub-microsecond deadline the solve cannot finish; the graceful
	// contract says: either a feasible bounded allocation, or a typed
	// no-incumbent error carrying a valid bound — never a bare failure.
	p := fourTasks(4096, MinMax)
	a, err := p.SolveMINLP(SolverOptions{Deadline: time.Nanosecond})
	if err != nil {
		var noInc *NoIncumbentError
		if !errors.As(err, &noInc) {
			t.Fatalf("deadline solve failed with untyped error %v", err)
		}
		opt, oerr := p.SolveMINLP(SolverOptions{})
		if oerr != nil {
			t.Fatalf("unlimited solve failed: %v", oerr)
		}
		if noInc.BestBound > opt.Makespan+1e-6 {
			t.Fatalf("no-incumbent bound %v exceeds optimum %v", noInc.BestBound, opt.Makespan)
		}
		return
	}
	if !p.Feasible(a.Nodes) {
		t.Fatalf("bounded allocation is not feasible: %v", a)
	}
	if !a.Bounded {
		// The relaxation may legitimately solve instantly; only a Limit
		// status marks the allocation bounded.
		return
	}
	if a.Gap < 0 {
		t.Fatalf("negative gap %v", a.Gap)
	}
	if a.BestBound > p.ObjectiveValue(a)+1e-6 {
		t.Fatalf("bound %v exceeds the incumbent objective %v", a.BestBound, p.ObjectiveValue(a))
	}
}

func TestDeadlineUnlimitedBitIdentical(t *testing.T) {
	// A generous deadline or node budget must not perturb the result.
	p := fourTasks(128, MinMax)
	plain, err := p.SolveMINLP(SolverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	limited, err := p.SolveMINLP(SolverOptions{Deadline: time.Hour, NodeBudget: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if limited.Bounded {
		t.Fatalf("unpressed limits marked the allocation bounded")
	}
	if plain.Makespan != limited.Makespan || plain.SolverNodes != limited.SolverNodes ||
		plain.LPSolves != limited.LPSolves {
		t.Fatalf("generous limits changed the solve: %+v vs %+v", plain, limited)
	}
	for i := range plain.Nodes {
		if plain.Nodes[i] != limited.Nodes[i] {
			t.Fatalf("allocation diverged at task %d", i)
		}
	}
}

func TestDeadlineNodeBudgetGraceful(t *testing.T) {
	// NodeBudget exhaustion must degrade like Deadline expiry.
	p := fourTasks(4096, MinMax)
	a, err := p.SolveMINLP(SolverOptions{NodeBudget: 1, SkipNLPRelaxation: true})
	if err != nil {
		var noInc *NoIncumbentError
		if !errors.As(err, &noInc) {
			t.Fatalf("budgeted solve failed with untyped error %v", err)
		}
	} else if !p.Feasible(a.Nodes) {
		t.Fatalf("budgeted allocation infeasible: %v", a)
	}
}

func TestCancelMidMINLPSolve(t *testing.T) {
	p := fourTasks(4096, MinMax)
	ctx, cancel := context.WithCancel(context.Background())
	lps := 0
	a, err := p.SolveMINLPContext(ctx, SolverOptions{
		SkipNLPRelaxation: true,
		DebugLPCheck: func(*lp.Problem, *lp.Solution) {
			lps++
			if lps == 2 {
				cancel()
			}
		},
	})
	if err != nil {
		var noInc *NoIncumbentError
		if !errors.As(err, &noInc) {
			t.Fatalf("cancelled solve failed with untyped error %v", err)
		}
		return
	}
	if !p.Feasible(a.Nodes) {
		t.Fatalf("cancelled solve returned infeasible allocation: %v", a)
	}
}

func TestCancelParametricRoutes(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, obj := range []Objective{MinMax, MaxMin, MinSum} {
		p := fourTasks(256, obj)
		if _, err := p.SolveParametricContext(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("objective %v: err = %v, want context.Canceled", obj, err)
		}
		// A live context reproduces the plain solver exactly.
		a, err := p.SolveParametric()
		if err != nil {
			t.Fatalf("objective %v: %v", obj, err)
		}
		b, err := p.SolveParametricContext(context.Background())
		if err != nil {
			t.Fatalf("objective %v: %v", obj, err)
		}
		if a.Makespan != b.Makespan {
			t.Fatalf("objective %v: context solve diverged", obj)
		}
	}
}

func TestRelativeGapDeadlineReporting(t *testing.T) {
	cases := []struct {
		obj, bound, want float64
	}{
		{10, 8, 0.2},
		{10, 10, 0},
		{10, 11, 0},                          // bound past the incumbent clamps to 0
		{0.5, 0.25, 0.25},                    // |obj| < 1 uses the absolute scale
		{10, math.Inf(-1), math.Inf(1)},      // nothing proven
		{math.NaN(), math.NaN(), math.NaN()}, // NaN/NaN clamps to 0 — see below
	}
	for _, c := range cases {
		got := RelativeGap(c.obj, c.bound)
		if math.IsNaN(c.want) {
			if got != 0 {
				t.Fatalf("RelativeGap(NaN, NaN) = %v, want 0", got)
			}
			continue
		}
		if math.Abs(got-c.want) > 1e-12 && got != c.want {
			t.Fatalf("RelativeGap(%v, %v) = %v, want %v", c.obj, c.bound, got, c.want)
		}
	}
}
