package lp

import (
	"fmt"
	"math"
	"testing"
)

// TestPhase1DebugHook is a scratch test used while chasing the wrong
// "infeasible" on OA-master child LPs; it stays as a regression guard with
// the hook disabled.
func TestPhase1HookPlumbing(t *testing.T) {
	called := false
	debugPhase1 = func(tab *tableau, std *standard, artStart int) {
		called = true
		pos := 0
		for i, bc := range tab.basis {
			if bc >= artStart && tab.b[i] > 1e-9 {
				pos++
				if pos <= 5 {
					fmt.Printf("  artificial in row %d value %g\n", i, tab.b[i])
				}
			}
		}
		fmt.Printf("phase1 infeasible: obj=%g, %d positive artificials, iters=%d\n",
			tab.obj, pos, tab.iters)
		// Dump reduced costs of nonbasic columns that LOOK ineligible.
		worstLo, worstUp := 0.0, 0.0
		for j := range tab.d {
			if tab.inBase[j] || tab.banned[j] {
				continue
			}
			if tab.status[j] == atLower && tab.d[j] < worstLo {
				worstLo = tab.d[j]
			}
			if tab.status[j] == atUpper && tab.d[j] > worstUp {
				worstUp = tab.d[j]
			}
		}
		fmt.Printf("  worst eligible-looking d: atLower %g, atUpper %g\n", worstLo, worstUp)
		// Recompute obj from scratch as a consistency check.
		recomputed := 0.0
		for i, bc := range tab.basis {
			if bc >= artStart {
				recomputed += tab.b[i]
			}
		}
		fmt.Printf("  Σ artificial b = %g (tracked obj %g)\n", recomputed, tab.obj)
		_ = math.Inf(1)
	}
	defer func() { debugPhase1 = nil }()
	// A genuinely infeasible problem triggers the hook: the pattern
	// kernels' Infeasible verdict is confirmed by the dense authority,
	// whose phase 1 fires it.
	p := NewProblem()
	x := p.AddVariable(0, 1, 1, "x")
	p.AddConstraint([]Term{{x, 1}}, GE, 5, "")
	sol, _ := p.Solve()
	if sol.Status != Infeasible || !called {
		t.Fatalf("hook not exercised: %v %v", sol.Status, called)
	}
}
