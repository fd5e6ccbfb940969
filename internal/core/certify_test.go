package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/perfmodel"
	"repro/internal/stats"
)

// randomCertProblem draws a min-max instance for the certificate battery:
// integer ranges and sparse allowed sets, MinNodes floors, MaxNodes caps,
// exponents c from 0 to 2.5 (so non-convex models too), and a power-of-two
// rescale of the time unit. It returns nil when the draw fails Validate.
func randomCertProblem(rng *stats.RNG, maxTasks, maxNodes int) *Problem {
	k := 1 + rng.Intn(maxTasks)
	n := k + rng.Intn(maxNodes-k+1)
	e := rng.Intn(13) - 6
	p := &Problem{TotalNodes: n, Objective: MinMax}
	for i := 0; i < k; i++ {
		pf := perfmodel.Params{A: rng.Range(1, 1000), C: rng.Range(0, 2.5), D: rng.Range(0, 5)}
		switch rng.Intn(4) {
		case 1:
			pf.B = rng.Range(0, 0.05)
		case 2, 3:
			pf.B = rng.Range(0.5, 20)
		}
		switch rng.Intn(8) {
		case 0:
			pf.C = 0
		case 1:
			pf.C = 1
		}
		if rng.Intn(6) == 0 {
			pf.D = 0
		}
		pf.A, pf.B, pf.D = math.Ldexp(pf.A, e), math.Ldexp(pf.B, e), math.Ldexp(pf.D, e)
		t := Task{Name: fmt.Sprintf("t%d", i), Perf: pf}
		if rng.Intn(3) == 0 {
			t.MinNodes = 1 + rng.Intn(3)
		}
		if rng.Intn(4) == 0 {
			t.MaxNodes = 1 + rng.Intn(n)
		}
		if rng.Intn(3) == 0 {
			for v := 1 + rng.Intn(3); v <= n; v += 1 + rng.Intn(6) {
				t.Allowed = append(t.Allowed, v)
			}
		}
		p.Tasks = append(p.Tasks, t)
	}
	if p.Validate() != nil {
		return nil
	}
	return p
}

// certifiedParametric is the served route's answer: the parametric optimum
// in canonical form and whether its certificate holds.
func certifiedParametric(t testing.TB, p *Problem) (*Allocation, bool) {
	t.Helper()
	a, err := p.SolveParametric()
	if err != nil {
		t.Fatalf("parametric: %v", err)
	}
	a = p.CanonicalAllocation(a)
	return a, p.CertifyMinMax(a)
}

// assertSoundCertificate fails when a certified allocation does not have
// the DP optimum's makespan, bit for bit.
func assertSoundCertificate(t testing.TB, tag string, p *Problem, a *Allocation, dp *Allocation) {
	t.Helper()
	if p.CertifyMinMax(a) && a.Makespan != dp.Makespan {
		t.Fatalf("%s: false certificate: makespan %v certified optimal, DP optimum %v\nnodes %v vs DP %v\nproblem %+v",
			tag, a.Makespan, dp.Makespan, a.Nodes, dp.Nodes, p)
	}
}

// TestCertifyMinMaxVsDP is the certificate's soundness battery: on 1,000
// random instances every certified allocation has the DP oracle's
// makespan, at least 99% of the canonical parametric answers certify, and
// the negative controls never do.
func TestCertifyMinMaxVsDP(t *testing.T) {
	rng := stats.NewRNG(20260117)
	drawn, certified, stepped := 0, 0, 0
	for drawn < 1000 {
		p := randomCertProblem(rng, 6, 80)
		if p == nil {
			continue
		}
		a, ok := certifiedParametric(t, p)
		dp, err := p.SolveDP()
		if err != nil {
			// The tasks' smallest counts overrun the budget.
			if ok {
				t.Fatalf("certified %v on an instance with no feasible allocation", a.Nodes)
			}
			continue
		}
		drawn++
		tag := fmt.Sprintf("instance %d", drawn)
		assertSoundCertificate(t, tag, p, a, dp)
		for _, b := range []*Allocation{Uniform(p), Proportional(p), ManualMimic(p, 4)} {
			assertSoundCertificate(t, tag+" baseline", p, b, dp)
		}
		if !ok {
			continue
		}
		certified++

		// One admissible step off the critical task raises the makespan.
		crit := argMaxF(a.Times)
		if d, okD := p.Tasks[crit].nextDown(a.Nodes[crit], p.TotalNodes); okD {
			nodes := append([]int(nil), a.Nodes...)
			nodes[crit] = d
			if p.CertifyMinMax(p.Evaluate(nodes)) {
				t.Fatalf("%s: certified after a step off the critical task: %v", tag, nodes)
			}
			stepped++
		}
		// Other objectives and the equality budget are outside the proof.
		for _, q := range []Problem{
			{Tasks: p.Tasks, TotalNodes: p.TotalNodes, Objective: MinSum},
			{Tasks: p.Tasks, TotalNodes: p.TotalNodes, Objective: MaxMin},
			{Tasks: p.Tasks, TotalNodes: p.TotalNodes, Objective: MinMax, UseAllNodes: true},
		} {
			if q.CertifyMinMax(a) {
				t.Fatalf("%s: certified under objective %v, useAllNodes %v", tag, q.Objective, q.UseAllNodes)
			}
		}
		// A Makespan field that does not match the node vector.
		for _, m := range []float64{math.Nextafter(a.Makespan, math.Inf(1)), math.Nextafter(a.Makespan, 0), a.Makespan / 2, math.NaN()} {
			forged := *a
			forged.Makespan = m
			if p.CertifyMinMax(&forged) {
				t.Fatalf("%s: certified a tampered makespan %v (true %v)", tag, m, a.Makespan)
			}
		}
	}
	t.Logf("certificate battery: %d of %d instances certified, %d critical-step controls", certified, drawn, stepped)
	if certified*100 < drawn*99 {
		t.Fatalf("only %d of %d instances certified, want at least 99%%", certified, drawn)
	}
	if stepped == 0 {
		t.Fatal("no critical-step control ran")
	}
}

// TestMINLPRefusesNonConvex: the MINLP names the first non-convex task
// instead of answering from outer approximation it cannot trust.
func TestMINLPRefusesNonConvex(t *testing.T) {
	p := fourTasks(48, MinMax)
	p.Tasks[2].Perf = perfmodel.Params{A: 900, B: 6, C: 0.5, D: 1}
	p.Tasks[3].Perf = perfmodel.Params{A: 400, B: 3, C: 0.3, D: 0}
	_, err := p.SolveMINLP(SolverOptions{})
	var nc *NonConvexError
	if !errors.As(err, &nc) || nc.Task != "atm" {
		t.Fatalf("SolveMINLP error %v, want a NonConvexError naming atm", err)
	}
	if err := fourTasks(48, MinMax).CheckConvex(); err != nil {
		t.Fatalf("convex problem refused: %v", err)
	}
}

// FuzzCertifyMinMax: on small instances, whatever allocation is offered —
// the canonical parametric answer or a random feasible one — a certified
// allocation has the DP oracle's makespan.
func FuzzCertifyMinMax(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(40))
	f.Add(uint64(20260117), uint8(6), uint8(64))
	f.Add(uint64(7), uint8(1), uint8(8))
	f.Fuzz(func(t *testing.T, seed uint64, maxTasks, maxNodes uint8) {
		k := 1 + int(maxTasks)%6
		n := k + int(maxNodes)%(65-k)
		rng := stats.NewRNG(seed)
		p := randomCertProblem(rng, k, n)
		if p == nil {
			return
		}
		a, ok := certifiedParametric(t, p)
		dp, err := p.SolveDP()
		if err != nil {
			if ok {
				t.Fatalf("certified %v on an instance with no feasible allocation", a.Nodes)
			}
			return
		}
		assertSoundCertificate(t, "parametric", p, a, dp)
		nodes := make([]int, len(p.Tasks))
		for i := range p.Tasks {
			c := p.Tasks[i].candidates(p.TotalNodes)
			nodes[i] = c[rng.Intn(len(c))]
		}
		if p.Feasible(nodes) {
			assertSoundCertificate(t, "random", p, p.Evaluate(nodes), dp)
		}
	})
}
