package serve

import (
	"math"
	"math/rand"
	"testing"

	hslb "repro"
	"repro/internal/core"
)

// scaleProblemBy multiplies every time-dimensioned coefficient by an
// arbitrary positive factor (the inexact cousin of scaleProblem's exact
// power-of-two rescale).
func scaleProblemBy(p *core.Problem, f float64) *core.Problem {
	tasks := make([]core.Task, len(p.Tasks))
	copy(tasks, p.Tasks)
	for i := range tasks {
		tasks[i].Perf.A *= f
		tasks[i].Perf.B *= f
		tasks[i].Perf.D *= f
	}
	return &core.Problem{Tasks: tasks, TotalNodes: p.TotalNodes,
		Objective: p.Objective, UseAllNodes: p.UseAllNodes}
}

// equivConfigs rotates the battery across every solver path: the default
// (warm, pattern kernels), the dense tableau, cold starts, the pure LP
// start (no Kelley relaxation), and cold starts on the dense tableau.
var equivConfigs = []struct {
	name string
	opts hslb.SolverOptions
}{
	{"default", hslb.SolverOptions{}},
	{"dense", hslb.SolverOptions{DisableSparse: true}},
	{"cold", hslb.SolverOptions{DisableWarmStart: true}},
	{"skipnlp", hslb.SolverOptions{SkipNLPRelaxation: true}},
	{"cold-dense", hslb.SolverOptions{DisableWarmStart: true, DisableSparse: true}},
}

// assertExactlyScaled asserts that the allocation of the 2^e-rescaled
// problem is the base allocation with every time shifted by exactly e
// binary orders of magnitude — bit-for-bit, not approximately.
func assertExactlyScaled(t *testing.T, tag string, base, scaled *core.Allocation, e int) {
	t.Helper()
	for i := range base.Nodes {
		if scaled.Nodes[i] != base.Nodes[i] {
			t.Fatalf("%s: nodes diverge under 2^%d rescale: %v vs %v", tag, e, scaled.Nodes, base.Nodes)
		}
		if scaled.Times[i] != math.Ldexp(base.Times[i], e) {
			t.Fatalf("%s: task %d time %v is not exactly 2^%d × %v", tag, i, scaled.Times[i], e, base.Times[i])
		}
	}
	if scaled.Makespan != math.Ldexp(base.Makespan, e) ||
		scaled.MinTime != math.Ldexp(base.MinTime, e) ||
		scaled.SumTime != math.Ldexp(base.SumTime, e) {
		t.Fatalf("%s: summary stats are not exactly 2^%d-shifted: %+v vs %+v", tag, e, scaled, base)
	}
	if scaled.Imbalance != base.Imbalance || scaled.Used != base.Used {
		t.Fatalf("%s: dimensionless stats moved under rescale: %+v vs %+v", tag, scaled, base)
	}
	if scaled.SolverNodes != base.SolverNodes || scaled.LPSolves != base.LPSolves ||
		scaled.OACuts != base.OACuts || scaled.Pivots != base.Pivots {
		t.Fatalf("%s: solver effort not bit-identical under 2^%d rescale (search diverged): %+v vs %+v",
			tag, e, scaled, base)
	}
}

// TestScaleEquivariance is the tentpole property battery: ~1000 random
// instances (full mode; short mode runs a slice under the race job), each
// solved at its native scale, at a random exact power-of-two rescale, and
// at a random arbitrary positive rescale, rotating through every solver
// path (dense, sparse, warm, cold, with and without the Kelley start).
//
// Exact power-of-two rescaling must leave the entire solve bit-identical:
// same node vector, same solver-effort counters, and every reported time
// shifted by exactly the scale exponent. Arbitrary positive rescaling
// cannot promise bit-identical searches (the normalized coefficients round
// differently), but the optimal allocation itself must still agree.
func TestScaleEquivariance(t *testing.T) {
	trials := 334 // ×3 solves per trial ≈ 1000 instances
	if testing.Short() {
		trials = 25
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < trials; trial++ {
		p := randomCanonProblem(rng)
		if trial%3 == 1 {
			p.Objective = core.MinSum
		}
		if trial%4 == 2 {
			p.UseAllNodes = true
		}
		cfg := equivConfigs[trial%len(equivConfigs)]
		opts := cfg.opts
		opts.Canonical = true // pin the tie-break among alternate optima

		e := rng.Intn(13) - 6
		if e == 0 {
			e = 4
		}
		f := math.Exp(rng.Float64()*8 - 4) // factor in ≈ [0.018, 55]

		base, baseErr := hslb.Solve(p, opts)
		scaled, scaledErr := hslb.Solve(scaleProblem(p, e), opts)
		if baseErr != nil {
			// UseAllNodes plus sparse allowed sets can make an instance
			// genuinely infeasible (no admissible counts sum to the exact
			// budget). The verdict itself must be scale-equivariant.
			if scaledErr == nil {
				t.Fatalf("trial %d (%s): base failed (%v) but 2^%d rescale solved", trial, cfg.name, baseErr, e)
			}
			if _, arbErr := hslb.Solve(scaleProblemBy(p, f), opts); arbErr == nil {
				t.Fatalf("trial %d (%s): base failed (%v) but %g× rescale solved", trial, cfg.name, baseErr, f)
			}
			continue
		}
		if scaledErr != nil {
			t.Fatalf("trial %d (%s): 2^%d-scaled solve: %v", trial, cfg.name, e, scaledErr)
		}
		assertExactlyScaled(t, cfg.name, base, scaled, e)

		arb, err := hslb.Solve(scaleProblemBy(p, f), opts)
		if err != nil {
			t.Fatalf("trial %d (%s): %g×-scaled solve: %v", trial, cfg.name, f, err)
		}
		if p.Objective == core.MinMax && !p.UseAllNodes {
			// The canonical polish pins a unique optimum for this family,
			// so even an inexact rescale must land on the same allocation.
			for i := range base.Nodes {
				if arb.Nodes[i] != base.Nodes[i] {
					t.Fatalf("trial %d (%s): allocation moved under %g× rescale: %v vs %v",
						trial, cfg.name, f, arb.Nodes, base.Nodes)
				}
			}
		}
		// For every family (including the ones with unpinned alternate
		// optima) the optimal objective itself must scale with f up to
		// rounding of the rescaled coefficients.
		obj, aobj := p.ObjectiveValue(base), p.ObjectiveValue(arb)
		if math.Abs(aobj-f*obj) > 1e-9*math.Abs(f*obj) {
			t.Fatalf("trial %d (%s): optimum moved under %g× rescale: %v vs %v×%v",
				trial, cfg.name, f, aobj, f, obj)
		}
	}
}

// FuzzScaleEquivariance feeds the power-of-two half of the property to the
// fuzzer: arbitrary instance seeds, scale exponents, and solver-path
// selectors, asserting the bit-identical-solve contract every time.
func FuzzScaleEquivariance(f *testing.F) {
	f.Add(uint64(1), int8(3), uint8(0))
	f.Add(uint64(20120501), int8(-6), uint8(1))
	f.Add(uint64(95), int8(6), uint8(2))
	f.Add(uint64(7), int8(1), uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, eRaw int8, cfgRaw uint8) {
		e := int(eRaw) % 7
		if e == 0 {
			e = 5
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		p := randomCanonProblem(rng)
		if seed%3 == 1 {
			p.Objective = core.MinSum
		}
		cfg := equivConfigs[int(cfgRaw)%len(equivConfigs)]
		opts := cfg.opts
		opts.Canonical = true
		base, err := hslb.Solve(p, opts)
		scaled, errS := hslb.Solve(scaleProblem(p, e), opts)
		if (err == nil) != (errS == nil) {
			t.Fatalf("error parity broken under 2^%d rescale: %v vs %v", e, err, errS)
		}
		if err != nil {
			return // both failed identically; nothing to compare
		}
		assertExactlyScaled(t, cfg.name, base, scaled, e)
	})
}

// TestWarmSparseFalseInfeasibleRegression replays the recorded hslbd defect
// (differential sweep seed 20120501, trial 95: a 7-task, 37-node MinMax
// instance): the warm-capable sparse cold build of the OA master amplified
// its phase-1 tableau to ~1e30 and declared the feasible master infeasible,
// surfacing as a 500 from the solve service. With the relative-tolerance
// overhaul (core time normalization + dense confirmation of sparse
// infeasible verdicts) the instance must solve on the default path, agree
// bitwise with every ablation that historically dodged the bug, and stay
// exactly equivariant under the sweep's 2^3 rescale.
func TestWarmSparseFalseInfeasibleRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(20120501))
	const target = 95
	var unscaled, permuted, scaled *core.Problem
	for trial := 0; trial <= target; trial++ {
		p := randomCanonProblem(rng)
		switch trial % 5 {
		case 3:
			p.Objective = core.MinSum
		case 4:
			p.Objective = core.MaxMin
		}
		perm, _ := permuteProblem(rng, p)
		e := rng.Intn(13) - 6
		if e == 0 {
			e = 3
		}
		s := scaleProblem(perm, e)
		if trial == target {
			unscaled, permuted, scaled = p, perm, s
		}
	}
	if len(unscaled.Tasks) != 7 || unscaled.TotalNodes != 37 || unscaled.Objective != core.MinMax {
		t.Fatalf("RNG replay drifted: got %d tasks, %d nodes, objective %v",
			len(unscaled.Tasks), unscaled.TotalNodes, unscaled.Objective)
	}

	// The defect fired on the default path (warm-capable sparse master).
	ref, err := hslb.Solve(unscaled, hslb.SolverOptions{})
	if err != nil {
		t.Fatalf("default path still fails on the recorded instance: %v", err)
	}
	if math.Abs(ref.Makespan-6287.485823) > 0.01 {
		t.Fatalf("makespan %v, want ≈ 6287.485823", ref.Makespan)
	}

	// Every ablation that historically dodged the bug must now agree
	// bitwise with the default path.
	for _, cfg := range []struct {
		name string
		opts hslb.SolverOptions
	}{
		{"skipNLP", hslb.SolverOptions{SkipNLPRelaxation: true}},
		{"noWarm", hslb.SolverOptions{DisableWarmStart: true}},
		{"noSparse", hslb.SolverOptions{DisableSparse: true}},
	} {
		a, err := hslb.Solve(unscaled, cfg.opts)
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		if a.Makespan != ref.Makespan {
			t.Fatalf("%s: makespan %v != default %v", cfg.name, a.Makespan, ref.Makespan)
		}
		for i := range a.Nodes {
			if a.Nodes[i] != ref.Nodes[i] {
				t.Fatalf("%s: nodes %v != default %v", cfg.name, a.Nodes, ref.Nodes)
			}
		}
	}

	// The sweep's permuted and 2^3-rescaled variants of the same trial.
	pRef, err := hslb.Solve(permuted, hslb.SolverOptions{})
	if err != nil {
		t.Fatalf("permuted: %v", err)
	}
	if pRef.Makespan != ref.Makespan {
		t.Fatalf("permuted makespan %v != %v", pRef.Makespan, ref.Makespan)
	}
	sRef, err := hslb.Solve(scaled, hslb.SolverOptions{})
	if err != nil {
		t.Fatalf("scaled: %v", err)
	}
	assertExactlyScaled(t, "trial95", pRef, sRef, 3)
}
