package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/core"
	"repro/internal/perfmodel"
)

// relTol is how closely an optimal answer's makespan must match the
// reference optimum.
const relTol = 1e-9

// serverFit is the fit hslbd applies to a sample-bearing task of a request
// that sets no fitSeed.
var serverFit = perfmodel.FitOptions{Seed: 1, Parallelism: -1}

// prepare computes what every answer is checked against. Sample-bearing
// tasks are fitted with the server's options, and each distinct instance's
// reference optimum comes from the exact parametric solver (exact for
// min-max). It is untimed set-up work, done before hslbd starts.
func prepare(pl *plan) error {
	fits := map[uint64]perfmodel.Params{}
	fitInstance := func(inst *instance) ([]uint64, error) {
		var sets []uint64
		for t, ss := range inst.samples {
			if ss == nil {
				continue
			}
			h := hashSamples(ss)
			p, ok := fits[h]
			if !ok {
				res, err := perfmodel.Fit(ss, serverFit)
				if err != nil {
					return nil, fmt.Errorf("fitting %s: %w", inst.names[t], err)
				}
				p = res.Params
				fits[h] = p
			}
			inst.params[t] = p
			sets = append(sets, h)
		}
		return sets, nil
	}
	type famBudget struct {
		fam    *family
		budget int
	}
	refs := map[famBudget]float64{}
	for _, r := range append(append([]*request(nil), pl.warmup...), pl.timed...) {
		var err error
		if r.sampleSets, err = fitInstance(r.inst); err != nil {
			return err
		}
		b := pl.base[r]
		if b == nil {
			if r.ref, err = reference(r.inst, r.inst.budget); err != nil {
				return err
			}
			continue
		}
		key := famBudget{b.fam, b.budget}
		ref, ok := refs[key]
		if !ok {
			if _, err := fitInstance(b.fam.inst); err != nil {
				return err
			}
			if ref, err = reference(b.fam.inst, b.budget); err != nil {
				return err
			}
			refs[key] = ref
		}
		r.ref = math.Ldexp(ref, b.scaleExp)
	}
	return nil
}

// problem is inst as a core.Problem at the given budget.
func problem(inst *instance, budget int) *core.Problem {
	p := &core.Problem{TotalNodes: budget, Objective: core.MinMax}
	p.Tasks = make([]core.Task, len(inst.names))
	for i := range p.Tasks {
		p.Tasks[i] = core.Task{Name: inst.names[i], Perf: inst.params[i], Allowed: inst.allowed[i], MaxNodes: inst.maxNodes[i]}
	}
	return p
}

// reference is the optimum makespan of inst at budget.
func reference(inst *instance, budget int) (float64, error) {
	a, err := problem(inst, budget).SolveParametric()
	if err != nil {
		return 0, fmt.Errorf("reference solve of a %d-task instance: %w", len(inst.names), err)
	}
	return a.Makespan, nil
}

func hashSamples(ss []perfmodel.Sample) uint64 {
	h := fnv.New64a()
	var b [16]byte
	for _, s := range ss {
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(s.Nodes))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(s.Time))
		h.Write(b[:])
	}
	return h.Sum64()
}

// wireResponse is the part of an hslbd solve response the benchmark reads.
type wireResponse struct {
	Solution struct {
		Status     string `json:"status"`
		Allocation []struct {
			Name  string `json:"name"`
			Nodes int    `json:"nodes"`
		} `json:"allocation"`
		Makespan float64 `json:"makespan"`
		Gap      float64 `json:"gap"`
	} `json:"solution"`
	Meta struct {
		SolverNodes int `json:"solverNodes"`
		LPSolves    int `json:"lpSolves"`
		OACuts      int `json:"oaCuts"`
		Pivots      int `json:"pivots"`
	} `json:"meta"`
}

// checkAnswer verifies a 200 answer against the request as sent: the
// allocation is in request order and feasible (every count admissible and
// within its task's cap, the sum within budget), the reported makespan is the allocation's, and that
// makespan equals the reference optimum (optimal) or is not below it
// (bounded). Predicted times are recomputed from the server's coefficients.
func checkAnswer(r *request, resp *wireResponse) error {
	inst, sol := r.inst, &resp.Solution
	if len(sol.Allocation) != len(inst.names) {
		return fmt.Errorf("allocation has %d tasks, request has %d", len(sol.Allocation), len(inst.names))
	}
	used, makespan := 0, 0.0
	for i, a := range sol.Allocation {
		if a.Name != inst.names[i] {
			return fmt.Errorf("allocation[%d] is %q, request task is %q", i, a.Name, inst.names[i])
		}
		if a.Nodes < 1 || a.Nodes > inst.budget || !admissible(inst.allowed[i], a.Nodes) ||
			(inst.maxNodes[i] > 0 && a.Nodes > inst.maxNodes[i]) {
			return fmt.Errorf("task %s: %d nodes is not admissible", a.Name, a.Nodes)
		}
		used += a.Nodes
		p := inst.params[i]
		n := float64(a.Nodes)
		makespan = math.Max(makespan, p.A/n+p.B*math.Pow(n, p.C)+p.D)
	}
	if used > inst.budget {
		return fmt.Errorf("allocation uses %d nodes, budget is %d", used, inst.budget)
	}
	if !near(sol.Makespan, makespan) {
		return fmt.Errorf("reported makespan %.17g, allocation gives %.17g", sol.Makespan, makespan)
	}
	switch sol.Status {
	case "optimal":
		if !near(makespan, r.ref) {
			return fmt.Errorf("optimal makespan %.17g, reference optimum %.17g", makespan, r.ref)
		}
	case "bounded":
		if makespan < r.ref*(1-relTol) {
			return fmt.Errorf("bounded makespan %.17g is below the optimum %.17g", makespan, r.ref)
		}
	default:
		return fmt.Errorf("unknown status %q", sol.Status)
	}
	return nil
}

func admissible(allowed []int, n int) bool {
	if allowed == nil {
		return true
	}
	for _, v := range allowed {
		if v == n {
			return true
		}
	}
	return false
}

func near(a, b float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
}
