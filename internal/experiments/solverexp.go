package experiments

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/minlp"
	"repro/internal/perfmodel"
	"repro/internal/stats"
)

// T4Solver reproduces the solver-performance claims (C4): the MINLP solves
// in seconds even at the paper's scales, and branching on the allocation
// special ordered sets instead of their binaries cuts the search
// dramatically (the paper: "improved the runtime of the MINLP solver by two
// orders of magnitude"). Each set size is a population of instances, both
// arms solved with warm-started node LPs like every served route; a row
// reports the min / median / max of the binary-to-SOS ratios.
func T4Solver(scale Scale) (*Table, error) {
	pop, err := t4Population(scale)
	if err != nil {
		return nil, err
	}
	return t4Table(pop), nil
}

// t4Table renders T4's population, one row per set size.
func t4Table(pop []t4Set) *Table {
	tbl := &Table{
		ID:    "T4",
		Title: "MINLP solver: SOS1 branching vs binary branching (allocation problems with sweet-spot sets)",
		Header: []string{"set size", "instances", "nodes(SOS) med", "ms(SOS) max",
			"node ratio min/med/max", "LP ratio min/med/max", "time ratio min/med/max", "bin truncated"},
	}
	for _, set := range pop {
		var sosNodes, sosMs, nodeR, lpR, timeR []float64
		var cut []bool
		truncated := 0
		for _, r := range set.Runs {
			sosNodes = append(sosNodes, float64(r.SOSNodes))
			sosMs = append(sosMs, r.SOSMs)
			nodeR = append(nodeR, float64(r.BinNodes)/float64(r.SOSNodes))
			lpR = append(lpR, float64(r.BinLPs)/float64(r.SOSLPs))
			timeR = append(timeR, r.BinMs/r.SOSMs)
			cut = append(cut, r.BinTruncated)
			if r.BinTruncated {
				truncated++
			}
		}
		tbl.AddRow(set.SetSize, len(set.Runs), stats.Quantile(sosNodes, 0.5), stats.Max(sosMs),
			ratioSpread(nodeR, cut), ratioSpread(lpR, cut), ratioSpread(timeR, cut),
			fmt.Sprintf("%d/%d", truncated, len(set.Runs)))
	}
	tbl.Note("binary runs that hit the time budget count as lower bounds; '≥' marks a statistic such a run could still raise")
	tbl.Note("paper: SOS branching ~100x faster; 'the MINLP for 40960 nodes took less than 60 seconds'")
	return tbl
}

// t4Run is one T4 instance: the SOS-branching solve and the binary-branching
// ablation of the same model. BinTruncated marks a binary run that stopped
// before proving optimality, whose counts and time are lower bounds.
type t4Run struct {
	SOSNodes, SOSLPs, BinNodes, BinLPs int
	SOSMs, BinMs                       float64
	BinTruncated                       bool
}

// t4Set is the population of T4 instances at one set size.
type t4Set struct {
	SetSize int
	Runs    []t4Run
}

// t4Population solves T4's instances, drawn in order from one stream seeded
// 44 (set size by set size), each with SOS branching and with binary
// branching under a wall-clock budget. Timed solves run serially (see
// SetParallelism).
func t4Population(scale Scale) ([]t4Set, error) {
	setSizes := []int{20, 60}
	total := 2048
	const instances = 10
	// The binary-branching ablation explodes combinatorially on large
	// sets (that is the point); give it a wall-clock budget so the table
	// always finishes, and report expired runs as lower bounds.
	binBudget := 5 * time.Second
	if scale == Full {
		setSizes = []int{20, 60, 200, 800}
		total = 32768
		binBudget = 60 * time.Second
	}
	rng := stats.NewRNG(44)
	var pop []t4Set
	for _, sz := range setSizes {
		set := t4Set{SetSize: sz}
		for i := 0; i < instances; i++ {
			if err := Context().Err(); err != nil {
				return nil, err
			}
			p := solverInstance(rng, sz, total)
			runOne := func(o minlp.Options) (*minlp.Result, float64, error) {
				m, _, err := p.BuildModel()
				if err != nil {
					return nil, 0, err
				}
				start := time.Now()
				res := minlp.Solve(m, o)
				return res, float64(time.Since(start).Microseconds()) / 1000, nil
			}
			rSOS, msSOS, err := runOne(minlp.Options{})
			if err != nil {
				return nil, err
			}
			if rSOS.Status != minlp.Optimal {
				return nil, fmt.Errorf("T4: SOS run ended %v on set size %d, instance %d", rSOS.Status, sz, i)
			}
			rBin, msBin, err := runOne(minlp.Options{DisableSOSBranching: true, TimeLimit: binBudget})
			if err != nil {
				return nil, err
			}
			set.Runs = append(set.Runs, t4Run{
				SOSNodes: rSOS.Nodes, SOSLPs: rSOS.LPSolves, SOSMs: msSOS,
				BinNodes: rBin.Nodes, BinLPs: rBin.LPSolves, BinMs: msBin,
				BinTruncated: rBin.Status != minlp.Optimal,
			})
		}
		pop = append(pop, set)
	}
	return pop, nil
}

// ratioSpread formats the min / median / max of ratios whose entries with
// cut[i] set are lower bounds (a truncated binary run). An order statistic
// at or above some lower-bound entry could still rise if that run went on,
// so it is printed with "≥".
func ratioSpread(v []float64, cut []bool) string {
	sorted := append([]float64(nil), v...)
	sort.Float64s(sorted)
	lowestCut := math.Inf(1)
	for i, c := range cut {
		if c {
			lowestCut = math.Min(lowestCut, v[i])
		}
	}
	cell := func(x, upper float64) string {
		s := fmt.Sprintf("%.3g", x)
		if upper >= lowestCut {
			s = "≥" + s
		}
		return s
	}
	n := len(sorted)
	return cell(sorted[0], sorted[0]) + " / " + cell(stats.Quantile(v, 0.5), sorted[n/2]) +
		" / " + cell(sorted[n-1], sorted[n-1])
}

// solverInstance builds an allocation problem where every task is
// restricted to a sweet-spot set of the given size — the structure that
// stresses set branching.
func solverInstance(rng *stats.RNG, setSize, total int) *core.Problem {
	p := &core.Problem{TotalNodes: total, Objective: core.MinMax}
	for t := 0; t < 4; t++ {
		set := make([]int, 0, setSize)
		n := 1 + rng.Intn(3)
		for len(set) < setSize && n < total {
			set = append(set, n)
			n += 1 + rng.Intn(2*total/setSize/3+1)
		}
		p.Tasks = append(p.Tasks, core.Task{
			Name: "t",
			Perf: perfmodel.Params{
				A: rng.Range(1e3, 5e4),
				B: rng.Range(0, 1e-3),
				C: 1 + rng.Float64()*0.4,
				D: rng.Range(0, 10),
			},
			Allowed: set,
		})
	}
	return p
}

// T4Relaxation is the second solver ablation: the value of the initial NLP
// (Kelley) relaxation solve and of cutting at fractional nodes.
func T4Relaxation(scale Scale) (*Table, error) {
	total := 2048
	if scale == Full {
		total = 32768
	}
	tbl := &Table{
		ID:     "T4b",
		Title:  "LP/NLP-based B&B ablations (same optimum, different work)",
		Header: []string{"variant", "B&B nodes", "LP solves", "OA cuts", "obj"},
	}
	rng := stats.NewRNG(45)
	p := solverInstance(rng, 60, total)
	variants := []struct {
		name string
		opt  core.SolverOptions
	}{
		{"default (Kelley warm start)", core.SolverOptions{}},
		{"skip NLP relaxation", core.SolverOptions{SkipNLPRelaxation: true}},
		{"cut at fractional", core.SolverOptions{CutAtFractional: true}},
	}
	for _, v := range variants {
		a, err := p.SolveMINLP(v.opt)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(v.name, a.SolverNodes, a.LPSolves, a.OACuts, a.Makespan)
	}
	tbl.Note("all variants reach the same global optimum (convexity); they differ only in effort")
	return tbl, nil
}
