package hslb

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/fmo"
	"repro/internal/gddi"
	"repro/internal/machine"
	"repro/internal/stats"
)

// syntheticBenchmark builds a noiseless BenchmarkFunc from known truth
// curves.
func syntheticBenchmark(truth []Params) BenchmarkFunc {
	return func(task, nodes int) float64 {
		return truth[task].Eval(float64(nodes))
	}
}

func TestPipelineEndToEndSynthetic(t *testing.T) {
	truth := []Params{
		{A: 1500, B: 0.001, C: 1, D: 2},
		{A: 9000, B: 0.002, C: 1, D: 5},
		{A: 32000, B: 0.001, C: 1.1, D: 10},
	}
	execute := func(nodes []int) float64 {
		worst := 0.0
		for i, n := range nodes {
			if v := truth[i].Eval(float64(n)); v > worst {
				worst = v
			}
		}
		return worst
	}
	res, err := RunPipeline(&PipelineConfig{
		TaskNames:  []string{"small", "medium", "large"},
		Benchmark:  syntheticBenchmark(truth),
		Execute:    execute,
		TotalNodes: 512,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range res.Fits {
		if f.R2 < 0.999 {
			t.Fatalf("task %d fit R² = %v", i, f.R2)
		}
	}
	if res.Allocation.Used > 512 {
		t.Fatalf("overspent: %d", res.Allocation.Used)
	}
	// Prediction must match execution closely on noiseless truth.
	if res.PredictionError > 0.05 {
		t.Fatalf("prediction error %v", res.PredictionError)
	}
	// HSLB must beat the uniform baseline on this heterogeneous mix.
	uni := Uniform(res.Problem)
	if res.Allocation.Makespan > uni.Makespan {
		t.Fatalf("HSLB %v worse than uniform %v", res.Allocation.Makespan, uni.Makespan)
	}
}

func TestPipelineOverFMOSimulator(t *testing.T) {
	// The real thing: benchmark the FMO simulator, fit, solve, and execute
	// a full static FMO2 monomer round with the HSLB group sizes.
	rng := stats.NewRNG(7)
	mol := fmo.Polypeptide(16, 1, rng)
	m := machine.Small(256)
	m.NoiseSigma = 0.01
	cm := fmo.NewCostModel(mol, m)

	names := make([]string, len(mol.Fragments))
	for i := range names {
		names[i] = mol.Fragments[i].Name
	}
	res, err := RunPipeline(&PipelineConfig{
		TaskNames: names,
		Benchmark: GatherWithRNG(11, func(task, nodes int, rng *stats.RNG) float64 {
			return cm.MonomerTotalTime(task, nodes, rng)
		}),
		Execute: func(nodes []int) float64 {
			assign := make([]int, len(nodes))
			for i := range assign {
				assign[i] = i
			}
			r, err := gddi.RunFMO2(&gddi.FMO2Config{
				Cost:          cm,
				GroupSizes:    nodes,
				MonomerPolicy: gddi.StaticAssign,
				MonomerAssign: assign,
				RNG:           stats.NewRNG(13),
			})
			if err != nil {
				t.Fatal(err)
			}
			return r.MonomerTime
		},
		TotalNodes:    256,
		UseParametric: true,
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Allocation.Used > 256 {
		t.Fatalf("overspent: %d", res.Allocation.Used)
	}
	// The paper's validation: predicted and actual times are close.
	if res.PredictionError > 0.15 {
		t.Fatalf("prediction error %v (predicted %v, executed %v)",
			res.PredictionError, res.Allocation.Makespan, res.Executed)
	}
}

func TestPipelineErrors(t *testing.T) {
	if _, err := RunPipeline(&PipelineConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := RunPipeline(&PipelineConfig{TaskNames: []string{"a"}}); err == nil {
		t.Fatal("missing benchmark accepted")
	}
	if _, err := RunPipeline(&PipelineConfig{
		TaskNames:  []string{"a", "b"},
		Benchmark:  func(int, int) float64 { return 1 },
		TotalNodes: 1,
	}); err == nil {
		t.Fatal("insufficient nodes accepted")
	}
	if _, err := RunPipeline(&PipelineConfig{
		TaskNames:  []string{"a", "b"},
		Benchmark:  func(int, int) float64 { return 1 },
		TotalNodes: 8,
		MinNodes:   []int{1},
	}); err == nil {
		t.Fatal("mismatched MinNodes accepted")
	}
}

func TestPipelineRespectsAllowedSets(t *testing.T) {
	truth := []Params{{A: 100, C: 1, D: 1}, {A: 400, C: 1, D: 2}}
	res, err := RunPipeline(&PipelineConfig{
		TaskNames:  []string{"a", "b"},
		Benchmark:  syntheticBenchmark(truth),
		TotalNodes: 64,
		Allowed:    [][]int{{2, 4, 8, 16}, {8, 16, 32, 48}},
		Seed:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Problem.Feasible(res.Allocation.Nodes) {
		t.Fatalf("allocation %v violates allowed sets", res.Allocation.Nodes)
	}
}

func TestSolveFallsBackForMaxMin(t *testing.T) {
	p := &Problem{
		Tasks: []Task{
			{Name: "a", Perf: Params{A: 50, C: 1, D: 1}},
			{Name: "b", Perf: Params{A: 200, C: 1, D: 1}},
		},
		TotalNodes: 32,
		Objective:  MaxMin,
	}
	a, err := Solve(p, SolverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Used != 32 {
		t.Fatalf("max-min must use all nodes, used %d", a.Used)
	}
}

// TestSolveFallsBackForNonConvex: a non-convex task model sends Solve to
// the parametric route. The min-max answer is the DP optimum, proven by
// its certificate; the min-sum answer has no proof and comes back bounded
// with an infinite gap.
func TestSolveFallsBackForNonConvex(t *testing.T) {
	p := &Problem{
		Tasks: []Task{
			{Name: "a", Perf: Params{A: 900, B: 6, C: 0.5, D: 1}},
			{Name: "b", Perf: Params{A: 400, B: 0.01, C: 1.2, D: 2}},
		},
		TotalNodes: 40,
		Objective:  MinMax,
	}
	dp, err := p.SolveDP()
	if err != nil {
		t.Fatal(err)
	}
	a, err := Solve(p, SolverOptions{Canonical: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Bounded || a.Makespan != dp.Makespan {
		t.Fatalf("min-max: makespan %v bounded %v, want the DP optimum %v proven", a.Makespan, a.Bounded, dp.Makespan)
	}
	p.Objective = MinSum
	a, err = Solve(p, SolverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Bounded || !math.IsInf(a.Gap, 1) {
		t.Fatalf("min-sum: bounded %v gap %v, want bounded with an infinite gap", a.Bounded, a.Gap)
	}
}

func TestReportRoundTrip(t *testing.T) {
	truth := []Params{{A: 100, C: 1, D: 1}, {A: 300, C: 1, D: 2}}
	res, err := RunPipeline(&PipelineConfig{
		TaskNames:  []string{"a", "b"},
		Benchmark:  syntheticBenchmark(truth),
		TotalNodes: 64,
		Seed:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReport([]string{"a", "b"}, res)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParseReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Makespan != rep.Makespan || len(back.Nodes) != 2 {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, rep)
	}
	var tbl bytes.Buffer
	if err := rep.WriteTable(&tbl); err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, want := range []string{"component", "total", "a", "b"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	order := rep.SortedByTime()
	if rep.Predicted[order[0]] < rep.Predicted[order[len(order)-1]] {
		t.Fatal("SortedByTime not descending")
	}
}

func TestParseReportRejectsCorrupt(t *testing.T) {
	if _, err := ParseReport(strings.NewReader("{")); err == nil {
		t.Fatal("truncated JSON accepted")
	}
	if _, err := ParseReport(strings.NewReader(
		`{"taskNames":["a"],"fits":[],"nodes":[1,2],"predicted":[1]}`)); err == nil {
		t.Fatal("inconsistent arrays accepted")
	}
}

func TestExecutedFieldOptional(t *testing.T) {
	truth := []Params{{A: 10, C: 1, D: 1}, {A: 10, C: 1, D: 1}}
	res, err := RunPipeline(&PipelineConfig{
		TaskNames:  []string{"a", "b"},
		Benchmark:  syntheticBenchmark(truth),
		TotalNodes: 16,
		Seed:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(res.Executed) || !math.IsNaN(res.PredictionError) {
		t.Fatal("executed fields should be NaN without an Execute step")
	}
	rep := NewReport([]string{"a", "b"}, res)
	if rep.Executed != nil {
		t.Fatal("report Executed should be omitted")
	}
}
