package hslb

// One benchmark per experiment in DESIGN.md's index (T1–T7, F1–F2): each
// regenerates the corresponding table/figure series at Quick scale so that
// `go test -bench=.` exercises the entire reproduction harness. Run
// `go run ./cmd/fmobench -scale full` for the paper-scale numbers recorded
// in EXPERIMENTS.md.

import (
	"math"
	"testing"

	"repro/internal/experiments"
	"repro/internal/stats"
)

func benchTable(b *testing.B, run func(experiments.Scale) (*experiments.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := run(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatalf("%s produced no rows", tbl.ID)
		}
	}
}

// BenchmarkT1FitQuality regenerates T1: performance-model fit quality vs
// the number of benchmark points (paper claim C5).
func BenchmarkT1FitQuality(b *testing.B) { benchTable(b, experiments.T1FitQuality) }

// BenchmarkT2Objectives regenerates T2: min-max vs max-min vs min-sum
// objectives (paper claim C3).
func BenchmarkT2Objectives(b *testing.B) { benchTable(b, experiments.T2Objectives) }

// BenchmarkT3Baselines regenerates T3: executed time of HSLB vs uniform /
// proportional / manual / tuned-DLB baselines (paper claim C2).
func BenchmarkT3Baselines(b *testing.B) { benchTable(b, experiments.T3Baselines) }

// BenchmarkF1Scaling regenerates the F1 figure series: predicted vs actual
// scaling curves (paper claim C1).
func BenchmarkF1Scaling(b *testing.B) { benchTable(b, experiments.F1Scaling) }

// BenchmarkT4Solver regenerates T4: SOS1 vs binary branching in the MINLP
// solver (paper claim C4).
func BenchmarkT4Solver(b *testing.B) { benchTable(b, experiments.T4Solver) }

// BenchmarkT4Relaxation regenerates T4b: LP/NLP-based B&B ablations.
func BenchmarkT4Relaxation(b *testing.B) { benchTable(b, experiments.T4Relaxation) }

// BenchmarkT5Sensitivity regenerates T5: allocation quality vs benchmark
// budget, interpolation vs extrapolation (paper claim C5).
func BenchmarkT5Sensitivity(b *testing.B) { benchTable(b, experiments.T5Sensitivity) }

// BenchmarkT6Coupled regenerates T6: the coupled-extension Table III analog
// (paper claim C6).
func BenchmarkT6Coupled(b *testing.B) { benchTable(b, experiments.T6Coupled) }

// BenchmarkF2Layouts regenerates the F2 figure series: layouts (1)-(3)
// comparison (paper claim C6).
func BenchmarkF2Layouts(b *testing.B) { benchTable(b, experiments.F2Layouts) }

// BenchmarkT7Crossover regenerates T7: the SLB/DLB regime crossover (the
// introduction's positioning claim).
func BenchmarkT7Crossover(b *testing.B) { benchTable(b, experiments.T7Crossover) }

// BenchmarkT8Families regenerates T8: the performance-model family
// ablation (HSLB form vs Amdahl vs power law, AICc-selected).
func BenchmarkT8Families(b *testing.B) { benchTable(b, experiments.T8Families) }

// benchTruth is a fit-heavy synthetic workload: enough tasks and multistart
// work that the pipeline's parallel stages dominate the run.
func benchTruth() []Params {
	rng := stats.NewRNG(7)
	truth := make([]Params, 16)
	for i := range truth {
		truth[i] = Params{
			A: rng.Range(500, 64000), B: rng.Range(0, 1e-3),
			C: 1 + rng.Float64()*0.3, D: rng.Range(0, 12),
		}
	}
	return truth
}

// benchPipelineAt runs the paired serial-vs-parallel pipeline benchmark.
// The two variants use the same seed, so their allocations must be
// bit-identical — the benchmark asserts it, making the speedup comparison
// `go test -bench 'PipelineFit(Serial|Parallel4)'` an apples-to-apples
// measurement (the ratio demonstrates the speedup on a multi-core host;
// on a single CPU the variants tie).
func benchPipelineAt(b *testing.B, parallelism int) {
	truth := benchTruth()
	names := make([]string, len(truth))
	for i := range names {
		names[i] = "t"
	}
	cfg := func(par int) *PipelineConfig {
		return &PipelineConfig{
			TaskNames:  names,
			TotalNodes: 4096,
			Benchmark: func(task, nodes int) float64 {
				return truth[task].Eval(float64(nodes))
			},
			UseParametric: true,
			Fit:           FitOptions{Starts: 24},
			Seed:          1,
			Parallelism:   par,
		}
	}
	ref, err := RunPipeline(cfg(-1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunPipeline(cfg(parallelism))
		if err != nil {
			b.Fatal(err)
		}
		if math.Float64bits(res.Allocation.Makespan) != math.Float64bits(ref.Allocation.Makespan) {
			b.Fatalf("parallelism %d changed the optimum: %v vs %v",
				parallelism, res.Allocation.Makespan, ref.Allocation.Makespan)
		}
	}
}

// BenchmarkPipelineFitSerial is the serial baseline of the pair.
func BenchmarkPipelineFitSerial(b *testing.B) { benchPipelineAt(b, -1) }

// BenchmarkPipelineFitParallel4 is the 4-worker variant of the pair.
func BenchmarkPipelineFitParallel4(b *testing.B) { benchPipelineAt(b, 4) }

// benchSolverProblem builds an allocation MINLP whose tasks are restricted
// to sweet-spot sets — the structure that gives the branch-and-bound tree
// real depth.
func benchSolverProblem() *Problem {
	rng := stats.NewRNG(44)
	p := &Problem{TotalNodes: 2048, Objective: MinMax}
	for t := 0; t < 4; t++ {
		set := make([]int, 0, 60)
		n := 1 + rng.Intn(3)
		for len(set) < 60 && n < p.TotalNodes {
			set = append(set, n)
			n += 1 + rng.Intn(23)
		}
		p.Tasks = append(p.Tasks, Task{
			Name: "t",
			Perf: Params{
				A: rng.Range(1e3, 5e4), B: rng.Range(0, 1e-3),
				C: 1 + rng.Float64()*0.4, D: rng.Range(0, 10),
			},
			Allowed: set,
		})
	}
	return p
}

// BenchmarkSolveMINLP times the MINLP route on benchSolverProblem.
func BenchmarkSolveMINLP(b *testing.B) {
	p := benchSolverProblem()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(p, SolverOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipeline measures the full four-step pipeline on a synthetic
// 8-task workload (the library's hot path).
func BenchmarkPipeline(b *testing.B) {
	truth := []Params{
		{A: 2000, C: 1, D: 2}, {A: 9000, C: 1, D: 5},
		{A: 32000, C: 1.1, D: 10}, {A: 500, C: 1, D: 1},
		{A: 15000, C: 1, D: 4}, {A: 64000, C: 1.05, D: 12},
		{A: 1200, C: 1, D: 2}, {A: 7000, C: 1, D: 3},
	}
	names := make([]string, len(truth))
	for i := range names {
		names[i] = "t"
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := RunPipeline(&PipelineConfig{
			TaskNames:  names,
			TotalNodes: 4096,
			Benchmark: func(task, nodes int) float64 {
				return truth[task].Eval(float64(nodes))
			},
			UseParametric: true,
			Seed:          uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
