package hslb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/perfmodel"
	"repro/internal/stats"
)

// BenchmarkFunc times one run of task `task` on `nodes` nodes and returns
// wall-clock seconds. Implementations wrap either a simulator (packages fmo
// and gddi) or real measurements read from logs.
type BenchmarkFunc func(task, nodes int) float64

// BenchmarkFuncE is the fallible, cancellable variant of BenchmarkFunc for
// real machines, where gather runs are lost to node failures, queue
// timeouts, and I/O errors. A returned error marks the sample as failed;
// the pipeline retries it up to PipelineConfig.GatherRetries times and then
// drops it (see RunPipelineContext for the degradation rules). For retried
// samples to reproduce the failure-free run bit for bit, implementations
// must derive any randomness per (task, nodes) — see GatherWithRNGE — not
// from a shared sequential stream.
type BenchmarkFuncE func(ctx context.Context, task, nodes int) (float64, error)

// ExecuteFunc optionally runs the final allocation end-to-end and returns
// the measured total time (step 4); when nil the pipeline reports
// predictions only.
type ExecuteFunc func(nodes []int) float64

// minFitPoints is the paper's sampling floor ("the number of benchmarking
// runs ... should be at least greater than four"): when gather failures
// drop a task below this many samples the pipeline refuses to fit rather
// than extrapolate from too little data.
const minFitPoints = 4

// InsufficientSamplesError reports that gather failures left a task with
// too few benchmark samples to fit responsibly. It is returned (wrapped)
// by RunPipelineContext; callers typically re-run the gather step for the
// named task.
type InsufficientSamplesError struct {
	Task    string // task name, as given in PipelineConfig.TaskNames
	Got     int    // samples that survived retries
	Need    int    // the minFitPoints floor
	Dropped int    // samples lost after exhausting retries
}

func (e *InsufficientSamplesError) Error() string {
	return fmt.Sprintf("hslb: task %q has %d benchmark samples after dropping %d failed ones; need at least %d to fit",
		e.Task, e.Got, e.Dropped, e.Need)
}

// PipelineConfig drives RunPipeline.
type PipelineConfig struct {
	// TaskNames labels the tasks; its length fixes the task count.
	TaskNames []string
	// Benchmark provides step-1 measurements. Exactly one of Benchmark and
	// BenchmarkE must be set.
	Benchmark BenchmarkFunc
	// BenchmarkE is the fallible, cancellable alternative to Benchmark:
	// failing samples are retried GatherRetries times and then dropped,
	// subject to the minFitPoints floor per task.
	BenchmarkE BenchmarkFuncE
	// GatherRetries is the number of extra attempts after a failed
	// BenchmarkE call (0 = fail on first error). Ignored for Benchmark.
	GatherRetries int
	// GatherBackoff is the wait between gather attempts (0 = immediate);
	// the wait aborts early when the context is cancelled.
	GatherBackoff time.Duration
	// Execute, when non-nil, performs step 4 for the chosen allocation.
	Execute ExecuteFunc
	// TotalNodes is the allocation budget N.
	TotalNodes int
	// SampleCounts are the node counts benchmarked per task; nil selects
	// the paper's recommendation via SuggestSampleNodes with SamplePoints
	// points (≥ 4 advised). Counts are snapped onto each task's feasible
	// allocation set (MinNodes/MaxNodes/Allowed) and clamp-induced
	// duplicates are benchmarked once.
	SampleCounts []int
	// SamplePoints sizes the default sample set (default 5).
	SamplePoints int
	// MaxSampleNodes caps benchmark node counts (default TotalNodes).
	MaxSampleNodes int
	// MinNodes / MaxNodes / Allowed are optional per-task allocation
	// restrictions (each nil or of length len(TaskNames)).
	MinNodes []int
	MaxNodes []int
	Allowed  [][]int
	// Objective defaults to MinMax, the paper's choice.
	Objective Objective
	// UseParametric selects the specialized solver instead of the MINLP
	// route.
	UseParametric bool
	Solver        SolverOptions
	Fit           FitOptions
	// Seed drives the deterministic parts of fitting.
	Seed uint64
	// Parallelism bounds the worker pool of per-task fitting: 0 uses one
	// worker per CPU, negative forces serial. Results are bit-identical for
	// every setting; see DESIGN.md's "Concurrency model".
	Parallelism int
}

// PipelineResult carries every artifact of the four steps.
type PipelineResult struct {
	// Samples[t] are the benchmark observations of task t (step 1) that
	// survived retries; samples whose BenchmarkE attempts all failed are
	// absent.
	Samples [][]Sample
	// DroppedSamples[t] counts the gather samples of task t lost after
	// exhausting retries (all zero with an infallible Benchmark). nil when
	// no sample was dropped.
	DroppedSamples []int
	// Fits[t] is the fitted performance function of task t (step 2).
	Fits []FitResult
	// Problem is the assembled allocation instance.
	Problem *Problem
	// Allocation is the chosen assignment with predicted times (step 3).
	// Allocation.Bounded marks a deadline- or budget-limited solve that
	// returned its best incumbent (or the parametric fallback) with the
	// optimality gap in Allocation.Gap.
	Allocation *Allocation
	// Executed is the measured total time of step 4; NaN when Execute was
	// not configured (step 4 skipped). A non-positive or NaN measurement
	// from Execute is an error, never silently recorded.
	Executed float64
	// PredictionError is |Executed − predicted|/Executed. Contract: NaN if
	// and only if step 4 was skipped (Execute == nil); whenever Execute
	// ran, the field is a finite non-negative number or RunPipeline
	// returned an error.
	PredictionError float64
}

// RunPipeline performs the full HSLB procedure.
func RunPipeline(cfg *PipelineConfig) (*PipelineResult, error) {
	return RunPipelineContext(context.Background(), cfg)
}

// RunPipelineContext is RunPipeline with cooperative cancellation and the
// fault-tolerance contract of BenchmarkE/GatherRetries:
//
//   - ctx cancellation aborts gather and fitting with ctx.Err(); during the
//     solve it degrades gracefully instead (best incumbent or parametric
//     fallback, marked Allocation.Bounded — see SolveContext).
//   - A BenchmarkE sample that still fails after GatherRetries retries is
//     dropped; a task left with fewer than 4 samples yields an
//     *InsufficientSamplesError naming it.
//   - With no fault, deadline, or cancellation, the result is bit-identical
//     to RunPipeline with an infallible Benchmark.
func RunPipelineContext(ctx context.Context, cfg *PipelineConfig) (*PipelineResult, error) {
	k := len(cfg.TaskNames)
	if k == 0 {
		return nil, errors.New("hslb: no tasks")
	}
	if cfg.Benchmark == nil && cfg.BenchmarkE == nil {
		return nil, errors.New("hslb: PipelineConfig.Benchmark or BenchmarkE is required")
	}
	if cfg.Benchmark != nil && cfg.BenchmarkE != nil {
		return nil, errors.New("hslb: set only one of PipelineConfig.Benchmark and BenchmarkE")
	}
	if cfg.TotalNodes < k {
		return nil, fmt.Errorf("hslb: %d nodes cannot host %d tasks", cfg.TotalNodes, k)
	}
	if cfg.SamplePoints < 0 {
		return nil, fmt.Errorf("hslb: SamplePoints must be non-negative, got %d", cfg.SamplePoints)
	}
	if cfg.MaxSampleNodes < 0 {
		return nil, fmt.Errorf("hslb: MaxSampleNodes must be non-negative, got %d", cfg.MaxSampleNodes)
	}
	if cfg.GatherRetries < 0 {
		return nil, fmt.Errorf("hslb: GatherRetries must be non-negative, got %d", cfg.GatherRetries)
	}
	for name, s := range map[string]int{
		"MinNodes": len(cfg.MinNodes), "MaxNodes": len(cfg.MaxNodes), "Allowed": len(cfg.Allowed),
	} {
		if s != 0 && s != k {
			return nil, fmt.Errorf("hslb: %s has length %d, want %d", name, s, k)
		}
	}

	res := &PipelineResult{Executed: math.NaN(), PredictionError: math.NaN()}

	// The task restrictions are needed from step 1 on: benchmark node
	// counts must be snapped onto each task's feasible allocation set.
	tasks := make([]core.Task, k)
	for t := 0; t < k; t++ {
		tasks[t].Name = cfg.TaskNames[t]
		if cfg.MinNodes != nil {
			tasks[t].MinNodes = cfg.MinNodes[t]
		}
		if cfg.MaxNodes != nil {
			tasks[t].MaxNodes = cfg.MaxNodes[t]
		}
		if cfg.Allowed != nil {
			tasks[t].Allowed = cfg.Allowed[t]
		}
	}

	// Step 1: gather.
	counts := cfg.SampleCounts
	if counts == nil {
		points := cfg.SamplePoints
		if points == 0 {
			points = 5
		}
		maxN := cfg.MaxSampleNodes
		if maxN == 0 || maxN > cfg.TotalNodes {
			maxN = cfg.TotalNodes
		}
		counts = perfmodel.SuggestSampleNodes(1, maxN, points)
	}
	bench := cfg.BenchmarkE
	if bench == nil {
		f := cfg.Benchmark
		bench = func(ctx context.Context, task, nodes int) (float64, error) {
			return f(task, nodes), nil
		}
	}
	res.Samples = make([][]Sample, k)
	dropped := make([]int, k)
	anyDropped := false
	for t := 0; t < k; t++ {
		plan, err := samplePlan(&tasks[t], counts, cfg.TotalNodes)
		if err != nil {
			return nil, err
		}
		for _, nn := range plan {
			v, err := gatherSample(ctx, cfg, bench, t, nn)
			if err != nil {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				dropped[t]++
				anyDropped = true
				continue
			}
			res.Samples[t] = append(res.Samples[t], Sample{Nodes: float64(nn), Time: v})
		}
		if dropped[t] > 0 && len(res.Samples[t]) < minFitPoints {
			return nil, &InsufficientSamplesError{
				Task: cfg.TaskNames[t], Got: len(res.Samples[t]),
				Need: minFitPoints, Dropped: dropped[t],
			}
		}
	}
	if anyDropped {
		res.DroppedSamples = dropped
	}

	// Step 2: fit. Per-task fits are independent pure computations, so
	// they run on the shared worker pool, one seed split per task so the
	// result is bit-identical to a sequential run.
	fitOpts := cfg.Fit
	if fitOpts.Seed == 0 {
		fitOpts.Seed = cfg.Seed + 1
	}
	if fitOpts.Parallelism == 0 {
		// The outer per-task loop already saturates the machine; keep each
		// multistart serial unless the caller asked otherwise.
		fitOpts.Parallelism = -1
	}
	seeds := par.SplitSeeds(fitOpts.Seed, k)
	fits, err := par.MapErrCtx(ctx, cfg.Parallelism, k, func(t int) (FitResult, error) {
		opts := fitOpts
		opts.Seed = seeds[t]
		fr, err := perfmodel.Fit(res.Samples[t], opts)
		if err != nil {
			return FitResult{}, fmt.Errorf("hslb: fitting task %q: %w", cfg.TaskNames[t], err)
		}
		return *fr, nil
	})
	if err != nil {
		return nil, err
	}
	res.Fits = fits

	// Step 3: solve.
	prob := &core.Problem{TotalNodes: cfg.TotalNodes, Objective: cfg.Objective}
	for t := 0; t < k; t++ {
		tasks[t].Perf = res.Fits[t].Params
	}
	prob.Tasks = tasks
	res.Problem = prob
	var alloc *Allocation
	if cfg.UseParametric {
		alloc, err = prob.SolveParametricContext(ctx)
	} else {
		alloc, err = SolveContext(ctx, prob, cfg.Solver)
	}
	if err != nil {
		return nil, fmt.Errorf("hslb: solving allocation: %w", err)
	}
	res.Allocation = alloc

	// Step 4: execute.
	if cfg.Execute != nil {
		res.Executed = cfg.Execute(alloc.Nodes)
		if res.Executed <= 0 || math.IsNaN(res.Executed) || math.IsInf(res.Executed, 0) {
			return nil, fmt.Errorf("hslb: Execute returned a non-positive measured time %g; a skipped step 4 must leave Execute nil", res.Executed)
		}
		res.PredictionError = math.Abs(res.Executed-alloc.Makespan) / res.Executed
	}
	return res, nil
}

// samplePlan snaps the suggested benchmark node counts onto the task's
// feasible allocation set and collapses clamp-induced duplicates: a count
// group that the snap made identical is benchmarked once, while duplicates
// the caller listed explicitly (deliberate replicates of a noisy
// measurement) are all kept. Benchmarking outside the feasible set would
// spend machine time on node counts the solver can never allocate — and,
// worse, duplicate clamped points over-weight one node count in the
// least-squares fit.
func samplePlan(t *core.Task, counts []int, total int) ([]int, error) {
	plan := make([]int, 0, len(counts))
	snapped := make([]bool, 0, len(counts))
	clampedGroup := make(map[int]bool)
	for _, n := range counts {
		nn, ok := t.SnapToFeasible(n, total)
		if !ok {
			return nil, fmt.Errorf("hslb: task %q has no admissible allocation within %d nodes", t.Name, total)
		}
		plan = append(plan, nn)
		snapped = append(snapped, nn != n)
		if nn != n {
			clampedGroup[nn] = true
		}
	}
	out := plan[:0]
	seen := make(map[int]bool)
	for i, nn := range plan {
		if seen[nn] && clampedGroup[nn] {
			continue // clamp-induced duplicate: already benchmarked
		}
		_ = snapped[i]
		seen[nn] = true
		out = append(out, nn)
	}
	return out, nil
}

// gatherSample runs one benchmark measurement with the config's retry and
// backoff policy. The returned error is the last attempt's (or the
// context's, which the caller checks first).
func gatherSample(ctx context.Context, cfg *PipelineConfig, bench BenchmarkFuncE, task, nodes int) (float64, error) {
	var v float64
	var err error
	for attempt := 0; attempt <= cfg.GatherRetries; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return 0, cerr
		}
		if attempt > 0 && cfg.GatherBackoff > 0 {
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(cfg.GatherBackoff):
			}
		}
		v, err = bench(ctx, task, nodes)
		if err == nil {
			return v, nil
		}
	}
	return 0, err
}

// GatherWithRNG adapts a noisy simulator benchmark into a BenchmarkFunc
// with a deterministic noise stream.
func GatherWithRNG(seed uint64, f func(task, nodes int, rng *stats.RNG) float64) BenchmarkFunc {
	rng := stats.NewRNG(seed)
	return func(task, nodes int) float64 {
		return f(task, nodes, rng)
	}
}

// GatherWithRNGE adapts a noisy, fallible simulator benchmark into a
// BenchmarkFuncE whose noise stream is derived per (task, nodes) — call-
// order and retry-count independent — so a gather that retries failed
// samples to success reproduces the failure-free run bit for bit.
func GatherWithRNGE(seed uint64, f func(ctx context.Context, task, nodes int, rng *stats.RNG) (float64, error)) BenchmarkFuncE {
	return func(ctx context.Context, task, nodes int) (float64, error) {
		return f(ctx, task, nodes, stats.KeyedRNG(seed, stats.Key2(task, nodes)))
	}
}
