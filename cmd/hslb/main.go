// Command hslb exposes the HSLB steps over JSON files, the shape of the
// paper's AMPL-script workflow:
//
//	hslb fit    -in samples.json  -out fit.json
//	hslb solve  -in tasks.json    -nodes 32768 [-objective min-max] [-solver minlp|parametric] -out alloc.json
//	hslb predict -in fit.json     -n 128,256,512
//	hslb demo   [-tasks 16] [-nodes 1024]
//
// Input formats:
//
//	samples.json: {"samples": [{"nodes": 16, "time": 120.5}, ...]}
//	tasks.json:   {"tasks": [{"name": "atm", "params": {"a":...,"b":...,"c":...,"d":...},
//	               "minNodes": 1, "allowed": [2,4,...]}, ...]}
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	hslb "repro"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/prof"
	"repro/internal/stats"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "fit":
		err = cmdFit(os.Args[2:])
	case "solve":
		err = cmdSolve(os.Args[2:])
	case "predict":
		err = cmdPredict(os.Args[2:])
	case "jobsize":
		err = cmdJobSize(os.Args[2:])
	case "export-ampl":
		err = cmdExportAMPL(os.Args[2:])
	case "demo":
		err = cmdDemo(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hslb:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: hslb <fit|solve|predict|demo> [flags]
  fit     -in samples.json [-out fit.json]        fit the performance model (step 2)
  solve   -in tasks.json -nodes N [...]           solve the allocation MINLP (step 3)
  predict -in fit.json -n 64,128,256              evaluate a fitted curve
  jobsize -in tasks.json -sizes 128,...,32768     pick the machine size for a job
  export-ampl -in tasks.json -nodes N             write the paper-style AMPL model
  demo    [-tasks K] [-nodes N]                   synthetic end-to-end pipeline`)
}

func readJSON(path string, v interface{}) error {
	var r io.Reader
	if path == "-" || path == "" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	return json.NewDecoder(r).Decode(v)
}

func writeJSON(path string, v interface{}) error {
	var w io.Writer
	if path == "-" || path == "" {
		w = os.Stdout
	} else {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func cmdFit(args []string) error {
	fs := flag.NewFlagSet("fit", flag.ExitOnError)
	in := fs.String("in", "-", "samples JSON (default stdin)")
	out := fs.String("out", "-", "fit JSON (default stdout)")
	starts := fs.Int("starts", 12, "multistart count")
	seed := fs.Uint64("seed", 1, "multistart seed")
	parallel := fs.Int("parallel", 0, "multistart worker pool bound: 0 = one worker per CPU, negative = serial; the fit is bit-identical for any setting")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var doc struct {
		Samples []perfmodel.Sample `json:"samples"`
	}
	if err := readJSON(*in, &doc); err != nil {
		return err
	}
	res, err := perfmodel.Fit(doc.Samples, perfmodel.FitOptions{Starts: *starts, Seed: *seed, Parallelism: *parallel})
	if err != nil {
		return err
	}
	return writeJSON(*out, res)
}

// taskDoc is the JSON shape of one task for `solve`.
type taskDoc struct {
	Name     string           `json:"name"`
	Params   perfmodel.Params `json:"params"`
	MinNodes int              `json:"minNodes,omitempty"`
	MaxNodes int              `json:"maxNodes,omitempty"`
	Allowed  []int            `json:"allowed,omitempty"`
}

func cmdSolve(args []string) error {
	fs := flag.NewFlagSet("solve", flag.ExitOnError)
	in := fs.String("in", "-", "tasks JSON (default stdin)")
	out := fs.String("out", "-", "allocation JSON (default stdout)")
	nodes := fs.Int("nodes", 0, "total node budget N (required)")
	objective := fs.String("objective", "min-max", "min-max, max-min, or min-sum")
	solver := fs.String("solver", "minlp", "minlp (the paper's route) or parametric")
	useAll := fs.Bool("use-all", false, "require Σ n = N")
	deadline := fs.Duration("deadline", 0, "wall-clock bound for the minlp solve (e.g. 30s); on expiry the best incumbent is returned with its optimality gap, falling back to the parametric solver if nothing was found")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stopProf()
	if *nodes <= 0 {
		return fmt.Errorf("solve: -nodes is required and positive")
	}
	var doc struct {
		Tasks []taskDoc `json:"tasks"`
	}
	if err := readJSON(*in, &doc); err != nil {
		return err
	}
	p := &core.Problem{TotalNodes: *nodes, UseAllNodes: *useAll}
	obj, err := core.ParseObjective(*objective)
	if err != nil {
		return fmt.Errorf("solve: %w", err)
	}
	p.Objective = obj
	for _, t := range doc.Tasks {
		p.Tasks = append(p.Tasks, core.Task{
			Name: t.Name, Perf: t.Params,
			MinNodes: t.MinNodes, MaxNodes: t.MaxNodes, Allowed: t.Allowed,
		})
	}
	var alloc *core.Allocation
	switch *solver {
	case "minlp":
		alloc, err = hslb.Solve(p, hslb.SolverOptions{Deadline: *deadline})
	case "parametric":
		alloc, err = p.SolveParametric()
	default:
		return fmt.Errorf("solve: unknown solver %q", *solver)
	}
	if err != nil {
		return err
	}
	type out1 struct {
		Name  string  `json:"name"`
		Nodes int     `json:"nodes"`
		Time  float64 `json:"time"`
	}
	result := struct {
		Allocation []out1  `json:"allocation"`
		Makespan   float64 `json:"makespan"`
		Imbalance  float64 `json:"imbalance"`
		Used       int     `json:"used"`
		Bounded    bool    `json:"bounded,omitempty"`
		BestBound  float64 `json:"bestBound,omitempty"`
		Gap        float64 `json:"gap,omitempty"`
	}{Makespan: alloc.Makespan, Imbalance: alloc.Imbalance, Used: alloc.Used,
		Bounded: alloc.Bounded, BestBound: alloc.BestBound, Gap: alloc.Gap}
	// An unproven bound is -Inf (gap +Inf), which JSON cannot encode; the
	// omitted fields plus "bounded": true signal "no proven bound".
	if math.IsInf(result.BestBound, 0) || math.IsNaN(result.BestBound) {
		result.BestBound = 0
	}
	if math.IsInf(result.Gap, 0) || math.IsNaN(result.Gap) {
		result.Gap = 0
	}
	for i, t := range doc.Tasks {
		result.Allocation = append(result.Allocation, out1{t.Name, alloc.Nodes[i], alloc.Times[i]})
	}
	return writeJSON(*out, result)
}

func cmdPredict(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	in := fs.String("in", "-", "fit JSON (default stdin)")
	ns := fs.String("n", "", "comma-separated node counts (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *ns == "" {
		return fmt.Errorf("predict: -n is required")
	}
	var fit perfmodel.FitResult
	if err := readJSON(*in, &fit); err != nil {
		return err
	}
	fmt.Printf("%s  (R² = %.5f)\n", fit.Params, fit.R2)
	for _, s := range strings.Split(*ns, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			return fmt.Errorf("predict: bad node count %q", s)
		}
		fmt.Printf("T(%d) = %.4f\n", n, fit.Params.Eval(float64(n)))
	}
	return nil
}

func cmdJobSize(args []string) error {
	fs := flag.NewFlagSet("jobsize", flag.ExitOnError)
	in := fs.String("in", "-", "tasks JSON (default stdin)")
	sizes := fs.String("sizes", "", "comma-separated candidate machine sizes (required)")
	minEff := fs.Float64("min-efficiency", 0.7, "efficiency floor for the cost-efficient size")
	table := fs.Bool("table", false,
		"answer the sweep from one parametric breakpoint table instead of solving per size")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sizes == "" {
		return fmt.Errorf("jobsize: -sizes is required")
	}
	var doc struct {
		Tasks []taskDoc `json:"tasks"`
	}
	if err := readJSON(*in, &doc); err != nil {
		return err
	}
	var tasks []core.Task
	for _, t := range doc.Tasks {
		tasks = append(tasks, core.Task{
			Name: t.Name, Perf: t.Params,
			MinNodes: t.MinNodes, MaxNodes: t.MaxNodes, Allowed: t.Allowed,
		})
	}
	var cands []int
	for _, s := range strings.Split(*sizes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			return fmt.Errorf("jobsize: bad size %q", s)
		}
		cands = append(cands, n)
	}
	var pts []core.JobSizePoint
	var err error
	if *table {
		var tab *core.ParametricTable
		pts, tab, err = core.SweepJobSizeTable(context.Background(), tasks, core.MinMax, cands)
		if err != nil {
			return err
		}
		fmt.Printf("parametric table: budgets [%d, %d], %d segments, %d solves (%d budgets skipped)\n\n",
			tab.FromN, tab.ToN, len(tab.Segments), tab.Solves, tab.Skipped)
	} else {
		pts, err = core.SweepJobSizeContext(context.Background(), tasks, core.MinMax, cands)
		if err != nil {
			return err
		}
	}
	fmt.Printf("%10s %14s %12s %10s %12s\n", "nodes", "makespan, s", "node-hours", "speedup", "efficiency")
	for _, p := range pts {
		fmt.Printf("%10d %14.3f %12.3f %10.2f %12.3f\n",
			p.Nodes, p.Makespan, p.NodeHours, p.Speedup, p.Efficiency)
	}
	fast, err := core.FastestSize(pts)
	if err != nil {
		return err
	}
	eff, err := core.CostEfficientSize(pts, *minEff)
	if err != nil {
		return err
	}
	fmt.Printf("\nshortest time to solution: %d nodes (%.3f s)\n", fast.Nodes, fast.Makespan)
	fmt.Printf("cost-efficient (eff ≥ %.0f%%): %d nodes (%.3f s, efficiency %.2f)\n",
		*minEff*100, eff.Nodes, eff.Makespan, eff.Efficiency)
	return nil
}

func cmdExportAMPL(args []string) error {
	fs := flag.NewFlagSet("export-ampl", flag.ExitOnError)
	in := fs.String("in", "-", "tasks JSON (default stdin)")
	out := fs.String("out", "-", "AMPL model output (default stdout)")
	nodes := fs.Int("nodes", 0, "total node budget N (required)")
	objective := fs.String("objective", "min-max", "min-max, max-min, or min-sum")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *nodes <= 0 {
		return fmt.Errorf("export-ampl: -nodes is required and positive")
	}
	var doc struct {
		Tasks []taskDoc `json:"tasks"`
	}
	if err := readJSON(*in, &doc); err != nil {
		return err
	}
	p := &core.Problem{TotalNodes: *nodes}
	obj, err := core.ParseObjective(*objective)
	if err != nil {
		return fmt.Errorf("export-ampl: %w", err)
	}
	p.Objective = obj
	for _, t := range doc.Tasks {
		p.Tasks = append(p.Tasks, core.Task{
			Name: t.Name, Perf: t.Params,
			MinNodes: t.MinNodes, MaxNodes: t.MaxNodes, Allowed: t.Allowed,
		})
	}
	var w io.Writer = os.Stdout
	if *out != "-" && *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return p.WriteAMPL(w)
}

func cmdDemo(args []string) error {
	fs := flag.NewFlagSet("demo", flag.ExitOnError)
	k := fs.Int("tasks", 8, "task count")
	n := fs.Int("nodes", 1024, "node budget")
	seed := fs.Uint64("seed", 1, "workload seed")
	parallel := fs.Int("parallel", 0, "pipeline worker pool bound: 0 = one worker per CPU, negative = serial; the run is bit-identical for any setting")
	deadline := fs.Duration("deadline", 0, "wall-clock bound for the solve step; on expiry the pipeline reports the best bounded allocation instead of failing")
	retries := fs.Int("retries", 2, "extra benchmark attempts per failed gather sample (with -failprob > 0)")
	failProb := fs.Float64("failprob", 0, "injected per-attempt benchmark failure probability, exercising the fault-tolerant gather path; 0 keeps the infallible benchmark")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rng := stats.NewRNG(*seed)
	truth := make([]perfmodel.Params, *k)
	names := make([]string, *k)
	for i := range truth {
		truth[i] = perfmodel.Params{
			A: rng.Range(500, 50000), B: rng.Range(0, 1e-3),
			C: 1 + rng.Float64()*0.3, D: rng.Range(0, 5),
		}
		names[i] = fmt.Sprintf("task%d", i)
	}
	cfg := &hslb.PipelineConfig{
		TaskNames: names,
		Execute: func(nodes []int) float64 {
			worst := 0.0
			for i, nn := range nodes {
				if v := truth[i].Eval(float64(nn)); v > worst {
					worst = v
				}
			}
			return worst
		},
		TotalNodes:  *n,
		Seed:        *seed,
		Parallelism: *parallel,
		Solver:      hslb.SolverOptions{Deadline: *deadline},
	}
	if *failProb > 0 {
		// The fault-tolerant path: per-(task,nodes) noise streams, so a
		// retried sample reproduces the failure-free measurement exactly,
		// plus deterministic injected failures.
		plan := stats.FaultPlan{Seed: *seed + 2, FailProb: *failProb}
		attempts := map[uint64]int{}
		cfg.GatherRetries = *retries
		cfg.BenchmarkE = hslb.GatherWithRNGE(*seed+1, func(ctx context.Context, task, nodes int, rng *stats.RNG) (float64, error) {
			key := stats.Key2(task, nodes)
			a := attempts[key]
			attempts[key]++
			if plan.Fails(key, a) {
				return 0, stats.ErrInjectedFault
			}
			return truth[task].Eval(float64(nodes)) * rng.LogNormFactor(0.02), nil
		})
	} else {
		cfg.Benchmark = hslb.GatherWithRNG(*seed+1, func(task, nodes int, rng *stats.RNG) float64 {
			return truth[task].Eval(float64(nodes)) * rng.LogNormFactor(0.02)
		})
	}
	res, err := hslb.RunPipeline(cfg)
	if err != nil {
		return err
	}
	if res.DroppedSamples != nil {
		total := 0
		for _, d := range res.DroppedSamples {
			total += d
		}
		fmt.Printf("gather: dropped %d sample(s) after %d retries\n", total, *retries)
	}
	rep := hslb.NewReport(names, res)
	if err := rep.WriteTable(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("prediction error: %.2f%%\n", res.PredictionError*100)
	return nil
}
