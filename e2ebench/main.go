// Command e2ebench is the repository's end-to-end benchmark. It builds
// cmd/hslbd from the checkout, starts it on loopback with its shipped
// defaults, drives one workload at it from this single process, checks
// every answer against the exact parametric optimum, and prints every
// metric by name with its unit; the last line of its output is one JSON
// object. Run it from the root of a checkout:
//
//	bash e2ebench/run.sh --workload paper-minlp --seed 1 --seconds 25 --trace 0
//
// With --trace 1 it also records a span per request, replays the run's
// misses through perfmodel, core and the MINLP solver, and prints the
// per-layer table. README.md gives the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workload is one traffic mix.
type workload struct {
	name string
	// open marks an open loop: requests are due on a schedule. A closed
	// loop has one client that waits for each answer.
	open bool
	// rate is, for a closed loop, the answers per second hslbd sustained
	// when the benchmark was defined. A closed-loop run sends the first
	// seconds×rate suite instances, so every run and every commit measure
	// the same work; a slow instance straddling a time limit would
	// otherwise decide how many instances a run holds.
	rate float64
	plan func(seed int64, n int, seconds float64) *plan
}

var workloads = []workload{
	{name: "paper-minlp", rate: 1.6, plan: func(seed int64, n int, _ float64) *plan {
		return paperMINLP(seed, n)
	}},
	{name: "fmo-serve", open: true, plan: func(seed int64, _ int, seconds float64) *plan {
		return fmoServe(seed, seconds)
	}},
	{name: "fmo-deadline", rate: 2.2, plan: func(seed int64, n int, _ float64) *plan {
		return fmoDeadline(seed, n)
	}},
}

// Run shape.
const (
	// A run sets up at least setupRounds times, and more, up to
	// setupMaxRounds, until the rounds have taken setupBudget; setup_s is
	// the median round.
	setupRounds    = 5
	setupMaxRounds = 40
	setupBudget    = 2 * time.Second
	conns          = 2               // keep-alive connections of the open loop
	replayBudget   = 6 * time.Second // traced run: time spent replaying misses
	closedCap      = 3               // a closed loop stops after this many run lengths
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-minlp, fmo-serve or fmo-deadline")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 20, "how long the timed traffic runs")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	root := fs.String("root", "..", "root of the checkout to build and measure")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: need --workload paper-minlp|fmo-serve|fmo-deadline, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	runtime.GOMAXPROCS(2)
	if err := measure(w, *root, *seed, *seconds, *trace == 1, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	return 0
}

// measure builds hslbd, makes the run's traffic and measures it. A traced
// run first makes an untraced run of the same traffic, whose end-to-end
// numbers it subtracts from its own to show the tracing overhead.
func measure(w *workload, root string, seed int64, seconds float64, traced bool, stdout, log io.Writer) error {
	bin, err := buildHslbd(root)
	if err != nil {
		return err
	}
	pl := w.plan(seed, int(math.Ceil(seconds*w.rate)), seconds)
	if err := prepare(pl); err != nil {
		return err
	}
	res, err := execute(w, bin, pl, seed, seconds, false, log)
	if err != nil {
		return err
	}
	if !traced {
		report(stdout, res, nil, root)
		return nil
	}
	tres, err := execute(w, bin, pl, seed, seconds, true, log)
	if err != nil {
		return err
	}
	report(stdout, tres, res, root)
	return nil
}

// result is everything one run measured.
type result struct {
	workload  string
	open      bool
	seed      int64
	traced    bool
	outs      []outcome // timed requests, in the order they were due
	elapsed   time.Duration
	setup     float64
	setupNote string
	rssMB     float64
	cpu       float64 // hslbd CPU seconds over the timed traffic
	before    statz
	after     statz
	// fits counts the sample sets hslbd fitted for the timed requests, and
	// repeatFits those it had fitted before in the run.
	fits, repeatFits int
	warmFailures     []string
	invalid          []string // failed run-validity checks
	replay           replayStats
	tr               *tracer
}

// execute starts hslbd from bin and sends it the traffic of pl.
func execute(w *workload, bin string, pl *plan, seed int64, seconds float64, traced bool, log io.Writer) (*result, error) {
	res := &result{workload: w.name, open: w.open, seed: seed, traced: traced}
	// Collect the generator's garbage before each timed phase, so that its
	// collector does not run during them.
	runtime.GC()

	// Set-up: start hslbd and send it the warm-up pass, in rounds; keep the
	// last one. setup_s is the median round.
	var rounds []float64
	var d *daemon
	var c *client
	var err error
	setupStart := time.Now()
	for i := 0; i < setupMaxRounds && (i < setupRounds || time.Since(setupStart) < setupBudget); i++ {
		if d != nil {
			c.close()
			d.stop()
		}
		t0 := time.Now()
		if d, err = startHslbd(bin); err != nil {
			return nil, err
		}
		c = newClient(d.url, conns, nil)
		// Every warm-up request is due at once, so both connections stay busy.
		warm, _ := runOpen(c, pl.warmup, conns)
		rounds = append(rounds, time.Since(t0).Seconds())
		for j := range warm {
			if warm[j].check(); !warm[j].ok() {
				res.warmFailures = append(res.warmFailures, warm[j].err.Error())
			}
		}
	}
	defer d.stop()
	defer c.close()
	runtime.GC()
	if traced {
		res.tr = newTracer()
		c.tr = res.tr
	}
	seen := map[uint64]bool{}
	for _, r := range pl.warmup {
		for _, h := range r.sampleSets {
			seen[h] = true
		}
	}
	res.setup = median(rounds).v
	res.setupNote = fmt.Sprintf("median of %d rounds of start + %d warm-up requests", len(rounds), len(pl.warmup))

	if err := d.waitIdle(); err != nil {
		return nil, err
	}
	if res.before, err = readStatz(c); err != nil {
		return nil, err
	}
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "e2ebench: %s seed %d: set-up done, timed traffic for %gs\n", w.name, seed, seconds)
	if w.open {
		res.outs, res.elapsed = runOpen(c, pl.timed, conns)
	} else {
		res.outs, res.elapsed = runClosed(c, pl.timed, closedCap*time.Duration(seconds*float64(time.Second)))
		if n := len(pl.timed) - len(res.outs); n > 0 {
			res.invalid = append(res.invalid, fmt.Sprintf("%d suite instances left unsent after %gx the run length", n, float64(closedCap)))
		}
	}
	// The last answers' table verification may still run; it is work the
	// timed requests caused, so it counts.
	if err := d.waitIdle(); err != nil {
		return nil, err
	}
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	res.cpu = cpu1 - cpu0
	if res.after, err = readStatz(c); err != nil {
		return nil, err
	}
	if res.rssMB, err = d.peakRSSMB(); err != nil {
		return nil, err
	}
	for i := range res.outs {
		for _, h := range res.outs[i].req.sampleSets {
			res.fits++
			if seen[h] {
				res.repeatFits++
			}
			seen[h] = true
		}
	}
	res.invalid = append(res.invalid, validate(res)...)
	d.stop()
	c.close()
	for i := range res.outs {
		res.outs[i].check()
	}

	if traced {
		res.replay = replay(res.tr, res.outs, replayBudget)
	}
	return res, nil
}

// validate runs the run-validity checks: hslbd counted exactly the
// requests sent, retries included, no solve is still running, and every
// request has ended.
func validate(res *result) []string {
	var bad []string
	sent := 0
	for i := range res.outs {
		sent += res.outs[i].attempts
	}
	if got := res.after.delta(res.before, "requests"); got != float64(sent) {
		bad = append(bad, fmt.Sprintf("statz requests grew by %g, %d were sent", got, sent))
	}
	if n := res.after["inFlight"]; n != 0 {
		bad = append(bad, fmt.Sprintf("statz inFlight is %g at the end", n))
	}
	outstanding := 0
	for i := range res.outs {
		if res.outs[i].done.IsZero() {
			outstanding++
		}
	}
	if outstanding > 0 {
		bad = append(bad, fmt.Sprintf("%d requests still outstanding", outstanding))
	}
	return bad
}

// summary is the last line of the output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints a run; untraced, given for a traced run, is the untraced
// run of the same traffic.
func report(w io.Writer, res *result, untraced *result, root string) {
	failed, wrong, refused := 0, 0, 0
	var firstErr []string
	for i := range res.outs {
		o := &res.outs[i]
		refused += o.refused
		if o.ok() {
			continue
		}
		failed++
		if o.wrong {
			wrong++
		}
		if len(firstErr) < 5 {
			firstErr = append(firstErr, fmt.Sprintf("request %d %s: %v", i, o.req.path, o.err))
		}
	}
	mode := "untraced"
	if res.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s, seed %d, %s: %d requests sent, %d failed (%d wrong answers); %d attempts refused with 429\n",
		res.workload, res.seed, mode, len(res.outs), failed, wrong, refused)
	for _, e := range firstErr {
		fmt.Fprintln(w, "  failure:", e)
	}
	for _, e := range res.warmFailures {
		fmt.Fprintln(w, "  warm-up failure:", e)
	}
	e2e := endToEndValues(res)
	layers := perLayerValues(res)
	printTable(w, "end-to-end metrics", endToEnd, e2e)
	fmt.Fprintf(w, "run validity: generator lateness p99 %.3f ms, hslbd CPU %.3f cores\n",
		layers["gen.lateness_p99_ms"].v, layers["hslbd.cpu_util"].v)
	for _, e := range res.invalid {
		fmt.Fprintln(w, "  RUN INVALID:", e)
	}
	if len(res.invalid) == 0 {
		fmt.Fprintln(w, "  valid: statz requests match, inFlight 0, none outstanding")
	}

	out := summary{
		Correct:   wrong == 0 && len(res.warmFailures) == 0 && len(res.invalid) == 0,
		Attempted: len(res.outs),
		Failed:    failed,
		Metrics:   map[string]metricValue{},
	}
	if res.traced {
		printTable(w, "per-layer metrics", perLayer, layers)
		rp := res.replay
		fmt.Fprintf(w, "replayed %d misses (%d left out after %s); spans by self time:\n", rp.instances, rp.skipped, replayBudget)
		printSelfTimes(w, res.tr.selfTimes())
		path := filepath.Join(root, ".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", res.workload, res.seed))
		if err := res.tr.write(path); err != nil {
			fmt.Fprintln(w, "writing spans:", err)
		} else {
			fmt.Fprintln(w, "spans written to", path)
		}
		printOverhead(w, e2e, endToEndValues(untraced))
		for _, d := range perLayer {
			out.Metrics[d.name] = metricValue{Value: jsonNumber(layers[d.name]), Unit: d.unit}
		}
	} else {
		for _, d := range endToEnd {
			if d.declared {
				out.Metrics[d.name] = metricValue{Value: jsonNumber(e2e[d.name]), Unit: d.unit}
			}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // every value went through jsonNumber
	}
	fmt.Fprintln(w, string(line))
}

// printOverhead prints the traced run's end-to-end numbers minus those of
// the untraced run of the same traffic.
func printOverhead(w io.Writer, traced, untraced map[string]value) {
	fmt.Fprintln(w, "tracing overhead: this traced run minus the untraced run of the same traffic just before it")
	for _, d := range endToEnd {
		t, u := traced[d.name], untraced[d.name]
		if t.ok && u.ok {
			fmt.Fprintf(w, "  %-22s %+14.6g %s\n", d.name, t.v-u.v, d.unit)
		}
	}
}
