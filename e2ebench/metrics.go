package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metricDef names one metric. Bound, on an end-to-end metric that
// BENCHMARK.json declares, is the share of the baseline median by which it
// may get worse before a change counts as a regression.
type metricDef struct {
	name, unit, better string
	bound              float64
	declared           bool
}

// endToEnd are the metrics a user of hslbd sees. The declared ones, which
// BENCHMARK.json lists, are never 0 and stayed within their bounds across
// seeds on every workload; the rest are printed for reading.
var endToEnd = []metricDef{
	{name: "cpu_ms_per_request", unit: "ms", better: "lower", bound: 0.24, declared: true},
	{name: "latency_gmean_ms", unit: "ms", better: "lower"},
	{name: "latency_p50_ms", unit: "ms", better: "lower"},
	{name: "latency_p90_ms", unit: "ms", better: "lower"},
	{name: "latency_p99_ms", unit: "ms", better: "lower"},
	{name: "throughput_rps", unit: "1/s", better: "higher"},
	{name: "slo_attainment", unit: "share", better: "higher"},
	{name: "error_rate", unit: "share", better: "lower"},
	{name: "optimal_share", unit: "share", better: "higher"},
	{name: "makespan_excess_pct", unit: "%", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, declared: true},
}

// perLayer are the metrics of single layers, printed by the traced run.
var perLayer = []metricDef{
	{name: "serve.hit_share", unit: "share", better: "higher"},
	{name: "serve.table_hit_share", unit: "share", better: "higher"},
	{name: "serve.miss_share", unit: "share", better: "lower"},
	{name: "serve.rejected_share", unit: "share", better: "lower"},
	{name: "serve.shed_share", unit: "share", better: "lower"},
	{name: "serve.hit_latency_p50_ms", unit: "ms", better: "lower"},
	{name: "serve.table_latency_p50_ms", unit: "ms", better: "lower"},
	{name: "serve.miss_latency_p50_ms", unit: "ms", better: "lower"},
	{name: "serve.request_kb", unit: "kB", better: "lower"},
	{name: "serve.response_kb", unit: "kB", better: "lower"},
	{name: "serve.solves_per_miss", unit: "count", better: "lower"},
	{name: "serve.table_hits_per_table_solve", unit: "count", better: "higher"},
	{name: "perfmodel.fits_per_request", unit: "count", better: "lower"},
	{name: "perfmodel.fit_ms_per_task", unit: "ms", better: "lower"},
	{name: "perfmodel.repeat_fit_share", unit: "share", better: "lower"},
	{name: "core.parametric_ms_p50", unit: "ms", better: "lower"},
	{name: "core.minlp_ms_p50", unit: "ms", better: "lower"},
	{name: "core.canonical_ms_p50", unit: "ms", better: "lower"},
	{name: "core.fallback_share", unit: "share", better: "lower"},
	{name: "core.gap_mean", unit: "share", better: "lower"},
	{name: "core.deadline_overshoot_ms_p90", unit: "ms", better: "lower"},
	{name: "minlp.nodes_per_solve", unit: "count", better: "lower"},
	{name: "minlp.oa_cuts_per_solve", unit: "count", better: "lower"},
	{name: "milp.lp_solves_per_solve", unit: "count", better: "lower"},
	{name: "milp.nodes_per_s", unit: "1/s", better: "higher"},
	{name: "lp.pivots_per_solve", unit: "count", better: "lower"},
	{name: "lp.pivots_per_node_lp", unit: "count", better: "lower"},
	{name: "lp.us_per_pivot", unit: "us", better: "lower"},
	{name: "lp.revised_solves", unit: "count", better: "higher"},
	{name: "lp.fallbacks", unit: "count", better: "lower"},
	{name: "lp.refactors", unit: "count", better: "lower"},
	{name: "lp.ft_updates", unit: "count", better: "lower"},
	{name: "lp.crash_installs", unit: "count", better: "higher"},
	{name: "lp.crash_declines", unit: "count", better: "lower"},
	{name: "lp.border_solves", unit: "count", better: "higher"},
	{name: "lp.agg_merges", unit: "count", better: "higher"},
	{name: "hslbd.cpu_ms_per_request", unit: "ms", better: "lower"},
	{name: "hslbd.cpu_util", unit: "cores", better: "lower"},
	{name: "gen.lateness_p99_ms", unit: "ms", better: "lower"},
}

// value is a computed metric; note says what it rests on.
type value struct {
	v    float64
	note string
	ok   bool // false: the sample does not support the metric
}

// quantile is the q-quantile of sorted xs, interpolated linearly between
// the two nearest order statistics.
func quantile(sorted []float64, q float64) float64 {
	h := q * float64(len(sorted)-1)
	i := int(h)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (h-float64(i))*(sorted[i+1]-sorted[i])
}

// beyond is how many of n samples lie beyond the q-quantile by rank.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n)-1e-9)) }

// minBeyond is how many samples must lie beyond a tail percentile before
// it is reported.
const minBeyond = 10

// percentile reports the q-quantile of xs (in any order) when at least
// minBeyond samples lie beyond it, stating the sample count either way.
func percentile(xs []float64, q float64) value {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := beyond(len(s), q)
	v := value{ok: len(s) > 0 && k >= minBeyond, note: fmt.Sprintf("n=%d, %d beyond", len(s), k)}
	if len(s) > 0 {
		v.v = quantile(s, q)
	}
	return v
}

// median is the 0.5-quantile of xs, reported whenever there are samples.
func median(xs []float64) value {
	v := percentile(xs, 0.5)
	v.ok, v.note = len(xs) > 0, fmt.Sprintf("n=%d", len(xs))
	return v
}

// geomean is the geometric mean of xs, which are all above 0. On a fixed
// suite of instances whose solve times span three orders of magnitude it
// averages every instance's latency, where the median follows whichever
// instance lands in the middle.
func geomean(xs []float64) value {
	if len(xs) == 0 {
		return value{note: "n=0"}
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return value{v: math.Exp(sum / float64(len(xs))), ok: true, note: fmt.Sprintf("n=%d", len(xs))}
}

func share(part, whole int) value {
	if whole == 0 {
		return value{note: "n=0"}
	}
	return value{v: float64(part) / float64(whole), ok: true, note: fmt.Sprintf("%d/%d", part, whole)}
}

func ratio(num, den float64, note string) value {
	if den == 0 {
		return value{note: note}
	}
	return value{v: num / den, ok: true, note: note}
}

// sloSlack is what a deadline-bearing request may take beyond its deadline
// and still meet its latency limit; serveSLO is the fixed limit of requests
// that set no deadline.
const (
	sloSlack = 100 * time.Millisecond
	serveSLO = 50 * time.Millisecond
)

func sloLimit(r *request) time.Duration {
	if r.deadline > 0 {
		return r.deadline + sloSlack
	}
	return serveSLO
}

// latencyMs is o's latency in ms as the percentiles take it. A request that
// failed in any way, or was refused before it was answered, counts as
// taking requestTimeout, the longest a request can take, so it misses
// every latency limit.
func latencyMs(o *outcome) float64 {
	if !o.ok() || o.refused > 0 {
		return ms(requestTimeout)
	}
	return ms(o.latency())
}

// endToEndValues computes every end-to-end metric of a run.
func endToEndValues(res *result) map[string]value {
	outs := res.outs
	// waited is every request's measured latency, until its answer or its
	// failure: a failure after a 2 s queue wait counts as 2 s, not as the
	// 60 s timeout, so one failure does not move the mean by a tenth.
	var lat, waited []float64
	answered, optimal, inSLO := 0, 0, 0
	excess := 0.0
	for i := range outs {
		o := &outs[i]
		lat = append(lat, latencyMs(o))
		waited = append(waited, ms(o.latency()))
		if !o.ok() {
			continue
		}
		answered++
		if o.resp.Solution.Status == "optimal" {
			optimal++
		}
		if o.refused == 0 && o.latency() <= sloLimit(o.req) {
			inSLO++
		}
		excess += 100 * (o.resp.Solution.Makespan/o.req.ref - 1)
	}
	m := map[string]value{
		"cpu_ms_per_request":  ratio(1000*res.cpu, float64(len(outs)), fmt.Sprintf("%.2f hslbd CPU s / %d requests", res.cpu, len(outs))),
		"latency_gmean_ms":    geomean(waited),
		"latency_p50_ms":      median(lat),
		"latency_p90_ms":      percentile(lat, 0.9),
		"latency_p99_ms":      percentile(lat, 0.99),
		"throughput_rps":      throughput(res, answered),
		"slo_attainment":      share(inSLO, len(outs)),
		"error_rate":          share(len(outs)-answered, len(outs)),
		"optimal_share":       share(optimal, answered),
		"makespan_excess_pct": ratio(excess, float64(answered), fmt.Sprintf("n=%d", answered)),
		"peak_rss_mb":         {v: res.rssMB, ok: true, note: "VmHWM"},
		"setup_s":             {v: res.setup, ok: true, note: res.setupNote},
	}
	return m
}

// throughput is checked answers per second of a closed loop. An open loop
// answers at the rate it offers, so it does not report one.
func throughput(res *result, answered int) value {
	if res.open {
		return value{note: "open loop: the offered rate"}
	}
	return ratio(float64(answered), res.elapsed.Seconds(),
		fmt.Sprintf("%d checked answers in %.2fs", answered, res.elapsed.Seconds()))
}

// perLayerValues computes every per-layer metric of a run.
func perLayerValues(res *result) map[string]value {
	outs := res.outs
	n := len(outs)
	states := map[string]int{}
	stateLat := map[string][]float64{}
	var reqBytes, respBytes, answered, fallbacks int
	var gapSum float64
	var overshoot, lateness []float64
	var misses, minlpMisses, nodes, cuts, lpSolves, pivots int
	var minlpSeconds float64
	attempts, rejected := 0, 0
	for i := range outs {
		o := &outs[i]
		reqBytes += len(o.req.body)
		lateness = append(lateness, ms(o.sent.Sub(o.due)))
		attempts += o.attempts
		rejected += o.refused
		if o.req.deadline > 0 {
			overshoot = append(overshoot, math.Max(0, latencyMs(o)-ms(o.req.deadline)))
		}
		if !o.ok() {
			continue
		}
		answered++
		respBytes += o.respBytes
		states[o.cache]++
		stateLat[o.cache] = append(stateLat[o.cache], ms(o.latency()))
		sol, meta := &o.resp.Solution, &o.resp.Meta
		gapSum += sol.Gap
		if sol.Status == "bounded" && meta.SolverNodes == 0 {
			fallbacks++
		}
		if o.cache != "miss" {
			continue
		}
		misses++
		pivots += meta.Pivots
		if o.req.path != pathParametric {
			minlpMisses++
			nodes += meta.SolverNodes
			cuts += meta.OACuts
			lpSolves += meta.LPSolves
			minlpSeconds += o.latency().Seconds()
		}
	}
	d := func(key string) float64 { return res.after.delta(res.before, key) }
	count := func(key string) value {
		return value{v: d(key), ok: true, note: "statz " + key}
	}
	rp := res.replay
	m := map[string]value{
		"serve.hit_share":                  share(states["hit"], n),
		"serve.table_hit_share":            share(states["table"], n),
		"serve.miss_share":                 share(states["miss"], n),
		"serve.rejected_share":             share(rejected, attempts),
		"serve.shed_share":                 share(states["shed"], n),
		"serve.hit_latency_p50_ms":         median(stateLat["hit"]),
		"serve.table_latency_p50_ms":       median(stateLat["table"]),
		"serve.miss_latency_p50_ms":        median(stateLat["miss"]),
		"serve.request_kb":                 ratio(float64(reqBytes)/1024, float64(n), fmt.Sprintf("n=%d", n)),
		"serve.response_kb":                ratio(float64(respBytes)/1024, float64(answered), fmt.Sprintf("n=%d", answered)),
		"serve.solves_per_miss":            ratio(d("solves"), d("misses"), fmt.Sprintf("%.0f solves / %.0f misses", d("solves"), d("misses"))),
		"serve.table_hits_per_table_solve": ratio(d("tableHits"), d("tableSolves"), fmt.Sprintf("%.0f table hits / %.0f table solves", d("tableHits"), d("tableSolves"))),
		"perfmodel.fits_per_request":       ratio(float64(res.fits), float64(n), fmt.Sprintf("%d task fits / %d requests", res.fits, n)),
		"perfmodel.fit_ms_per_task":        ratio(rp.fitMs, float64(rp.fitTasks), fmt.Sprintf("replay, %d fits", rp.fitTasks)),
		"perfmodel.repeat_fit_share":       share(res.repeatFits, res.fits),
		"core.parametric_ms_p50":           median(rp.parametricMs),
		"core.minlp_ms_p50":                median(rp.minlpMs),
		"core.canonical_ms_p50":            median(rp.canonicalMs),
		"core.fallback_share":              share(fallbacks, answered),
		"core.gap_mean":                    ratio(gapSum, float64(answered), fmt.Sprintf("n=%d", answered)),
		"core.deadline_overshoot_ms_p90":   percentile(overshoot, 0.9),
		"minlp.nodes_per_solve":            ratio(float64(nodes), float64(minlpMisses), fmt.Sprintf("n=%d", minlpMisses)),
		"minlp.oa_cuts_per_solve":          ratio(float64(cuts), float64(minlpMisses), fmt.Sprintf("n=%d", minlpMisses)),
		"milp.lp_solves_per_solve":         ratio(float64(lpSolves), float64(minlpMisses), fmt.Sprintf("n=%d", minlpMisses)),
		"milp.nodes_per_s":                 ratio(float64(nodes), minlpSeconds, fmt.Sprintf("%d nodes / %.2fs", nodes, minlpSeconds)),
		"lp.pivots_per_solve":              ratio(float64(pivots), float64(misses), fmt.Sprintf("n=%d", misses)),
		"lp.pivots_per_node_lp":            ratio(float64(rp.nodePivots), float64(rp.nodeLPs), fmt.Sprintf("replay, %d node LPs", rp.nodeLPs)),
		"lp.us_per_pivot":                  ratio(rp.minlpSeconds*1e6, float64(rp.nodePivots), fmt.Sprintf("replay, %d node-LP pivots", rp.nodePivots)),
		"lp.revised_solves":                count("engineSolves"),
		"lp.fallbacks":                     count("engineFallbacks"),
		"lp.refactors":                     count("engineRefactors"),
		"lp.ft_updates":                    count("engineUpdates"),
		"lp.crash_installs":                count("engineCrashInstalls"),
		"lp.crash_declines":                count("engineCrashDeclines"),
		"lp.border_solves":                 count("engineBorderSolves"),
		"lp.agg_merges":                    count("engineAggMerges"),
		"hslbd.cpu_ms_per_request":         ratio(1000*res.cpu, float64(n), fmt.Sprintf("%.2f CPU s / %d requests", res.cpu, n)),
		"hslbd.cpu_util":                   ratio(res.cpu, res.elapsed.Seconds(), "CPU s per s"),
		"gen.lateness_p99_ms":              percentile(lateness, 0.99),
	}
	// These two tail percentiles describe the run rather than gate it, so
	// they are shown with their sample count even below the ten-beyond rule.
	for _, k := range []string{"core.deadline_overshoot_ms_p90", "gen.lateness_p99_ms"} {
		v := m[k]
		v.ok = len(outs) > 0
		m[k] = v
	}
	return m
}

// printTable prints one metric table, one line per metric.
func printTable(w io.Writer, title string, defs []metricDef, vals map[string]value) {
	fmt.Fprintf(w, "%s\n", title)
	for _, d := range defs {
		v := vals[d.name]
		shown := "not reported"
		if v.ok {
			shown = fmt.Sprintf("%.6g", v.v)
		}
		fmt.Fprintf(w, "  %-34s %14s %-6s (%s is better; %s)\n", d.name, shown, d.unit, d.better, v.note)
	}
}

// jsonNumber makes v encodable: a metric the run cannot support is 0.
func jsonNumber(v value) float64 {
	if !v.ok || math.IsNaN(v.v) || math.IsInf(v.v, 0) {
		return 0
	}
	return v.v
}
