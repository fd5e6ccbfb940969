package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/experiments"
	"repro/internal/perfmodel"
	"repro/internal/stats"
)

// Routes of hslbd that the workloads call.
const (
	pathMINLP      = "/v1/minlp"
	pathParametric = "/v1/parametric"
	pathSolve      = "/v1/solve"
)

// instance is one min-max allocation problem exactly as it is sent.
type instance struct {
	names []string
	// params are the coefficients the server solves with: as sent, or, for
	// a task sent as samples, the fit the server computes from them.
	params   []perfmodel.Params
	samples  [][]perfmodel.Sample // non-nil: the task is sent as samples
	allowed  [][]int
	maxNodes []int // 0: no cap
	budget   int
}

// request is one generated request and what its answer is checked against.
type request struct {
	path     string
	body     []byte
	inst     *instance
	ref      float64       // reference optimum makespan of inst
	deadline time.Duration // the request's deadlineMs; 0 when it sets none
	at       time.Duration // open loop: due time from the start of the run
	// sampleSets hashes each sample-bearing task's sample set, for counting
	// how often the server fits a set it has fitted before.
	sampleSets []uint64
}

// plan is one run's traffic: an untimed warm-up pass, then the timed
// requests. Closed-loop plans hold more timed requests than a run can send.
type plan struct {
	warmup []*request
	timed  []*request
	// base holds, per request, the unrespelled instance whose reference
	// optimum it shares (nil when the request is its own base).
	base map[*request]*baseRef
}

// baseRef ties a respelled request to its family: the reference of the
// family's base instance at budget, times 2^scaleExp, is the request's.
type baseRef struct {
	fam      *family
	budget   int
	scaleExp int
}

type wireRequest struct {
	Tasks      []wireTask `json:"tasks"`
	TotalNodes int        `json:"totalNodes"`
	DeadlineMs int64      `json:"deadlineMs,omitempty"`
}

type wireTask struct {
	Name     string             `json:"name"`
	Params   *wireParams        `json:"params,omitempty"`
	Samples  []perfmodel.Sample `json:"samples,omitempty"`
	MaxNodes int                `json:"maxNodes,omitempty"`
	Allowed  []int              `json:"allowed,omitempty"`
}

type wireParams struct {
	A float64 `json:"a"`
	B float64 `json:"b"`
	C float64 `json:"c"`
	D float64 `json:"d"`
}

// encode renders inst as a request body.
func encode(inst *instance, deadline time.Duration) []byte {
	w := wireRequest{TotalNodes: inst.budget, DeadlineMs: deadline.Milliseconds()}
	w.Tasks = make([]wireTask, len(inst.names))
	for i := range w.Tasks {
		t := wireTask{Name: inst.names[i], MaxNodes: inst.maxNodes[i], Allowed: inst.allowed[i]}
		if inst.samples[i] != nil {
			t.Samples = inst.samples[i]
		} else {
			p := inst.params[i]
			t.Params = &wireParams{A: p.A, B: p.B, C: p.C, D: p.D}
		}
		w.Tasks[i] = t
	}
	data, err := json.Marshal(w)
	if err != nil {
		panic(err) // plain structs of finite numbers always marshal
	}
	return data
}

// newRNG derives an independent stream per purpose from the run seed, so
// that changing how one part draws leaves the others' draws unchanged.
func newRNG(seed int64, stream uint64) *rand.Rand {
	z := uint64(seed) + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z)))
}

// deck deals the values lo..hi in a seeded order, reshuffling after every
// pass, so any run of hi-lo+1 consecutive draws covers each value once.
type deck struct {
	rng   *rand.Rand
	cards []int
	next  int
}

func newDeck(rng *rand.Rand, lo, hi int) *deck {
	d := &deck{rng: rng}
	for v := lo; v <= hi; v++ {
		d.cards = append(d.cards, v)
	}
	d.next = len(d.cards)
	return d
}

func (d *deck) draw() int {
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

// paperTask draws a task the way the solver experiments T4 and T9 do
// (solverInstance and tableInstance in internal/experiments): the paper's
// T(n) = a/n + b·n^c + d with a in [1e3, 5e4), b in [0, 1e-3), c in
// [1, 1.4) and d in [0, 10).
func paperTask(rng *rand.Rand) perfmodel.Params {
	return perfmodel.Params{
		A: 1e3 + rng.Float64()*(5e4-1e3),
		B: rng.Float64() * 1e-3,
		C: 1 + rng.Float64()*0.4,
		D: rng.Float64() * 10,
	}
}

// sweetSpots draws a sweet-spot allowed set of at most size counts below
// total by T4's rule: start at 1–3, then step by 1 to 2·total/size/3+1.
func sweetSpots(rng *rand.Rand, size, total int) []int {
	var set []int
	for n := 1 + rng.Intn(3); len(set) < size && n < total; n += 1 + rng.Intn(2*total/size/3+1) {
		set = append(set, n)
	}
	return set
}

// powersOfTwo is the allowed set of a task restricted to power-of-two
// group sizes up to max, the production shape of T9's breakpoint tables.
func powersOfTwo(max int) []int {
	var out []int
	for v := 1; v <= max; v *= 2 {
		out = append(out, v)
	}
	return out
}

// ---- FMO tasks ---------------------------------------------------------

// FMO instances come from the repository's FMO cost model, built as the
// experiments build the paper's FMO problems: experiments.Protein (one
// residue per fragment) or experiments.Water (two waters per fragment) on
// Intrepid. Each fragment is benchmarked at fmoSamplePoints node counts
// from 1 to its useful block count, as Workload.FitAll does, and fitted
// with hslbd's fit options; the block count (CostModel.MaxUsefulNodes) is
// sent as the task's maxNodes, as Workload.Problem sets it.
const fmoSamplePoints = 5

// fmoFits caches fitted coefficients by a fragment's basis-function count,
// the only property of a fragment its noise-free monomer time depends on:
// protein (20 residue kinds) and water families need at most 21 fits.
type fmoFits map[int]perfmodel.Params

// fmoSystem draws an FMO molecule of k fragments with its cost model.
func fmoSystem(rng *rand.Rand, k, budget int, water bool) *experiments.Workload {
	if water {
		return experiments.Water(2*k, budget, rng.Uint64())
	}
	return experiments.Protein(k, budget, rng.Uint64())
}

// fmoSamples benchmarks fragment i of w; noise nil gives noise-free times.
func fmoSamples(w *experiments.Workload, i int, noise *stats.RNG) []perfmodel.Sample {
	counts := perfmodel.SuggestSampleNodes(1, w.Cost.MaxUsefulNodes(i), fmoSamplePoints)
	return w.Cost.GatherMonomerSamples(i, counts, noise)
}

// instance is w at budget as an allocation instance. A pow2Max above 0
// restricts each task to power-of-two group sizes up to pow2Max and its cap.
func (f fmoFits) instance(w *experiments.Workload, budget, pow2Max int) *instance {
	inst := newInstance(w.NumTasks(), budget)
	for i := range inst.names {
		frag := &w.Mol.Fragments[i]
		p, ok := f[frag.NBasis]
		if !ok {
			res, err := perfmodel.Fit(fmoSamples(w, i, nil), serverFit)
			if err != nil {
				panic(fmt.Sprintf("fitting a %d-function FMO fragment: %v", frag.NBasis, err))
			}
			p = res.Params
			f[frag.NBasis] = p
		}
		inst.names[i] = frag.Name
		inst.params[i] = p
		inst.maxNodes[i] = w.Cost.MaxUsefulNodes(i)
		if pow2Max > 0 {
			inst.allowed[i] = powersOfTwo(min(inst.maxNodes[i], pow2Max))
		}
	}
	return inst
}

func newRequest(path string, inst *instance, deadline time.Duration) *request {
	return &request{path: path, body: encode(inst, deadline), inst: inst, deadline: deadline}
}

func newInstance(k, budget int) *instance {
	inst := &instance{
		names:    make([]string, k),
		params:   make([]perfmodel.Params, k),
		samples:  make([][]perfmodel.Sample, k),
		allowed:  make([][]int, k),
		maxNodes: make([]int, k),
		budget:   budget,
	}
	for i := range inst.names {
		inst.names[i] = fmt.Sprintf("frag-%d", i)
	}
	return inst
}

// ---- closed-loop suites ------------------------------------------------

// suiteSeed draws the instance shapes of the closed-loop workloads. The
// branch-and-bound effort of an instance is chaotic: on the paper-minlp
// suite two instances of one size differ by up to 30×. A run sends only a
// few dozen instances, so drawing them per seed would make each run measure
// different work. Every seed therefore sends the same suite, respelled: its
// tasks in a new order and its time coefficients scaled by an exact power
// of two. hslbd canonicalizes both away, so the solver work of a run does
// not depend on the seed, while the bytes it receives do.
const suiteSeed = 20120501

// rescaled returns b with its tasks permuted and its time coefficients
// scaled by a power of two drawn from mix.
func rescaled(b *instance, mix *rand.Rand) *instance {
	return respell(b, b.budget, mix.Perm(len(b.names)), math.Ldexp(1, mix.Intn(9)-4))
}

// paperMINLP is the paper's own solver on instances it proves optimal:
// 4–12-task integer ranges and 8-task allowed sets of 8 sweet spots, each
// sent once.
func paperMINLP(seed int64, n int) *plan {
	rng := newRNG(suiteSeed, 1)
	sizes := newDeck(newRNG(suiteSeed, 2), 4, 12)
	mix := newRNG(seed, 1)
	pl := &plan{}
	for i := 0; i < n; i++ {
		var inst *instance
		if i%3 == 2 {
			inst = newInstance(8, 48)
			for t := range inst.params {
				inst.params[t] = paperTask(rng)
				inst.allowed[t] = sweetSpots(rng, 8, inst.budget)
			}
		} else {
			k := sizes.draw()
			inst = newInstance(k, 6*k)
			for t := range inst.params {
				inst.params[t] = paperTask(rng)
			}
		}
		pl.timed = append(pl.timed, newRequest(pathMINLP, rescaled(inst, mix), paperGuard))
	}
	return pl
}

// paperGuard is paper-minlp's deadline: far beyond any solve of these
// sizes, it only keeps a hung solve from stalling the run.
const paperGuard = 60 * time.Second

// fmoDeadlineMs is the deadline every fmo-deadline request carries.
const fmoDeadlineMs = 100

// fmoDeadline is /v1/solve at FMO sizes under a 100 ms deadline: distinct
// protein instances whose fragment count is spread evenly over 16–64, one
// in eight restricted to power-of-two group sizes.
func fmoDeadline(seed int64, n int) *plan {
	rng := newRNG(suiteSeed, 3)
	strata := newDeck(newRNG(suiteSeed, 4), 0, 7)
	mix := newRNG(seed, 1)
	fits := fmoFits{}
	pl := &plan{}
	for i := 0; i < n; i++ {
		// Eight strata of width 6 over [16, 64), one fragment count drawn
		// uniformly inside each: continuous sizes, even coverage.
		k := 16 + 6*strata.draw() + rng.Intn(6)
		pow2Max := 0
		if i%8 == 7 {
			pow2Max = 6 * k
		}
		inst := fits.instance(fmoSystem(rng, k, 6*k, false), 6*k, pow2Max)
		pl.timed = append(pl.timed, newRequest(pathSolve, rescaled(inst, mix), fmoDeadlineMs*time.Millisecond))
	}
	return pl
}

// ---- fmo-serve ---------------------------------------------------------

// fmo-serve traffic shape.
const (
	serveRate       = 40.0 // offered load of the catalog stream, requests per second
	serveFamilies   = 40   // Zipf catalog of FMO families
	serveZipfS      = 1.1
	serveSweep      = 4 // nearby budgets per family
	serveSampleFams = 3 // families sent as raw samples
	serveFreshShare = 0.02
	servePermute    = 0.3
	serveRescale    = 0.2
	// samplePeriod spaces the sample-bearing requests: one per period, at a
	// random point of its middle half, about 0.4% of the traffic. hslbd
	// fits every task of such a request, about 1.1 s of one core at 64
	// tasks. The spacing keeps two of them from holding both connections at
	// once; at one per 3 s they took two thirds of hslbd's CPU, and slow
	// spells of the shared machine then queued the catalog stream.
	samplePeriod = 6 * time.Second
)

// serveSizes is the size ladder of the catalog by popularity rank: every
// seed spreads its traffic over the same task counts, which set the cost
// of a cache hit.
var serveSizes = [4]int{128, 512, 64, 256}

type family struct {
	inst    *instance // at the family's base budget
	budgets []int     // the job-size sweep
	samples bool
}

// newFamily makes FMO system w a family, at a base budget of 6 nodes per
// fragment. A pow2 family restricts every task to power-of-two group sizes.
func newFamily(fits fmoFits, w *experiments.Workload, pow2 bool) *family {
	base := 6 * w.NumTasks()
	step := base/100 + 1
	f := &family{}
	for j := -serveSweep / 2; j < serveSweep/2; j++ {
		f.budgets = append(f.budgets, base+j*step)
	}
	pow2Max := 0
	if pow2 {
		pow2Max = f.budgets[0]
	}
	f.inst = fits.instance(w, base, pow2Max)
	return f
}

// sampleFamily is a 64-fragment protein sent as raw benchmark samples:
// each fragment timed by the cost model at the node counts FitAll uses,
// with Intrepid's run-to-run noise. Its params are replaced by the
// server's fit of the samples at set-up.
func sampleFamily(rng *rand.Rand, fits fmoFits, noise *stats.RNG) *family {
	w := fmoSystem(rng, 64, 6*64, false)
	f := newFamily(fits, w, false)
	for t := range f.inst.samples {
		f.inst.samples[t] = fmoSamples(w, t, noise)
	}
	f.samples = true
	return f
}

// fmoServe is repeated production traffic on /v1/parametric: random
// arrivals at serveRate over a Zipf catalog, respelled by permutation and
// power-of-two rescaling, with a few never-seen families, merged with the
// sample-bearing stream. The warm-up pass sends every catalog family once
// at its base budget; the other budgets of a sweep, and the sample-bearing
// families, are first seen timed. The catalog and the sample-bearing
// families come from the suite seed, so every run serves the same systems;
// the run seed draws the traffic over them and the never-seen families.
func fmoServe(seed int64, seconds float64) *plan {
	rng := newRNG(suiteSeed, 5)
	fits := fmoFits{}
	cat := make([]*family, serveFamilies)
	for r := range cat {
		k := serveSizes[r%len(serveSizes)]
		cat[r] = newFamily(fits, fmoSystem(rng, k, 6*k, r%5 == 2), r%3 == 1)
	}
	noise := stats.NewRNG(newRNG(suiteSeed, 7).Uint64())
	sfam := make([]*family, serveSampleFams)
	for i := range sfam {
		sfam[i] = sampleFamily(rng, fits, noise)
	}
	pl := &plan{base: map[*request]*baseRef{}}
	add := func(f *family, budget int, mix *rand.Rand) *request {
		inst, e := respellFamily(f, budget, mix)
		r := newRequest(pathParametric, inst, 0)
		pl.base[r] = &baseRef{fam: f, budget: budget, scaleExp: e}
		return r
	}
	for _, f := range cat {
		pl.warmup = append(pl.warmup, add(f, f.inst.budget, nil))
	}

	// The catalog stream is a Poisson process conditioned on its count:
	// rate×seconds arrivals at sorted uniform times, so every run offers
	// the same load.
	mix := newRNG(seed, 2)
	arrivals := newRNG(seed, 3)
	zipf := rand.NewZipf(newRNG(seed, 4), serveZipfS, 1, serveFamilies-1)
	fresh := newRNG(seed, 5)
	span := float64(time.Duration(seconds * float64(time.Second)))
	at := make([]time.Duration, int(serveRate*seconds))
	for i := range at {
		at[i] = time.Duration(arrivals.Float64() * span)
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	for _, t := range at {
		f := cat[zipf.Uint64()]
		if mix.Float64() < serveFreshShare {
			k := serveSizes[fresh.Intn(len(serveSizes))]
			f = newFamily(fits, fmoSystem(fresh, k, 6*k, fresh.Intn(5) == 0), fresh.Intn(3) == 0)
		}
		r := add(f, f.budgets[mix.Intn(len(f.budgets))], mix)
		r.at = t
		pl.timed = append(pl.timed, r)
	}
	smix := newRNG(seed, 6)
	for p := time.Duration(0); p+samplePeriod <= time.Duration(span); p += samplePeriod {
		f := sfam[smix.Intn(len(sfam))]
		r := add(f, f.budgets[smix.Intn(len(f.budgets))], smix)
		r.at = p + samplePeriod/4 + time.Duration(smix.Float64()*float64(samplePeriod/2))
		pl.timed = append(pl.timed, r)
	}
	sort.SliceStable(pl.timed, func(i, j int) bool { return pl.timed[i].at < pl.timed[j].at })
	return pl
}

// respellFamily returns family f at the given budget, possibly with its
// tasks permuted or, for families sent as params, every coefficient but the
// exponent scaled by an exact power of two 2^e. Both spellings share the
// base instance's cache slot. A nil mix sends the base spelling.
func respellFamily(f *family, budget int, mix *rand.Rand) (*instance, int) {
	k := len(f.inst.names)
	perm := make([]int, k)
	for i := range perm {
		perm[i] = i
	}
	e := 0
	if mix != nil {
		if mix.Float64() < servePermute {
			perm = mix.Perm(k)
		}
		if mix.Float64() < serveRescale && !f.samples {
			e = mix.Intn(12) - 6
			if e >= 0 {
				e++
			}
		}
	}
	return respell(f.inst, budget, perm, math.Ldexp(1, e)), e
}

// respell returns b at the given budget with task i taken from b's task
// perm[i] and the time coefficients a, b and d multiplied by factor.
func respell(b *instance, budget int, perm []int, factor float64) *instance {
	inst := newInstance(len(perm), budget)
	for i, src := range perm {
		inst.names[i] = b.names[src]
		p := b.params[src]
		inst.params[i] = perfmodel.Params{A: p.A * factor, B: p.B * factor, C: p.C, D: p.D * factor}
		inst.samples[i] = b.samples[src]
		inst.allowed[i] = b.allowed[src]
		inst.maxNodes[i] = b.maxNodes[src]
	}
	return inst
}
