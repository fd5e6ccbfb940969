// Package perfmodel implements the HSLB performance model of the paper
// (Table II of the companion text):
//
//	T(n) = T_sca(n) + T_nln(n) + T_ser = a/n + b·nᶜ + d,   a, b, c, d ≥ 0
//
// where n is the number of nodes allocated to a task,
//
//   - a/n is the perfectly scalable (Amdahl) part, monotonically decreasing
//     towards zero;
//   - b·nᶜ captures the partially parallelized / communication /
//     synchronization overhead, an increasing function on the machines the
//     paper studied (on Intrepid, "this term was increasing ... parameters
//     c, b almost equal to zero");
//   - d is the serial remainder, a constant floor that dominates at scale.
//
// Fitting minimizes the sum of squared residuals against measured
// wall-clock samples, with all coefficients constrained non-negative, via
// projected Levenberg–Marquardt with multistart (package nlp). By default
// the exponent is constrained to c ≥ 1, which together with a, b, d ≥ 0
// makes T convex on n > 0 — the property that makes the paper's LP/NLP
// branch-and-bound globally optimal. The follow-up text observes b and c
// "almost equal to zero" on Intrepid; with b ≈ 0 the exponent is barely
// identifiable, so constraining c ≥ 1 costs essentially no fit quality
// while buying the convexity guarantee (DESIGN.md, decision 1).
package perfmodel

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/nlp"
	"repro/internal/stats"
)

// Params are the fitted coefficients of one task's performance function.
type Params struct {
	A float64 `json:"a"` // scalable work (seconds at n=1 contribution a)
	B float64 `json:"b"` // overhead coefficient
	C float64 `json:"c"` // overhead exponent
	D float64 `json:"d"` // serial floor (seconds)
}

// Eval returns T(n). n must be positive. With b = 0 the overhead term is
// absent, as in Deriv and Convex: skipping it keeps T finite where nᶜ
// overflows (0·Inf would be NaN), and changes nothing where nᶜ is finite.
func (p Params) Eval(n float64) float64 {
	t := p.A / n
	if p.B != 0 {
		t += p.B * math.Pow(n, p.C)
	}
	return t + p.D
}

// Deriv returns dT/dn.
func (p Params) Deriv(n float64) float64 {
	d := -p.A / (n * n)
	if p.B != 0 {
		d += p.B * p.C * math.Pow(n, p.C-1)
	}
	return d
}

// Convex reports whether T is convex on n > 0 (true when the overhead term
// is absent or its exponent is at least 1).
func (p Params) Convex() bool { return p.B == 0 || p.C >= 1 }

// Valid reports whether all coefficients are finite and non-negative.
func (p Params) Valid() bool {
	for _, v := range []float64{p.A, p.B, p.C, p.D} {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

func (p Params) String() string {
	return fmt.Sprintf("T(n) = %.4g/n + %.4g·n^%.3g + %.4g", p.A, p.B, p.C, p.D)
}

// Constraint returns the Smooth g(x) = T(x[nVar]) − x[tVar], i.e. the
// paper's temporal constraint T ≥ T_j(n_j) in g ≤ 0 form, for use in
// allocation models.
func (p Params) Constraint(nVar, tVar int) model.Smooth {
	return &model.FuncSmooth{
		Over: []int{nVar, tVar},
		F: func(x []float64) float64 {
			return p.Eval(x[nVar]) - x[tVar]
		},
		DF: func(x []float64) []float64 {
			return []float64{p.Deriv(x[nVar]), -1}
		},
	}
}

// ArgMin returns the real n > 0 minimizing T (may be +Inf when T is
// non-increasing everywhere, i.e. b = 0).
func (p Params) ArgMin() float64 {
	if p.B == 0 || p.C == 0 {
		return math.Inf(1)
	}
	// Solve a/n² = b·c·n^(c-1) → n^(c+1) = a/(b·c).
	if p.A == 0 {
		return 1e-300 // strictly increasing: minimum at the left edge
	}
	return math.Pow(p.A/(p.B*p.C), 1/(p.C+1))
}

// MinNodesFor returns the smallest integer n in [1, nMax] with T(n) ≤ t.
// Because T is decreasing up to ArgMin, the search bisects the decreasing
// branch; it returns ok=false when no n in range achieves t.
func (p Params) MinNodesFor(t float64, nMax int) (int, bool) {
	if nMax < 1 {
		return 0, false
	}
	hi := float64(nMax)
	if am := p.ArgMin(); am < hi {
		hi = am
	}
	ihi := int(math.Floor(hi))
	if ihi < 1 {
		ihi = 1
	}
	if p.Eval(float64(ihi)) > t {
		// Check the neighbourhood of the minimum (integer rounding).
		if ihi+1 <= nMax && p.Eval(float64(ihi+1)) <= t {
			return ihi + 1, true
		}
		return 0, false
	}
	lo, hi2 := 1, ihi
	for lo < hi2 {
		mid := (lo + hi2) / 2
		if p.Eval(float64(mid)) <= t {
			hi2 = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, true
}

// Sample is one benchmark observation: measured wall-clock time on a node
// count.
type Sample struct {
	Nodes float64 `json:"nodes"`
	Time  float64 `json:"time"`
}

// FitOptions tunes Fit. Zero values select defaults.
type FitOptions struct {
	// CMin/CMax bound the overhead exponent. Defaults 1 and 2.5; set
	// CMin < 1 to allow the non-convex regime (the exact table-based
	// solver can still use such fits).
	CMin, CMax float64
	// Starts is the number of multistart points (default 12).
	Starts int
	// Seed drives the deterministic multistart sampling.
	Seed uint64
	// Parallelism bounds the multistart worker pool: 0 uses one worker per
	// CPU, negative forces serial. The fitted result is bit-identical for
	// every setting (see nlp.LSQOptions.Parallelism). Callers that already
	// fit many tasks in parallel should pass -1 to avoid oversubscribing
	// the machine.
	Parallelism int
}

// FitResult is a fitted performance function with quality diagnostics.
type FitResult struct {
	Params Params  `json:"params"`
	SSE    float64 `json:"sse"`
	R2     float64 `json:"r2"`
}

// ErrTooFewSamples is returned when fewer than 2 distinct node counts are
// provided; the paper recommends at least 4 ("the number of benchmarking
// runs ... should be at least greater than four").
var ErrTooFewSamples = errors.New("perfmodel: need samples at at least 2 distinct node counts")

// Fit estimates the coefficients from benchmark samples by box-constrained
// least squares, reproducing the paper's step 2 (Table II, line 10).
func Fit(samples []Sample, opts FitOptions) (*FitResult, error) {
	if opts.CMax == 0 {
		opts.CMax = 2.5
	}
	if opts.CMin == 0 {
		opts.CMin = 1
	}
	if opts.Starts == 0 {
		opts.Starts = 12
	}
	distinct := map[float64]bool{}
	for _, s := range samples {
		if s.Nodes < 1 || s.Time < 0 || math.IsNaN(s.Time) {
			return nil, fmt.Errorf("perfmodel: invalid sample (n=%g, t=%g)", s.Nodes, s.Time)
		}
		distinct[s.Nodes] = true
	}
	if len(distinct) < 2 {
		return nil, ErrTooFewSamples
	}

	maxT := 0.0
	maxN := 0.0
	for _, s := range samples {
		if s.Time > maxT {
			maxT = s.Time
		}
		if s.Nodes > maxN {
			maxN = s.Nodes
		}
	}

	prob := &nlp.LSQProblem{
		Residuals: func(th []float64) []float64 {
			p := Params{A: th[0], B: th[1], C: th[2], D: th[3]}
			r := make([]float64, len(samples))
			for i, s := range samples {
				r[i] = p.Eval(s.Nodes) - s.Time
			}
			return r
		},
		Lo: []float64{0, 0, opts.CMin, 0},
		Hi: []float64{maxT * maxN * 10, maxT * 10, opts.CMax, maxT * 2},
	}
	// Heuristic start: all time scalable at the smallest sample.
	start := []float64{samples[0].Time * samples[0].Nodes, 0, math.Max(1, opts.CMin), 0}
	rng := stats.NewRNG(opts.Seed + 0x9e3779b9)
	res, err := prob.SolveMultistart(start, opts.Starts, rng, nlp.LSQOptions{MaxIter: 300, Parallelism: opts.Parallelism})
	if err != nil {
		return nil, err
	}
	fitted := Params{A: res.Theta[0], B: res.Theta[1], C: res.Theta[2], D: res.Theta[3]}
	obs := make([]float64, len(samples))
	pred := make([]float64, len(samples))
	for i, s := range samples {
		obs[i] = s.Time
		pred[i] = fitted.Eval(s.Nodes)
	}
	return &FitResult{Params: fitted, SSE: res.SSE, R2: stats.RSquared(obs, pred)}, nil
}

// SuggestSampleNodes returns the node counts at which to benchmark a task,
// following the paper's recommendation: the minimum feasible count, the
// maximum available, and geometrically spaced points in between to capture
// the curvature.
func SuggestSampleNodes(minNodes, maxNodes, count int) []int {
	if count < 2 {
		count = 2
	}
	if minNodes < 1 {
		minNodes = 1
	}
	if maxNodes < minNodes {
		maxNodes = minNodes
	}
	out := make([]int, 0, count)
	ratio := float64(maxNodes) / float64(minNodes)
	for i := 0; i < count; i++ {
		f := float64(i) / float64(count-1)
		n := int(math.Round(float64(minNodes) * math.Pow(ratio, f)))
		if len(out) > 0 && n <= out[len(out)-1] {
			n = out[len(out)-1] + 1
		}
		if n > maxNodes {
			break
		}
		out = append(out, n)
	}
	return out
}
