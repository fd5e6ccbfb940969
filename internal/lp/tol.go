package lp

// Tolerance audit — every epsilon the LP layer uses, in one place.
//
// The package historically scattered ~170 numeric literals across the
// simplex kernels; they are collapsed here into named constants, each
// documenting its consumer and its scaling discipline. Two disciplines
// exist, and confusing them is exactly the class of defect the serve
// differential harness recorded (a warm+sparse cold build exploding to
// 1e30 tableau entries and reporting a feasible instance infeasible, and
// optima moving under an exact power-of-two rescale of the input):
//
//   - DIMENSIONLESS tolerances compare quantities that are already
//     relative — reduced-cost ratios, ratio-test ties, pivot magnitudes
//     of a tableau whose rows were produced by earlier unit pivots. They
//     are applied as-is.
//
//   - SCALED tolerances judge absolute residuals (phase-1 feasibility,
//     warm-verdict acceptance, crash-point rows) and are multiplied by the
//     problem's power-of-two scale (primalScale / pow2Scale below) so the
//     verdict is invariant under an exact power-of-two rescale of the data
//     and honest at any magnitude.
//
// The scale factors are exact powers of two: multiplying a tolerance by
// one introduces no rounding, so two solves of the same instance at
// different power-of-two scales make bit-identical accept/reject
// decisions. See DESIGN.md "Numerics and tolerances" for the full scale
// model (the HSLB stack additionally normalizes the time dimension at the
// core layer, so the LP layer sees O(1) data from our own callers).

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

const (
	// costEps is the reduced-cost optimality tolerance of the primal
	// pricing step (tableau.priceEntering). Dimensionless: reduced costs
	// are compared against the caller's cost units, and a smaller
	// favorable reduced cost than this cannot move the objective by more
	// than noise before the ratio test truncates the step.
	costEps = 1e-9

	// pivotEps is the minimum acceptable primal pivot magnitude in the
	// ratio test and basis (re)factorization (tableau.run,
	// Incremental.install). Dimensionless: tableau entries are ratios of
	// original coefficients after unit pivots.
	pivotEps = 1e-9

	// feasEps is the phase-1 feasibility tolerance: a solve concludes
	// Infeasible when the artificial residual exceeds feasEps × the
	// standard form's primal scale (standard.scale). SCALED — judging a
	// residual of absolute magnitude against RHS data of arbitrary units.
	feasEps = 1e-7

	// ratioTieEps is the window within which two ratio-test limits are
	// considered tied and the deterministic tie-break (lowest basic
	// column, or Markowitz row size in sparse mode) decides. Used by
	// tableau.run and the dual ratio test. Dimensionless: it compares step
	// lengths, which are already in units of the entering column.
	ratioTieEps = 1e-12

	// boundSnapEps is the hygiene clamp pulling a basic value that
	// round-off pushed just below its lower bound back onto the bound
	// (tableau.run). Dimensionless by the same argument as pivotEps;
	// values this close to a bound are pivot noise.
	boundSnapEps = 1e-11

	// progressRelEps drives stall detection: an iteration "made progress"
	// when the objective moved by more than progressRelEps·(1+|obj|), and
	// a long stall escalates to Bland's rule. Relative to the running
	// objective with a unit floor; purely a cycling heuristic — it cannot
	// change a verdict, only the pivot order on degenerate faces.
	progressRelEps = 1e-9

	// artPivotEps is the minimum magnitude for pivoting a zero-valued
	// artificial out of the basis after phase 1 (solveCold).
	// Dimensionless (tableau entries).
	artPivotEps = 1e-7

	// dualFeasEps is the tolerance on reduced-cost signs when validating
	// an installed basis, and on primal bound violations when picking the
	// dual simplex leaving row (warm.go). Dimensionless for the
	// reduced-cost use; the leaving-row use compares primal values against
	// bounds and inherits the caller's units — the warm path's verdicts
	// are re-judged against warmFeasTol (scaled) before being trusted, so
	// this only steers pivot order.
	dualFeasEps = 1e-7

	// dualPivotEps is the minimum |α| accepted for a dual entering pivot
	// and for an exchange pivot installing a snapshot on the live tableau
	// (Incremental.exchange). Deliberately much stricter than pivotEps:
	// after many warm absorptions an exactly-zero tableau entry carries
	// round-off at the 1e-8 level, and pivoting on such noise amplifies
	// every tableau value by 1/|α| — irreversibly corrupting the shared
	// state the next hundred solves reuse. Rejecting a genuine small pivot
	// is always safe here: with no admissible column runDual reports
	// Infeasible, which reoptimize cold-confirms, and exchange restores the
	// live basis.
	dualPivotEps = 1e-7

	// warmAcceptEps is the relative factor of warmFeasTol: a warm Optimal
	// verdict is accepted only when the worst original-row violation is
	// below warmAcceptEps × the problem's RHS scale. SCALED.
	warmAcceptEps = 1e-7

	// crashSnapEps is the window within which a crash-point coordinate is
	// snapped onto a variable bound during vertex rounding (crash.go).
	// Dimensionless — applied in relative form crashSnapEps·(1+|bound|).
	// Values inside the window are treated as nonbasic at the bound; the
	// row residuals the snap introduces are re-judged against the SCALED
	// feasibility tolerance before the crash basis is accepted.
	crashSnapEps = 1e-9
)

// pow2Scale returns the power-of-two magnitude of v: the smallest 2^k with
// 2^k > |v|, floored at 1 (so |v| ≤ 1 yields 1, and an exact power of two
// yields its double). Power-of-two scales multiply tolerances exactly (no
// rounding), which keeps accept/reject decisions bit-identical across
// power-of-two rescalings of the data. Non-finite input yields 1.
func pow2Scale(v float64) float64 {
	v = math.Abs(v)
	if !(v > 1) || math.IsInf(v, 1) {
		return 1
	}
	// Frexp: v = f·2^e with f ∈ [0.5, 1), so 2^e ∈ [v, 2v).
	_, e := math.Frexp(v)
	return math.Ldexp(1, e)
}

// primalScale is the power-of-two magnitude of a standardized RHS vector —
// the scale factor behind every SCALED tolerance of a solve.
func primalScale(b []float64) float64 {
	mx := 0.0
	for _, v := range b {
		if a := math.Abs(v); a > mx && !math.IsInf(a, 1) {
			mx = a
		}
	}
	return pow2Scale(mx)
}

// feasTol is the phase-1 infeasibility threshold at the given primal scale.
func feasTol(scale float64) float64 { return feasEps * scale }

// warmFeasTol is the primal feasibility tolerance for accepting a warm
// Optimal verdict, scaled to the power-of-two magnitude of the wrapped
// problem's right-hand sides.
func warmFeasTol(p *Problem) float64 {
	mx := 0.0
	for i := range p.rows {
		if r := math.Abs(p.rows[i].RHS); r > mx {
			mx = r
		}
	}
	return warmAcceptEps * pow2Scale(mx)
}

// debugInfeasConfirm, when set, is invoked every time a pattern-kernel cold
// solve concluded Infeasible and the dense authority re-solve disagreed
// (healed a false verdict). Testing aid for the tolerance battery; the
// confirmation itself always runs — the hook only observes it.
var debugInfeasConfirm func(resid float64, denseStatus Status)

// SetInfeasibleConfirmDebug installs an observer for sparse-vs-dense
// infeasibility disagreements (nil disables). See solveCold: any Infeasible
// verdict reached with the sparse pattern kernels is confirmed by a dense
// re-solve before it escapes, because a numerically exploded tableau can
// manufacture arbitrarily large phase-1 residuals (the recorded defect
// reached 1e30) that no residual threshold can tell from genuine
// infeasibility.
func SetInfeasibleConfirmDebug(f func(resid float64, denseStatus Status)) {
	debugInfeasConfirm = f
}

// ToleranceFingerprint returns a short, stable fingerprint of the LP
// layer's tolerance configuration: the hash of every named epsilon above,
// in fixed order. Persistent artifacts derived from solver answers (the
// serve layer's disk-backed cache snapshots) embed it, so an entry written
// by a binary with different tolerance semantics — where the same instance
// may legitimately converge to a different vertex — is detected and
// dropped at load instead of being replayed as a wrong answer.
func ToleranceFingerprint() string {
	vals := []float64{
		costEps, pivotEps, feasEps, ratioTieEps, boundSnapEps,
		progressRelEps, artPivotEps, dualFeasEps, dualPivotEps,
		warmAcceptEps, crashSnapEps,
	}
	h := sha256.New()
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return "lptol-" + hex.EncodeToString(h.Sum(nil))[:16]
}
