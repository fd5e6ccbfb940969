package lp

// Devex pricing (Forrest & Goldfarb 1992) — approximate steepest-edge
// reference weights for the revised engine's primal simplex (revised.go).
// The tableau paths, the warm dual simplex included, price by Dantzig and
// the most-violated row; Problem.DisableDevex pins the revised engine to
// Dantzig as well.
//
// Dantzig pricing picks the most negative reduced cost; on the paper's long
// thin T-series polytopes that happily marches along near-degenerate edges,
// because a large d_j says nothing about how far the edge actually travels.
// Steepest edge normalizes by the true edge norm ‖B⁻¹a_j‖ but costs an
// extra BTRAN per pivot to maintain. Devex keeps a cheap running
// overestimate γ_j ≈ ‖B⁻¹a_j‖² relative to a reference framework (the
// nonbasic set at the last reset) and selects max d²/γ; the weights update
// from quantities the pivot computes anyway (the pivot row and the pivot
// element). The weights only steer pivot ORDER — every verdict still rests
// on reduced-cost signs under costEps, so devex can change which
// tied-optimal vertex a solve lands on but never feasibility/optimality.
//
// Resets: weights restart at 1 (reference framework := current nonbasic
// set) whenever a weight grows past devexWeightCap — the classical signal
// that the reference framework is stale — and at every refactorization,
// where the engine also recomputes exact reduced costs (the "exact-Dantzig
// periodic reset": after it, one devex round is exactly Dantzig on fresh
// duals until the weights differentiate again).

// devexWeightCap triggers a reference-framework reset. Forrest–Goldfarb
// suggest retiring the frame when weights grow by ~1e4..1e8; past that the
// overestimate is so loose it degenerates to noisy Dantzig. Dimensionless
// (weights are squared ratios of tableau entries).
const devexWeightCap = 1e7

// devexReset restarts the reference framework at the current nonbasic set:
// every weight returns to 1.
func (rv *revEngine) devexReset() {
	for j := range rv.gamma {
		rv.gamma[j] = 1
	}
}

// devexUpdate folds one pivot into the weights. alphaE is the pivot
// element; the candidate columns' pivot-row entries arrive via the
// accumulator support (rv.acc over rv.accTouch, built by pivotRow). gammaE
// is the entering column's weight at selection time. Returns true when a
// weight passed devexWeightCap and the caller should reset the framework.
func (rv *revEngine) devexUpdate(r int, e int, alphaE float64, gammaE float64) bool {
	inv2 := 1 / (alphaE * alphaE)
	blown := false
	for _, j32 := range rv.accTouch {
		j := int(j32)
		if j == e || rv.inBase[j] {
			continue
		}
		aj := rv.acc[j]
		if aj == 0 {
			continue
		}
		if cand := aj * aj * inv2 * gammaE; cand > rv.gamma[j] {
			rv.gamma[j] = cand
			if cand > devexWeightCap {
				blown = true
			}
		}
	}
	// The leaving variable joins the nonbasic set with the entering
	// column's weight seen through the pivot: γ_leave = max(γ_e/α_e², 1).
	gl := gammaE * inv2
	if gl < 1 {
		gl = 1
	}
	rv.gamma[rv.basis[r]] = gl
	if gl > devexWeightCap {
		blown = true
	}
	return blown
}
