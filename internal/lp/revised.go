package lp

// Revised simplex over a sparse LU basis factorization — the cold-solve
// engine of the sparse path.
//
// The pattern-aware tableau kernels in sparse.go cut the cost of a pivot to
// the true fill of the tableau, but on the paper's min-max allocation LPs
// the tableau itself densifies: the makespan column T appears in every load
// row, so the first pivot that brings T into the basis sprays one row's
// pattern across all N load rows and the *exact* tableau jumps to ~50% fill
// (profiled in DESIGN.md). The classical answer is to stop forming B⁻¹A:
// the basis matrix B is a selection of ORIGINAL columns (≤ 3 nonzeros for
// an assignment column, 1 for a slack) and stays sparse even when the
// tableau does not.
//
// PR 4 represented B⁻¹ as a product-form-inverse eta file with a fixed
// 64-pivot reinversion cadence and exact Dantzig pricing recomputed from
// y = c_B·B⁻¹ every iteration; reinversion alone profiled at 40% of a cold
// N=2048 solve and BTRAN+pricing at another 40%. This generation replaces
// all three legs:
//
//   - B⁻¹ lives in a Markowitz-ordered sparse LU factorization (lu.go)
//     updated in place by Forrest–Tomlin after every pivot; refactorization
//     is adaptive (update count, fill growth, drift, or a declined unstable
//     update — the Bartels–Golub-style recovery) instead of fixed-cadence.
//
//   - Pricing is devex (devex.go) over reduced costs maintained
//     INCREMENTALLY: one hyper-sparse BTRAN of the pivot row per iteration
//     updates d and the devex weights in O(|pivot row|), replacing the
//     dense BTRAN + O(nnz(A)) reprice. Exact recomputation happens at every
//     refactorization, before any Optimal verdict, and on drift.
//
//   - Two drift checks per pivot hold the incremental state to the
//     factorization: the entering reduced cost is re-derived from the FTRAN
//     result (d_e = c_e − c_B·B⁻¹a_e), and the pivot element is computed by
//     both FTRAN and BTRAN routes; relative disagreement beyond driftEps
//     forces refactorization + exact reprice, and persistent disagreement
//     abandons the solve with a BasisDriftError (stats.go).
//
// The dense tableau remains the differential authority exactly as PR 4 left
// it: the engine declines — it never guesses — on singular factorizations,
// iteration limits, phase-1 Infeasible verdicts, bound-violating "optima",
// and persistent drift; solveColdAuto then reruns the solve on the tableau
// path. Verdicts the engine does stand behind (Optimal, phase-2 Unbounded)
// follow the same pricing tolerances and ratio-test tie-breaks as
// tableau.run, so the property batteries can hold the two engines to status
// agreement and objective agreement within scaled tolerances.

import (
	"math"
	"sync"
)

// revFailed is the internal sentinel for "abandon the revised engine and
// fall back to the tableau path"; it never escapes solveRevised.
const revFailed Status = -1

// revEngine is the working state of one revised-simplex solve. Engines are
// pooled (revPool): every slice below is sized with the cap-preserving grow
// helpers so steady-state solves allocate only their Solution.
type revEngine struct {
	m, n int // rows, columns (slacks and artificials included)

	// CSC of the standardized, artificial-extended constraint matrix.
	// Row indices ascend within each column; the matrix is immutable.
	colPtr []int32
	rowIdx []int32
	colVal []float64

	// CSR view of the structural (pre-artificial) columns, borrowed from
	// the sparse-only standardization (aligned pattern/value rows). The
	// pivot-row computation α = ρ·A walks these rows over ρ's support, so
	// its cost tracks the BTRAN result's fill, not nnz(A). Artificial
	// columns are singletons handled via artOf.
	rowPat [][]int32
	rowVal [][]float64
	artOf  []int32 // artificial column on row i, -1 if none

	cost   []float64 // current phase costs
	lb, ub []float64
	banned []bool
	basis  []int // basic column per SLOT (slots are fixed; the LU maps slots↔rows)
	inBase []bool
	status []int8
	xB     []float64 // values of the basic variables, by slot
	rhs    []float64 // standardized b (refactorization refresh source)

	obj    float64
	iters  int
	pivots int

	lu luFactor

	d     []float64 // maintained reduced costs (meaningful for nonbasic columns)
	gamma []float64 // devex reference weights
	devex bool

	// Pivot-row accumulator: α_j over the columns touched by the current
	// pivot row, support-tracked.
	acc      []float64
	accMark  []int32
	accGen   int32
	accTouch []int32

	cB     []float64 // slot-space basic costs (btranDense input)
	wx     []float64 // dense scratch for the x_B refresh
	active []int32   // pricing skip list (mirrors tableau.buildActive)
	cursor int       // cyclic partial-pricing position in active

	// Scratch for the initial-basis construction.
	colCnt  []int32
	colLast []int32
	slackOf []int32

	artStart    int
	driftStreak int // drift trips since the last clean pivot

	failStage string  // decline reason for engineFallback
	failResid float64 // measured residual behind the decline
}

var revPool = sync.Pool{New: func() interface{} { return &revEngine{} }}

func growInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growI8(s []int8, n int) []int8 {
	if cap(s) < n {
		return make([]int8, n)
	}
	return s[:n]
}

// bumpAccGen advances the accumulator stamp generation (wrap-safe).
func (rv *revEngine) bumpAccGen() int32 {
	rv.accGen++
	if rv.accGen < 0 {
		for i := range rv.accMark {
			rv.accMark[i] = 0
		}
		rv.accGen = 1
	}
	return rv.accGen
}

// fail records the decline reason and returns revFailed.
func (rv *revEngine) fail(stage string, resid float64) Status {
	rv.failStage, rv.failResid = stage, resid
	return revFailed
}

// nbVal mirrors tableau.nbVal for the engine's column bounds.
func (rv *revEngine) nbVal(j int) float64 {
	if rv.status[j] == atUpper {
		return rv.ub[j]
	}
	return rv.lb[j]
}

// buildActive mirrors tableau.buildActive: the pricing skip list of columns
// that could ever enter (non-banned, nonzero bound range).
func (rv *revEngine) buildActive() {
	rv.active = rv.active[:0]
	rv.cursor = 0
	for j := 0; j < rv.n; j++ {
		if rv.banned[j] || rv.lb[j] == rv.ub[j] {
			continue
		}
		rv.active = append(rv.active, int32(j))
	}
}

// refactor rebuilds the LU factorization from the current basis columns and
// refreshes x_B = B⁻¹(b − N·x_N) from first principles. The basis-to-slot
// assignment never changes — row pivoting is the factorization's private
// business — so unlike the PFI reinversion this cannot permute the basis.
func (rv *revEngine) refactor() bool {
	engRefactors.Add(1)
	if !rv.lu.factor(rv.m, rv.colPtr, rv.rowIdx, rv.colVal, rv.basis) {
		return false
	}
	w := rv.wx
	copy(w, rv.rhs)
	for j := 0; j < rv.n; j++ {
		if rv.inBase[j] {
			continue
		}
		v := rv.nbVal(j)
		if v == 0 {
			continue
		}
		for t := rv.colPtr[j]; t < rv.colPtr[j+1]; t++ {
			w[rv.rowIdx[t]] -= rv.colVal[t] * v
		}
	}
	x := rv.lu.ftranDense(w)
	for slot := 0; slot < rv.m; slot++ {
		v := x[slot]
		lo := rv.lb[rv.basis[slot]]
		if v < lo && v > lo-boundSnapEps {
			v = lo
		}
		rv.xB[slot] = v
	}
	return true
}

// refreshDuals recomputes every nonbasic reduced cost exactly from the
// factorization: y = c_B·B⁻¹ (one dense BTRAN), then d_j = c_j − y·a_j over
// the CSC columns — O(nnz(A)). This is the exact-Dantzig reset point of the
// devex scheme and the source of truth the incremental d is held to.
func (rv *revEngine) refreshDuals() {
	for slot := 0; slot < rv.m; slot++ {
		rv.cB[slot] = rv.cost[rv.basis[slot]]
	}
	y := rv.lu.btranDense(rv.cB)
	for j := 0; j < rv.n; j++ {
		if rv.inBase[j] {
			rv.d[j] = 0
			continue
		}
		dj := rv.cost[j]
		for t := rv.colPtr[j]; t < rv.colPtr[j+1]; t++ {
			dj -= y[rv.rowIdx[t]] * rv.colVal[t]
		}
		rv.d[j] = dj
	}
}

// recover is the drift/instability rung of the fallback ladder: rebuild the
// factorization, restore x_B, recompute exact duals, restart the devex
// frame, and re-derive the tracked objective.
func (rv *revEngine) recover() bool {
	if !rv.refactor() {
		return false
	}
	rv.refreshDuals()
	rv.devexReset()
	rv.initObj()
	return true
}

// initObj recomputes the tracked objective for the current point,
// mirroring tableau.setCosts' bookkeeping.
func (rv *revEngine) initObj() {
	rv.obj = 0
	for i, bc := range rv.basis {
		if c := rv.cost[bc]; c != 0 {
			rv.obj += c * rv.xB[i]
		}
	}
	for j := 0; j < rv.n; j++ {
		if rv.inBase[j] {
			continue
		}
		if v := rv.nbVal(j); v != 0 {
			rv.obj += rv.cost[j] * v
		}
	}
}

// priceSection is the cyclic partial-pricing chunk FLOOR. The working
// section size is max(priceSection, na/6): pricing quality degrades — and
// total pivot counts grow — when a section sees too small a fraction of the
// active list, and the sixth-of-the-list rule reproduces the measured
// optimum at both N=4096 (section 4096) and N=16384 (section 16384) on the
// T-series sweep, where the active list runs ≈ 6N columns.
// Problems whose active list fits in one section are scanned in full every
// iteration — identical pivot sequences to exhaustive pricing — so partial
// pricing only changes behavior on large instances, where scanning every
// column per pivot costs more than the slightly-less-informed pivot order
// saves.
const priceSection = 4096

// price selects the entering column from the MAINTAINED reduced costs:
// devex picks the best d²/γ score, Dantzig (DisableDevex) the largest |d|,
// Bland the lowest favorable index. Large actives are scanned with cyclic
// partial pricing: sections of priceSection columns starting at a rotating
// cursor, stopping at the first section that yields any favorable
// candidate (best within that section wins). A full wrap with no candidate
// — and only that — reports optimality (e = -1), so partial pricing
// changes pivot ORDER, never verdicts.
func (rv *revEngine) price(bland bool) (e int, dir, de float64) {
	if bland {
		for _, j32 := range rv.active {
			j := int(j32)
			if rv.inBase[j] {
				continue
			}
			d := rv.d[j]
			if rv.status[j] == atLower && d < -costEps {
				return j, 1, d
			}
			if rv.status[j] == atUpper && d > costEps {
				return j, -1, d
			}
		}
		return -1, 0, 0
	}
	act := rv.active
	na := len(act)
	if rv.cursor >= na || na <= priceSection {
		// Single-section actives always scan ascending from 0, keeping the
		// exhaustive tie-break (lowest column) bit-for-bit.
		rv.cursor = 0
	}
	e, dir = -1, 1
	best := 0.0
	if !rv.devex {
		best = costEps
	}
	sec := na / 6
	if sec < priceSection {
		sec = priceSection
	}
	scanned := 0
	pos := rv.cursor
	for scanned < na {
		end := pos + sec
		if end > na {
			end = na
		}
		for _, j32 := range act[pos:end] {
			j := int(j32)
			if rv.inBase[j] {
				continue
			}
			d := rv.d[j]
			var dj float64
			if rv.status[j] == atLower && d < -costEps {
				dj = 1
			} else if rv.status[j] == atUpper && d > costEps {
				dj = -1
			} else {
				continue
			}
			score := d * d
			if rv.devex {
				score /= rv.gamma[j]
			} else {
				score = math.Abs(d)
			}
			if score > best {
				best, e, dir, de = score, j, dj, d
			}
		}
		scanned += end - pos
		pos = end
		if pos >= na {
			pos = 0
		}
		if e >= 0 {
			rv.cursor = pos
			return e, dir, de
		}
	}
	rv.cursor = pos
	return e, dir, de
}

// betterLeaving mirrors the dense authority's ratio-test tie-break
// (lowest basic column index).
func (rv *revEngine) betterLeaving(i, r int) bool {
	if r < 0 {
		return true
	}
	return rv.basis[i] < rv.basis[r]
}

// pivotRow computes α = ρ·A over the support of ρ (the BTRAN row in
// lu.yRow over rows rho), filling the accumulator acc/accTouch. Structural
// columns come from the CSR rows; each row's artificial, if any, is a
// singleton contributing ρ_i directly. Cost tracks Σ_{i∈supp ρ} nnz(row i).
// Basic columns are skipped: no consumer of the accumulator (the d/devex
// updates, drift check 2 via acc[e], the artificial drive-out scan) ever
// reads a basic column's entry, and on bases rich in structural columns —
// exactly what a crash install produces — the skip also keeps them out of
// the accTouch lists those consumers iterate.
func (rv *revEngine) pivotRow(rho []int32) {
	gen := rv.bumpAccGen()
	touch := rv.accTouch[:0]
	y := rv.lu.yRow
	inBase := rv.inBase
	for _, ri := range rho {
		yv := y[ri]
		if yv == 0 {
			continue
		}
		pat := rv.rowPat[ri]
		vals := rv.rowVal[ri]
		for t, j := range pat {
			if inBase[j] {
				continue
			}
			if rv.accMark[j] != gen {
				rv.accMark[j] = gen
				rv.acc[j] = 0
				touch = append(touch, j)
			}
			rv.acc[j] += yv * vals[t]
		}
		if a := rv.artOf[ri]; a >= 0 && !inBase[a] {
			if rv.accMark[a] != gen {
				rv.accMark[a] = gen
				rv.acc[a] = 0
				touch = append(touch, a)
			}
			rv.acc[a] += yv
		}
	}
	rv.accTouch = touch
}

// runPhase is the LU-generation iteration loop: devex pricing off
// maintained reduced costs, hyper-sparse FTRAN/BTRAN, the bounded-variable
// ratio test over the FTRAN support only, Forrest–Tomlin updates with
// adaptive refactorization, and the two per-pivot drift checks. The stall →
// Bland escalation, ratio tolerances, tie-breaks, and bound-flip hygiene
// mirror tableau.run.
func (rv *revEngine) runPhase(maxIter int) Status {
	rv.buildActive()
	stall := 0
	blandAfter := rv.m + 64
	// pricedExact: the maintained d is exact for the current basis (a
	// refreshDuals ran with no pivot since). Optimal is only declared on
	// exact reduced costs.
	pricedExact := false
	for rv.iters < maxIter {
		rv.iters++
		bland := stall > blandAfter

		e, dir, de := rv.price(bland)
		if e < 0 {
			if pricedExact {
				return Optimal
			}
			rv.refreshDuals()
			pricedExact = true
			continue
		}

		// FTRAN the entering column; the spike feeds the FT update.
		sup := rv.lu.ftran(rv.rowIdx[rv.colPtr[e]:rv.colPtr[e+1]], rv.colVal[rv.colPtr[e]:rv.colPtr[e+1]], true)
		w := rv.lu.xSlot

		// Drift check 1: the maintained d_e against the FTRAN-derived exact
		// value d_e = c_e − c_B·(B⁻¹a_e), an O(|support|) dot product.
		dx := rv.cost[e]
		for _, si := range sup {
			if c := rv.cost[rv.basis[si]]; c != 0 {
				dx -= c * w[si]
			}
		}
		if diff := math.Abs(de - dx); diff > driftEps*(1+math.Abs(dx)) {
			engDrifts.Add(1)
			rv.driftStreak++
			if rv.driftStreak > 2 {
				return rv.fail("drift", diff)
			}
			if !rv.recover() {
				return rv.fail("factor-singular", 0)
			}
			pricedExact = true
			continue
		}
		de = dx
		if (dir > 0 && de >= -costEps) || (dir < 0 && de <= costEps) {
			// The exact value is at the tolerance edge and no longer
			// favorable: correct the maintained entry and re-price.
			rv.d[e] = de
			stall++
			continue
		}

		// Ratio test over the FTRAN support (slots outside it have a zero
		// pivot-column entry and can never block).
		tMax := rv.ub[e] - rv.lb[e]
		r, rKind := -1, atLower
		limit := tMax
		for _, si32 := range sup {
			si := int(si32)
			rate := dir * w[si]
			if rate > pivotEps {
				l := (rv.xB[si] - rv.lb[rv.basis[si]]) / rate
				if l < limit-ratioTieEps || (l < limit+ratioTieEps && rv.betterLeaving(si, r)) {
					limit, r, rKind = l, si, atLower
				}
			} else if rate < -pivotEps {
				ubB := rv.ub[rv.basis[si]]
				if math.IsInf(ubB, 1) {
					continue
				}
				l := (ubB - rv.xB[si]) / -rate
				if l < limit-ratioTieEps || (l < limit+ratioTieEps && rv.betterLeaving(si, r)) {
					limit, r, rKind = l, si, atUpper
				}
			}
		}
		if math.IsInf(limit, 1) {
			return Unbounded
		}
		if limit < 0 {
			limit = 0
		}

		if r < 0 {
			// Bound flip: x_N moves across its range, duals and weights
			// unchanged.
			if limit > 0 {
				for _, si := range sup {
					rv.xB[si] -= w[si] * dir * limit
				}
				rv.obj += de * dir * limit
			}
			if rv.status[e] == atLower {
				rv.status[e] = atUpper
			} else {
				rv.status[e] = atLower
			}
			for _, si := range sup {
				lo := rv.lb[rv.basis[si]]
				if rv.xB[si] < lo && rv.xB[si] > lo-boundSnapEps {
					rv.xB[si] = lo
				}
			}
			if de*dir*limit < -progressRelEps*(1+math.Abs(rv.obj)) {
				stall = 0
			} else {
				stall++
			}
			continue
		}

		// Pivot row ρ = e_r·B⁻¹ (hyper-sparse BTRAN), then α = ρ·A.
		rho := rv.lu.btranUnit(r)
		rv.pivotRow(rho)

		// Drift check 2: the pivot element by the FTRAN route (w_r) against
		// the BTRAN route (α_e). Disagreement means the factorization and
		// the incremental state no longer describe the same basis.
		alphaE := w[r]
		if diff := math.Abs(rv.acc[e] - alphaE); diff > driftEps*(1+math.Abs(alphaE)) {
			engDrifts.Add(1)
			rv.driftStreak++
			if rv.driftStreak > 2 {
				return rv.fail("drift", diff)
			}
			if !rv.recover() {
				return rv.fail("factor-singular", 0)
			}
			pricedExact = true
			continue
		}

		// Commit the step: basic values, objective, incremental reduced
		// costs, devex weights, basis books, and the FT update — in that
		// order (d/γ read basis[r] before it changes).
		improved := de*dir*limit < -progressRelEps*(1+math.Abs(rv.obj))
		if limit > 0 {
			for _, si := range sup {
				rv.xB[si] -= w[si] * dir * limit
			}
			rv.obj += de * dir * limit
		}

		ratio := de / alphaE
		for _, j32 := range rv.accTouch {
			j := int(j32)
			if j == e || rv.inBase[j] {
				continue
			}
			if aj := rv.acc[j]; aj != 0 {
				rv.d[j] -= ratio * aj
			}
		}
		blown := false
		if rv.devex {
			blown = rv.devexUpdate(r, e, alphaE, rv.gamma[e])
		}
		leave := rv.basis[r]
		rv.d[leave] = -ratio
		rv.d[e] = 0

		newVal := dir*limit + rv.nbVal(e)
		rv.inBase[leave] = false
		rv.status[leave] = rKind
		rv.basis[r] = e
		rv.inBase[e] = true
		rv.xB[r] = newVal
		rv.pivots++
		rv.driftStreak = 0
		pricedExact = false

		if rv.lu.update(r) {
			engUpdates.Add(1)
			if rv.lu.needRefactor() {
				if !rv.recover() {
					return rv.fail("factor-singular", 0)
				}
				pricedExact = true
			}
		} else {
			// Declined unstable update — the Bartels–Golub recovery
			// rung: rebuild from the (already mutated) basis columns.
			if !rv.recover() {
				return rv.fail("factor-singular", 0)
			}
			pricedExact = true
		}
		if blown {
			rv.devexReset()
		}

		for _, si := range sup {
			lo := rv.lb[rv.basis[si]]
			if rv.xB[si] < lo && rv.xB[si] > lo-boundSnapEps {
				rv.xB[si] = lo
			}
		}
		if improved {
			stall = 0
		} else {
			stall++
		}
	}
	return IterLimit
}

// reset prepares a pooled engine for a solve of the given shape.
func (rv *revEngine) reset(m, n, nnzTotal int) {
	rv.m, rv.n = m, n
	rv.colPtr = grow32(rv.colPtr, n+1)
	rv.rowIdx = grow32(rv.rowIdx, nnzTotal)
	rv.colVal = growF(rv.colVal, nnzTotal)
	rv.cost = growF(rv.cost, n)
	rv.lb = growF(rv.lb, n)
	rv.ub = growF(rv.ub, n)
	rv.banned = growBool(rv.banned, n)
	rv.basis = growInt(rv.basis, m)
	rv.inBase = growBool(rv.inBase, n)
	rv.status = growI8(rv.status, n)
	rv.xB = growF(rv.xB, m)
	rv.rhs = growF(rv.rhs, m)
	rv.d = growF(rv.d, n)
	rv.gamma = growF(rv.gamma, n)
	rv.cB = growF(rv.cB, m)
	rv.wx = growF(rv.wx, m)
	rv.artOf = grow32(rv.artOf, m)
	for j := 0; j < n; j++ {
		rv.cost[j] = 0
		rv.banned[j] = false
		rv.inBase[j] = false
		rv.status[j] = atLower
		rv.d[j] = 0
		rv.gamma[j] = 1
	}
	for i := 0; i < m; i++ {
		rv.artOf[i] = -1
	}
	// Accumulator marks are generation-stamped; only (re)size and zero on
	// growth so stale stamps cannot alias fresh generations.
	if cap(rv.acc) < n {
		rv.acc = make([]float64, n)
		rv.accMark = make([]int32, n)
		rv.accGen = 0
	} else {
		rv.acc = rv.acc[:n]
		rv.accMark = rv.accMark[:n]
	}
	rv.colPtr[0] = 0
	rv.obj = 0
	rv.iters, rv.pivots = 0, 0
	rv.driftStreak = 0
	rv.failStage, rv.failResid = "", 0
}

// release returns the engine to the pool, dropping borrowed references (the
// CSR rows belong to the standardization's pooled arenas).
func (rv *revEngine) release() {
	rv.rowPat, rv.rowVal = nil, nil
	revPool.Put(rv)
}

// solveRevised attempts a cold solve through the revised engine. ok=false
// means "no verdict — run the tableau path instead"; it is returned for
// structurally unusable inputs, iteration limits, and numerical failures,
// so the tableau path remains the single authority for every hard case.
// Every decline is counted and surfaced as a BasisDriftError through the
// stats.go hook. The debugPhase1 diagnostics hook never affects route
// selection: the engine declines every phase-1 Infeasible verdict, so those
// runs reach the tableau path — and its dense confirmation — where the hook
// fires.
func solveRevised(p *Problem, ws *workspace) (*Solution, bool) {
	if p.DisableSparse {
		return nil, false
	}
	for j := range p.lo {
		if math.IsNaN(p.lo[j]) || math.IsNaN(p.hi[j]) {
			return nil, false
		}
	}
	// Sparse-only standardization: aligned pattern/value rows, no m×n
	// dense arena.
	std, st := standardize(p, ws, false, true)
	if st == Infeasible {
		return &Solution{Status: Infeasible}, true
	}
	if std.pat == nil || std.val == nil {
		return nil, false
	}

	m, nPre := len(std.a), len(std.c)
	maxIter := p.MaxIter
	if maxIter == 0 {
		maxIter = 200*(m+25) + 20*nPre
	}

	rv := revPool.Get().(*revEngine)
	rv.devex = !p.DisableDevex

	// Initial basis, as in solveCold: for each row the smallest slack
	// column that is exactly its identity (a singleton +1 entry), else an
	// artificial. Column nonzero counts come from the standardize-built
	// row patterns; slackOf records the chosen slack per row (-1 → needs
	// an artificial) so the engine can be sized before any buffer fills.
	rv.colCnt = grow32(rv.colCnt, nPre)
	rv.colLast = grow32(rv.colLast, nPre)
	rv.slackOf = grow32(rv.slackOf, m)
	colNnz, colRow, slackOf := rv.colCnt, rv.colLast, rv.slackOf
	for j := 0; j < nPre; j++ {
		colNnz[j] = 0
	}
	nnz := 0
	for i, row := range std.pat {
		slackOf[i] = -1
		for _, j := range row {
			colNnz[j]++
			colRow[j] = int32(i)
		}
		nnz += len(row)
	}
	numArt := 0
	for j := 0; j < nPre; j++ {
		if colNnz[j] != 1 || !std.isSlack(j) {
			continue
		}
		ri := colRow[j]
		if slackOf[ri] >= 0 {
			continue
		}
		v := 0.0
		for t, c := range std.pat[ri] {
			if int(c) == j {
				v = std.val[ri][t]
				break
			}
		}
		if v != 1 {
			continue
		}
		slackOf[ri] = int32(j)
	}
	for i := 0; i < m; i++ {
		if slackOf[i] < 0 {
			numArt++
		}
	}
	n := nPre + numArt
	artStart := nPre

	rv.reset(m, n, nnz+numArt)
	rv.artStart = artStart
	std.unitCol = make([]int, m)
	for i := 0; i < m; i++ {
		rv.basis[i] = int(slackOf[i]) // artificial rows patched below
		if slackOf[i] >= 0 {
			std.unitCol[i] = int(slackOf[i])
		}
	}
	rv.rowPat, rv.rowVal = std.pat, std.val
	copy(rv.lb[:nPre], std.lb)
	copy(rv.ub[:nPre], std.ub)
	copy(rv.xB, std.b)
	copy(rv.rhs, std.b)

	// CSC fill: pass 1 counted (colNnz); artificial columns are appended
	// singletons. Rows are scanned in ascending order, so row indices
	// ascend within every column.
	cur := rv.colPtr
	for j := 0; j < nPre; j++ {
		cur[j+1] = cur[j] + colNnz[j]
	}
	pos := colRow // reuse: colRow's job is done
	copy(pos, cur[:nPre])
	for i, row := range std.pat {
		vals := std.val[i]
		for ti, j := range row {
			t := pos[j]
			rv.rowIdx[t] = int32(i)
			rv.colVal[t] = vals[ti]
			pos[j] = t + 1
		}
	}
	art := nPre
	for i := 0; i < m; i++ {
		if rv.basis[i] >= 0 {
			continue
		}
		t := cur[art]
		rv.rowIdx[t] = int32(i)
		rv.colVal[t] = 1
		cur[art+1] = t + 1
		rv.lb[art] = 0
		rv.ub[art] = math.Inf(1)
		rv.basis[i] = art
		rv.artOf[i] = int32(art)
		std.unitCol[i] = art
		art++
	}
	for _, bc := range rv.basis {
		rv.inBase[bc] = true
	}

	decline := func(stage string, resid float64) (*Solution, bool) {
		engineFallback(stage, resid)
		rv.release()
		return nil, false
	}

	// Crash-basis attempt (crash.go): round the caller's hint to a vertex,
	// install, verify by refactorization. Success makes phase 1 redundant —
	// the verified basic point is primal feasible with every artificial at
	// zero — so the solve drops straight into phase 2.
	crashOK := rv.tryCrashBasis(p, std, nPre)

	if !crashOK {
		// Initial factorization. The starting basis is the identity (slacks
		// and artificials), so failure here is purely defensive.
		engRefactors.Add(1)
		if !rv.lu.factor(m, rv.colPtr, rv.rowIdx, rv.colVal, rv.basis) {
			return decline("factor-singular", 0)
		}
	}

	totalIters := 0

	// Phase 1: minimize the artificial sum.
	if numArt > 0 && !crashOK {
		for j := artStart; j < n; j++ {
			rv.cost[j] = 1
		}
		rv.initObj()
		rv.refreshDuals()
		rv.devexReset()
		st := rv.runPhase(maxIter)
		totalIters += rv.iters
		if st == revFailed {
			return decline(rv.failStage, rv.failResid)
		}
		if st == IterLimit {
			return decline("iterlimit", 0)
		}
		resid := 0.0
		for i, bc := range rv.basis {
			if bc >= artStart && rv.xB[i] > 0 {
				resid += rv.xB[i]
			}
		}
		if st == Unbounded || resid > feasTol(std.scale) {
			// The engine never stands behind an Infeasible verdict: a
			// numerically wrong basis chain can manufacture any residual
			// (see the solveCold confirmation path). Decline and let the
			// tableau authority decide.
			return decline("phase1", resid)
		}
		// Drive zero-valued artificials out of the basis where a
		// structural pivot exists (mirrors solveCold; a leftover means a
		// redundant row and is harmless).
		for i := range rv.basis {
			if rv.basis[i] < artStart {
				continue
			}
			rv.xB[i] = 0
			rho := rv.lu.btranUnit(i)
			rv.pivotRow(rho)
			sortPattern(rv.accTouch)
			for _, j32 := range rv.accTouch {
				j := int(j32)
				if j >= artStart || rv.inBase[j] {
					continue
				}
				if math.Abs(rv.acc[j]) <= artPivotEps {
					continue
				}
				rv.lu.ftran(rv.rowIdx[rv.colPtr[j]:rv.colPtr[j+1]], rv.colVal[rv.colPtr[j]:rv.colPtr[j+1]], true)
				if math.Abs(rv.lu.xSlot[i]) <= pivotEps {
					continue
				}
				leave := rv.basis[i]
				rv.inBase[leave] = false
				rv.status[leave] = atLower
				rv.basis[i] = j
				rv.inBase[j] = true
				rv.xB[i] = rv.nbVal(j)
				if rv.lu.update(i) {
					engUpdates.Add(1)
					if rv.lu.needRefactor() && !rv.refactor() {
						return decline("factor-singular", 0)
					}
				} else if !rv.refactor() {
					return decline("factor-singular", 0)
				}
				break
			}
		}
		for j := artStart; j < n; j++ {
			rv.banned[j] = true
		}
	}

	if crashOK && numArt > 0 {
		// The crash verification proved every artificial slot ≈ 0; a banned
		// artificial still basic at zero is a legal degenerate basic (the
		// redundant-row case of the drive-out loop), so no drive-out runs.
		for j := artStart; j < n; j++ {
			rv.banned[j] = true
		}
	}

	// Phase 2: original costs (artificial columns cost 0).
	copy(rv.cost[:nPre], std.c)
	for j := artStart; j < n; j++ {
		rv.cost[j] = 0
	}
	rv.iters = 0
	rv.initObj()
	rv.refreshDuals()
	rv.devexReset()
	st2 := rv.runPhase(maxIter)
	totalIters += rv.iters
	switch st2 {
	case revFailed:
		return decline(rv.failStage, rv.failResid)
	case IterLimit:
		return decline("iterlimit", 0)
	case Unbounded:
		sol := &Solution{Status: Unbounded, Iterations: totalIters, Pivots: rv.pivots}
		rv.release()
		return sol, true
	}

	// Sanity gate before standing behind the answer: basic values must be
	// finite and inside their bounds. Anything else goes to the tableau.
	for i, bc := range rv.basis {
		v := rv.xB[i]
		gate := revSanityEps * std.scale
		if math.IsNaN(v) || v < rv.lb[bc]-gate || v > rv.ub[bc]+gate {
			resid := 0.0
			if !math.IsNaN(v) {
				if d := rv.lb[bc] - v; d > resid {
					resid = d
				}
				if d := v - rv.ub[bc]; d > resid {
					resid = d
				}
			}
			return decline("sanity", resid)
		}
	}

	// Extraction, mirroring extract(): u-values, original variables via
	// the standardize maps, duals off the row-space y = c_B·B⁻¹.
	u := make([]float64, n)
	for j := 0; j < n; j++ {
		if !rv.inBase[j] {
			u[j] = rv.nbVal(j)
		}
	}
	for i, bc := range rv.basis {
		u[bc] = rv.xB[i]
	}
	x := make([]float64, len(p.costs))
	for j, vm := range std.vmaps {
		switch vm.kind {
		case 0:
			x[j] = vm.shift + u[vm.col]
		case 1:
			x[j] = vm.shift - u[vm.col]
		case 2:
			x[j] = u[vm.col] - u[vm.col2]
		case 3:
			x[j] = vm.shift
		}
	}
	for slot := 0; slot < m; slot++ {
		rv.cB[slot] = rv.cost[rv.basis[slot]]
	}
	y := rv.lu.btranDense(rv.cB)
	dual := make([]float64, len(p.rows))
	for i := range p.rows {
		r := std.rowOf[i]
		if r < 0 {
			continue
		}
		dual[i] = std.rowSign[i] * y[r]
	}
	sol := &Solution{
		Status:     Optimal,
		X:          x,
		Obj:        p.Objective(x),
		Dual:       dual,
		Iterations: totalIters,
		Pivots:     rv.pivots,
	}
	rv.release()
	return sol, true
}
