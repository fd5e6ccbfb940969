package lp

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// The package's tolerances (costEps, pivotEps, feasEps, …) live in tol.go.

// varMap records how an original variable was rewritten in standard form.
type varMap struct {
	kind  int     // 0: x = lo + u, 1: x = hi - u, 2: x = u⁺ - u⁻, 3: fixed
	col   int     // primary standard column (u or u⁺)
	col2  int     // u⁻ for kind 2
	shift float64 // lo (kind 0), hi (kind 1), fixed value (kind 3)
}

// standard is the problem in bounded computational form:
// min cᵀu + c0, A u = b, lb ≤ u ≤ ub (lb finite, ub may be +Inf).
//
// A cold standardization always produces lb = 0; warm-start bound updates
// (Incremental.TightenBound) move lb/ub of individual columns, which the
// bounded-variable simplex handles implicitly — they cost nothing, unlike
// explicit rows. This matters: the HSLB master MILPs carry thousands of
// binaries.
type standard struct {
	a  [][]float64
	b  []float64
	c  []float64
	lb []float64
	ub []float64
	c0 float64

	vmaps []varMap
	// rowOf[i] is the standard row holding original constraint i;
	// rowSign[i] maps the standard dual back to the original sense.
	rowOf   []int
	rowSign []float64
	// unitCol[r] is a column that started as the identity on row r (its
	// slack or artificial), used to read B⁻¹ for dual extraction.
	unitCol []int
	nReal   int // columns that are not artificial

	// orig/origB are the pristine (unreduced) constraint matrix and RHS,
	// captured just before phase 1 when a warm-capable solve was requested.
	// They are the refactorization source for installing a stored Basis.
	orig  [][]float64
	origB []float64

	// pat holds the per-row nonzero patterns built during standardization
	// (CSR index arrays over the dense rows; nil when the sparse kernels
	// are disabled). origPat is the pristine-row counterpart of orig, the
	// pattern source for sparse refactorization.
	pat     [][]int32
	origPat [][]int32

	// scale is the power-of-two magnitude of the standardized RHS
	// (primalScale(b), tol.go); every SCALED tolerance of the solve is
	// multiplied by it so verdicts are relative to the data's units.
	scale float64
}

// workspace is the reusable dense-matrix arena for cold solves. Pooling it
// means branch-and-bound node solves stop reallocating the tableau, the
// single largest allocation of the solver hot path. The arena only ever
// backs one solve at a time; persistent (warm) solvers pass ws == nil and
// allocate normally.
type workspace struct {
	arena []float64

	// Sparse-kernel scratch, pooled alongside the matrix arena: patArena
	// backs the per-row nonzero pattern lists, the flat int32 buffers back
	// the column counts, the generation-stamp array, and the pattern
	// rebuild scratch of one tableau at a time.
	patArena   []int32
	colCnt     []int32
	mark       []int32
	patScratch []int32

	// Row-accumulator scratch for standardize: a dense coefficient
	// accumulator plus membership marks and the touched-column list,
	// replacing the per-row map the row builder used to allocate.
	// Invariant between calls: acc and accMark are all-zero.
	acc      []float64
	accMark  []int32
	accTouch []int32
}

var wsPool = sync.Pool{New: func() interface{} { return &workspace{} }}

// matrix carves m rows of length 0 and capacity w each from the arena.
// Appending within a row stays inside its slot; the rare overflow falls back
// to the Go allocator, which is safe (just unpooled).
func (ws *workspace) matrix(m, w int) [][]float64 {
	if ws == nil {
		rows := make([][]float64, 0, m)
		return rows
	}
	need := m * w
	if cap(ws.arena) < need {
		ws.arena = make([]float64, need)
	}
	a := ws.arena[:need]
	for i := range a {
		a[i] = 0
	}
	rows := make([][]float64, m)
	for i := range rows {
		rows[i] = a[i*w : i*w : (i+1)*w]
	}
	return rows[:0]
}

// patMatrix carves m empty pattern rows of capacity w from the pooled
// int32 arena (mirrors matrix; a pattern can never exceed the column
// capacity of its row, so the slots cannot overflow).
func (ws *workspace) patMatrix(m, w int) [][]int32 {
	if ws == nil {
		return make([][]int32, 0, m)
	}
	need := m * w
	if cap(ws.patArena) < need {
		ws.patArena = make([]int32, need)
	}
	a := ws.patArena[:need]
	rows := make([][]int32, m)
	for i := range rows {
		rows[i] = a[i*w : i*w : (i+1)*w][:0]
	}
	return rows[:0]
}

// sortPattern orders a freshly built pattern row ascending (map iteration
// order is random; the kernels need determinism). Small rows use an
// allocation-free insertion sort; the rare dense row (the node-budget row)
// goes through sort.Slice.
func sortPattern(v []int32) {
	if len(v) > 32 {
		sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
		return
	}
	for i := 1; i < len(v); i++ {
		x := v[i]
		j := i - 1
		for j >= 0 && v[j] > x {
			v[j+1] = v[j]
			j--
		}
		v[j+1] = x
	}
}

// standardize rewrites p into bounded standard form. It returns Infeasible
// immediately for contradictory bounds. ws (optional) provides the row
// arena. keepFixed retains lo==hi variables as real zero-range columns
// instead of eliminating them — required by warm-capable solves, where a
// later TightenBound may relax the fix and the column must still exist for
// the change to be absorbable.
func standardize(p *Problem, ws *workspace, keepFixed bool) (*standard, Status) {
	s := &standard{}
	n := len(p.costs)
	s.vmaps = make([]varMap, n)

	// Upper bound on the final column count: one or two structural columns
	// per variable, one slack per inequality row, one artificial per row.
	maxCols := 0
	for j := 0; j < n; j++ {
		if math.IsInf(p.lo[j], -1) && math.IsInf(p.hi[j], 1) {
			maxCols += 2
		} else if keepFixed || p.lo[j] != p.hi[j] || math.IsInf(p.lo[j], 0) {
			maxCols++
		}
	}
	maxCols += 2 * len(p.rows)
	sparseOn := !p.DisableSparse
	rows := ws.matrix(len(p.rows), maxCols)
	var pats [][]int32
	if sparseOn {
		pats = ws.patMatrix(len(p.rows), maxCols)
	}

	// Map variables.
	for j := 0; j < n; j++ {
		lo, hi := p.lo[j], p.hi[j]
		switch {
		case lo > hi:
			return nil, Infeasible
		case lo == hi && !math.IsInf(lo, 0) && !keepFixed:
			s.vmaps[j] = varMap{kind: 3, shift: lo}
			s.c0 += p.costs[j] * lo
		case !math.IsInf(lo, -1):
			u := hi - lo // +Inf when hi is +Inf
			col := s.addCol(p.costs[j], u)
			s.vmaps[j] = varMap{kind: 0, col: col, shift: lo}
			s.c0 += p.costs[j] * lo
		case !math.IsInf(hi, 1): // lo = -inf, hi finite
			col := s.addCol(-p.costs[j], math.Inf(1))
			s.vmaps[j] = varMap{kind: 1, col: col, shift: hi}
			s.c0 += p.costs[j] * hi
		default: // free
			cp := s.addCol(p.costs[j], math.Inf(1))
			cm := s.addCol(-p.costs[j], math.Inf(1))
			s.vmaps[j] = varMap{kind: 2, col: cp, col2: cm}
		}
	}

	// Constraint rows. Each becomes an equality with optional slack. Row
	// coefficients accumulate into a dense accumulator plus a touched-column
	// list instead of a per-row map. Invariant: acc and accMark are all-zero
	// between rows (each row clears exactly what it touched).
	s.rowOf = make([]int, len(p.rows))
	s.rowSign = make([]float64, len(p.rows))
	var acc []float64
	var accMark []int32
	var accTouch []int32
	if ws != nil {
		if cap(ws.acc) < maxCols {
			ws.acc = make([]float64, maxCols)
			ws.accMark = make([]int32, maxCols)
		}
		acc, accMark = ws.acc[:maxCols], ws.accMark[:maxCols]
		accTouch = ws.accTouch[:0]
	} else {
		acc = make([]float64, maxCols)
		accMark = make([]int32, maxCols)
	}
	accAdd := func(c int, v float64) {
		if accMark[c] == 0 {
			accMark[c] = 1
			accTouch = append(accTouch, int32(c))
		}
		acc[c] += v
	}
	addRow := func(rhs float64, slack bool) int {
		// accTouch is sorted by the caller; zero accumulator entries
		// (exact term cancellation) are dropped from the pattern.
		var row []float64
		if len(rows) < cap(rows) {
			rows = rows[:len(rows)+1]
			row = rows[len(rows)-1][:0]
		}
		row = append(row, make([]float64, len(s.c)-len(row))...)
		for i := range row {
			row[i] = 0
		}
		for _, c := range accTouch {
			row[c] = acc[c]
		}
		if slack {
			sc := s.addCol(0, math.Inf(1))
			row = append(row, make([]float64, len(s.c)-len(row))...)
			row[sc] = 1
		}
		s.a = append(s.a, row)
		s.b = append(s.b, rhs)
		if sparseOn {
			// The row's nonzero pattern. The slack, if any, is the newest
			// column and therefore already the largest index.
			var rp []int32
			pooled := len(pats) < cap(pats)
			if pooled {
				pats = pats[:len(pats)+1]
				rp = pats[len(pats)-1][:0]
			}
			for _, c := range accTouch {
				if acc[c] != 0 {
					rp = append(rp, c)
				}
			}
			if slack {
				rp = append(rp, int32(len(s.c)-1))
			}
			if pooled {
				pats[len(pats)-1] = rp
			} else {
				pats = append(pats, rp)
			}
		}
		return len(s.a) - 1
	}

	for i := range p.rows {
		r := &p.rows[i]
		rhs := r.RHS
		for _, t := range r.Terms {
			vm := s.vmaps[t.Var]
			switch vm.kind {
			case 0:
				accAdd(vm.col, t.Coef)
				rhs -= t.Coef * vm.shift
			case 1:
				accAdd(vm.col, -t.Coef)
				rhs -= t.Coef * vm.shift
			case 2:
				accAdd(vm.col, t.Coef)
				accAdd(vm.col2, -t.Coef)
			case 3:
				rhs -= t.Coef * vm.shift
			}
		}
		sign := 1.0
		sense := r.Sense
		if sense == GE { // negate into ≤
			for _, c := range accTouch {
				acc[c] = -acc[c]
			}
			rhs = -rhs
			sign = -1
			sense = LE
		}
		sortPattern(accTouch)
		s.rowOf[i] = addRow(rhs, sense == LE)
		s.rowSign[i] = sign
		for _, c := range accTouch {
			acc[c] = 0
			accMark[c] = 0
		}
		accTouch = accTouch[:0]
	}
	if ws != nil {
		// Return the (possibly grown) touched-column list to the pool.
		ws.accTouch = accTouch[:0]
	}

	// Make b ≥ 0 (flips dual sign of affected rows).
	for r := range s.a {
		if s.b[r] < 0 {
			s.b[r] = -s.b[r]
			for c := range s.a[r] {
				s.a[r][c] = -s.a[r][c]
			}
			for i, ro := range s.rowOf {
				if ro == r {
					s.rowSign[i] = -s.rowSign[i]
				}
			}
		}
	}

	// Pad rows to full width (slack columns added after a row was created).
	for r := range s.a {
		if len(s.a[r]) < len(s.c) {
			s.a[r] = append(s.a[r], make([]float64, len(s.c)-len(s.a[r]))...)
		}
	}
	s.nReal = len(s.c)
	if sparseOn {
		s.pat = pats
	}
	s.scale = primalScale(s.b)
	return s, Optimal
}

func (s *standard) addCol(cost, upper float64) int {
	s.c = append(s.c, cost)
	s.lb = append(s.lb, 0)
	s.ub = append(s.ub, upper)
	for r := range s.a {
		s.a[r] = append(s.a[r], 0)
	}
	return len(s.c) - 1
}

// isSlack reports whether standard column j can serve as an initial basic
// column: zero cost, unbounded above, and not an artificial.
func (s *standard) isSlack(j int) bool {
	return s.c[j] == 0 && j < s.nReal && math.IsInf(s.ub[j], 1)
}

// Nonbasic variable positions.
const (
	atLower int8 = iota
	atUpper
)

// debugPhase1 is a test hook invoked when phase 1 concludes infeasible.
var debugPhase1 func(t *tableau, std *standard, artStart int)

// Phase1Diag summarizes a phase-1 infeasibility conclusion (testing aid).
type Phase1Diag struct {
	Obj          float64 // residual Σ artificials
	Iters        int
	PositiveArts int
	WorstDLower  float64 // most negative reduced cost among atLower nonbasics
	WorstDUpper  float64 // most positive reduced cost among atUpper nonbasics
}

// SetPhase1Debug installs a callback fired when a solve concludes
// infeasible in phase 1 (nil disables). Testing aid.
func SetPhase1Debug(f func(Phase1Diag)) {
	if f == nil {
		debugPhase1 = nil
		return
	}
	debugPhase1 = func(t *tableau, std *standard, artStart int) {
		d := Phase1Diag{Obj: t.obj, Iters: t.iters}
		for i, bc := range t.basis {
			if bc >= artStart && t.b[i] > 1e-9 {
				d.PositiveArts++
			}
		}
		for j := range t.d {
			if t.inBase[j] || t.banned[j] {
				continue
			}
			if t.status[j] == atLower && t.d[j] < d.WorstDLower {
				d.WorstDLower = t.d[j]
			}
			if t.status[j] == atUpper && t.d[j] > d.WorstDUpper {
				d.WorstDUpper = t.d[j]
			}
		}
		f(d)
	}
}

// tableau is the dense working state of the bounded-variable simplex.
type tableau struct {
	a      [][]float64 // m x n, kept as B⁻¹A
	b      []float64   // m, current values of the basic variables
	d      []float64   // n, reduced costs for the current phase
	lb     []float64   // n, column lower bounds (0 after a cold standardize)
	ub     []float64   // n, column upper bounds
	basis  []int       // m, basic column per row
	inBase []bool      // n
	status []int8      // n, bound position of nonbasic columns
	banned []bool      // columns excluded from entering (artificials)
	obj    float64     // current phase objective value
	iters  int
	pivots int // basis-changing pivots (excludes pure bound flips)

	// delta is the Harris ratio-test relative feasibility slack: pass 1
	// of the ratio test relaxes each basic bound by delta × the
	// power-of-two magnitude of that bound, letting pass 2 pick the
	// largest-|pivot| row among those whose exact ratio fits under the
	// relaxed limit. Per-bound scaling matters: a global slack sized to
	// the RHS norm over-relaxes the O(1) outer-approximation cut rows by
	// the budget row's magnitude, delivering solutions whose cut
	// violations the OA callback (tolerance 1e-6) keeps rejecting — the
	// cut pool then grows without bound. Zero degrades gracefully to an
	// exact-tie max-|pivot| rule.
	delta float64

	// Sparse-kernel state (see sparse.go). pat == nil means the dense
	// kernels are in charge; the two share the same value rows, so the
	// sparse path can drop to dense at any time.
	pat        [][]int32 // per-row exact nonzero column patterns
	colCnt     []int32   // per-column pattern-membership counts
	nnz        int       // Σ len(pat[i]), the fill monitor
	mark       []int32   // shared generation-stamp scratch, len n
	markGen    int32
	patScratch []int32 // pattern rebuild buffer

	active []int32 // pricing skip list: non-banned, non-fixed columns

	// brk is runDual's scratch list of bound-flipping ratio-test
	// breakpoints (warm.go).
	brk []dualBreak
}

// nbVal returns the current value of nonbasic column j.
func (t *tableau) nbVal(j int) float64 {
	if t.status[j] == atUpper {
		return t.ub[j]
	}
	return t.lb[j]
}

// run iterates the primal simplex until optimality, unboundedness, or the
// iteration budget is exhausted.
func (t *tableau) run(maxIter int) Status {
	m := len(t.a)
	t.buildActive()
	stall := 0
	// Engage Bland's rule quickly once the objective stops moving:
	// degenerate plateaus are common on the branch-and-bound children of
	// binary-heavy masters, and Dantzig pricing can walk them for a very
	// long time.
	blandAfter := m + 64
	for t.iters < maxIter {
		t.iters++
		bland := stall > blandAfter

		// Entering column: nonbasic whose reduced cost improves in its
		// feasible movement direction (see priceEntering in sparse.go for
		// the skip-list mechanics).
		e, dir := t.priceEntering(bland)
		if e < 0 {
			return Optimal
		}

		// Ratio test (two-pass Harris): how far can x_e move in direction
		// dir? Pass 1 finds the most limiting ratio with every basic bound
		// relaxed by the feasibility slack delta; pass 2 picks, among the
		// rows whose exact ratio fits under that relaxed limit, the one
		// with the largest pivot magnitude. A single exact-minimum pass
		// is forced to pivot wherever the minimum happens to fall — on
		// the near-parallel rows that duplicate outer-approximation cuts
		// produce, that is a noise-magnitude entry (~1e-7), and a pivot
		// on it amplifies the whole tableau by its reciprocal. Two such
		// pivots corrupted reduced costs to 1e14 and made the dense
		// authority report an "optimal" point 2× outside a column bound.
		// The price is a bound violation of at most delta on the rows
		// pass 2 overrides, which is within the solve's feasibility
		// tolerance by construction (both are feasEps × the primal scale).
		tMax := t.ub[e] - t.lb[e] // own bound flip distance (lower↔upper)
		limit1 := tMax
		for i := 0; i < m; i++ {
			rate := dir * t.a[i][e] // d(x_B(i))/d(t) = -rate
			if rate > pivotEps {
				// Basic variable decreases towards its lower bound.
				lo := t.lb[t.basis[i]]
				if l := (t.b[i] - lo + t.delta*pow2Scale(lo)) / rate; l < limit1 {
					limit1 = l
				}
			} else if rate < -pivotEps {
				ubB := t.ub[t.basis[i]]
				if math.IsInf(ubB, 1) {
					continue
				}
				// Basic variable increases towards its upper bound.
				if l := (ubB - t.b[i] + t.delta*pow2Scale(ubB)) / -rate; l < limit1 {
					limit1 = l
				}
			}
		}
		if math.IsInf(limit1, 1) {
			return Unbounded
		}
		r, rKind := -1, atLower
		limit := tMax
		bestRate := 0.0
		for i := 0; i < m; i++ {
			rate := dir * t.a[i][e]
			var l float64
			var kind int8
			if rate > pivotEps {
				l = (t.b[i] - t.lb[t.basis[i]]) / rate
				kind = atLower
			} else if rate < -pivotEps {
				ubB := t.ub[t.basis[i]]
				if math.IsInf(ubB, 1) {
					continue
				}
				l = (ubB - t.b[i]) / -rate
				kind = atUpper
			} else {
				continue
			}
			if l > limit1+ratioTieEps {
				continue
			}
			a := math.Abs(rate)
			if r < 0 || a > bestRate || (a == bestRate && t.betterLeaving(i, r)) {
				limit, r, rKind, bestRate = l, i, kind, a
			}
		}
		if r >= 0 && limit > tMax {
			// Every admissible row blocks later than the entering column's
			// own bound: flip instead of pivoting.
			r, limit = -1, tMax
		}
		if limit < 0 {
			limit = 0
		}

		// Progress is judged relative to the objective scale; absolute
		// epsilons let 1e-13-sized zigzags reset the stall counter
		// forever.
		improved := t.d[e]*dir*limit < -progressRelEps*(1+math.Abs(t.obj))
		// Move the entering variable by dir·limit.
		if limit > 0 {
			for i := 0; i < m; i++ {
				t.b[i] -= t.a[i][e] * dir * limit
			}
			t.obj += t.d[e] * dir * limit
		}

		if r < 0 {
			// Pure bound flip: no basis change.
			if t.status[e] == atLower {
				t.status[e] = atUpper
			} else {
				t.status[e] = atLower
			}
		} else {
			// Basis change: leaving variable settles at one of its
			// bounds; entering becomes basic with its new value.
			leave := t.basis[r]
			t.inBase[leave] = false
			t.status[leave] = rKind
			// Snap the leaving variable's row value exactly.
			newVal := dir*limit + t.nbVal(e)
			t.basis[r] = e
			t.inBase[e] = true
			t.b[r] = newVal
			t.pivot(r, e)
			t.pivots++
		}
		// Numerical hygiene: clamp tiny bound violations of basic values.
		for i := 0; i < m; i++ {
			lo := t.lb[t.basis[i]]
			if t.b[i] < lo && t.b[i] > lo-boundSnapEps {
				t.b[i] = lo
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

// betterLeaving breaks ratio-test ties (candidate row i against incumbent
// r). The dense authority keeps its historical lowest-basis-index rule. In
// sparse mode the Markowitz-flavored rule prefers the row with the smaller
// nonzero pattern: a degenerate problem offers many tied pivot rows, and
// choosing a wide one (the makespan or budget row of an allocation LP)
// sprays its pattern across every touched row in one pivot. Any tied row
// is mathematically valid, so this only steers fill-in, not correctness.
func (t *tableau) betterLeaving(i, r int) bool {
	if r < 0 {
		return true
	}
	if t.sparse() {
		if d := len(t.pat[i]) - len(t.pat[r]); d != 0 {
			return d < 0
		}
	}
	return t.basis[i] < t.basis[r]
}

// pivot performs the row reduction making column e the unit column of row r
// and keeping the reduced costs consistent. The caller has already updated
// basis/inBase/status/b.
func (t *tableau) pivot(r, e int) {
	if t.sparse() {
		t.pivotSparse(r, e)
		return
	}
	pr := t.a[r]
	inv := 1 / pr[e]
	for j := range pr {
		pr[j] *= inv
	}
	for i := range t.a {
		if i == r {
			continue
		}
		f := t.a[i][e]
		if f == 0 {
			continue
		}
		ri := t.a[i]
		for j := range ri {
			ri[j] -= f * pr[j]
		}
		ri[e] = 0
	}
	f := t.d[e]
	if f != 0 {
		for j := range t.d {
			t.d[j] -= f * pr[j]
		}
		t.d[e] = 0
	}
}

// setCosts installs a cost vector and recomputes reduced costs and the
// objective for the current basis/bound configuration.
func (t *tableau) setCosts(c []float64) {
	copy(t.d, c)
	t.obj = 0
	for i, bcol := range t.basis {
		cb := c[bcol]
		if cb == 0 {
			continue
		}
		t.obj += cb * t.b[i]
		row := t.a[i]
		if t.sparse() {
			for _, j := range t.pat[i] {
				t.d[j] -= cb * row[j]
			}
		} else {
			for j := range t.d {
				t.d[j] -= cb * row[j]
			}
		}
	}
	for _, bcol := range t.basis {
		t.d[bcol] = 0
	}
	// Nonbasic variables parked at a nonzero bound contribute directly.
	for j := range t.d {
		if t.inBase[j] {
			continue
		}
		if v := t.nbVal(j); v != 0 {
			t.obj += c[j] * v
		}
	}
}

// Solve solves the problem with the cold two-phase primal simplex and
// returns the solution. The error is non-nil only for structurally invalid
// models; infeasibility and unboundedness are reported through
// Solution.Status. A crash hint (SetCrashPoint) is not consulted here: only
// Incremental solves install it.
func (p *Problem) Solve() (*Solution, error) {
	ws := wsPool.Get().(*workspace)
	defer wsPool.Put(ws)
	sol, _, _, err := solveCold(p, ws, nil)
	return sol, err
}

// coldSetup standardizes p and erects the phase-0 system shared by every
// tableau-path start: the identity basis scan, the artificial append, the
// sparse-kernel init, and (for warm-capable solves) the pristine snapshot.
// A non-nil Solution or error is a final verdict (the std/t returns are
// then nil); otherwise the tableau is ready for phase 1 — or, on the crash
// path, for a direct basis install (Incremental.rebuildFromCrash).
func coldSetup(p *Problem, ws *workspace, tag *basisTag) (*Solution, *standard, *tableau, int, int, error) {
	for j := range p.lo {
		if math.IsNaN(p.lo[j]) || math.IsNaN(p.hi[j]) {
			return nil, nil, nil, 0, 0, fmt.Errorf("%w: NaN bound on variable %d", ErrBadModel, j)
		}
	}
	std, st := standardize(p, ws, tag != nil)
	if st == Infeasible {
		return &Solution{Status: Infeasible}, nil, nil, 0, 0, nil
	}

	m, n := len(std.a), len(std.c)
	maxIter := p.MaxIter
	if maxIter == 0 {
		// Basis changes scale with rows, bound flips with columns; this
		// budget is an order of magnitude above what healthy solves use.
		maxIter = 200*(m+25) + 20*n
	}

	t := &tableau{
		a:     std.a,
		b:     append([]float64(nil), std.b...),
		ub:    std.ub,
		basis: make([]int, m),
		delta: feasEps,
	}

	// Initial basis: a slack column that is exactly the identity on the
	// row, else an artificial. All structural columns start at lower.
	std.unitCol = make([]int, m)
	used := make([]bool, n)
	for i := range t.a {
		t.basis[i] = -1
		for j := 0; j < n; j++ {
			if used[j] || !std.isSlack(j) || t.a[i][j] != 1 {
				continue
			}
			unique := true
			for k := range t.a {
				if k != i && t.a[k][j] != 0 {
					unique = false
					break
				}
			}
			if unique {
				t.basis[i] = j
				std.unitCol[i] = j
				used[j] = true
				break
			}
		}
	}
	artStart := n
	for i := range t.a {
		if t.basis[i] >= 0 {
			continue
		}
		// Append the artificial column manually: std.addCol would also
		// push a zero onto every row, duplicating the column we add here.
		col := len(std.c)
		std.c = append(std.c, 0)
		std.lb = append(std.lb, 0)
		std.ub = append(std.ub, math.Inf(1))
		for r := range t.a {
			v := 0.0
			if r == i {
				v = 1
			}
			t.a[r] = append(t.a[r], v)
		}
		if std.pat != nil {
			// The artificial is the newest (largest) column: the pattern
			// stays sorted.
			std.pat[i] = append(std.pat[i], int32(col))
		}
		t.basis[i] = col
		std.unitCol[i] = col
	}
	n = len(std.c)
	std.a = t.a
	t.lb = std.lb
	t.ub = std.ub
	t.banned = make([]bool, n)
	t.d = make([]float64, n)
	t.status = make([]int8, n)
	t.inBase = make([]bool, n)
	for _, bc := range t.basis {
		t.inBase[bc] = true
	}
	if std.pat != nil {
		t.initSparse(std.pat, ws)
	}

	// Warm-capable solves keep a pristine copy of the (artificial-extended)
	// system for later basis refactorization.
	if tag != nil {
		std.orig = make([][]float64, m)
		for i := range t.a {
			std.orig[i] = append([]float64(nil), t.a[i]...)
		}
		std.origB = append([]float64(nil), t.b...)
		if std.pat != nil {
			// Patterns are still pristine here (no pivots yet); snapshot
			// them alongside orig for sparse refactorization.
			std.origPat = make([][]int32, m)
			for i := range std.pat {
				std.origPat[i] = append([]int32(nil), std.pat[i]...)
			}
		}
	}
	return nil, std, t, artStart, maxIter, nil
}

// solveCold runs the full two-phase primal simplex. ws (optional) backs the
// dense matrix with a pooled arena — callers that retain std/t (warm
// solvers) must pass ws == nil. tag, when non-nil, enables the Basis
// snapshot on optimal solutions.
func solveCold(p *Problem, ws *workspace, tag *basisTag) (*Solution, *standard, *tableau, error) {
	sol, std, t, artStart, maxIter, err := coldSetup(p, ws, tag)
	if sol != nil || err != nil {
		return sol, nil, nil, err
	}
	n := len(std.c)

	totalIters := 0

	// Phase 1: minimize the sum of artificials.
	if artStart < n {
		phase1 := make([]float64, n)
		for j := artStart; j < n; j++ {
			phase1[j] = 1
		}
		t.setCosts(phase1)
		st := t.run(maxIter)
		totalIters += t.iters
		if st == IterLimit {
			return &Solution{Status: IterLimit, Iterations: totalIters, Pivots: t.pivots}, nil, nil, nil
		}
		// The incrementally tracked objective drifts over long runs;
		// judge feasibility on the exact residual: artificials have unit
		// cost and infinite upper bounds, so the phase-1 objective is
		// precisely the sum of basic artificial values.
		resid := 0.0
		for i, bc := range t.basis {
			if bc >= artStart && t.b[i] > 0 {
				resid += t.b[i]
			}
		}
		if st == Unbounded || resid > feasTol(std.scale) {
			// An Infeasible conclusion reached with the sparse pattern
			// kernels is confirmed against the dense authority before it
			// escapes. The kernels can — rarely — pivot themselves into a
			// numerical explosion whose phase-1 residual is astronomically
			// large (the recorded hslbd defect reached 5e30, with st even
			// reporting Unbounded, impossible for a genuine phase 1); no
			// residual threshold distinguishes that from honest
			// infeasibility, so the verdict itself is re-derived densely.
			// Genuine infeasibles pay one extra dense solve; in the HSLB
			// stack those are rare because branch-and-bound prunes
			// contradictory boxes via empty-box checks first.
			if std.pat != nil {
				dense := *p
				dense.DisableSparse = true
				sol2, std2, t2, err := solveCold(&dense, ws, tag)
				if err == nil && sol2 != nil {
					sol2.Iterations += totalIters
					sol2.Pivots += t.pivots
					if sol2.Status != Infeasible && debugInfeasConfirm != nil {
						debugInfeasConfirm(resid, sol2.Status)
					}
				}
				return sol2, std2, t2, err
			}
			if debugPhase1 != nil {
				debugPhase1(t, std, artStart)
			}
			return &Solution{Status: Infeasible, Iterations: totalIters, Pivots: t.pivots}, nil, nil, nil
		}
		// Drive artificials out of the basis where possible. Basic
		// artificial values are numerical noise at this point.
		for i := range t.basis {
			if t.basis[i] < artStart {
				continue
			}
			t.b[i] = 0
			for j := 0; j < artStart; j++ {
				if t.inBase[j] {
					continue
				}
				if math.Abs(t.a[i][j]) > artPivotEps {
					t.pivotOutArtificial(i, j)
					break
				}
			}
			// If no pivot was found the row is redundant; the artificial
			// stays basic at value 0, which is harmless.
		}
		for j := artStart; j < n; j++ {
			t.banned[j] = true
		}
	}

	// Phase 2: original costs.
	t.iters = 0
	t.setCosts(std.c)
	st2 := t.run(maxIter)
	totalIters += t.iters
	switch st2 {
	case Unbounded:
		return &Solution{Status: Unbounded, Iterations: totalIters, Pivots: t.pivots}, nil, nil, nil
	case IterLimit:
		return &Solution{Status: IterLimit, Iterations: totalIters, Pivots: t.pivots}, nil, nil, nil
	}

	return extract(p, std, t, totalIters, t.pivots, tag), std, t, nil
}

// extract recovers the original-variable solution, the row duals, and (when
// tag is non-nil) a Basis snapshot from an optimal tableau.
func extract(p *Problem, std *standard, t *tableau, iters, pivots int, tag *basisTag) *Solution {
	n := len(std.c)
	u := make([]float64, n)
	for j := 0; j < n; j++ {
		if !t.inBase[j] {
			u[j] = t.nbVal(j)
		}
	}
	for i, bcol := range t.basis {
		u[bcol] = t.b[i]
	}
	// Map back to original variables.
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
	// Duals: y_r = c_unit − d_unit for the identity column of each row
	// (slack and artificial costs are 0 in phase 2, so y_r = −d).
	dual := make([]float64, len(p.rows))
	for i := range p.rows {
		r := std.rowOf[i]
		if r < 0 {
			continue
		}
		dual[i] = std.rowSign[i] * -t.d[std.unitCol[r]]
	}
	sol := &Solution{
		Status:     Optimal,
		X:          x,
		Obj:        p.Objective(x),
		Dual:       dual,
		Iterations: iters,
		Pivots:     pivots,
	}
	if tag != nil {
		bs := &Basis{tag: tag, cols: make([]int32, len(t.basis)), status: make([]int8, n)}
		for i, bc := range t.basis {
			bs.cols[i] = int32(bc)
		}
		copy(bs.status, t.status)
		sol.Basis = bs
	}
	return sol
}

// pivotOutArtificial swaps a zero-valued basic artificial in row r for
// structural column j (entering at value 0; feasibility is unaffected).
func (t *tableau) pivotOutArtificial(r, j int) {
	leave := t.basis[r]
	t.inBase[leave] = false
	t.status[leave] = atLower
	t.basis[r] = j
	t.inBase[j] = true
	// j enters at its current bound value; b[r] stays the artificial's
	// (zeroed) value plus the bound offset of j.
	t.b[r] = t.nbVal(j)
	t.pivot(r, j)
}
