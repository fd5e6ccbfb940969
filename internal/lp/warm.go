package lp

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// The dual-simplex tolerances (dualFeasEps, dualPivotEps) and warmFeasTol
// live in tol.go with the rest of the package's tolerance audit.

// refactorEvery bounds the pivots applied to a warm tableau before it is
// refactorized from the pristine rows to purge accumulated round-off.
const refactorEvery = 256

// basisTag identifies the Incremental that produced a Basis. A snapshot can
// only be installed into its own Incremental; foreign snapshots are silently
// ignored. Within one Incremental every snapshot stays attemptable for the
// wrapper's whole lifetime. A cold rebuild may renumber columns (it places
// the slacks of cut rows ahead of the artificials), so a snapshot predating
// one can name different columns than it did; exchange validates every
// snapshot (range, nonsingularity, dual feasibility) against the live
// tableau, so such a snapshot costs a rejected install at worst.
type basisTag struct{ _ byte }

// Basis is an opaque snapshot of a simplex basis: the basic column of every
// row plus the bound status of every nonbasic column. It is exported through
// Solution.Basis by Incremental solves and consumed by
// Incremental.SolveFrom. Snapshots are immutable and safe to share across
// goroutines.
type Basis struct {
	tag    *basisTag
	cols   []int32
	status []int8
}

// Incremental wraps a Problem with warm-start state: it keeps the simplex
// tableau alive between solves and reoptimizes with the dual simplex after
// bound changes (TightenBound / SetBounds on the wrapped problem) or row
// additions (AddRow / AddConstraint). Both kinds of change preserve dual
// feasibility of the incumbent basis, so a reoptimization typically takes a
// handful of pivots where a cold solve would take hundreds.
//
// The cold two-phase solve remains the correctness authority: any change the
// warm path cannot absorb (new variables, cost changes, bound-class changes
// such as fixing a previously free variable), any numerical rejection, and
// every warm Infeasible conclusion falls back to — or is confirmed by — a
// cold solve.
//
// An Incremental is not safe for concurrent use.
type Incremental struct {
	p   *Problem
	std *standard
	t   *tableau
	tag *basisTag

	// Applied snapshot of the wrapped problem, used to diff changes.
	loApplied    []float64
	hiApplied    []float64
	costApplied  []float64
	rhsApplied   []float64
	rowsApplied  int
	factorPivots int // t.pivots at the last (re)factorization

	// Basis-cache effectiveness counters; see Stats.
	warmSolves int
	coldSolves int

	// Exchange-install scratch (see exchange): membership marks of the
	// snapshot's columns, the live basis saved for a restore, and the
	// reduced right-hand side b₀ − N·x_N.
	inSnap     []bool
	prevCols   []int32
	prevStatus []int8
	rhsWork    []float64

	valid bool
}

// Stats reports how often the live-tableau basis cache paid off: warm is the
// number of Solve/SolveFrom calls resolved by dual-simplex reoptimization of
// the cached basis (including trivial empty-box and confirmed-infeasible
// verdicts), cold the number that fell back to a full two-phase rebuild.
// Clients (the branch-and-bound tree, the solve service) surface these as
// cache hit/miss statistics.
func (inc *Incremental) Stats() (warm, cold int) { return inc.warmSolves, inc.coldSolves }

// NewIncremental wraps p for warm-started solving. The problem is shared,
// not copied: mutate it through the Incremental helpers or directly (e.g.
// AddConstraint) and call Solve to absorb the changes. The first Solve is a
// cold solve.
func NewIncremental(p *Problem) *Incremental {
	// One tag per Incremental lifetime, not per rebuild: within a single
	// Incremental any snapshot may be attempted (install fully validates
	// against the current pristine rows before committing), so snapshots
	// must survive rebuilds — a per-rebuild tag would strand every parent
	// basis held by a deep best-first node queue. The tag only guards
	// against snapshots produced by a different Incremental.
	return &Incremental{p: p, tag: &basisTag{}}
}

// Problem returns the wrapped problem (live, shared).
func (inc *Incremental) Problem() *Problem { return inc.p }

// TightenBound updates the bounds of variable v. Despite the name it may
// also relax bounds; either direction preserves dual feasibility and is
// absorbed warmly as long as the bound class is unchanged (a finite bound
// stays finite on the same side).
func (inc *Incremental) TightenBound(v int, lo, hi float64) {
	inc.p.SetBounds(v, lo, hi)
}

// AddRow appends the constraint Σ terms {sense} rhs and returns its index.
// Row additions preserve dual feasibility of the incumbent basis.
func (inc *Incremental) AddRow(terms []Term, sense Sense, rhs float64, name string) int {
	return inc.p.AddConstraint(terms, sense, rhs, name)
}

// SetRHS replaces the right-hand side of constraint row i (RHS ranging).
// The change preserves dual feasibility and is absorbed warmly by the next
// Solve: walking a single row's RHS across a parameter range — the budget
// row of a parametric table build — reoptimizes in a few dual pivots per
// step instead of a cold solve per value.
func (inc *Incremental) SetRHS(i int, rhs float64) {
	inc.p.SetRHS(i, rhs)
}

// Solve reoptimizes after any pending problem mutations, warm-starting from
// the live basis of the previous solve.
func (inc *Incremental) Solve() (*Solution, error) { return inc.SolveFrom(nil) }

// SolveFrom reoptimizes like Solve but first installs basis b (typically a
// parent node's Solution.Basis) when it is compatible with the current
// standardization. Incompatible or stale snapshots are ignored, never an
// error.
func (inc *Incremental) SolveFrom(b *Basis) (*Solution, error) {
	p := inc.p
	for j := range p.lo {
		if math.IsNaN(p.lo[j]) || math.IsNaN(p.hi[j]) {
			return nil, fmt.Errorf("%w: NaN bound on variable %d", ErrBadModel, j)
		}
		// Empty box: report infeasibility without touching the warm state,
		// so the tableau stays reusable for the next (feasible) sibling.
		if p.lo[j] > p.hi[j] {
			inc.warmSolves++
			return &Solution{Status: Infeasible}, nil
		}
	}
	if !inc.valid {
		return inc.rebuild()
	}
	if !inc.absorb() {
		return inc.rebuild()
	}
	if inc.t.pivots-inc.factorPivots > refactorEvery {
		if !inc.refactor() {
			return inc.rebuild()
		}
	}
	if b != nil && b.tag == inc.tag && !inc.exchange(b) {
		return inc.rebuild()
	}
	return inc.reoptimize()
}

// rebuild discards all warm state and rebuilds: from the problem's crash
// hint when one is set (installing the heuristic vertex directly, skipping
// both simplex phases), else by an ordinary cold two-phase solve. The
// reoptimize-internal fallbacks call rebuildCold directly — a state the
// crash path just produced cannot be repaired by reproducing it.
func (inc *Incremental) rebuild() (*Solution, error) {
	if sol, err, ok := inc.rebuildFromCrash(); ok {
		return sol, err
	}
	return inc.rebuildCold()
}

// rebuildCold discards all warm state and runs a cold two-phase solve,
// adopting the resulting tableau when optimal.
func (inc *Incremental) rebuildCold() (*Solution, error) {
	inc.coldSolves++
	sol, std, t, err := solveCold(inc.p, nil, inc.tag)
	if err != nil || sol.Status != Optimal {
		inc.valid = false
		return sol, err
	}
	inc.std, inc.t = std, t
	inc.valid = true
	inc.factorPivots = t.pivots
	inc.snapshotApplied()
	return sol, nil
}

// rebuildFromCrash erects a fresh phase-0 tableau and installs the basis
// crashed from the problem's hint through install — the row-pivoted
// Gauss–Jordan refactorization the periodic refactor also takes, which
// either produces the basis inverse or proves the assignment singular —
// then lets reoptimize repair the vertex (dual cleanup, primal finish, and
// all of its cold-confirm fallbacks). ok=false declines: the caller falls
// back to rebuildCold with the warm state invalidated, exactly as if no
// hint were set.
func (inc *Incremental) rebuildFromCrash() (*Solution, error, bool) {
	p := inc.p
	if p.DisableCrash || p.crashPoint == nil {
		return nil, nil, false
	}
	sol, std, t, artStart, _, err := coldSetup(p, nil, inc.tag)
	if err != nil || sol != nil {
		// Structural verdicts (NaN bounds, standardize-Infeasible) belong to
		// the cold authority's reporting path.
		return nil, nil, false
	}
	if std.pat == nil {
		// Dense-only standardization: buildCrashPlan needs pattern rows.
		return nil, nil, false
	}
	inc.valid = false
	nPre := std.nReal
	m := len(t.a)
	slackOf := make([]int32, m)
	for i := 0; i < m; i++ {
		if uc := std.unitCol[i]; uc < nPre {
			slackOf[i] = int32(uc)
		} else {
			slackOf[i] = -1
		}
	}
	plan := buildCrashPlan(p, std, nPre, slackOf)
	if plan == nil {
		crashDeclines.Add(1)
		return nil, nil, false
	}
	inc.std, inc.t = std, t
	cols := make([]int32, m)
	for i := 0; i < m; i++ {
		if a := plan.assign[i]; a >= 0 {
			cols[i] = int32(a)
		} else {
			cols[i] = int32(std.unitCol[i])
		}
	}
	status := make([]int8, len(std.c))
	copy(status, plan.status)
	// No pivot has touched t's rows yet: they are the pristine system, so
	// install eliminates on them instead of on a fresh copy of std.orig.
	if !inc.install(cols, status, t.a, t.pat, t.b) {
		crashDeclines.Add(1)
		return nil, nil, false
	}
	t = inc.t // install replaced the live tableau
	for j := artStart; j < len(std.c); j++ {
		t.banned[j] = true
	}
	// Primal gate: every artificial slot must have vanished at the crash
	// vertex (a banned artificial basic at ~0 is the legal redundant-row
	// degenerate).
	tol := feasTol(std.scale)
	for i, bc := range t.basis {
		if bc >= artStart && math.Abs(t.b[i]) > tol {
			inc.valid = false
			crashDeclines.Add(1)
			return nil, nil, false
		}
	}
	crashInstalls.Add(1)
	inc.coldSolves++
	inc.valid = true
	inc.factorPivots = t.pivots
	inc.snapshotApplied()
	sol2, err2 := inc.reoptimize()
	return sol2, err2, true
}

func (inc *Incremental) snapshotApplied() {
	p := inc.p
	inc.loApplied = append(inc.loApplied[:0], p.lo...)
	inc.hiApplied = append(inc.hiApplied[:0], p.hi...)
	inc.costApplied = append(inc.costApplied[:0], p.costs...)
	inc.rhsApplied = inc.rhsApplied[:0]
	for i := range p.rows {
		inc.rhsApplied = append(inc.rhsApplied, p.rows[i].RHS)
	}
	inc.rowsApplied = len(p.rows)
}

// absorb diffs the wrapped problem against the applied snapshot and folds
// the changes into the live tableau. It reports false when the change is
// outside the warm-compatible class and a cold rebuild is required.
func (inc *Incremental) absorb() bool {
	p := inc.p
	if len(p.costs) != len(inc.costApplied) {
		return false // new variables
	}
	for j := range p.costs {
		if p.costs[j] != inc.costApplied[j] {
			return false // cost changes break dual feasibility
		}
	}
	for j := range p.lo {
		lo, hi := p.lo[j], p.hi[j]
		if lo == inc.loApplied[j] && hi == inc.hiApplied[j] {
			continue
		}
		vm := inc.std.vmaps[j]
		switch vm.kind {
		case 0: // x = lo0 + u, needs a finite lower bound
			if math.IsInf(lo, -1) {
				return false
			}
			inc.setColBounds(vm.col, lo-vm.shift, hi-vm.shift)
		case 1: // x = hi0 - u, needs lo = -inf and a finite upper bound
			if !math.IsInf(lo, -1) || math.IsInf(hi, 1) {
				return false
			}
			inc.setColBounds(vm.col, vm.shift-hi, math.Inf(1))
		case 2: // free split: any finite bound changes the mapping
			if !math.IsInf(lo, -1) || !math.IsInf(hi, 1) {
				return false
			}
		case 3: // fixed: column was eliminated at standardization
			return false
		}
		inc.loApplied[j], inc.hiApplied[j] = lo, hi
	}
	for i := 0; i < inc.rowsApplied; i++ {
		rhs := p.rows[i].RHS
		if rhs == inc.rhsApplied[i] {
			continue
		}
		if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
			return false
		}
		if !inc.shiftRHS(i, rhs-inc.rhsApplied[i]) {
			return false
		}
		inc.rhsApplied[i] = rhs
	}
	for i := inc.rowsApplied; i < len(p.rows); i++ {
		inc.addRowStd(i)
		inc.rhsApplied = append(inc.rhsApplied, p.rows[i].RHS)
	}
	inc.rowsApplied = len(p.rows)
	return true
}

// shiftRHS folds an RHS change of constraint i into the live tableau (RHS
// ranging). The standard-form delta is rowSign·dRHS — variable shifts from
// standardization are additive and unchanged, and rowSign tracks every
// negation (GE flip, b≥0 flip) the row went through. With e_r the unit
// vector of the row's standard slot, the basic values move by
// B⁻¹ e_r · Δ, and B⁻¹ e_r is exactly the live tableau column of the
// row's unit column (the slack or artificial that started as the identity
// on the row). Costs are untouched, so dual feasibility survives and the
// dual simplex in reoptimize repairs any primal violation — the same
// contract as bound changes.
func (inc *Incremental) shiftRHS(i int, dRHS float64) bool {
	std, t := inc.std, inc.t
	r := std.rowOf[i]
	if r < 0 || r >= len(t.a) {
		return false // row eliminated at standardization: rebuild
	}
	d := std.rowSign[i] * dRHS
	uc := std.unitCol[r]
	std.origB[r] += d
	std.b[r] += d
	for k := range t.a {
		t.b[k] += t.a[k][uc] * d
	}
	// Objective delta: c_B·B⁻¹e_r = −d_uc (unit columns carry zero cost),
	// valid whether the unit column is basic (both sides zero) or not.
	t.obj -= t.d[uc] * d
	return true
}

// setColBounds moves standard column col to bounds [lb, ub], shifting the
// basic values when a nonbasic column is parked at a moved bound.
func (inc *Incremental) setColBounds(col int, lb, ub float64) {
	t := inc.t
	if t.inBase[col] {
		// The basic value may now violate the new bounds; that is exactly
		// what the dual simplex repairs.
		t.lb[col], t.ub[col] = lb, ub
		return
	}
	old := t.nbVal(col)
	t.lb[col], t.ub[col] = lb, ub
	if t.status[col] == atUpper && math.IsInf(ub, 1) {
		t.status[col] = atLower
	}
	if nv := t.nbVal(col); nv != old {
		delta := nv - old
		for i := range t.a {
			t.b[i] -= t.a[i][col] * delta
		}
		t.obj += t.d[col] * delta
	}
}

// addRowStd standardizes constraint i of the wrapped problem and appends it
// to the live tableau with its fresh slack (LE) or pinned artificial (EQ)
// basic. Dual feasibility is preserved: the new basic column has zero cost.
func (inc *Incremental) addRowStd(i int) {
	p, std, t := inc.p, inc.std, inc.t
	r := &p.rows[i]
	coefs := make(map[int]float64)
	rhs := r.RHS
	for _, tm := range r.Terms {
		vm := std.vmaps[tm.Var]
		switch vm.kind {
		case 0:
			coefs[vm.col] += tm.Coef
			rhs -= tm.Coef * vm.shift
		case 1:
			coefs[vm.col] -= tm.Coef
			rhs -= tm.Coef * vm.shift
		case 2:
			coefs[vm.col] += tm.Coef
			coefs[vm.col2] -= tm.Coef
		case 3:
			rhs -= tm.Coef * vm.shift
		}
	}
	sign := 1.0
	sense := r.Sense
	if sense == GE {
		for c := range coefs {
			coefs[c] = -coefs[c]
		}
		rhs = -rhs
		sign = -1
		sense = LE
	}

	// New column: slack for ≤ rows, a [0,0]-pinned artificial for = rows
	// (it can only leave the basis, never re-enter).
	newcol := len(std.c)
	ubNew := math.Inf(1)
	banned := false
	if sense == EQ {
		ubNew = 0
		banned = true
	}
	std.c = append(std.c, 0)
	std.lb = append(std.lb, 0)
	std.ub = append(std.ub, ubNew)
	for k := range t.a {
		t.a[k] = append(t.a[k], 0)
	}
	for k := range std.orig {
		std.orig[k] = append(std.orig[k], 0)
	}
	t.d = append(t.d, 0)
	t.status = append(t.status, atLower)
	t.inBase = append(t.inBase, true)
	t.banned = append(t.banned, banned)
	t.growSparseCol()
	t.lb, t.ub = std.lb, std.ub // appends may have reallocated
	n := len(std.c)

	// Pristine row for future refactorizations.
	prow := make([]float64, n)
	for c, v := range coefs {
		prow[c] = v
	}
	prow[newcol] = 1
	std.orig = append(std.orig, prow)
	std.origB = append(std.origB, rhs)
	if std.origPat != nil {
		op := make([]int32, 0, len(coefs)+1)
		for c, v := range coefs {
			if v != 0 {
				op = append(op, int32(c))
			}
		}
		sortPattern(op)
		op = append(op, int32(newcol))
		std.origPat = append(std.origPat, op)
	}

	// Value of the new basic column at the current point.
	val := rhs
	for k, bc := range t.basis {
		val -= prow[bc] * t.b[k]
	}
	for c := 0; c < n; c++ {
		if t.inBase[c] || c == newcol {
			continue
		}
		if v := t.nbVal(c); v != 0 {
			val -= prow[c] * v
		}
	}

	// Reduced row: eliminate the basic columns against the tableau rows
	// (each tableau row is the identity on its own basic column).
	rrow := append([]float64(nil), prow...)
	if t.sparse() {
		// Pattern-aware elimination: only the eliminating row's nonzeros
		// can touch rrow, and the union of visited patterns is a superset
		// of the result, pruned exactly at the end.
		gen := t.bumpGen()
		rpat := t.patScratch[:0]
		for c, v := range coefs {
			if v != 0 {
				rpat = append(rpat, int32(c))
				t.mark[c] = gen
			}
		}
		sortPattern(rpat)
		rpat = append(rpat, int32(newcol))
		t.mark[newcol] = gen
		for k, bc := range t.basis {
			f := rrow[bc]
			if f == 0 {
				continue
			}
			rowk := t.a[k]
			for _, j32 := range t.pat[k] {
				j := int(j32)
				rrow[j] -= f * rowk[j]
				if t.mark[j] != gen {
					t.mark[j] = gen
					rpat = append(rpat, j32)
				}
			}
			rrow[bc] = 0
		}
		w := 0
		for _, j32 := range rpat {
			if rrow[j32] != 0 {
				rpat[w] = j32
				w++
			}
		}
		np := append([]int32(nil), rpat[:w]...)
		t.pat = append(t.pat, np)
		for _, j := range np {
			t.colCnt[j]++
		}
		t.nnz += len(np)
		t.patScratch = rpat[:0]
	} else {
		for k, bc := range t.basis {
			f := rrow[bc]
			if f == 0 {
				continue
			}
			rowk := t.a[k]
			for c := range rrow {
				rrow[c] -= f * rowk[c]
			}
			rrow[bc] = 0
		}
	}

	t.a = append(t.a, rrow)
	t.b = append(t.b, val)
	t.basis = append(t.basis, newcol)
	std.a = t.a
	std.b = append(std.b, rhs)
	std.rowOf = append(std.rowOf, len(t.a)-1)
	std.rowSign = append(std.rowSign, sign)
	std.unitCol = append(std.unitCol, newcol)
}

// basicCol is the basic column a basis listing cols assigns to row k: its
// own entry, or, for a row added after the listing was taken, the row's
// unit column.
func (inc *Incremental) basicCol(cols []int32, k int) int {
	if k < len(cols) {
		return int(cols[k])
	}
	return inc.std.unitCol[k]
}

// exchange installs snapshot b on the live tableau by exchange pivots
// instead of refactorizing from the pristine rows. The target basis is
// basicCol of every row. Each target column that is not basic enters on
// the row with the largest |α| among the rows whose basic column lies
// outside the target set — when the snapshot is nonsingular such a row
// always exists — so a node whose parent basis is a few pivots from the
// live one pays those pivots. The pivot floor is dualPivotEps, not
// pivotEps: these pivots land on the live tableau every later solve
// reuses, where an entry that is zero in exact arithmetic carries
// round-off, and a singular snapshot must be rejected rather than
// installed on that noise. Nonbasic statuses then come from the snapshot
// (columns beyond it default atLower). If nothing moved — no pivot and no
// status change, so the snapshot is the live basis — the live state stands
// as it is; otherwise the basic values are recomputed as
// b = B⁻¹(b₀ − N·x_N), reading B⁻¹e_k from the tableau column of row k's
// unit column, and setCosts recomputes the reduced costs and objective.
//
// A snapshot listing more rows than the tableau has, an out-of-range
// column, or a column twice is ignored and the live basis kept. One the
// exchange cannot complete (no admissible row) or whose reduced costs are
// dual infeasible is rejected, and the previous live basis is restored by
// a pristine refactorization; exchange reports false only when that
// restore fails too and the warm state must be rebuilt. Exchange pivots
// advance t.pivots, so refactorEvery still bounds the drift they add; like
// all install work they are not counted in Solution.Pivots.
func (inc *Incremental) exchange(b *Basis) bool {
	std, t := inc.std, inc.t
	m, n := len(t.a), len(t.d)
	if len(b.cols) > m {
		return true
	}
	if cap(inc.inSnap) < n {
		inc.inSnap = make([]bool, n)
	}
	in := inc.inSnap[:n]
	for j := range in {
		in[j] = false
	}
	for k := 0; k < m; k++ {
		c := inc.basicCol(b.cols, k)
		if c >= n || in[c] {
			return true
		}
		in[c] = true
	}

	inc.prevCols = inc.prevCols[:0]
	for _, c := range t.basis {
		inc.prevCols = append(inc.prevCols, int32(c))
	}
	inc.prevStatus = append(inc.prevStatus[:0], t.status...)
	moved := false
	for k := 0; k < m; k++ {
		c := inc.basicCol(b.cols, k)
		if t.inBase[c] {
			continue
		}
		moved = true
		r, best := -1, dualPivotEps
		for i, bc := range t.basis {
			if in[bc] {
				continue
			}
			if a := math.Abs(t.a[i][c]); a > best {
				r, best = i, a
			}
		}
		if r < 0 {
			return inc.reinstall(inc.prevCols, inc.prevStatus)
		}
		t.inBase[t.basis[r]] = false
		t.basis[r] = c
		t.inBase[c] = true
		t.pivot(r, c)
		t.pivots++
	}

	for j := 0; j < n; j++ {
		if t.inBase[j] {
			continue
		}
		st := atLower
		if j < len(b.status) && b.status[j] == atUpper && !math.IsInf(t.ub[j], 1) {
			st = atUpper
		}
		if t.status[j] != st {
			t.status[j] = st
			moved = true
		}
	}
	if !moved {
		return true
	}
	w := append(inc.rhsWork[:0], std.origB...)
	inc.rhsWork = w
	for k, row := range std.orig {
		if std.origPat != nil {
			for _, j := range std.origPat[k] {
				if !t.inBase[j] {
					if v := t.nbVal(int(j)); v != 0 {
						w[k] -= row[j] * v
					}
				}
			}
			continue
		}
		for j, a := range row {
			if a != 0 && !t.inBase[j] {
				if v := t.nbVal(j); v != 0 {
					w[k] -= a * v
				}
			}
		}
	}
	for i, ai := range t.a {
		v := 0.0
		for k, wk := range w {
			if wk != 0 {
				v += ai[std.unitCol[k]] * wk
			}
		}
		t.b[i] = v
	}
	t.setCosts(std.c)
	for j := 0; j < n; j++ {
		if t.inBase[j] || t.banned[j] || t.lb[j] == t.ub[j] {
			continue
		}
		if (t.status[j] == atLower && t.d[j] < -dualFeasEps) || (t.status[j] == atUpper && t.d[j] > dualFeasEps) {
			return inc.reinstall(inc.prevCols, inc.prevStatus)
		}
	}
	return true
}

// install refactorizes the tableau with the given basic columns by
// eliminating in place on work, pats and wb: a pristine copy of the rows,
// their nonzero patterns (nil for the dense kernels) and the right-hand
// side, which the new tableau takes over. The basis is the live one
// (refactor, and the restore after a rejected exchange) or a crash plan
// (rebuildFromCrash). Rows beyond len(cols) contribute their own unit
// column; columns beyond status default atLower. A rejection returns false
// and leaves the live tableau in place, with work, pats and wb spoiled.
func (inc *Incremental) install(cols []int32, status []int8, work [][]float64, pats [][]int32, wb []float64) bool {
	std, t := inc.std, inc.t
	m, n := len(t.a), len(std.c)
	if len(cols) > m {
		return false
	}
	order := make([]int, m)
	inBase := make([]bool, n)
	for i := range order {
		c := inc.basicCol(cols, i)
		if c >= n || inBase[c] {
			return false
		}
		order[i] = c
		inBase[c] = true
	}

	// Gauss–Jordan on the pristine system with partial pivoting: each basic
	// column in turn is pivoted on the not-yet-eliminated row where it has
	// the largest |value|, and the row↔column assignment is whatever that
	// produces. The row a column occupied in the live tableau says nothing
	// about which pristine row can carry it — simplex pivots mix the rows —
	// so holding each row to its listed column would declare nonsingular
	// bases singular. A near-singular best pivot rejects the basis.
	//
	// With the sparse kernels on, the pristine rows start near-empty and
	// the elimination walks patterns instead of full rows.
	sparse := pats != nil
	var pmark, pscratch []int32
	var pgen int32
	if sparse {
		pmark = make([]int32, n)
	}
	assign := make([]int, m)
	done := make([]bool, m)
	for _, pc := range order {
		best, bestAbs := -1, pivotEps
		for r := 0; r < m; r++ {
			if done[r] {
				continue
			}
			if a := math.Abs(work[r][pc]); a > bestAbs {
				best, bestAbs = r, a
			}
		}
		if best < 0 {
			return false
		}
		done[best] = true
		assign[best] = pc
		wi := work[best]
		inv := 1 / wi[pc]
		if sparse {
			for _, j := range pats[best] {
				wi[j] *= inv
			}
		} else {
			for j := range wi {
				wi[j] *= inv
			}
		}
		wi[pc] = 1
		wb[best] *= inv
		for k := 0; k < m; k++ {
			if k == best {
				continue
			}
			f := work[k][pc]
			if f == 0 {
				continue
			}
			wk := work[k]
			if sparse {
				patB := pats[best]
				old := pats[k]
				pgen++
				for _, j := range old {
					pmark[j] = pgen
				}
				for _, j := range patB {
					wk[j] -= f * wi[j]
				}
				wk[pc] = 0
				np := pscratch[:0]
				for _, j := range old {
					if wk[j] != 0 {
						np = append(np, j)
					}
				}
				for _, j := range patB {
					if pmark[j] != pgen && wk[j] != 0 {
						np = append(np, j)
					}
				}
				pats[k] = append(old[:0], np...)
				pscratch = np[:0]
			} else {
				for j := range wk {
					wk[j] -= f * wi[j]
				}
				wk[pc] = 0
			}
			wb[k] -= f * wb[best]
		}
	}

	newStatus := make([]int8, n)
	copy(newStatus, status) // columns beyond the snapshot default atLower
	for j := 0; j < n; j++ {
		if !inBase[j] && newStatus[j] == atUpper && math.IsInf(std.ub[j], 1) {
			newStatus[j] = atLower
		}
	}

	// b = B⁻¹(b₀ − N·x_N): subtract nonbasic columns parked at ≠ 0.
	for j := 0; j < n; j++ {
		if inBase[j] {
			continue
		}
		v := std.lb[j]
		if newStatus[j] == atUpper {
			v = std.ub[j]
		}
		if v == 0 {
			continue
		}
		for i := 0; i < m; i++ {
			wb[i] -= work[i][j] * v
		}
	}

	cand := &tableau{
		a:      work,
		b:      wb,
		d:      make([]float64, n),
		lb:     std.lb,
		ub:     std.ub,
		basis:  assign,
		inBase: inBase,
		status: newStatus,
		banned: append([]bool(nil), t.banned...),
		iters:  t.iters,
		pivots: t.pivots,
		delta:  t.delta,
	}
	if sparse {
		// Re-derive the column counts from the eliminated patterns; a
		// tableau that had dropped to dense under fill-in comes back
		// sparse from the pristine rows.
		cand.initSparse(pats, nil)
	}
	cand.setCosts(std.c)
	inc.t = cand
	std.a = work
	inc.factorPivots = cand.pivots
	return true
}

// refactor rebuilds the tableau from the pristine rows with the current
// basis, purging accumulated floating-point drift.
func (inc *Incremental) refactor() bool {
	t := inc.t
	cols := make([]int32, len(t.basis))
	for i, c := range t.basis {
		cols[i] = int32(c)
	}
	return inc.reinstall(cols, t.status)
}

// reinstall runs install on a fresh copy of the pristine system std.orig,
// std.origPat and std.origB.
func (inc *Incremental) reinstall(cols []int32, status []int8) bool {
	std := inc.std
	n := len(std.c)
	work := make([][]float64, len(std.orig))
	for i := range work {
		work[i] = append(make([]float64, 0, n), std.orig[i]...)
	}
	var pats [][]int32
	if std.origPat != nil {
		pats = make([][]int32, len(std.origPat))
		for i := range pats {
			pats[i] = append([]int32(nil), std.origPat[i]...)
		}
	}
	return inc.install(cols, status, work, pats, append([]float64(nil), std.origB...))
}

// reoptimize runs the dual simplex to repair primal feasibility, then a
// primal cleanup pass (a no-op when the dual phase ends optimal), falling
// back to the cold authority on iteration limits, unboundedness, or to
// confirm an Infeasible verdict.
func (inc *Incremental) reoptimize() (*Solution, error) {
	t := inc.t
	maxIter := inc.p.MaxIter
	if maxIter == 0 {
		maxIter = 200*(len(t.a)+25) + 20*len(t.d)
	}
	pivots0 := t.pivots
	t.iters = 0
	// The dual repair of a handful of bound changes or row additions needs
	// O(m) pivots; a dual phase still churning past a few multiples of the
	// tableau size is wandering a degenerate face (the Bland fallback is
	// not provably acyclic for the dual), so cap it well below the global
	// iteration limit and let the cold authority take over instead.
	dualBudget := 4*(len(t.a)+len(t.d)) + 64
	if dualBudget > maxIter {
		dualBudget = maxIter
	}
	st := t.runDual(dualBudget)
	if st == Optimal {
		st = t.run(maxIter)
	}
	iters := t.iters
	switch st {
	case Optimal:
		sol := extract(inc.p, inc.std, t, iters, t.pivots-pivots0, inc.tag)
		// Safety net: a warm tableau that drifted numerically can report
		// Optimal with a point that violates the original rows. Never let
		// that escape — any real violation discards the warm state and
		// defers to the cold authority.
		if inc.p.MaxViolation(sol.X) > warmFeasTol(inc.p) {
			return inc.rebuildCold()
		}
		inc.warmSolves++
		return sol, nil
	case Infeasible:
		// The dual simplex concluded infeasible; confirm with a cold solve
		// so a numerical misstep can never prune a feasible region. The
		// warm tableau is left as-is (still dual feasible) for the next
		// sibling solve.
		ws := wsPool.Get().(*workspace)
		sol, _, _, err := solveCold(inc.p, ws, nil)
		wsPool.Put(ws)
		if err != nil {
			return nil, err
		}
		if sol.Status == Infeasible {
			sol.Iterations += iters
			sol.Pivots += t.pivots - pivots0
			inc.warmSolves++
			return sol, nil
		}
		// Disagreement: the cold authority wins; adopt a fresh cold state.
		return inc.rebuildCold()
	default: // IterLimit, Unbounded
		return inc.rebuildCold()
	}
}

// runDual iterates the dual simplex: pick the leaving row as the basic
// variable farthest outside its bounds (the first violated row once the
// Bland fallback engages), then the entering column by the bound-flipping
// dual ratio test over the dual-feasible reduced costs. Bound tightenings
// and row additions leave the reduced costs untouched, so the incumbent
// basis is a valid starting point and each iteration monotonically
// increases the objective toward the new optimum.
func (t *tableau) runDual(maxIter int) Status {
	m := len(t.a)
	t.buildActive()
	stall := 0
	blandAfter := m + 64
	for t.iters < maxIter {
		bland := stall > blandAfter

		// Leaving row: the basic variable violating a bound by the most
		// (a row is a candidate iff its violation exceeds dualFeasEps).
		r := -1
		var target float64
		var rKind int8
		worst := dualFeasEps
		for i := 0; i < m; i++ {
			bc := t.basis[i]
			v, kind, tgt := 0.0, atLower, 0.0
			if lv := t.lb[bc] - t.b[i]; lv > dualFeasEps {
				v, kind, tgt = lv, atLower, t.lb[bc]
			} else if uv := t.b[i] - t.ub[bc]; uv > dualFeasEps {
				v, kind, tgt = uv, atUpper, t.ub[bc]
			} else {
				continue
			}
			if v > worst {
				worst, r, target, rKind = v, i, tgt, kind
				if bland {
					break
				}
			}
		}
		if r < 0 {
			return Optimal
		}
		t.iters++

		// Entering column: the bound-flipping dual ratio test (Fourer 1994;
		// Koberstein 2005). Every admissible column — one whose move off
		// its bound pushes row r toward the violated bound — has a
		// breakpoint |d_j/α_rj|, the dual step at which its reduced cost
		// changes sign. Walk the breakpoints in ascending order (ties to
		// the lower column index): a column whose whole range, moved
		// across, still leaves row r violated flips to its opposite bound;
		// the first column that can repair the row enters. The pivot's
		// dual step is the entering breakpoint, at least every flipped
		// column's own, so it leaves each flipped reduced cost consistent
		// with its new bound. A flip without that dual step would leave
		// the column dual infeasible, and a later iteration would flip it
		// back.
		//
		// The candidates all have row[j] != 0, so in sparse mode the
		// leaving row's pattern is the complete search space; the dense
		// mode scans the active skip list (banned and fixed columns
		// pre-excluded).
		row := t.a[r]
		scan := t.active
		if t.sparse() {
			scan = t.pat[r]
		}
		brk := t.brk[:0]
		for _, j32 := range scan {
			j := int(j32)
			if t.inBase[j] || t.banned[j] || t.lb[j] == t.ub[j] {
				continue
			}
			alpha := row[j]
			if alpha < dualPivotEps && alpha > -dualPivotEps {
				continue
			}
			var ok bool
			if rKind == atLower {
				// b_r must increase: entering at lower moving up needs
				// α < 0, entering at upper moving down needs α > 0.
				ok = (t.status[j] == atLower && alpha < 0) || (t.status[j] == atUpper && alpha > 0)
			} else {
				ok = (t.status[j] == atLower && alpha > 0) || (t.status[j] == atUpper && alpha < 0)
			}
			if ok {
				brk = append(brk, dualBreak{ratio: math.Abs(t.d[j] / alpha), col: j32})
			}
		}
		t.brk = brk
		if len(brk) == 0 {
			// No column can repair the violated row: the (standard-form)
			// problem is infeasible.
			return Infeasible
		}
		slices.SortFunc(brk, func(x, y dualBreak) int {
			if c := cmp.Compare(x.ratio, y.ratio); c != 0 {
				return c
			}
			return cmp.Compare(x.col, y.col)
		})
		// If every breakpoint is passed, the last one enters anyway: the
		// |α| cut-off leaves some columns out of the candidate set, so
		// passing them all proves nothing; the entering value then lands
		// beyond its own bound and a later iteration repairs it.
		e := int(brk[len(brk)-1].col)
		gain := 0.0
		for _, bk := range brk[:len(brk)-1] {
			j := int(bk.col)
			rng := t.ub[j] - t.lb[j]
			if math.Abs(row[j])*rng >= math.Abs(t.b[r]-target) {
				e = j
				break
			}
			flip := rng
			if t.status[j] == atUpper {
				flip = -rng
				t.status[j] = atLower
			} else {
				t.status[j] = atUpper
			}
			for i := 0; i < m; i++ {
				t.b[i] -= t.a[i][j] * flip
			}
			gain += t.d[j] * flip
		}
		t.obj += gain

		// Pivot: move x_e so that row r lands exactly on its bound.
		delta := (t.b[r] - target) / row[e]
		step := t.d[e] * delta
		newVal := t.nbVal(e) + delta
		leave := t.basis[r]
		t.inBase[leave] = false
		t.status[leave] = rKind
		t.basis[r] = e
		t.inBase[e] = true
		for i := 0; i < m; i++ {
			if i != r {
				t.b[i] -= t.a[i][e] * delta
			}
		}
		t.b[r] = newVal
		t.obj += step
		t.pivot(r, e)
		t.pivots++

		if step+gain > progressRelEps*(1+math.Abs(t.obj)) {
			stall = 0
		} else {
			stall++
		}
	}
	return IterLimit
}

// dualBreak is one breakpoint of runDual's bound-flipping ratio test: an
// admissible entering column and the dual step |d_j/α_rj| at which its
// reduced cost changes sign.
type dualBreak struct {
	ratio float64
	col   int32
}
