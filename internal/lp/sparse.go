package lp

// Sparse simplex kernels.
//
// HSLB constraint matrices are overwhelmingly sparse: per-fragment
// assignment rows touch one SOS1 family, min-max load rows touch one
// family plus the makespan column, and only the single node-budget row is
// dense. The dense tableau kernels in simplex.go pay O(m·n) per pivot
// regardless; at thousands of fragments that dominates everything else.
//
// The pattern kernels run every tableau solve unless Problem.DisableSparse
// pins it to the dense loops: cold two-phase solves, the warm dual simplex
// that branch-and-bound and cutting planes drive, and refactorizations.
//
// The sparse path keeps the dense float64 rows (so every consumer of
// t.a — ratio tests, extraction, warm absorption — is untouched) and adds
// an exact nonzero *pattern* per row: pat[i] lists the columns j with
// a[i][j] != 0, in a deterministic order (CSR-style index arrays over the
// shared dense storage). The kernels then iterate patterns instead of full
// rows:
//
//   - pivot touches only the pivot row's pattern in every updated row,
//     rebuilding each touched row's pattern exactly (fill-in added,
//     cancellations dropped) with a shared generation-stamped mark array;
//   - setCosts prices only the nonzeros of each costed basic row;
//   - the dual-simplex entering scan walks the leaving row's pattern
//     (a column with a zero coefficient can never be entering).
//
// Primal pricing is the same full Dantzig scan in both modes, so the sparse
// and dense kernels walk the same pivot sequence up to ratio-test ties.
//
// Per-column pattern-membership counts (colCnt) track total fill. When
// occupancy crosses denseSwitchPct the pattern bookkeeping costs more than
// it saves, so the tableau drops it and continues with the dense kernels —
// the values are shared, so the switch is free and exact.
//
// The dense path remains the correctness authority: Problem.DisableSparse
// pins every kernel to the original dense loops, mirroring the
// DisableWarmStart discipline of the warm-start layer.

// denseSwitchPct: pattern occupancy (percent of m·n) beyond which the
// sparse bookkeeping is abandoned for the dense kernels. Indexed pattern
// walks cost ~2-3x a dense sequential pass per entry, so the crossover sits
// well below half fill.
const denseSwitchPct = 20

// debugSparseDrop, when non-nil, observes density-guard fallbacks
// (testing/tuning hook, mirroring debugPhase1).
var debugSparseDrop func(pivots, nnz, m, n int)

// sparse reports whether the tableau is running the pattern kernels.
func (t *tableau) sparse() bool { return t.pat != nil }

// initSparse adopts per-row nonzero patterns (ownership transfers; rows
// must be deterministic in order and exact in content) and derives the
// column counts. mark/scratch buffers may come from a pooled workspace.
func (t *tableau) initSparse(pats [][]int32, ws *workspace) {
	n := len(t.d)
	t.pat = pats
	if ws != nil {
		t.colCnt = intSlice(&ws.colCnt, n)
		t.mark = intSlice(&ws.mark, n)
		t.patScratch = ws.patScratch[:0]
	} else {
		t.colCnt = make([]int32, n)
		t.mark = make([]int32, n)
		t.patScratch = nil
	}
	t.markGen = 0
	t.nnz = 0
	for _, row := range pats {
		for _, j := range row {
			t.colCnt[j]++
		}
		t.nnz += len(row)
	}
}

// intSlice returns *s resized to n and zeroed, growing the backing array
// only when needed (workspace reuse).
func intSlice(s *[]int32, n int) []int32 {
	if cap(*s) < n {
		*s = make([]int32, n)
	}
	v := (*s)[:n]
	for i := range v {
		v[i] = 0
	}
	return v
}

// dropSparse abandons pattern maintenance; the dense kernels take over on
// the shared value rows. One-way for this tableau (a refactorization or
// rebuild re-derives patterns from the pristine rows).
func (t *tableau) dropSparse() {
	t.pat = nil
	t.colCnt = nil
	t.mark = nil
	t.patScratch = nil
}

// growSparseCol extends the per-column sparse state for one appended
// column (warm AddRow). The new column belongs to no pattern yet.
func (t *tableau) growSparseCol() {
	if !t.sparse() {
		return
	}
	t.colCnt = append(t.colCnt, 0)
	t.mark = append(t.mark, 0)
}

// bumpGen advances the mark generation, resetting the array on the rare
// wrap so stale stamps can never collide.
func (t *tableau) bumpGen() int32 {
	t.markGen++
	if t.markGen < 0 { // wrapped
		for i := range t.mark {
			t.mark[i] = 0
		}
		t.markGen = 1
	}
	return t.markGen
}

// pivotSparse is the pattern-aware row reduction: identical arithmetic to
// the dense pivot (skipped entries are exact zeros), O(nnz(pivot row))
// per touched row instead of O(n).
func (t *tableau) pivotSparse(r, e int) {
	pr := t.a[r]
	inv := 1 / pr[e]
	patR := t.pat[r]
	for _, j := range patR {
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
		t.updateRowSparse(i, f, pr, patR, e)
	}
	if f := t.d[e]; f != 0 {
		for _, j := range patR {
			t.d[j] -= f * pr[j]
		}
		t.d[e] = 0
	}
	// Density guard: when fill-in erodes the sparsity the pattern walks
	// cost more than the dense loops they replace.
	if t.nnz*100 > len(t.a)*len(t.d)*denseSwitchPct {
		if debugSparseDrop != nil {
			debugSparseDrop(t.pivots, t.nnz, len(t.a), len(t.d))
		}
		t.dropSparse()
	}
}

// updateRowSparse applies row_i -= f·row_r over the pivot row's pattern
// and rebuilds row i's exact pattern: entries outside both patterns are
// untouched zeros, fill-in is appended, cancellations are pruned, and the
// per-column counts stay exact.
func (t *tableau) updateRowSparse(i int, f float64, pr []float64, patR []int32, e int) {
	ri := t.a[i]
	old := t.pat[i]
	gen := t.bumpGen()
	for _, j := range old {
		t.mark[j] = gen
	}
	for _, j := range patR {
		ri[j] -= f * pr[j]
	}
	ri[e] = 0
	np := t.patScratch[:0]
	for _, j := range old {
		if ri[j] != 0 {
			np = append(np, j)
		} else {
			t.colCnt[j]--
			t.nnz--
		}
	}
	for _, j := range patR {
		if t.mark[j] == gen {
			continue // already handled via old
		}
		if ri[j] != 0 {
			np = append(np, j)
			t.colCnt[j]++
			t.nnz++
		}
	}
	t.pat[i] = append(old[:0], np...)
	t.patScratch = np[:0]
}

// buildActive precomputes the pricing skip list: every column that could
// ever enter the basis. Banned columns (artificials) and fixed columns
// (lb == ub, whose movement range is zero) are excluded once instead of
// being re-tested n times per iteration. Ascending order keeps Bland's
// rule (lowest favorable index) intact.
func (t *tableau) buildActive() {
	t.active = t.active[:0]
	for j := range t.d {
		if t.banned[j] || t.lb[j] == t.ub[j] {
			continue
		}
		t.active = append(t.active, int32(j))
	}
}

// priceEntering selects the entering column, or e < 0 at optimality.
// Bland mode takes the lowest favorable index (anti-cycling); Dantzig mode
// takes the largest favorable reduced cost. Both scan the full active list.
func (t *tableau) priceEntering(bland bool) (e int, dir float64) {
	best := costEps
	e, dir = -1, 1
	for _, j32 := range t.active {
		j := int(j32)
		if t.inBase[j] {
			continue
		}
		if t.status[j] == atLower && -t.d[j] > best {
			if bland {
				return j, 1
			}
			best, e, dir = -t.d[j], j, 1
		} else if t.status[j] == atUpper && t.d[j] > best {
			if bland {
				return j, -1
			}
			best, e, dir = t.d[j], j, -1
		}
	}
	return e, dir
}
