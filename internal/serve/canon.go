package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"

	"repro/internal/core"
)

// canonical is the cache-facing view of one solve instance: the same
// problem with its tasks in a stable, request-order-independent order plus
// the hash key that identifies its equivalence class.
//
// Two requests share a key exactly when their canonical instances describe
// the same optimization problem: task order and task names are erased (the
// solver never reads names, and responses are rebuilt from the request),
// and redundant spellings of the same constraint set are normalized
// (MinNodes 0 vs 1, MaxNodes 0 vs ≥ N, allowed-set entries outside the
// admissible range).
//
// Performance coefficients are hashed in scale-canonical form: every
// time-dimensioned coefficient (a, b, d — not the dimensionless exponent
// base c) is divided by the instance's power-of-two time scale
// (core.Problem.TimeScaleExp) before its bits enter the hash, so an entire
// family of exact power-of-two rescalings of one workload collapses to a
// single cache entry.
//
// This is sound because every solver route is exactly equivariant under
// such rescalings: the parametric/DP/greedy routes only compare
// perfmodel.Eval values (which scale by the exact power of two), and the
// MINLP route normalizes its own time axis with the same TimeScaleExp
// before branch and bound, so two pow-2-related instances run bit-identical
// searches and return the same node vector. Only the node vector is cached;
// all reported times are re-evaluated on the requesting problem's own
// coefficients (buildSolution), so a cache hit is byte-identical to an
// uncached solve of that exact request. (Earlier revisions hashed raw bits
// because the solver stack carried absolute tolerances and rescaled
// instances could converge to different optima; the relative-tolerance
// overhaul removed that failure mode — see DESIGN.md "Numerics and
// tolerances".)
//
// Non-power-of-two rescalings do NOT share a key: dividing by the
// power-of-two scale leaves their mantissa bits distinct. That is
// deliberate — only the power-of-two quotient is exact in IEEE-754, so only
// there is bit-identity of the search guaranteed.
type canonical struct {
	// key is the hex SHA-256 cache key over (route, objective, budget
	// semantics, scale-canonicalized tasks).
	key string
	// prob is the canonicalized instance the service actually solves: the
	// requesting problem with tasks reordered and representationally
	// normalized, at the caller's own time scale (the MINLP route
	// normalizes internally; the other routes are scale-equivariant as-is).
	prob *core.Problem
	// perm maps canonical task index → request task index, for
	// un-permuting the cached node vector on the way out.
	perm []int
}

// canonicalize builds the canonical instance and cache key for a validated
// problem. route names the solver endpoint ("solve", "minlp",
// "parametric"): the routes break ties among alternate optima differently,
// so their solutions must not share cache slots.
func canonicalize(route string, p *core.Problem) *canonical {
	k := len(p.Tasks)
	norm := make([]core.Task, k)
	for i := range p.Tasks {
		norm[i] = normalizeTask(p.Tasks[i], p.TotalNodes)
	}
	perm := make([]int, k)
	for i := range perm {
		perm[i] = i
	}
	// Stable sort on the full task content: equal keys (interchangeable
	// tasks) keep request order, which is harmless because swapping
	// identical tasks maps the instance onto itself.
	sort.SliceStable(perm, func(a, b int) bool {
		return taskLess(&norm[perm[a]], &norm[perm[b]])
	})
	tasks := make([]core.Task, k)
	for c, ri := range perm {
		tasks[c] = norm[ri]
	}

	cp := &core.Problem{
		Tasks:       tasks,
		TotalNodes:  p.TotalNodes,
		Objective:   p.Objective,
		UseAllNodes: p.UseAllNodes,
	}
	return &canonical{key: hashInstance(route, cp), prob: cp, perm: perm}
}

// normalizeTask rewrites the redundant spellings of a task's constraint set
// into one canonical form without changing its meaning: MinNodes below 1
// means 1, MaxNodes of 0 or beyond the budget means "unbounded" (0), and
// allowed-set entries outside the effective [min, max] range can never be
// chosen. The name is kept for solver diagnostics but excluded from the
// hash.
func normalizeTask(t core.Task, total int) core.Task {
	if t.MinNodes < 1 {
		t.MinNodes = 1
	}
	if t.MaxNodes <= 0 || t.MaxNodes >= total {
		// A cap at or beyond the whole budget never binds.
		t.MaxNodes = 0
	}
	if t.Allowed != nil {
		hi := t.MaxNodes
		if hi == 0 {
			hi = total
		}
		kept := make([]int, 0, len(t.Allowed))
		for _, n := range t.Allowed {
			if n >= t.MinNodes && n <= hi {
				kept = append(kept, n)
			}
		}
		t.Allowed = kept
	}
	return t
}

// taskLess is the stable canonical order: performance coefficients first
// (the dominant term a, then b, c, d), then the constraint set. Names are
// deliberately not compared — they are not part of the instance identity.
func taskLess(a, b *core.Task) bool {
	if a.Perf.A != b.Perf.A {
		return a.Perf.A < b.Perf.A
	}
	if a.Perf.B != b.Perf.B {
		return a.Perf.B < b.Perf.B
	}
	if a.Perf.C != b.Perf.C {
		return a.Perf.C < b.Perf.C
	}
	if a.Perf.D != b.Perf.D {
		return a.Perf.D < b.Perf.D
	}
	if a.MinNodes != b.MinNodes {
		return a.MinNodes < b.MinNodes
	}
	if a.MaxNodes != b.MaxNodes {
		return a.MaxNodes < b.MaxNodes
	}
	if len(a.Allowed) != len(b.Allowed) {
		return len(a.Allowed) < len(b.Allowed)
	}
	for i := range a.Allowed {
		if a.Allowed[i] != b.Allowed[i] {
			return a.Allowed[i] < b.Allowed[i]
		}
	}
	return false
}

// hashInstance computes the canonical cache key. The encoding is a flat,
// fixed-order byte stream: any field that can alter the solution — route,
// objective, budget semantics, total nodes, and every task's
// scale-canonical coefficient bits and constraint set — is included; names,
// deadlines (only proven-optimal results are cached, and those are
// deadline-independent), and parallelism (bit-identical by the par
// contract) are not. The time scale exponent itself is deliberately NOT
// hashed: it is the one quantity that differs across a power-of-two
// rescaled family, and erasing it is exactly what lets the family share a
// slot.
func hashInstance(route string, p *core.Problem) string {
	h := sha256.New()
	var buf [8]byte
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wf := func(v float64) { wu(math.Float64bits(v)) }
	e := p.TimeScaleExp()
	if e != 0 && !scaleExact(p, e) {
		e = 0
	}
	h.Write([]byte(route))
	h.Write([]byte{0})
	wu(uint64(p.Objective))
	if p.UseAllNodes {
		wu(1)
	} else {
		wu(0)
	}
	wu(uint64(p.TotalNodes))
	for i := range p.Tasks {
		t := &p.Tasks[i]
		wf(math.Ldexp(t.Perf.A, -e))
		wf(math.Ldexp(t.Perf.B, -e))
		wf(t.Perf.C) // dimensionless exponent base: not time-scaled
		wf(math.Ldexp(t.Perf.D, -e))
		wu(uint64(t.MinNodes))
		wu(uint64(t.MaxNodes))
		wu(uint64(len(t.Allowed)))
		for _, n := range t.Allowed {
			wu(uint64(n))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// scaleExact reports whether dividing every time coefficient by 2^e is an
// exact IEEE-754 operation (no underflow to subnormal loss, no overflow).
// If not, the instance is hashed at its raw scale: losing a cache-sharing
// opportunity is fine, letting two numerically distinct instances collide
// on one key is not.
func scaleExact(p *core.Problem, e int) bool {
	ok := func(x float64) bool {
		y := math.Ldexp(x, -e)
		return !math.IsInf(y, 0) && math.Ldexp(y, e) == x
	}
	for i := range p.Tasks {
		pf := &p.Tasks[i].Perf
		if !ok(pf.A) || !ok(pf.B) || !ok(pf.D) {
			return false
		}
	}
	return true
}

// unpermute maps a canonical-order node vector back onto request task
// order.
func (c *canonical) unpermute(nodes []int) []int {
	out := make([]int, len(nodes))
	for ci, ri := range c.perm {
		out[ri] = nodes[ci]
	}
	return out
}
