// Package milp implements an LP-based branch-and-bound solver for
// mixed-integer linear programs, with two features the paper's solver
// depends on:
//
//   - special-ordered-set (SOS1) branching: the paper reports that branching
//     on the special ordered set modelling the discrete atmosphere/ocean
//     allocation choices — rather than on its individual binary variables —
//     made the MINLP solver about two orders of magnitude faster;
//   - lazy constraint callbacks: integer-feasible LP solutions are offered
//     to a callback that may reject them by returning violated cuts, which
//     become part of every subsequent node. This is the single-tree
//     LP/NLP-based branch-and-bound of Quesada and Grossmann that MINOTAUR
//     implements; package minlp supplies the outer-approximation callback.
//
// Node selection is best-bound, branching is most-fractional (or SOS).
package milp

import (
	"container/heap"
	"context"
	"math"
	"time"

	"repro/internal/lp"
)

// Status reports the outcome of a MILP solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	NodeLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case NodeLimit:
		return "node limit"
	}
	return "unknown"
}

// SOS1 declares that at most one of Vars may be nonzero. Weights must be
// strictly increasing and are used to pick the branching split point.
type SOS1 struct {
	Vars    []int
	Weights []float64
}

// LazyCut is a linear cut returned by a callback; it must be valid for every
// feasible point of the true problem (globally valid), because it is added
// to all nodes.
type LazyCut struct {
	Terms []lp.Term
	Sense lp.Sense
	RHS   float64
	Name  string
}

// Lazy inspects a candidate integer-feasible point and returns violated
// global cuts; returning none accepts the point as feasible.
type Lazy func(x []float64) []LazyCut

// Options tunes the solver. Zero values select defaults.
type Options struct {
	// IntTol is the integrality tolerance (default 1e-6). Deliberately
	// dimensionless/absolute: integer variables are count-valued (node
	// allocations, binaries), so their unit is fixed at 1 and never
	// rescales with the problem data. The same reasoning covers the
	// ±1e-9 Ceil/Floor snaps applied to integer bounds at node setup.
	IntTol   float64
	GapTol   float64 // relative optimality gap, default 1e-9
	MaxNodes int     // default 200000
	// TimeLimit stops the search after the given wall-clock budget
	// (status NodeLimit, best incumbent kept); 0 means unlimited.
	TimeLimit time.Duration
	// DisableSOSBranching makes the solver ignore SOS declarations for
	// branching (their feasibility must then be implied by integer
	// structure, as with Σz=1 over binaries). This is the ablation knob
	// for the paper's two-orders-of-magnitude claim.
	DisableSOSBranching bool
	// CutAtFractional also runs the lazy callback at fractional node
	// solutions, tightening the relaxation earlier at the cost of more
	// callback work.
	CutAtFractional bool
	Lazy            Lazy
	// DebugLPCheck, when non-nil, is invoked after every node LP solve
	// (testing hook: e.g. lp.VerifyKKT certificates), in node-processing
	// order.
	DebugLPCheck func(p *lp.Problem, sol *lp.Solution)
	// DisableWarmStart turns off dual-simplex warm starting of node LPs
	// from the parent basis and reverts to cold two-phase solves. Warm
	// starting is the default; this is the ablation/benchmark knob.
	DisableWarmStart bool
	// DisableSparse pins every node LP to the dense simplex kernels
	// (lp.Problem.DisableSparse on the base problem, inherited by all
	// node clones). Benchmark/ablation knob for the sparse path.
	DisableSparse bool
}

// Result is the outcome of a solve.
type Result struct {
	Status    Status
	X         []float64
	Obj       float64
	BestBound float64
	Nodes     int
	LPSolves  int
	Cuts      int
	// Pivots is the total number of simplex basis changes across all node
	// LP solves — the hardware-independent measure of LP work that the
	// warm-start benchmarks compare.
	Pivots int
	// WarmSolves / ColdSolves split the node LP solves by how the basis
	// cache fared: WarmSolves were resolved by dual-simplex reoptimization
	// of the cached parent basis, ColdSolves needed a full two-phase
	// rebuild (every solve is cold when DisableWarmStart is set). See
	// lp.Incremental.Stats.
	WarmSolves int
	ColdSolves int
	// Inexact reports that at least one node LP hit its iteration limit
	// and was dropped from the search rather than pruned as infeasible.
	// The reported bound (and, when Status is Optimal-like, the incumbent)
	// may therefore be weaker than the true optimum; Status is NodeLimit
	// whenever the dropped subtrees could still matter.
	Inexact bool
}

type nodeState struct {
	lo, hi []float64
	bound  float64
	depth  int
	seq    int // tiebreak for deterministic order
	// basis is the parent's optimal LP basis, inherited at branching and
	// used to warm-start this node's first solve.
	basis *lp.Basis
}

type nodeQueue []*nodeState

func (q nodeQueue) Len() int { return len(q) }
func (q nodeQueue) Less(i, j int) bool {
	if q[i].bound != q[j].bound {
		return q[i].bound < q[j].bound
	}
	return q[i].seq < q[j].seq
}
func (q nodeQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *nodeQueue) Push(x interface{}) { *q = append(*q, x.(*nodeState)) }
func (q *nodeQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

type solver struct {
	ctx  context.Context
	base *lp.Problem
	ints []int
	sos  []SOS1
	opts Options

	cuts  []LazyCut
	queue nodeQueue
	seq   int

	incumbent []float64
	incObj    float64
	unbounded bool
	res       *Result

	// Warm-start state: one persistent incremental LP shared by every
	// node, reconfigured per node by bound updates and cut appends.
	inc         *lp.Incremental // nil when DisableWarmStart
	cutsApplied int             // prefix of s.cuts already absorbed by inc

	// inexactBound tracks the weakest bound among nodes dropped on
	// lp.IterLimit; the final BestBound may not exceed it.
	inexactBound float64
}

// nodeLP returns the node's LP relaxation and its solution: warm from the
// shared incremental LP by default, or a cold solve of a freshly built
// node problem when DisableWarmStart is set.
func (s *solver) nodeLP(node *nodeState) (*lp.Problem, *lp.Solution, error) {
	if s.inc != nil {
		return s.warmLP(node)
	}
	p := buildNodeLP(s.base, node, s.cuts)
	sol, err := p.Solve()
	return p, sol, err
}

// warmLP reconfigures the shared incremental LP for the node — bound
// updates plus any cuts appended since the last node — and reoptimizes with
// the dual simplex from the parent basis (or the previous node's live basis
// when the parent snapshot is stale or absent). Correctness does not depend
// on the basis: incompatible snapshots are ignored and numerical failures
// fall back to a cold solve inside the lp layer.
func (s *solver) warmLP(node *nodeState) (*lp.Problem, *lp.Solution, error) {
	for j := range node.lo {
		s.inc.TightenBound(j, node.lo[j], node.hi[j])
	}
	for i := s.cutsApplied; i < len(s.cuts); i++ {
		c := &s.cuts[i]
		s.inc.AddRow(c.Terms, c.Sense, c.RHS, c.Name)
	}
	s.cutsApplied = len(s.cuts)
	sol, err := s.inc.SolveFrom(node.basis)
	return s.inc.Problem(), sol, err
}

// buildNodeLP assembles the node's LP: base + node bounds + the given cuts.
func buildNodeLP(base *lp.Problem, node *nodeState, cuts []LazyCut) *lp.Problem {
	p := base.Clone()
	for j := 0; j < p.NumVariables(); j++ {
		p.SetBounds(j, node.lo[j], node.hi[j])
	}
	for i := range cuts {
		c := &cuts[i]
		p.AddConstraint(c.Terms, c.Sense, c.RHS, c.Name)
	}
	return p
}

// Solve minimizes the LP base subject to integrality of ints, the SOS1
// declarations, and any lazy cuts produced by opts.Lazy.
func Solve(base *lp.Problem, ints []int, sos []SOS1, opts Options) *Result {
	return SolveContext(context.Background(), base, ints, sos, opts)
}

// SolveContext is Solve with cooperative cancellation: the search checks ctx
// between nodes and between cut-loop passes, and on cancellation (or ctx
// deadline expiry) stops exactly as a TimeLimit would — status NodeLimit,
// best incumbent and remaining best bound reported. A never-cancelled ctx
// yields a search bit-identical to Solve.
func SolveContext(ctx context.Context, base *lp.Problem, ints []int, sos []SOS1, opts Options) *Result {
	if opts.IntTol == 0 {
		opts.IntTol = 1e-6
	}
	if opts.GapTol == 0 {
		opts.GapTol = 1e-9
	}
	if opts.MaxNodes == 0 {
		opts.MaxNodes = 200000
	}
	if opts.DisableSparse && !base.DisableSparse {
		base = base.Clone() // node LPs clone base, so the flag propagates
		base.DisableSparse = true
	}
	s := &solver{ctx: ctx, base: base, ints: ints, sos: sos, opts: opts,
		incObj: math.Inf(1), inexactBound: math.Inf(1),
		res: &Result{BestBound: math.Inf(-1)}}
	// Fill the basis-cache counters on every exit path; with warm starts
	// disabled every LP solve is by definition cold.
	defer func() {
		if s.inc != nil {
			s.res.WarmSolves, s.res.ColdSolves = s.inc.Stats()
		} else {
			s.res.ColdSolves = s.res.LPSolves
		}
	}()

	n := base.NumVariables()
	root := &nodeState{lo: make([]float64, n), hi: make([]float64, n), bound: math.Inf(-1)}
	for j := 0; j < n; j++ {
		root.lo[j], root.hi[j] = base.Bounds(j)
	}
	// Tighten integer bounds to integers up front.
	for _, j := range ints {
		root.lo[j] = math.Ceil(root.lo[j] - 1e-9)
		root.hi[j] = math.Floor(root.hi[j] + 1e-9)
	}
	if !opts.DisableWarmStart {
		// The incremental LP starts from the root box (base clone, so it
		// inherits MaxIter); each node reconfigures it in place.
		s.inc = lp.NewIncremental(buildNodeLP(base, root, nil))
	}
	heap.Init(&s.queue)
	heap.Push(&s.queue, root)

	start := time.Now()
	for s.queue.Len() > 0 {
		if s.res.Nodes >= s.opts.MaxNodes || s.ctx.Err() != nil ||
			(s.opts.TimeLimit > 0 && time.Since(start) > s.opts.TimeLimit) {
			s.finish(NodeLimit)
			return s.res
		}
		node := heap.Pop(&s.queue).(*nodeState)
		if node.bound >= s.incObj-s.pruneEps() {
			continue // dominated by incumbent
		}
		s.res.Nodes++
		s.processNode(node)
		if s.unbounded {
			s.res.Status = Unbounded
			return s.res
		}
	}
	if s.incumbent == nil {
		if s.res.Inexact {
			// Subtrees were dropped on iteration limits; claiming
			// Infeasible could be wrong. Report the bounded outcome.
			s.finish(NodeLimit)
			return s.res
		}
		s.res.Status = Infeasible
		s.res.BestBound = math.Inf(1)
		return s.res
	}
	if s.res.Inexact && s.inexactBound < s.incObj-s.pruneEps() {
		// A dropped subtree could still contain a better incumbent than
		// the one we hold: optimality is unproven.
		s.finish(NodeLimit)
		return s.res
	}
	s.finish(Optimal)
	s.res.BestBound = s.res.Obj
	return s.res
}

// pruneEps is the bound-vs-incumbent slack below which a node is fathomed:
// GapTol relative to the incumbent objective, which is the one value that is
// guaranteed to carry the problem's objective scale (box bounds do not —
// they routinely hold big-M values orders of magnitude above any attainable
// objective). The unit floor covers the no-incumbent and near-zero cases;
// for the HSLB stack it is exact, because the core layer's power-of-two
// time normalization delivers O(1) objectives here.
func (s *solver) pruneEps() float64 {
	return s.opts.GapTol * (1 + math.Abs(s.incObj))
}

func (s *solver) finish(st Status) {
	s.res.Status = st
	if s.incumbent != nil {
		s.res.X = s.incumbent
		s.res.Obj = s.incObj
	} else if st == Optimal {
		s.res.Status = Infeasible
	}
	// Best bound over remaining nodes (for gap reporting on limits).
	bb := math.Inf(1)
	if s.incumbent != nil {
		bb = s.incObj
	}
	for _, nd := range s.queue {
		if nd.bound < bb {
			bb = nd.bound
		}
	}
	if bb > s.inexactBound {
		bb = s.inexactBound
	}
	if s.res.Status == NodeLimit {
		s.res.BestBound = bb
	}
}

func (s *solver) processNode(node *nodeState) {
	// Cut loop: re-solve the same node while the lazy callback keeps
	// rejecting its solution.
	for pass := 0; pass < 200; pass++ {
		if s.ctx.Err() != nil {
			// Re-queue the node so finish() still counts its bound when
			// the main loop stops next iteration with status NodeLimit;
			// dropping it could overstate BestBound.
			heap.Push(&s.queue, node)
			return
		}
		p, sol, err := s.nodeLP(node)
		s.res.LPSolves++
		if err == nil {
			s.res.Pivots += sol.Pivots
		}
		if s.opts.DebugLPCheck != nil && err == nil {
			s.opts.DebugLPCheck(p, sol)
		}
		if err != nil || sol.Status == lp.Infeasible {
			return // prune
		}
		if sol.Status == lp.IterLimit {
			// The LP could not be finished within its iteration budget.
			// Unlike infeasibility this proves nothing about the subtree:
			// pruning here could silently discard the optimum. Drop the
			// node but record that the search is now inexact, capped by
			// this node's last known bound.
			s.res.Inexact = true
			if node.bound < s.inexactBound {
				s.inexactBound = node.bound
			}
			return
		}
		if sol.Status == lp.Unbounded {
			// An unbounded node relaxation means the MILP is unbounded
			// or its recession cone needs cuts we cannot derive here;
			// report unbounded (our models always bound variables).
			s.unbounded = true
			return
		}
		node.bound = sol.Obj
		// Remember the optimal basis: children inherit it (cloneNode) as
		// their warm-start seed, and cut-loop re-solves of this node reuse
		// it directly.
		node.basis = sol.Basis
		if sol.Obj >= s.incObj-s.pruneEps() {
			return // bound prune
		}

		fracVar := s.mostFractional(sol.X)
		violSOS := s.violatedSOS(sol.X)

		if fracVar < 0 && violSOS < 0 {
			// Integer and SOS feasible: offer to the lazy callback.
			if s.opts.Lazy != nil {
				if cuts := s.opts.Lazy(sol.X); len(cuts) > 0 {
					s.cuts = append(s.cuts, cuts...)
					s.res.Cuts += len(cuts)
					continue // re-solve this node with the new cuts
				}
			}
			s.incumbent = append([]float64(nil), sol.X...)
			s.incObj = sol.Obj
			return
		}

		if s.opts.CutAtFractional && s.opts.Lazy != nil {
			if cuts := s.opts.Lazy(sol.X); len(cuts) > 0 {
				s.cuts = append(s.cuts, cuts...)
				s.res.Cuts += len(cuts)
				continue
			}
		}

		// Branch. Prefer SOS sets (unless ablated), matching the paper.
		if violSOS >= 0 && !s.opts.DisableSOSBranching {
			s.branchSOS(node, violSOS, sol.X)
		} else if fracVar >= 0 {
			s.branchVar(node, fracVar, sol.X[fracVar])
		} else {
			// Only SOS violated but SOS branching disabled: fall back to
			// branching on the largest member variable if it is integer;
			// otherwise accept (the model must carry Σz=1 structure).
			s.branchSOS(node, violSOS, sol.X)
		}
		return
	}
}

// mostFractional returns the integer variable furthest from integrality at
// x, or -1 when all are integral within tolerance.
func (s *solver) mostFractional(x []float64) int {
	best, bestDist := -1, s.opts.IntTol
	for _, j := range s.ints {
		f := x[j] - math.Floor(x[j])
		d := math.Min(f, 1-f)
		if d > bestDist {
			best, bestDist = j, d
		}
	}
	return best
}

// violatedSOS returns the index of an SOS1 set with more than one nonzero
// member at x, or -1.
func (s *solver) violatedSOS(x []float64) int {
	for k := range s.sos {
		nz := 0
		for _, v := range s.sos[k].Vars {
			if math.Abs(x[v]) > s.opts.IntTol {
				nz++
			}
		}
		if nz > 1 {
			return k
		}
	}
	return -1
}

// branchVar creates the floor/ceil children for integer variable j.
func (s *solver) branchVar(parent *nodeState, j int, v float64) {
	left := cloneNode(parent)
	left.hi[j] = math.Floor(v)
	right := cloneNode(parent)
	right.lo[j] = math.Ceil(v)
	s.pushChild(left)
	s.pushChild(right)
}

// branchSOS splits the set at the weighted average of the fractional
// solution: the left child zeroes the members above the split, the right
// child zeroes those at or below it. Every SOS1-feasible point lies in one
// of the children, so the division is exhaustive.
func (s *solver) branchSOS(parent *nodeState, k int, x []float64) {
	set := s.sos[k]
	// Weighted barycenter of the current (violating) solution.
	num, den := 0.0, 0.0
	for i, v := range set.Vars {
		val := math.Abs(x[v])
		num += set.Weights[i] * val
		den += val
	}
	split := set.Weights[(len(set.Weights)-1)/2]
	if den > 0 {
		split = num / den
	}
	// Ensure the split separates at least one member on each side.
	if split <= set.Weights[0] {
		split = set.Weights[0]
	}
	if split >= set.Weights[len(set.Weights)-1] {
		split = set.Weights[len(set.Weights)-2]
	}
	left := cloneNode(parent)
	right := cloneNode(parent)
	branched := false
	for i, v := range set.Vars {
		if set.Weights[i] > split {
			left.lo[v], left.hi[v] = 0, 0
			branched = true
		} else {
			right.lo[v], right.hi[v] = 0, 0
		}
	}
	if !branched {
		// Degenerate split; zero the last member on the left instead.
		v := set.Vars[len(set.Vars)-1]
		left.lo[v], left.hi[v] = 0, 0
	}
	s.pushChild(left)
	s.pushChild(right)
}

func (s *solver) pushChild(n *nodeState) {
	// Reject children with empty boxes early.
	for j := range n.lo {
		if n.lo[j] > n.hi[j] {
			return
		}
	}
	s.seq++
	n.seq = s.seq
	heap.Push(&s.queue, n)
}

func cloneNode(n *nodeState) *nodeState {
	return &nodeState{
		lo:    append([]float64(nil), n.lo...),
		hi:    append([]float64(nil), n.hi...),
		bound: n.bound,
		depth: n.depth + 1,
		basis: n.basis, // immutable snapshot, shared with the parent
	}
}
