// Package core implements the decision-making step of the Heuristic Static
// Load-Balancing (HSLB) algorithm — the paper's primary contribution.
//
// Given one fitted performance function per task (package perfmodel), a
// total node budget N, and optional per-task allowed allocation sets
// ("sweet spots", modelled as special ordered sets exactly as the paper's
// AMPL models do), the package chooses the node allocation n_j per task j:
//
//	min-max:  minimize  max_j T_j(n_j)   (the paper's objective of choice)
//	max-min:  maximize  min_j T_j(n_j)   (close second in the paper)
//	min-sum:  minimize  Σ_j  T_j(n_j)    (reported "much worse")
//
// subject to Σ n_j ≤ N (or = N) and n_j integer from the task's range or
// allowed set.
//
// Three solver routes are provided and cross-validated in the tests:
//
//   - SolveMINLP — the paper's route: build the MINLP and solve it with the
//     LP/NLP-based branch-and-bound in package minlp (valid for the convex
//     objectives min-max and min-sum);
//   - SolveParametric — a specialized exact method that bisects the
//     objective level and uses the per-task inverse T_j⁻¹; it supports all
//     three objectives and is also the reference implementation;
//   - SolveDP — an O(k·N²) dynamic program, exact for any objective and
//     any allowed sets; used as the oracle in property tests (small N).
//
// Baseline allocators (Uniform — the GDDI default of equal groups,
// Proportional, and ManualMimic — a coordinate-descent imitation of the
// paper's "human expert" loop) provide the comparison columns for the
// benchmark tables.
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/perfmodel"
	"repro/internal/stats"
)

// Objective selects the optimization goal.
type Objective int

// The three candidate objectives from the paper.
const (
	MinMax Objective = iota
	MaxMin
	MinSum
)

func (o Objective) String() string {
	switch o {
	case MinMax:
		return "min-max"
	case MaxMin:
		return "max-min"
	case MinSum:
		return "min-sum"
	}
	return "unknown"
}

// ParseObjective is the inverse of Objective.String: it maps the canonical
// names "min-max", "max-min", and "min-sum" onto the Objective constants.
// Every front end (CLI flags, the HTTP service) funnels through this one
// parser so the accepted spellings cannot drift apart.
func ParseObjective(s string) (Objective, error) {
	switch s {
	case "min-max":
		return MinMax, nil
	case "max-min":
		return MaxMin, nil
	case "min-sum":
		return MinSum, nil
	}
	return 0, fmt.Errorf("core: unknown objective %q (want min-max, max-min, or min-sum)", s)
}

// Task is one load-balancing unit: an FMO fragment (group) or, in the
// coupled extension, a model component.
type Task struct {
	Name string
	Perf perfmodel.Params
	// MinNodes is the smallest admissible allocation (memory floor);
	// 0 means 1.
	MinNodes int
	// MaxNodes caps the allocation; 0 means the problem's total.
	MaxNodes int
	// Allowed restricts allocations to this strictly increasing list of
	// node counts (the paper's hard-coded ocean counts / atmosphere sweet
	// spots). nil means the full integer range is admissible.
	Allowed []int
}

// rangeFor returns the effective [lo, hi] integer range of the task given
// the problem budget.
func (t *Task) rangeFor(total int) (lo, hi int) {
	lo = t.MinNodes
	if lo < 1 {
		lo = 1
	}
	hi = t.MaxNodes
	if hi <= 0 || hi > total {
		hi = total
	}
	return lo, hi
}

// candidates returns the admissible node counts of the task within the
// budget, smallest first. Only call this for small budgets (DP oracle and
// validation paths); the solvers use the O(log) helpers below.
func (t *Task) candidates(total int) []int {
	lo, hi := t.rangeFor(total)
	if t.Allowed != nil {
		out := make([]int, 0, len(t.Allowed))
		for _, n := range t.Allowed {
			if n >= lo && n <= hi {
				out = append(out, n)
			}
		}
		return out
	}
	if hi < lo {
		return nil
	}
	out := make([]int, 0, hi-lo+1)
	for n := lo; n <= hi; n++ {
		out = append(out, n)
	}
	return out
}

// minCandidate returns the smallest admissible allocation.
func (t *Task) minCandidate(total int) (int, bool) {
	lo, hi := t.rangeFor(total)
	if t.Allowed == nil {
		if lo > hi {
			return 0, false
		}
		return lo, true
	}
	for _, n := range t.Allowed {
		if n >= lo && n <= hi {
			return n, true
		}
	}
	return 0, false
}

// nextUp returns the smallest admissible count strictly greater than n.
func (t *Task) nextUp(n, total int) (int, bool) {
	lo, hi := t.rangeFor(total)
	if t.Allowed == nil {
		v := n + 1
		if v < lo {
			v = lo
		}
		if v > hi {
			return 0, false
		}
		return v, true
	}
	idx := sort.SearchInts(t.Allowed, n+1)
	for ; idx < len(t.Allowed); idx++ {
		v := t.Allowed[idx]
		if v > hi {
			return 0, false
		}
		if v >= lo {
			return v, true
		}
	}
	return 0, false
}

// nextDown returns the largest admissible count strictly less than n.
func (t *Task) nextDown(n, total int) (int, bool) {
	lo, hi := t.rangeFor(total)
	if t.Allowed == nil {
		v := n - 1
		if v > hi {
			v = hi
		}
		if v < lo {
			return 0, false
		}
		return v, true
	}
	idx := sort.SearchInts(t.Allowed, n) // first ≥ n
	for idx--; idx >= 0; idx-- {
		v := t.Allowed[idx]
		if v < lo {
			return 0, false
		}
		if v <= hi {
			return v, true
		}
	}
	return 0, false
}

// Problem is one allocation instance.
type Problem struct {
	Tasks      []Task
	TotalNodes int
	Objective  Objective
	// UseAllNodes forces Σ n_j = TotalNodes instead of ≤. Max-min is
	// always solved with equality (with a slack budget the objective is
	// degenerate: withholding nodes only raises times).
	UseAllNodes bool
}

// Validate reports structural problems.
func (p *Problem) Validate() error {
	if len(p.Tasks) == 0 {
		return errors.New("core: no tasks")
	}
	if p.TotalNodes < len(p.Tasks) {
		return fmt.Errorf("core: %d nodes cannot host %d tasks", p.TotalNodes, len(p.Tasks))
	}
	for i := range p.Tasks {
		t := &p.Tasks[i]
		if !t.Perf.Valid() {
			return fmt.Errorf("core: task %q has invalid performance parameters", t.Name)
		}
		for k := 1; k < len(t.Allowed); k++ {
			if t.Allowed[k] <= t.Allowed[k-1] {
				return fmt.Errorf("core: task %q allowed set not strictly increasing", t.Name)
			}
		}
		lo, ok := t.minCandidate(p.TotalNodes)
		if !ok {
			return fmt.Errorf("core: task %q has no admissible allocation within %d nodes", t.Name, p.TotalNodes)
		}
		// a/lo + b·hiᶜ + d bounds T on every admissible count; the solvers
		// evaluate T across the whole range (the MINLP's outer approximation
		// included), so that bound must be finite.
		hi := t.snapDown(p.TotalNodes, p.TotalNodes)
		bound := t.Perf.A/float64(lo) + t.Perf.D
		if t.Perf.B != 0 {
			bound += t.Perf.B * math.Pow(float64(hi), t.Perf.C)
		}
		if math.IsInf(bound, 0) {
			return fmt.Errorf("core: task %q has a model time that overflows on its admissible counts %d..%d", t.Name, lo, hi)
		}
	}
	return nil
}

// Allocation is a solved (or heuristic) node assignment.
type Allocation struct {
	Nodes []int     `json:"nodes"` // per task
	Times []float64 `json:"times"` // predicted per-task time

	Makespan  float64 `json:"makespan"`  // max time
	MinTime   float64 `json:"minTime"`   // min time
	SumTime   float64 `json:"sumTime"`   // Σ times
	Imbalance float64 `json:"imbalance"` // max/mean
	Used      int     `json:"used"`      // Σ nodes

	// Solver diagnostics (zero for heuristics).
	SolverNodes int `json:"solverNodes,omitempty"`
	LPSolves    int `json:"lpSolves,omitempty"`
	OACuts      int `json:"oaCuts,omitempty"`
	// Pivots is the total simplex pivot count behind this allocation
	// (Kelley relaxation plus master tree; see minlp.Result.Pivots) — the
	// hardware-independent measure of LP work that the serving layer
	// aggregates into its statistics counters.
	Pivots int `json:"pivots,omitempty"`

	// Bounded reports that the solve stopped at a deadline, node budget,
	// or cancellation and this allocation is the best feasible point found
	// — not a proven optimum. BestBound is the valid lower bound at stop
	// time and Gap the relative optimality gap (obj − bound)/max(1, |obj|);
	// both are zero for proven-optimal and heuristic allocations.
	Bounded   bool    `json:"bounded,omitempty"`
	BestBound float64 `json:"bestBound,omitempty"`
	Gap       float64 `json:"gap,omitempty"`
}

// Evaluate computes the predicted per-task times and summary statistics of
// an assignment under the problem's performance models.
func (p *Problem) Evaluate(nodes []int) *Allocation {
	if len(nodes) != len(p.Tasks) {
		panic("core: allocation length mismatch")
	}
	a := &Allocation{Nodes: append([]int(nil), nodes...)}
	a.Times = make([]float64, len(nodes))
	for i := range nodes {
		a.Times[i] = p.Tasks[i].Perf.Eval(float64(nodes[i]))
		a.Used += nodes[i]
	}
	a.Makespan = stats.Max(a.Times)
	a.MinTime = stats.Min(a.Times)
	a.SumTime = stats.Sum(a.Times)
	a.Imbalance = stats.Imbalance(a.Times)
	return a
}

// ObjectiveValue returns the allocation's value under the problem objective
// (always minimized: max-min is returned negated).
func (p *Problem) ObjectiveValue(a *Allocation) float64 {
	switch p.Objective {
	case MinMax:
		return a.Makespan
	case MaxMin:
		return -a.MinTime
	default:
		return a.SumTime
	}
}

// Feasible reports whether nodes is admissible for the problem.
func (p *Problem) Feasible(nodes []int) bool {
	if len(nodes) != len(p.Tasks) {
		return false
	}
	used := 0
	for i, n := range nodes {
		used += n
		lo, hi := p.Tasks[i].rangeFor(p.TotalNodes)
		if n < lo || n > hi {
			return false
		}
		if p.Tasks[i].Allowed != nil {
			ok := false
			for _, c := range p.Tasks[i].Allowed {
				if c == n {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
	}
	if used > p.TotalNodes {
		return false
	}
	if (p.UseAllNodes || p.Objective == MaxMin) && used != p.EffectiveBudget() {
		return false
	}
	return true
}

// EffectiveBudget is the node count an equality-constrained allocation must
// use: the full machine, unless per-task caps make that impossible, in
// which case it is the largest usable total (Σ per-task maxima).
func (p *Problem) EffectiveBudget() int {
	sumMax := 0
	for i := range p.Tasks {
		_, hi := p.Tasks[i].rangeFor(p.TotalNodes)
		if p.Tasks[i].Allowed != nil {
			if v, ok := p.Tasks[i].nextDown(hi+1, p.TotalNodes); ok {
				hi = v
			} else {
				hi = 0
			}
		}
		sumMax += hi
	}
	if sumMax < p.TotalNodes {
		return sumMax
	}
	return p.TotalNodes
}

// snapDown returns the largest admissible count ≤ n for the task (falling
// back to the smallest admissible when n is below the whole set).
func (t *Task) snapDown(n, total int) int {
	if v, ok := t.nextDown(n+1, total); ok {
		return v
	}
	v, _ := t.minCandidate(total)
	return v
}

// SnapToFeasible maps an arbitrary node count onto the task's feasible
// allocation set within the budget: the largest admissible count ≤ n after
// clamping n to the task's [min, max] range, falling back to the smallest
// admissible count when n lies below the whole set. ok is false when the
// task has no admissible allocation at all. The gather step uses this so
// tasks are only ever benchmarked at node counts the solver could actually
// allocate.
func (t *Task) SnapToFeasible(n, total int) (int, bool) {
	if _, ok := t.minCandidate(total); !ok {
		return 0, false
	}
	lo, hi := t.rangeFor(total)
	return t.snapDown(clampInt(n, lo, hi), total), true
}

// Uniform is the GDDI-default baseline: divide the machine evenly (snapping
// to allowed sets). Remaining nodes are left idle, as the default group
// layout would.
func Uniform(p *Problem) *Allocation {
	k := len(p.Tasks)
	share := p.TotalNodes / k
	nodes := make([]int, k)
	for i := range p.Tasks {
		nodes[i] = p.Tasks[i].snapDown(share, p.TotalNodes)
	}
	fixBudget(p, nodes)
	return p.Evaluate(nodes)
}

// Proportional allocates in proportion to each task's scalable work
// coefficient a_j, the natural "informed guess" baseline.
func Proportional(p *Problem) *Allocation {
	k := len(p.Tasks)
	totalW := 0.0
	for i := range p.Tasks {
		totalW += p.Tasks[i].Perf.A
	}
	nodes := make([]int, k)
	for i := range p.Tasks {
		w := p.Tasks[i].Perf.A
		share := 1
		if totalW > 0 {
			share = int(math.Floor(w / totalW * float64(p.TotalNodes)))
		}
		nodes[i] = p.Tasks[i].snapDown(share, p.TotalNodes)
	}
	fixBudget(p, nodes)
	return p.Evaluate(nodes)
}

// ManualMimic imitates the paper's human-expert loop: starting from the
// proportional guess, it repeatedly moves nodes from the fastest task to the
// slowest while the makespan improves, for a limited number of "submissions"
// (the paper: "five to ten iterations"). The result is a decent allocation
// but not the optimum, matching the quality gap the paper measures.
func ManualMimic(p *Problem, iterations int) *Allocation {
	if iterations <= 0 {
		iterations = 8
	}
	best := Proportional(p)
	for it := 0; it < iterations; it++ {
		cur := best
		// Move a chunk of the fastest task's nodes to the slowest task.
		slow := stats.ArgMax(cur.Times)
		fast := stats.ArgMin(cur.Times)
		if slow == fast {
			break
		}
		nodes := append([]int(nil), cur.Nodes...)
		chunk := nodes[fast] / 4
		if chunk < 1 {
			chunk = 1
		}
		loFast, _ := p.Tasks[fast].rangeFor(p.TotalNodes)
		if nodes[fast]-chunk < loFast {
			chunk = nodes[fast] - loFast
		}
		if chunk <= 0 {
			break
		}
		nodes[fast] = p.Tasks[fast].snapDown(nodes[fast]-chunk, p.TotalNodes)
		nodes[slow] = p.Tasks[slow].snapDown(nodes[slow]+chunk, p.TotalNodes)
		fixBudget(p, nodes)
		cand := p.Evaluate(nodes)
		if p.ObjectiveValue(cand) < p.ObjectiveValue(best) {
			best = cand
		}
	}
	return best
}

// fixBudget repairs an assignment that exceeds the budget (by shrinking the
// largest allocations to admissible smaller counts) and, when the problem
// requires using all nodes, distributes the leftover.
func fixBudget(p *Problem, nodes []int) {
	used := 0
	for _, n := range nodes {
		used += n
	}
	for used > p.TotalNodes {
		// Shrink the biggest shrinkable allocation one admissible step.
		big, next := -1, 0
		for i := range nodes {
			if big >= 0 && nodes[i] <= nodes[big] {
				continue
			}
			if v, ok := p.Tasks[i].nextDown(nodes[i], p.TotalNodes); ok {
				big, next = i, v
			}
		}
		if big < 0 {
			// Cannot shrink further; give up (caller's Feasible check
			// will catch truly impossible cases).
			break
		}
		used -= nodes[big] - next
		nodes[big] = next
	}
	if p.UseAllNodes || p.Objective == MaxMin {
		distributeLeftover(p, nodes, p.TotalNodes-used)
	}
}

// distributeLeftover grows allocations by admissible steps until the budget
// is exhausted (or no step fits), preferring the currently slowest task.
func distributeLeftover(p *Problem, nodes []int, leftover int) {
	for leftover > 0 {
		bestTask, bestStep := -1, 0
		bestTime := -1.0
		for i := range nodes {
			up, ok := p.Tasks[i].nextUp(nodes[i], p.TotalNodes)
			if !ok {
				continue
			}
			step := up - nodes[i]
			if step > leftover {
				continue
			}
			t := p.Tasks[i].Perf.Eval(float64(nodes[i]))
			if t > bestTime {
				bestTime, bestTask, bestStep = t, i, step
			}
		}
		if bestTask < 0 {
			return
		}
		nodes[bestTask] += bestStep
		leftover -= bestStep
	}
}
