package minlp

import (
	"math"
	"testing"

	"repro/internal/lp"
	"repro/internal/stats"
)

// TestNodeLPKKTProperty solves a population of random paper-style
// allocation MINLPs and requires a valid KKT certificate for every node LP,
// agreement with brute-force enumeration, and an integral allocation within
// the budget.
func TestNodeLPKKTProperty(t *testing.T) {
	instances := 1000
	if testing.Short() {
		instances = 60
	}
	for seed := 0; seed < instances; seed++ {
		rng := stats.NewRNG(uint64(seed) + 1)
		k := 2 + rng.Intn(3)
		w := make([]float64, k)
		for i := range w {
			w[i] = rng.Range(0.5, 10)
		}
		n := k + rng.Intn(7)
		m, _, ids := minMaxModel(w, n)
		// VerifyKKT's tolerance is absolute, and OA cut rows mix unit
		// coefficients with gradients of w/n curves over a huge makespan
		// box, so residuals of ~1e-4 are tiny relative to the row scale.
		kkt := func(p *lp.Problem, sol *lp.Solution) {
			if sol.Status != lp.Optimal {
				return
			}
			if err := lp.VerifyKKT(p, sol, 1e-3); err != nil {
				t.Fatalf("seed %d: node LP certificate: %v", seed, err)
			}
		}
		res := Solve(m.Clone(), Options{DebugLPCheck: kkt})
		if res.Status != Optimal {
			t.Fatalf("seed %d: status %v", seed, res.Status)
		}
		if want := bruteMinMax(w, n); math.Abs(res.Obj-want) > 1e-4*want {
			t.Fatalf("seed %d: obj %v, brute force %v (w=%v n=%d)", seed, res.Obj, want, w, n)
		}
		// The allocation itself must be integral and within budget.
		total := 0
		for _, id := range ids {
			v := res.X[id]
			if math.Abs(v-math.Round(v)) > 1e-6 {
				t.Fatalf("seed %d: fractional allocation %v", seed, v)
			}
			total += int(math.Round(v))
		}
		if total > n {
			t.Fatalf("seed %d: allocation uses %d of %d nodes", seed, total, n)
		}
	}
}
