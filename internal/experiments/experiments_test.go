package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func parseCell(t *testing.T, tbl *Table, row, col int) float64 {
	t.Helper()
	// Time-limited runs report lower bounds as "≥N" (e.g. T4's binary
	// ablation on a slow or race-instrumented host); the bound still
	// satisfies every ≥-shaped claim the tests make.
	cell := strings.TrimPrefix(tbl.Rows[row][col], "≥")
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("%s row %d col %d: %q not a number", tbl.ID, row, col, tbl.Rows[row][col])
	}
	return v
}

func TestT1Shape(t *testing.T) {
	tbl, err := T1FitQuality(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// C5: with ≥4 points, R² very close to 1.
	for r := 1; r < len(tbl.Rows); r++ {
		if r2 := parseCell(t, tbl, r, 1); r2 < 0.99 {
			t.Fatalf("mean R² at D=%s is %v, want ≈1", tbl.Rows[r][0], r2)
		}
	}
}

func TestT2Shape(t *testing.T) {
	tbl, err := T2Objectives(Quick)
	if err != nil {
		t.Fatal(err)
	}
	// C3: min-sum clearly worse than min-max in makespan terms.
	last := len(tbl.Rows) - 1
	if ratio := parseCell(t, tbl, last, 4); ratio < 1.1 {
		t.Fatalf("min-sum/min-max = %v, want > 1.1 (the paper: 'much worse')", ratio)
	}
	// min-max is never beaten by the others.
	for r := range tbl.Rows {
		mm := parseCell(t, tbl, r, 1)
		if xm := parseCell(t, tbl, r, 2); xm < mm*0.999 {
			t.Fatalf("max-min beat min-max at row %d: %v < %v", r, xm, mm)
		}
	}
}

func TestT3Shape(t *testing.T) {
	tbl, err := T3Baselines(Quick)
	if err != nil {
		t.Fatal(err)
	}
	for r := range tbl.Rows {
		workload := tbl.Rows[r][0]
		speedup := parseCell(t, tbl, r, 7)
		if workload == "protein" && speedup < 1.5 {
			t.Fatalf("protein speedup %v, want ≥ 1.5 (heterogeneous tasks)", speedup)
		}
		if speedup < 0.95 {
			t.Fatalf("HSLB worse than uniform at row %d: speedup %v", r, speedup)
		}
	}
}

func TestF1Shape(t *testing.T) {
	tbl, err := F1Scaling(Quick)
	if err != nil {
		t.Fatal(err)
	}
	for r := range tbl.Rows {
		if e := parseCell(t, tbl, r, 3); e > 10 {
			t.Fatalf("prediction error %v%% at row %d (C1: predicted ≈ actual)", e, r)
		}
	}
	// Actual times decrease with nodes (strong scaling regime).
	first := parseCell(t, tbl, 0, 2)
	last := parseCell(t, tbl, len(tbl.Rows)-1, 2)
	if last >= first {
		t.Fatalf("no scaling: %v → %v", first, last)
	}
}

// TestT4Shape checks C4 on every quick-scale T4 instance: binary branching
// explores at least twice the SOS nodes wherever its run finishes (a
// truncated run's node count is a lower bound, so it cannot refute the
// claim, only fail to confirm it). The rendered table has one row per set
// size.
func TestT4Shape(t *testing.T) {
	pop, err := t4Population(Quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range pop {
		for i, r := range set.Runs {
			if r.BinNodes >= 2*r.SOSNodes {
				continue
			}
			if r.BinTruncated {
				t.Logf("set %d instance %d: binary run truncated at ≥%d nodes (SOS %d); inconclusive, skipping",
					set.SetSize, i, r.BinNodes, r.SOSNodes)
				continue
			}
			t.Fatalf("set %d instance %d: binary branching (%d nodes) not ≫ SOS (%d nodes)",
				set.SetSize, i, r.BinNodes, r.SOSNodes)
		}
	}
	if tbl := t4Table(pop); len(tbl.Rows) != len(pop) {
		t.Fatalf("T4 rows = %d, want one per set size (%d)", len(tbl.Rows), len(pop))
	}
}

func TestT4RelaxationShape(t *testing.T) {
	tbl, err := T4Relaxation(Quick)
	if err != nil {
		t.Fatal(err)
	}
	// All variants reach the same optimum.
	ref := parseCell(t, tbl, 0, 4)
	for r := 1; r < len(tbl.Rows); r++ {
		if v := parseCell(t, tbl, r, 4); v < ref*0.999 || v > ref*1.001 {
			t.Fatalf("variant %d optimum %v differs from %v", r, v, ref)
		}
	}
}

func TestT5Shape(t *testing.T) {
	tbl, err := T5Sensitivity(Quick)
	if err != nil {
		t.Fatal(err)
	}
	last := len(tbl.Rows) - 1
	if tbl.Rows[last][1] != "extrapolate" {
		t.Fatalf("last row should be the extrapolation variant: %v", tbl.Rows[last])
	}
	// C5: extrapolation is clearly worse than interpolation.
	if loss := parseCell(t, tbl, last, 4); loss < 10 {
		t.Fatalf("extrapolation loss %v%%, want ≫ 0", loss)
	}
	for r := 0; r < last; r++ {
		if loss := parseCell(t, tbl, r, 4); loss > 15 {
			t.Fatalf("interpolating variant %d loses %v%%", r, loss)
		}
	}
}

func TestT6Shape(t *testing.T) {
	tbl, err := T6Coupled(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Notes) == 0 {
		t.Fatal("T6 should note the improvement percentages")
	}
	// The unconstrained-ocean note must report a large improvement.
	found := false
	for _, n := range tbl.Notes {
		if strings.Contains(n, "free-ocn") {
			found = true
		}
	}
	if !found {
		t.Fatal("missing free-ocean note")
	}
}

func TestF2Shape(t *testing.T) {
	tbl, err := F2Layouts(Quick)
	if err != nil {
		t.Fatal(err)
	}
	for r := range tbl.Rows {
		l1 := parseCell(t, tbl, r, 1)
		l1act := parseCell(t, tbl, r, 2)
		l2 := parseCell(t, tbl, r, 3)
		l3 := parseCell(t, tbl, r, 4)
		if l3 < l1 || l3 < l2 {
			t.Fatalf("row %d: layout 3 (%v) not worst (%v, %v)", r, l3, l1, l2)
		}
		if l2 > 1.5*l1 || l1 > 1.5*l2 {
			t.Fatalf("row %d: layouts 1 (%v) and 2 (%v) should be comparable", r, l1, l2)
		}
		if l1act < 0.8*l1 || l1act > 1.2*l1 {
			t.Fatalf("row %d: simulated actual (%v) far from predicted (%v)", r, l1act, l1)
		}
	}
}

func TestT7Shape(t *testing.T) {
	tbl, err := T7Crossover(Quick)
	if err != nil {
		t.Fatal(err)
	}
	// The DLB/HSLB ratio must fall as the task count grows: HSLB wins the
	// few-large regime, DLB the many-small regime.
	first := parseCell(t, tbl, 0, 4)
	last := parseCell(t, tbl, len(tbl.Rows)-1, 4)
	if first < 1 {
		t.Fatalf("few-large regime: DLB/HSLB = %v, want > 1 (HSLB wins)", first)
	}
	if last > 1 {
		t.Fatalf("many-small regime: DLB/HSLB = %v, want < 1 (DLB wins)", last)
	}
}

func TestTableCSV(t *testing.T) {
	tbl := &Table{ID: "X", Title: "demo", Header: []string{"a", "b,c"}}
	tbl.AddRow(1.5, `say "hi"`)
	tbl.Note("n")
	got := tbl.CSV()
	want := "a,\"b,c\"\n1.5,\"say \"\"hi\"\"\"\n# n\n"
	if got != want {
		t.Fatalf("CSV:\n%q\nwant\n%q", got, want)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{ID: "X", Title: "demo", Header: []string{"a", "bb"}}
	tbl.AddRow(1, 2.5)
	tbl.AddRow("x", "y")
	tbl.Note("hello %d", 7)
	s := tbl.String()
	for _, want := range []string{"== X: demo ==", "a", "bb", "2.5", "note: hello 7"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendering missing %q:\n%s", want, s)
		}
	}
}

func TestWorkloadHelpers(t *testing.T) {
	w := Protein(8, 256, 1)
	if w.NumTasks() != 8 {
		t.Fatalf("NumTasks = %d", w.NumTasks())
	}
	fits, err := w.FitAll(5, 128, false)
	if err != nil {
		t.Fatal(err)
	}
	p := w.Problem(fits, 128)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	a, err := p.SolveParametric()
	if err != nil {
		t.Fatal(err)
	}
	tm, err := w.ExecuteMonomers(a.Nodes, 9)
	if err != nil {
		t.Fatal(err)
	}
	if tm <= 0 {
		t.Fatalf("executed time %v", tm)
	}
	td, err := w.ExecuteDynamic(128, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	if td <= 0 {
		t.Fatalf("dynamic time %v", td)
	}
	tt := w.TrueTimes(a.Nodes)
	if len(tt) != 8 || tt[0] <= 0 {
		t.Fatalf("TrueTimes = %v", tt)
	}
}

func TestT8Shape(t *testing.T) {
	tbl, err := T8Families(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// The HSLB family must describe these tasks well (R² ≈ 1) and produce
	// an allocation at or near the best.
	if r2 := parseCell(t, tbl, 0, 1); r2 < 0.99 {
		t.Fatalf("HSLB family mean R² = %v", r2)
	}
	if loss := parseCell(t, tbl, 0, 4); loss > 10 {
		t.Fatalf("HSLB family allocation loses %v%% to the best family", loss)
	}
}

func TestT9Shape(t *testing.T) {
	tbl, err := T9ParametricTable(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for r := range tbl.Rows {
		budgets := parseCell(t, tbl, r, 1)
		segments := parseCell(t, tbl, r, 2)
		solves := parseCell(t, tbl, r, 3)
		if segments > budgets || solves > 2*budgets {
			t.Fatalf("row %d: %v segments / %v solves for %v budgets", r, segments, solves, budgets)
		}
		if tbl.Rows[r][0] == "sweet-spot" {
			// The production shape: a handful of segments, so the table
			// build must beat per-budget solving by a wide margin.
			if solves*4 > budgets {
				t.Fatalf("sweet-spot row %d: %v solves for %v budgets — no amortization", r, solves, budgets)
			}
		}
	}
}

func TestStaticTunedPlan(t *testing.T) {
	w := Protein(12, 256, 21)
	fits, err := w.FitAll(5, 64, false)
	if err != nil {
		t.Fatal(err)
	}
	// Few tasks, many nodes: the per-task allocation should win and use
	// one group per task.
	sizes, assign, pred, err := w.StaticTunedPlan(64, fits)
	if err != nil {
		t.Fatal(err)
	}
	if pred <= 0 {
		t.Fatalf("predicted makespan %v", pred)
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total > 64 {
		t.Fatalf("plan overspends: %d nodes", total)
	}
	for _, g := range assign {
		if g < 0 || g >= len(sizes) {
			t.Fatalf("bad assignment %v", assign)
		}
	}
	// Many tasks, few nodes: the plan must still exist (LPT groups).
	sizes2, assign2, _, err := w.StaticTunedPlan(4, fits)
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes2) > 4 || len(assign2) != 12 {
		t.Fatalf("over-subscribed plan: %d groups, %d assigned", len(sizes2), len(assign2))
	}
	// Executing the plan works end to end.
	if _, err := w.ExecuteStaticTuned(64, fits, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := w.ExecuteStaticLPT(4, 4, fits, 5); err != nil {
		t.Fatal(err)
	}
}

func TestAllRunnersQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	tables, err := All(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 12 {
		t.Fatalf("got %d tables, want 12", len(tables))
	}
	seen := map[string]bool{}
	for _, tbl := range tables {
		if len(tbl.Rows) == 0 {
			t.Fatalf("%s has no rows", tbl.ID)
		}
		if seen[tbl.ID] {
			t.Fatalf("duplicate experiment id %s", tbl.ID)
		}
		seen[tbl.ID] = true
	}
}
