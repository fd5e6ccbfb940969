package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/perfmodel"
)

// span is one timed call at a layer boundary. Spans of one request share
// its id; a root span has parent 0.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Req    int     `json:"req"`
	Name   string  `json:"name"`
	Start  float64 `json:"startMs"` // from the start of the run
	End    float64 `json:"endMs"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e6 }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, req int) int {
	at := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: at})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	at := t.now()
	t.mu.Lock()
	t.spans[id-1].End = at
	t.mu.Unlock()
}

// write writes every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime is the time spent under one span name.
type layerTime struct {
	name        string
	count       int
	total, self float64 // ms
}

// selfTimes sums each span name's duration and self time: its duration
// minus the part its child spans cover. Children of one span never overlap.
func (t *tracer) selfTimes() []layerTime {
	child := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*layerTime{}
	var out []*layerTime
	for _, s := range t.spans {
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{name: s.Name}
			by[s.Name] = lt
			out = append(out, lt)
		}
		lt.count++
		lt.total += s.End - s.Start
		lt.self += s.End - s.Start - child[s.ID]
	}
	res := make([]layerTime, len(out))
	for i, lt := range out {
		res[i] = *lt
	}
	sort.Slice(res, func(i, j int) bool { return res[i].self > res[j].self })
	return res
}

// replayStats are the per-layer counts of the replay.
type replayStats struct {
	instances                 int
	fitTasks                  int
	fitMs                     float64
	parametricMs, canonicalMs []float64
	minlpMs                   []float64
	nodeLPs, nodePivots       int64
	minlpSeconds              float64
	skipped                   int // misses left out when the budget ran out
}

// replay re-runs the answered misses of a run, in order and until budget is
// spent, through the layers hslbd calls for them: perfmodel.Fit with the
// server's options for sample-bearing tasks, the parametric solver and
// CanonicalAllocation, and, on routes that solve the MINLP, SolveMINLPContext
// with the server's SolverOptions. It runs after the timed traffic, so it
// cannot disturb it.
func replay(tr *tracer, outs []outcome, budget time.Duration) replayStats {
	var st replayStats
	var nodeLPs, nodePivots atomic.Int64
	countLP := func(_ *lp.Problem, sol *lp.Solution) {
		nodeLPs.Add(1)
		nodePivots.Add(int64(sol.Pivots))
	}
	stop := time.Now().Add(budget)
	ctx := context.Background()
	for i := range outs {
		o := &outs[i]
		if o.cache != "miss" || !o.ok() {
			continue
		}
		if time.Now().After(stop) {
			st.skipped++
			continue
		}
		st.instances++
		r := o.req
		root := tr.begin("replay "+r.path, 0, i)
		inst := *r.inst
		inst.params = append([]perfmodel.Params(nil), r.inst.params...)
		for t, ss := range inst.samples {
			if ss == nil {
				continue
			}
			sp := tr.begin("perfmodel.Fit", root, i)
			t0 := time.Now()
			res, err := perfmodel.Fit(ss, serverFit)
			st.fitMs += ms(time.Since(t0))
			tr.end(sp)
			st.fitTasks++
			if err == nil {
				inst.params[t] = res.Params
			}
		}
		p := problem(&inst, inst.budget)
		sp := tr.begin("core.SolveParametricContext", root, i)
		t0 := time.Now()
		a, err := p.SolveParametricContext(ctx)
		st.parametricMs = append(st.parametricMs, ms(time.Since(t0)))
		tr.end(sp)
		if err == nil {
			sp = tr.begin("core.CanonicalAllocation", root, i)
			t0 = time.Now()
			p.CanonicalAllocation(a)
			st.canonicalMs = append(st.canonicalMs, ms(time.Since(t0)))
			tr.end(sp)
		}
		if r.path != pathParametric {
			opts := core.SolverOptions{Deadline: r.deadline, Canonical: true, DebugLPCheck: countLP}
			sp = tr.begin("core.SolveMINLPContext", root, i)
			t0 = time.Now()
			// A deadline-bound solve may end without an incumbent; its time
			// and node LPs count all the same.
			_, _ = p.SolveMINLPContext(ctx, opts)
			d := time.Since(t0)
			tr.end(sp)
			st.minlpMs = append(st.minlpMs, ms(d))
			st.minlpSeconds += d.Seconds()
		}
		tr.end(root)
	}
	st.nodeLPs, st.nodePivots = nodeLPs.Load(), nodePivots.Load()
	return st
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// printSelfTimes prints the span table.
func printSelfTimes(w io.Writer, lts []layerTime) {
	fmt.Fprintf(w, "%-34s %7s %12s %12s %10s\n", "span", "count", "total_ms", "self_ms", "self_%")
	all := 0.0
	for _, lt := range lts {
		all += lt.self
	}
	for _, lt := range lts {
		fmt.Fprintf(w, "%-34s %7d %12.3f %12.3f %10.2f\n", lt.name, lt.count, lt.total, lt.self, 100*lt.self/all)
	}
}
