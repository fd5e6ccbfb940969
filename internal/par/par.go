// Package par is the shared bounded worker pool of the HSLB code base, with
// a determinism contract every caller relies on:
//
//   - Work items are identified by their submission index, and results are
//     merged in submission order. A parallel Map is therefore bit-identical
//     to the equivalent serial loop regardless of worker count or
//     scheduling.
//   - Work items must not share mutable state. Randomized items derive an
//     independent deterministic stream per index (SplitSeeds, following the
//     golden-ratio convention of the pipeline's per-task fit seeds) instead
//     of sharing one RNG.
//   - Panics inside items are captured and re-raised on the caller's
//     goroutine (the first panicking index wins), so `go test -race` and
//     fuzzing see ordinary stack traces instead of a crashed process.
//
// Every parallel hot path in the repository — multistart fitting
// (internal/nlp, internal/perfmodel) and the experiment sweeps
// (internal/experiments, cmd/fmobench) — goes through this package, so the
// race detector exercises one pool implementation rather than N ad-hoc
// goroutine patterns.
package par

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a parallelism knob to an actual worker count:
// n > 0 requests exactly n workers, n == 0 requests one per available CPU
// (GOMAXPROCS), and n < 0 forces serial execution (one worker).
func Workers(n int) int {
	switch {
	case n > 0:
		return n
	case n < 0:
		return 1
	default:
		return runtime.GOMAXPROCS(0)
	}
}

// capturedPanic wraps a recovered panic value so it can be re-raised on the
// caller's goroutine with the item index attached.
type capturedPanic struct {
	index int
	value interface{}
	stack []byte
}

func (c *capturedPanic) String() string {
	return fmt.Sprintf("par: item %d panicked: %v\n%s", c.index, c.value, c.stack)
}

// ForEach runs fn(i) for i in [0, n) on at most Workers(workers) goroutines
// and returns when all items finished. Items must only write state owned by
// their own index. When workers resolves to 1 (or n < 2), fn runs inline on
// the caller's goroutine in index order, making the serial path identical to
// a plain loop.
func ForEach(workers, n int, fn func(i int)) {
	forEach(context.Background(), workers, n, fn)
}

// ForEachCtx is ForEach with cooperative cancellation: once ctx is done, no
// further items are started (items already running complete normally, so fn
// never observes a torn-down environment) and ctx.Err() is returned. With a
// background or never-cancelled context the execution — including the serial
// inline path — is identical to ForEach, preserving the determinism
// contract.
func ForEachCtx(ctx context.Context, workers, n int, fn func(i int)) error {
	return forEach(ctx, workers, n, fn)
}

func forEach(ctx context.Context, workers, n int, fn func(i int)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return nil
	}
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		pmu   sync.Mutex
		first *capturedPanic
	)
	body := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				buf := make([]byte, 4096)
				buf = buf[:runtime.Stack(buf, false)]
				pmu.Lock()
				if first == nil || i < first.index {
					first = &capturedPanic{index: i, value: r, stack: buf}
				}
				pmu.Unlock()
			}
		}()
		fn(i)
	}
	done := ctx.Done()
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				body(i)
			}
		}()
	}
	wg.Wait()
	if first != nil {
		panic(first.String())
	}
	return ctx.Err()
}

// Map evaluates fn over [0, n) in parallel and returns the results in
// submission order: out[i] = fn(i). Deterministic for any worker count.
func Map[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(workers, n, func(i int) {
		out[i] = fn(i)
	})
	return out
}

// MapErr is Map for fallible items. All items run to completion; the error
// of the lowest failing index is returned (matching what a serial loop that
// stops at the first error would report), alongside the full result slice.
func MapErr[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	return MapErrCtx(context.Background(), workers, n, fn)
}

// MapErrCtx is MapErr with cooperative cancellation (see ForEachCtx). Item
// errors take precedence — the lowest failing index is reported, as in
// MapErr — and ctx.Err() is returned when the run was cut short with no item
// error. Indices skipped by cancellation keep their zero value in the result
// slice.
func MapErrCtx[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	cerr := forEach(ctx, workers, n, func(i int) {
		out[i], errs[i] = fn(i)
	})
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, cerr
}

// seedStep is the golden-ratio increment used throughout the repository to
// derive per-item seeds from a base seed (same constant as the pipeline's
// per-task fit seeds, so existing outputs are unchanged).
const seedStep = 0x9e3779b9

// SplitSeeds derives n deterministic, well-spread seeds from base:
// out[i] = base + i·0x9e3779b9. Parallel items seeded this way produce the
// same streams as the serial loop that splits the same way.
func SplitSeeds(base uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = base + uint64(i)*seedStep
	}
	return out
}
