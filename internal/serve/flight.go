package serve

import (
	"context"
	"sync"
)

// flightGroup collapses concurrent identical solves into one: the first
// request for a key becomes the leader and runs the solve, later arrivals
// (followers) wait for the leader's result. The leader's solve runs under a
// context that is cancelled only when every interested request has gone
// away, so one impatient client cannot kill a solve that others still want
// — and a fully abandoned solve does not burn CPU for nobody.
//
// The flight key includes the request deadline (unlike the cache key):
// requests asking for different time budgets are not "identical work" and
// must not share a bounded result.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done   chan struct{} // closed when sol/err are final
	cancel context.CancelFunc
	ctx    context.Context

	sol *canonSolution
	err error

	waiters int // requests (leader included) still interested
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[string]*flightCall)}
}

// join returns the in-flight call for key, registering the caller as a
// waiter, or creates one (leader=true) whose solve the caller must run and
// complete. base is the server's lifetime context; the call context is
// derived from it, never from a single request.
func (g *flightGroup) join(base context.Context, key string) (call *flightCall, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		c.waiters++
		return c, false
	}
	ctx, cancel := context.WithCancel(base)
	c := &flightCall{done: make(chan struct{}), ctx: ctx, cancel: cancel, waiters: 1}
	g.calls[key] = c
	return c, true
}

// leave deregisters one waiter. When the last waiter leaves an unfinished
// call, its solve context is cancelled and the call is removed so that a
// later request starts fresh instead of inheriting a dying solve.
func (g *flightGroup) leave(key string, c *flightCall) {
	g.mu.Lock()
	c.waiters--
	abandoned := c.waiters == 0
	if abandoned && g.calls[key] == c {
		delete(g.calls, key)
	}
	g.mu.Unlock()
	if abandoned {
		c.cancel()
	}
}

// complete publishes the leader's result and removes the call from the
// group (followers that already hold the pointer read the result through
// it; new requests for the key start a fresh call — important because the
// result may be non-cacheable).
func (g *flightGroup) complete(key string, c *flightCall, sol *canonSolution, err error) {
	g.mu.Lock()
	if g.calls[key] == c {
		delete(g.calls, key)
	}
	g.mu.Unlock()
	c.sol = sol
	c.err = err
	close(c.done)
	c.cancel()
}
