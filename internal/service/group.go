// Package service is the run-lifecycle subsystem behind the public
// asynchronous API: a run store with stable identities, content-hash
// deduplication and result caching, a bounded worker queue with
// backpressure, TTL eviction of finished runs, and graceful shutdown.
// cmd/dcserve exposes it over HTTP; the public Engine's blocking methods
// are thin wrappers over inline submissions to the same lifecycle.
//
// The package also provides Group, the synchronous cache/singleflight
// primitive generalized out of the experiment suite and the scenario
// engine: both now share one implementation of "concurrent callers asking
// for identical work share one execution".
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// Group deduplicates concurrent identical work and caches successful
// results by key; the scenario engine's per-run cell cache builds on it:
//
//   - a successful result is cached forever (the simulations here are
//     deterministic, so a key fully identifies its result);
//   - concurrent callers asking for the same key share one in-flight
//     execution instead of racing to repeat it;
//   - a waiter honors its own context while waiting instead of blocking
//     behind another caller's execution;
//   - if the executing caller abandons the run to cancellation while a
//     waiter's own context is still alive, the waiter retries and runs
//     the work itself, so one caller's cancelled context never poisons
//     another's result.
//
// The zero value is ready to use. All methods are safe for concurrent
// use.
type Group struct {
	mu       sync.Mutex
	results  map[string]any
	inflight map[string]*groupCall
}

type groupCall struct {
	done chan struct{}
	res  any
	err  error
}

// Do returns the cached result for key, joins an identical in-flight
// call, or executes fn on the calling goroutine. fn is responsible for
// honoring the caller's own context (it typically closes over it); the
// lock is held only around the map check/fill, never across fn.
func (g *Group) Do(ctx context.Context, key string, fn func() (any, error)) (any, error) {
	for {
		g.mu.Lock()
		if v, ok := g.results[key]; ok {
			g.mu.Unlock()
			return v, nil
		}
		if c, ok := g.inflight[key]; ok {
			g.mu.Unlock()
			select {
			case <-c.done:
			case <-ctx.Done():
				// Honor the waiter's own deadline instead of blocking
				// behind another caller's execution.
				return nil, fmt.Errorf("service: wait for %q: %w", key, ctx.Err())
			}
			if c.err != nil && context.Cause(ctx) == nil &&
				(errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded)) {
				continue // the other caller gave up; run it ourselves
			}
			return c.res, c.err
		}
		c := &groupCall{done: make(chan struct{})}
		if g.inflight == nil {
			g.inflight = make(map[string]*groupCall)
		}
		g.inflight[key] = c
		g.mu.Unlock()

		c.res, c.err = fn()

		g.mu.Lock()
		delete(g.inflight, key)
		if c.err == nil {
			if g.results == nil {
				g.results = make(map[string]any)
			}
			g.results[key] = c.res
		}
		g.mu.Unlock()
		close(c.done)
		return c.res, c.err
	}
}

// Cached reports whether key has a cached result.
func (g *Group) Cached(key string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	_, ok := g.results[key]
	return ok
}
