// Package sched provides the suite-level scheduling primitives of the
// reproduction: a bounded parallel-for for fanning independent
// per-benchmark work across workers, and a generic singleflight group that
// deduplicates concurrent computations of the same cached value.
//
// Both primitives are designed so that callers stay deterministic: ForEach
// addresses results by index (the caller writes into pre-sized slots, so
// output order never depends on goroutine scheduling) and Group guarantees
// an expensive function runs at most once per key no matter how many
// figures request it concurrently.
//
// Both accept a context.Context. Cancellation drains the pool — no new
// index is dispatched once ctx is done, in-flight calls run to completion —
// and the outcome is deterministic: a cancelled ForEach always returns
// ctx.Err(), never a schedule-dependent partial failure, and an uncancelled
// one reports the failure with the lowest index exactly as before.
package sched

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"specsampling/internal/obs"
)

// Workers resolves a worker-count option: n when positive, otherwise
// GOMAXPROCS. This is the one place the repository's "<= 0 means all
// available parallelism" convention is implemented; every Workers field
// (core.Config, experiments.Options, kmeans.Config) resolves through it.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Scheduler metrics: task counts and queue-wait vs run time, observed only
// when a tracer is installed (the histograms need a clock).
var (
	taskCounter = obs.GetCounter("sched.tasks")
	taskWait    = obs.GetHistogram("sched.task_wait_seconds")
	taskRun     = obs.GetHistogram("sched.task_run_seconds")
	groupHits   = obs.GetCounter("sched.group.hits")
	groupMisses = obs.GetCounter("sched.group.misses")
)

// ForEach runs fn(i) for every i in [0, n) across at most workers
// goroutines (workers <= 0 uses GOMAXPROCS). fn must write its result into
// an index-addressed slot so that the outcome is independent of scheduling.
//
// All indices run even if some fail; the returned error is the failure with
// the lowest index, which makes the reported error deterministic regardless
// of goroutine interleaving. If ctx is cancelled, remaining indices are not
// started and ForEach returns ctx.Err().
func ForEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	return ForEachSharded(ctx, workers, n, func(_, i int) error { return fn(i) })
}

// ForEachSharded is ForEach for callers that keep per-worker scratch state:
// fn additionally receives the stable id of the worker goroutine running it,
// in [0, min(Workers(workers), n)). Two invocations with the same worker id
// never run concurrently, so fn may freely reuse a scratch structure (an
// executor, an engine, a buffer pool) indexed by that id without locking —
// the sharding pattern the parallel pinball replay is built on. Everything
// else (index-addressed results, lowest-index error, cancellation draining)
// matches ForEach.
func ForEachSharded(ctx context.Context, workers, n int, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	traced := obs.Enabled()
	var begin time.Time
	if traced {
		begin = time.Now()
		taskCounter.Add(int64(n))
	}
	run := func(w, i int) error {
		if !traced {
			return fn(w, i)
		}
		start := time.Now()
		taskWait.Observe(start.Sub(begin).Seconds())
		err := fn(w, i)
		taskRun.Observe(time.Since(start).Seconds())
		return err
	}

	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := run(0, i); err != nil && first == nil {
				first = err
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		return first
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = run(w, i)
			}
		}(w)
	}
	wg.Wait()
	// A cancelled run reports ctx.Err() unconditionally: which indices got
	// to run (and thus which fn errors exist) depends on scheduling, so the
	// per-index errors are not a deterministic signal once cancelled.
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// call is one in-flight or completed computation. abandoned marks a call
// whose computing caller was cancelled mid-fn: its result is that caller's
// private ctx.Err(), not a shared outcome, so waiters retry instead of
// inheriting it.
type call[V any] struct {
	done      chan struct{}
	val       V
	err       error
	abandoned bool
}

// Group is a per-key singleflight cache. The first caller of Do for a key
// computes the value while concurrent callers for the same key block and
// share the result; successful results are cached for the lifetime of the
// Group. Failed computations are not cached — a later Do retries — matching
// the retry semantics the experiment caches had when they were plain maps.
//
// The zero value is ready to use.
type Group[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*call[V]
}

// Do returns the value for key, computing it with fn if no successful or
// in-flight computation exists. fn is never invoked twice concurrently for
// the same key.
//
// ctx governs only this caller's wait: a waiter whose context is cancelled
// stops waiting and returns ctx.Err(), while the in-flight computation (and
// other waiters) proceed untouched. The computing caller itself checks ctx
// before starting; fn should capture ctx if the computation is to be
// cancellable mid-flight.
//
// Cancellation of the computing caller is private to it: when fn fails
// because that caller's ctx was cancelled, the failure is not published to
// waiters — one live waiter takes over the computation (the rest keep
// waiting on it) and the cancelled caller alone sees its ctx.Err(). Without
// this, one client disconnecting would poison every concurrent request for
// the same key with a "context canceled" that none of their contexts
// produced.
func (g *Group[K, V]) Do(ctx context.Context, key K, fn func() (V, error)) (V, error) {
	for {
		v, err, retry := g.do(ctx, key, fn)
		if !retry {
			return v, err
		}
	}
}

// do is one attempt: join an existing call or compute. retry reports that
// the joined call was abandoned by a cancelled computer and the caller
// should re-enter (taking over the computation if it gets there first).
func (g *Group[K, V]) do(ctx context.Context, key K, fn func() (V, error)) (v V, err error, retry bool) {
	var zero V
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[K]*call[V])
	}
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		groupHits.Add(1)
		// Completed results win over simultaneous cancellation, so a
		// cancelled-and-done race prefers the deterministic value.
		select {
		case <-c.done:
			return c.val, c.err, c.abandoned
		default:
		}
		select {
		case <-c.done:
			return c.val, c.err, c.abandoned
		case <-ctx.Done():
			return zero, ctx.Err(), false
		}
	}
	if err := ctx.Err(); err != nil {
		g.mu.Unlock()
		return zero, err, false
	}
	c := &call[V]{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()
	groupMisses.Add(1)

	c.val, c.err = fn()
	if c.err != nil {
		// Drop failed calls so a later caller can retry; waiters still
		// observe this call's error through the captured pointer — unless
		// the failure is this caller's own cancellation, which is marked
		// abandoned so waiters with live contexts retry instead.
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		if ctx.Err() != nil {
			c.abandoned = true
		}
	}
	close(c.done)
	return c.val, c.err, false
}

// Len reports how many successful results the group currently caches.
func (g *Group[K, V]) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, c := range g.calls {
		select {
		case <-c.done:
			n++
		default:
		}
	}
	return n
}
