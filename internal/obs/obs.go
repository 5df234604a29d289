// Package obs is the reproduction's zero-dependency observability layer:
// hierarchical spans, monotonic counters/gauges/histograms and a progress
// event stream, all fanned out to pluggable sinks (a human-readable
// narrator, a JSONL trace writer, or anything implementing Sink).
//
// The layer is built around one invariant: when no sink is installed the
// instrumentation is near-free. Start performs a single atomic pointer load
// and returns a nil *Span whose methods are no-ops, so hot pipeline loops
// can stay instrumented unconditionally. Metric handles are plain atomics
// and are always live (they never allocate after registration), but every
// instrumentation point that needs a clock guards itself with Enabled().
//
// Instrumentation never participates in the pipeline's arithmetic: spans,
// counters and progress events observe the computation without touching RNG
// draws or floating-point accumulation order, so every reported number stays
// byte-identical for any worker count with tracing on or off.
package obs

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span or event.
type Attr struct {
	Key   string
	Value interface{}
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: v} }

// Uint64 builds an unsigned attribute.
func Uint64(k string, v uint64) Attr { return Attr{Key: k, Value: v} }

// Float builds a float attribute.
func Float(k string, v float64) Attr { return Attr{Key: k, Value: v} }

// SpanData is the immutable record of a finished span, as delivered to
// sinks. IDs are unique within one tracer; Parent is 0 for root spans.
type SpanData struct {
	ID     uint64
	Parent uint64
	Name   string
	Start  time.Time
	End    time.Time
	Attrs  []Attr
}

// Duration is the span's wall-clock length.
func (sd *SpanData) Duration() time.Duration { return sd.End.Sub(sd.Start) }

// ProgressEvent is one line of the live progress stream. Done/Total carry
// "k of n" completion when known (both zero otherwise). Stage "run" with
// Done == Total == 0 is the run header.
type ProgressEvent struct {
	Time  time.Time
	Stage string
	Done  int
	Total int
	Msg   string
}

// Sink receives observability events. Implementations must be safe for
// concurrent use; the pipeline emits from many goroutines.
type Sink interface {
	// SpanEnd delivers a finished span. The SpanData is owned by the sink
	// from this point (the tracer never mutates it afterwards).
	SpanEnd(sd *SpanData)
	// Progress delivers one progress event.
	Progress(ev ProgressEvent)
	// Close flushes and releases the sink. Called once, from Disable.
	Close() error
}

// tracer is the active collector: the process-global sink fan-out.
type tracer struct {
	sinks []Sink
}

// active is the whole enable/disable story: nil means disabled, and every
// instrumentation point pays exactly one atomic load to find out.
var active atomic.Pointer[tracer]

// spanIDs allocates span IDs for global and scoped tracing alike, so a
// span tree stays consistent when both are live.
var spanIDs atomic.Uint64

// scope carries job-local sinks through a context — the daemon's per-job
// event streams, where one process runs many pipelines concurrently and a
// single global sink would interleave them. Spans started and progress
// emitted under a scoped context are delivered to the scope's sinks in
// addition to the global tracer's (either may be absent).
type scope struct {
	sinks []Sink
}

type scopeCtxKey struct{}

// scopeUsed flips (stickily) the first time any scope is created. The
// disabled fast path in Start/ProgressCtx checks it before touching
// ctx.Value, so processes that never scope — every CLI — keep paying just
// atomic loads.
var scopeUsed atomic.Bool

// WithSink returns a context that delivers the observability stream of
// everything under it — finished spans and progress events — to the given
// sinks, in addition to any globally Enabled ones. Scopes nest: sinks
// accumulate. The caller owns the sinks' lifecycle (Close is never called
// by the library for scoped sinks).
func WithSink(ctx context.Context, sinks ...Sink) context.Context {
	if len(sinks) == 0 {
		return ctx
	}
	scopeUsed.Store(true)
	merged := sinks
	if prev := scopeFrom(ctx); prev != nil {
		merged = append(append([]Sink(nil), prev.sinks...), sinks...)
	}
	return context.WithValue(ctx, scopeCtxKey{}, &scope{sinks: merged})
}

// scopeFrom extracts the sink scope, nil when ctx carries none.
func scopeFrom(ctx context.Context) *scope {
	sc, _ := ctx.Value(scopeCtxKey{}).(*scope)
	return sc
}

// Enable installs the given sinks and turns tracing on. Passing no sinks is
// a no-op. Enable replaces (without closing) any previously active sinks;
// call Disable first when swapping mid-run.
func Enable(sinks ...Sink) {
	if len(sinks) == 0 {
		return
	}
	active.Store(&tracer{sinks: sinks})
}

// Disable turns tracing off and closes the active sinks. It returns the
// first close error. Safe to call when already disabled.
func Disable() error {
	t := active.Swap(nil)
	if t == nil {
		return nil
	}
	var first error
	for _, s := range t.sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Enabled reports whether a tracer is installed. Instrumentation that needs
// a clock (time.Now costs more than an atomic load) should guard on it.
func Enabled() bool { return active.Load() != nil }

// spanKey carries the current span ID through a context.
type spanKey struct{}

// Span is one in-flight region of work. A nil *Span (what Start returns
// when tracing is disabled) is valid: all methods are no-ops.
type Span struct {
	sinks []Sink
	mu    sync.Mutex
	sd    SpanData
}

// Start begins a span named name under the span carried by ctx (if any) and
// returns a derived context carrying the new span. When tracing is disabled
// and ctx carries no sink scope it returns ctx unchanged and a nil span —
// two atomic loads (the ctx.Value walk is skipped entirely in processes
// that never scope).
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	t := active.Load()
	var sc *scope
	if scopeUsed.Load() {
		sc = scopeFrom(ctx)
	}
	if t == nil && sc == nil {
		return ctx, nil
	}
	sp := &Span{sinks: combineSinks(t, sc)}
	sp.sd = SpanData{
		ID:    spanIDs.Add(1),
		Name:  name,
		Start: time.Now(),
		Attrs: attrs,
	}
	if parent, ok := ctx.Value(spanKey{}).(uint64); ok {
		sp.sd.Parent = parent
	}
	return context.WithValue(ctx, spanKey{}, sp.sd.ID), sp
}

// combineSinks merges the global tracer's sinks (if enabled) with a
// scope's (if present). At least one side is non-nil at every call site.
func combineSinks(t *tracer, sc *scope) []Sink {
	switch {
	case t == nil:
		return sc.sinks
	case sc == nil:
		return t.sinks
	default:
		return append(append([]Sink(nil), t.sinks...), sc.sinks...)
	}
}

// Annotate appends attributes to the span, to be reported at End.
func (s *Span) Annotate(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.sd.Attrs = append(s.sd.Attrs, attrs...)
	s.mu.Unlock()
}

// End finishes the span and delivers it to every sink. Safe on a nil span
// and idempotent (a second End is ignored).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.sd.End.IsZero() {
		s.mu.Unlock()
		return
	}
	s.sd.End = time.Now()
	sd := s.sd
	s.mu.Unlock()
	for _, sink := range s.sinks {
		sink.SpanEnd(&sd)
	}
}

// ProgressCtx emits one progress event. It reaches the globally Enabled
// sinks and any sinks scoped onto ctx with WithSink, so a daemon job's live
// feed sees the same stream a CLI run narrates. Cheap when nothing listens
// (atomic loads, no clock).
func ProgressCtx(ctx context.Context, stage string, done, total int, msg string) {
	t := active.Load()
	var sc *scope
	if scopeUsed.Load() {
		sc = scopeFrom(ctx)
	}
	if t == nil && sc == nil {
		return
	}
	ev := ProgressEvent{Time: time.Now(), Stage: stage, Done: done, Total: total, Msg: msg}
	deliverProgress(t, sc, ev)
}

// HeaderfCtx emits the run header — the one-line "what is this run" summary
// (scale, slice length, MaxK, workers, seed) sinks show before any work —
// to the same sinks as ProgressCtx.
func HeaderfCtx(ctx context.Context, format string, args ...interface{}) {
	t := active.Load()
	var sc *scope
	if scopeUsed.Load() {
		sc = scopeFrom(ctx)
	}
	if t == nil && sc == nil {
		return
	}
	ev := ProgressEvent{Time: time.Now(), Stage: "run", Msg: fmt.Sprintf(format, args...)}
	deliverProgress(t, sc, ev)
}

// deliverProgress fans one event out to the global and scoped sinks.
func deliverProgress(t *tracer, sc *scope, ev ProgressEvent) {
	if t != nil {
		for _, s := range t.sinks {
			s.Progress(ev)
		}
	}
	if sc != nil {
		for _, s := range sc.sinks {
			s.Progress(ev)
		}
	}
}
