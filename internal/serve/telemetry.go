package serve

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"specsampling/internal/obs"
)

// Request telemetry: every route is wrapped by Server.instrument, which
// assigns the request a trace id (inbound X-Trace-Id honoured, one minted
// otherwise), records per-route latency/status metrics into pre-interned
// obs handles, and emits one structured access-log line per completed
// request. Handles are interned once at mux construction — the per-request
// hot path is a clock read, a histogram observe and a counter add, with no
// registry lookups and no map allocations.

// codeClasses are the status-code classes the per-route request counters
// are labelled with; bounded cardinality no matter what a handler returns.
var codeClasses = [...]string{"2xx", "3xx", "4xx", "5xx", "other"}

// classIndex maps a status code onto codeClasses.
func classIndex(status int) int {
	if status >= 200 && status < 600 {
		return status/100 - 2
	}
	return len(codeClasses) - 1
}

// routeStats is one route's pre-interned telemetry handles.
type routeStats struct {
	seconds *obs.Histogram
	byClass [len(codeClasses)]*obs.Counter
}

// newRouteStats interns the route's series. The registry names carry the
// Prometheus label suffix the exposition layer groups families by:
// serve.http.request_seconds{route="/v1/jobs",method="POST"} and
// serve.http.requests{route=...,method=...,code="2xx"}.
func newRouteStats(method, route string) *routeStats {
	labels := fmt.Sprintf("route=%q,method=%q", route, method)
	rs := &routeStats{
		seconds: obs.GetHistogram("serve.http.request_seconds{" + labels + "}"),
	}
	for i, class := range codeClasses {
		rs.byClass[i] = obs.GetCounter(fmt.Sprintf("serve.http.requests{%s,code=%q}", labels, class))
	}
	return rs
}

// observe records one completed request.
func (rs *routeStats) observe(status int, seconds float64) {
	rs.seconds.Observe(seconds)
	rs.byClass[classIndex(status)].Add(1)
}

// statusWriter captures the status code and body size a handler produced.
// Flush passes through so the events feed keeps streaming line by line.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Status returns the recorded code (200 when the handler never wrote one).
func (w *statusWriter) Status() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// traceCtxKey carries the request's trace id through the request context
// and from there onto the job it submits.
type traceCtxKey struct{}

// traceFrom extracts the request's trace id ("" when telemetry is off).
func traceFrom(ctx context.Context) string {
	id, _ := ctx.Value(traceCtxKey{}).(string)
	return id
}

// traceSeq de-duplicates minted trace ids if the system's entropy source
// ever fails; ids stay unique within the process either way.
var traceSeq atomic.Uint64

// newTraceID mints a 16-hex-digit request trace id.
func newTraceID() string {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return fmt.Sprintf("t%015x", traceSeq.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// validTraceID accepts inbound X-Trace-Id values: 1–64 characters of
// [0-9A-Za-z._-]. Anything else (notably header-injection attempts) is
// replaced with a minted id.
func validTraceID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// instrument wraps one route's handler with request telemetry. With
// telemetry disabled it returns the handler untouched — the PR-8 request
// path, no clock reads, no headers, no per-request work at all.
func (s *Server) instrument(method, route string, next http.HandlerFunc) http.HandlerFunc {
	if s.cfg.DisableTelemetry {
		return next
	}
	rs := newRouteStats(method, route)
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		tid := r.Header.Get("X-Trace-Id")
		if !validTraceID(tid) {
			tid = newTraceID()
		}
		w.Header().Set("X-Trace-Id", tid)
		sw := &statusWriter{ResponseWriter: w}
		next(sw, r.WithContext(context.WithValue(r.Context(), traceCtxKey{}, tid)))
		dur := time.Since(t0)
		rs.observe(sw.Status(), dur.Seconds())
		if s.access != nil {
			s.access.Log(obs.AccessRecord{
				Time:     t0,
				Method:   r.Method,
				Route:    route,
				Path:     r.URL.Path,
				Status:   sw.Status(),
				Bytes:    sw.bytes,
				Duration: dur,
				Client:   clientID(r),
				TraceID:  tid,
			})
		}
	}
}

// Self-monitoring gauges the collector samples via Server.probe.
var (
	inflightGauge = obs.GetGauge("serve.jobs.inflight")
	queuedGauge   = obs.GetGauge("serve.jobs.queued")
	clientsGauge  = obs.GetGauge("serve.clients.live")
	droppedGauge  = obs.GetGauge("serve.events.dropped")
)

// probe publishes the server's own health gauges: jobs by live state,
// clients with live jobs, and the total event-log lines dropped to
// overflow across all jobs (dashboards alert on this growing — it means a
// consumer is falling behind the eventBuffer).
func (s *Server) probe() {
	s.mu.Lock()
	defer s.mu.Unlock()
	var running, queued int64
	var dropped int64
	for _, id := range s.order {
		j := s.jobs[id]
		switch _, state := j.resultBytes(); state {
		case StateRunning:
			running++
		case StateQueued:
			queued++
		}
		dropped += int64(j.events.droppedCount())
	}
	inflightGauge.Set(running)
	queuedGauge.Set(queued)
	clientsGauge.Set(int64(len(s.perClient)))
	droppedGauge.Set(dropped)
}
