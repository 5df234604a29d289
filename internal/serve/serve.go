// Package serve is the sampling pipeline as a long-lived service: an HTTP
// API over the same experiments.Runner that cmd/experiments drives, with a
// bounded job queue in front and the persistent artifact store underneath.
//
// The contract is the CLI's, held under concurrency: a job's report bytes
// are byte-identical to `experiments -json` with the same configuration;
// identical configurations submitted by any number of clients collapse to
// one computation (dedup keys on the same digest machinery the store keys
// artifacts with); overload is shed with 503 + Retry-After instead of
// unbounded queueing; and SIGTERM drains in-flight jobs so every completed
// stage reaches the store before exit.
//
// Endpoints:
//
//	POST /v1/jobs               submit a JobRequest        → 202 / 200 dedup
//	GET  /v1/jobs               list jobs (newest first)
//	GET  /v1/jobs/{id}          job status
//	GET  /v1/jobs/{id}/result   final report JSON (409 until done)
//	GET  /v1/jobs/{id}/events   live JSONL progress stream
//	GET  /v1/selectors          registered region-selection backends
//	GET  /v1/stats              queue depth and per-state job counts
//	GET  /metrics               Prometheus text exposition
//	GET  /healthz               liveness (503 once draining)
//
// Every route carries request telemetry (see telemetry.go): a trace id per
// request, per-route latency histograms and status-class counters, and
// optional structured access logs. A background collector refreshes the
// runtime and daemon gauges that /metrics exposes.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"specsampling/internal/experiments"
	"specsampling/internal/obs"
	"specsampling/internal/sched"
	"specsampling/internal/selector"
	"specsampling/internal/store"
	"specsampling/internal/telemetry"
)

var (
	submitCounter = obs.GetCounter("serve.submit")
	dedupCounter  = obs.GetCounter("serve.dedup")
	rejectCounter = obs.GetCounter("serve.reject")
)

// maxBodyBytes bounds a submit body; a JobRequest is a few hundred bytes.
const maxBodyBytes = 1 << 20

// Config configures a Server. Zero values mean the documented defaults.
type Config struct {
	// Store is the persistent artifact cache every job runs against. It is
	// required: the daemon's whole point is serving many clients from one
	// warm cache.
	Store *store.Store
	// Workers bounds each job's internal pipeline fan-out (experiments
	// Options.Workers); <= 0 means GOMAXPROCS.
	Workers int
	// JobWorkers is the number of jobs executing concurrently (default 2).
	JobWorkers int
	// QueueDepth bounds the jobs waiting to run (default 64); submissions
	// beyond it are shed with 503.
	QueueDepth int
	// MaxPerClient bounds one client's live (queued or running) jobs
	// (default 16); submissions beyond it are shed with 503.
	MaxPerClient int
	// AccessLog, when non-nil, receives one structured line per completed
	// request. The sink is the caller's to close (after the HTTP server has
	// shut down); the Server only writes to it.
	AccessLog *obs.AccessSink
	// DisableTelemetry turns off request instrumentation, access logging
	// and the self-monitoring collector. /metrics stays mounted but its
	// request series and self-monitoring gauges stop advancing.
	DisableTelemetry bool
	// StatsInterval is the self-monitoring probe period (default 1s).
	StatsInterval time.Duration
}

func (c Config) normalize() Config {
	if c.JobWorkers <= 0 {
		c.JobWorkers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxPerClient <= 0 {
		c.MaxPerClient = 16
	}
	if c.StatsInterval <= 0 {
		c.StatsInterval = time.Second
	}
	return c
}

// Server owns the job table and the bounded execution queue.
type Server struct {
	cfg       Config
	queue     *sched.Queue
	access    *obs.AccessSink
	collector *telemetry.Collector
	started   time.Time

	closing   chan struct{}
	closeOnce sync.Once

	mu        sync.Mutex
	jobs      map[string]*Job // by id
	order     []string        // ids in submission order
	byKey     map[string]*Job // dedup index: config digest → live/done job
	perClient map[string]int  // live (queued+running) jobs per client
	seq       int
}

// New builds a Server. ctx is the runtime context every job executes under:
// cancelling it hard-aborts in-flight jobs (Drain is the graceful path).
// The caller mints ctx — conventionally in func main, per the repo's
// context-flow rule.
func New(ctx context.Context, cfg Config) (*Server, error) {
	cfg = cfg.normalize()
	if cfg.Store == nil {
		return nil, errors.New("serve: Config.Store is required")
	}
	s := &Server{
		cfg:       cfg,
		queue:     sched.NewQueue(ctx, cfg.JobWorkers, cfg.QueueDepth),
		started:   time.Now(),
		closing:   make(chan struct{}),
		jobs:      map[string]*Job{},
		byKey:     map[string]*Job{},
		perClient: map[string]int{},
	}
	if !cfg.DisableTelemetry {
		s.access = cfg.AccessLog
		s.collector = telemetry.NewCollector(cfg.StatsInterval,
			telemetry.RuntimeProbe, store.Probe, s.probe)
		s.collector.Start()
	}
	return s, nil
}

// Drain stops accepting work and blocks until every queued and running job
// has finished. Event streams are unblocked (they end cleanly), and every
// completed stage has reached the store by the time Drain returns. Safe to
// call more than once.
func (s *Server) Drain() {
	s.closeOnce.Do(func() { close(s.closing) })
	s.queue.Close()
	if s.collector != nil {
		s.collector.Close()
	}
}

// Handler returns the daemon's HTTP handler. Every route goes through
// instrument, which is the identity when telemetry is disabled; the route
// label is the mux pattern, so series cardinality is fixed at build time.
func (s *Server) Handler() http.Handler {
	metrics := telemetry.MetricsHandler()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.instrument("POST", "/v1/jobs", s.handleSubmit))
	mux.HandleFunc("GET /v1/jobs", s.instrument("GET", "/v1/jobs", s.handleList))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("GET", "/v1/jobs/{id}", s.handleStatus))
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.instrument("GET", "/v1/jobs/{id}/result", s.handleResult))
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.instrument("GET", "/v1/jobs/{id}/events", s.handleEvents))
	mux.HandleFunc("GET /v1/selectors", s.instrument("GET", "/v1/selectors", s.handleSelectors))
	mux.HandleFunc("GET /v1/stats", s.instrument("GET", "/v1/stats", s.handleStats))
	mux.HandleFunc("GET /metrics", s.instrument("GET", "/metrics", metrics.ServeHTTP))
	mux.HandleFunc("GET /healthz", s.instrument("GET", "/healthz", s.handleHealthz))
	return mux
}

// handleHealthz is the liveness probe. Once SIGTERM drain begins it flips
// to 503 with "draining": true, so load balancers stop routing new work to
// an instance that is finishing its queue.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := struct {
		Status   string  `json:"status"`
		Draining bool    `json:"draining"`
		UptimeS  float64 `json:"uptime_s"`
	}{Status: "ok", UptimeS: time.Since(s.started).Seconds()}
	select {
	case <-s.closing:
		body.Status = "draining"
		body.Draining = true
		writeJSON(w, http.StatusServiceUnavailable, body)
	default:
		writeJSON(w, http.StatusOK, body)
	}
}

// errorBody is every non-2xx response's JSON shape.
type errorBody struct {
	Error string `json:"error"`
	Hint  string `json:"hint,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the client went away; nothing useful to do
}

func writeError(w http.ResponseWriter, code int, err error, hint string) {
	writeJSON(w, code, errorBody{Error: err.Error(), Hint: hint})
}

// clientID identifies the submitter for admission accounting: the
// X-Client-ID header when present (so load balancers and test harnesses can
// be explicit), else the peer IP.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	select {
	case <-s.closing:
		rejectCounter.Add(1)
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, errors.New("serve: draining"), "the daemon is shutting down")
		return
	default:
	}
	var req JobRequest
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: decode request: %w", err),
			`body is JSON like {"run":"fig4","scale":"small","selector":"simpoint"}`)
		return
	}
	req, _, err := req.validate()
	if err != nil {
		writeError(w, http.StatusBadRequest, err, "")
		return
	}
	key := req.key()
	client := clientID(r)
	submitCounter.Add(1)

	s.mu.Lock()
	// Dedup: an identical configuration already queued, running or done is
	// the caller's job too. Failed jobs do not absorb resubmissions — a
	// retry gets a fresh attempt.
	if prior, ok := s.byKey[key]; ok && !prior.failed() {
		s.mu.Unlock()
		dedupCounter.Add(1)
		writeJSON(w, http.StatusOK, prior.status(true))
		return
	}
	if s.perClient[client] >= s.cfg.MaxPerClient {
		s.mu.Unlock()
		rejectCounter.Add(1)
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("serve: client %q has %d live jobs (limit %d)", client, s.cfg.MaxPerClient, s.cfg.MaxPerClient),
			"wait for a job to finish, or poll an existing job instead of resubmitting")
		return
	}
	s.seq++
	job := newJob(fmt.Sprintf("j%06d", s.seq), key, client, traceFrom(r.Context()), req)
	s.jobs[job.id] = job
	s.order = append(s.order, job.id)
	s.byKey[key] = job
	s.perClient[client]++
	s.mu.Unlock()

	if err := s.queue.Submit(func(ctx context.Context) { s.runJob(ctx, job) }); err != nil {
		s.rollbackSubmit(job)
		rejectCounter.Add(1)
		w.Header().Set("Retry-After", "5")
		hint := "the job queue is full; retry shortly"
		if errors.Is(err, sched.ErrQueueClosed) {
			hint = "the daemon is shutting down"
		}
		writeError(w, http.StatusServiceUnavailable, err, hint)
		return
	}
	writeJSON(w, http.StatusAccepted, job.status(false))
}

// rollbackSubmit undoes a job's registration after its queue submission was
// rejected. The registration lock was dropped before Submit, so concurrent
// submissions may have appended to order in the window: remove this job's
// own id, wherever it sits, never just the tail element.
func (s *Server) rollbackSubmit(job *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, job.id)
	for i := len(s.order) - 1; i >= 0; i-- {
		if s.order[i] == job.id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	if s.byKey[job.key] == job {
		delete(s.byKey, job.key)
	}
	s.release(job.client)
}

// release must be called with mu held.
func (s *Server) release(client string) {
	if s.perClient[client]--; s.perClient[client] <= 0 {
		delete(s.perClient, client)
	}
}

// runJob executes one job on a queue worker: the job's event log gets a
// streaming JSONL sink scoped onto the context, the runner executes exactly
// the cmd/experiments -json path, and the report bytes land on the job.
func (s *Server) runJob(ctx context.Context, j *Job) {
	j.start()
	result, err := s.compute(ctx, j)
	j.finish(result, err)
	s.mu.Lock()
	s.release(j.client)
	s.mu.Unlock()
}

func (s *Server) compute(ctx context.Context, j *Job) (_ []byte, err error) {
	sink := obs.NewStreamingJSONLSink(j.events)
	defer func() {
		if cerr := sink.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	ctx = obs.WithSink(ctx, sink)
	attrs := []obs.Attr{obs.String("id", j.id), obs.String("run", j.req.Run), obs.String("key", j.key)}
	if j.trace != "" {
		// The submitting request's trace id, so a line in the events feed is
		// attributable back to the access log and the X-Trace-Id a client saw.
		attrs = append(attrs, obs.String("trace", j.trace))
	}
	ctx, span := obs.Start(ctx, "serve.job", attrs...)
	defer span.End()

	_, scale, verr := j.req.validate() // re-resolve the Scale struct from the stored names
	if verr != nil {
		return nil, verr
	}
	runner, err := experiments.New(experiments.Options{
		Scale:           scale,
		Benchmarks:      j.req.Benchmarks,
		Workers:         s.cfg.Workers,
		Out:             io.Discard,
		Store:           s.cfg.Store,
		Selector:        j.req.Selector,
		ShootoutRepeats: j.req.Repeats,
	})
	if err != nil {
		return nil, err
	}
	report := experiments.NewReport()
	if err := runner.RunRecorded(ctx, j.req.Run, report); err != nil {
		return nil, err
	}
	// Mirror cmd/experiments -json exactly — same envelope, same encoder —
	// so the daemon's result bytes match the CLI's file for any config.
	var benchNames []string
	for _, spec := range runner.Benchmarks() {
		benchNames = append(benchNames, spec.Name)
	}
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf, scale.Name, benchNames); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (s *Server) job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]interface{}{"jobs": s.listStatuses()})
}

// listStatuses snapshots every job's status, newest first. Unlocking via
// defer keeps a panic inside the critical section from wedging the server:
// net/http recovers handler panics, but a mutex locked without defer would
// stay held forever.
func (s *Server) listStatuses() []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	statuses := make([]Status, 0, len(s.order))
	for i := len(s.order) - 1; i >= 0; i-- {
		statuses = append(statuses, s.jobs[s.order[i]].status(false))
	}
	return statuses
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown job %q", r.PathValue("id")), "GET /v1/jobs lists known jobs")
		return
	}
	writeJSON(w, http.StatusOK, j.status(false))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown job %q", r.PathValue("id")), "GET /v1/jobs lists known jobs")
		return
	}
	result, state := j.resultBytes()
	switch state {
	case StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(result)
	case StateFailed:
		writeJSON(w, http.StatusConflict, j.status(false))
	default:
		writeJSON(w, http.StatusConflict, j.status(false))
	}
}

// handleEvents streams the job's JSONL progress feed: everything buffered
// so far, then live lines as the pipeline emits them, ending when the job
// finishes, the client disconnects, or the daemon drains.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown job %q", r.PathValue("id")), "GET /v1/jobs lists known jobs")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	next := 0
	for {
		lines, n, dropped, closed, change := j.events.since(next)
		next = n
		if dropped > 0 {
			fmt.Fprintf(w, "{\"type\":\"gap\",\"dropped\":%d}\n", dropped)
		}
		for _, line := range lines {
			// line's backing array is shared with every other reader of this
			// log; appending the newline in place would be a write race.
			if _, err := w.Write(line); err != nil {
				return
			}
			if _, err := io.WriteString(w, "\n"); err != nil {
				return
			}
		}
		if (len(lines) > 0 || dropped > 0) && flusher != nil {
			flusher.Flush()
		}
		if closed {
			return
		}
		select {
		case <-change:
		case <-r.Context().Done():
			return
		case <-s.closing:
			// The drain path closes each job's log as it finishes; a job
			// that never runs (hard abort) would otherwise hold readers
			// forever.
			return
		}
	}
}

func (s *Server) handleSelectors(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"selectors": selector.Names(),
		"default":   selector.DefaultName,
	})
}

// StatsBody is the GET /v1/stats response.
type StatsBody struct {
	Jobs       map[string]int `json:"jobs"`
	QueueDepth int            `json:"queue_depth"`
	Clients    int            `json:"clients"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.stats())
}

// stats snapshots the queue and job-state counters; defer-unlocked for the
// same panic-safety reason as listStatuses.
func (s *Server) stats() StatsBody {
	s.mu.Lock()
	defer s.mu.Unlock()
	states := map[string]int{}
	for _, id := range s.order {
		_, st := s.jobs[id].resultBytes()
		states[st]++
	}
	return StatsBody{
		Jobs:       states,
		QueueDepth: s.queue.Depth(),
		Clients:    len(s.perClient),
	}
}
