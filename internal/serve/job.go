package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"specsampling/internal/experiments"
	"specsampling/internal/selector"
	"specsampling/internal/store"
	"specsampling/internal/workload"
)

// JobRequest is the submit body of POST /v1/jobs: one experiment run,
// parameterised exactly like cmd/experiments, so a daemon job and a CLI run
// of the same configuration produce byte-identical reports.
type JobRequest struct {
	// Run is the experiment id (experiments.IDs()) or "all".
	Run string `json:"run"`
	// Scale is the workload scale name; empty means "medium".
	Scale string `json:"scale,omitempty"`
	// Benchmarks restricts the suite; empty means all 29.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Selector names the region-selection backend; empty means the default.
	Selector string `json:"selector,omitempty"`
	// Repeats is the shoot-out repeated-subsampling count; 0 means default.
	Repeats int `json:"repeats,omitempty"`
}

// decodeRequest parses a submit body: one JSON object with no unknown
// fields. validate checks what it holds.
func decodeRequest(body io.Reader) (JobRequest, error) {
	var req JobRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("serve: decode request: %w", err)
	}
	return req, nil
}

// validate resolves and checks every field, returning the normalized
// request (resolved scale and selector names, trimmed benchmark list) or a
// client-errored explanation. Validation happens at submit time so a bad
// configuration is a 400 with a hint, never a failed job.
func (r JobRequest) validate() (JobRequest, workload.Scale, error) {
	if r.Run == "" {
		r.Run = "all"
	}
	if !experiments.Known(r.Run) {
		return r, workload.Scale{}, fmt.Errorf("unknown run %q (want one of %v or all)", r.Run, experiments.IDs())
	}
	if r.Scale == "" {
		r.Scale = "medium"
	}
	scale, err := workload.ScaleByName(r.Scale)
	if err != nil {
		return r, workload.Scale{}, err
	}
	// The env override applies on the daemon host exactly as it does for
	// the CLIs; the resolved name is what the job echoes and keys on.
	scale = workload.ScaleFromEnv(scale)
	r.Scale = scale.Name
	if r.Selector == "" {
		r.Selector = selector.DefaultName
	}
	if _, err := selector.ByName(r.Selector); err != nil {
		return r, workload.Scale{}, fmt.Errorf("%v (GET /v1/selectors lists the registered backends)", err)
	}
	var benches []string
	for _, b := range r.Benchmarks {
		if b = strings.TrimSpace(b); b == "" {
			continue
		}
		if _, err := workload.ByName(b); err != nil {
			return r, workload.Scale{}, err
		}
		benches = append(benches, b)
	}
	r.Benchmarks = benches
	if r.Repeats < 0 {
		return r, workload.Scale{}, fmt.Errorf("negative repeats %d", r.Repeats)
	}
	return r, scale, nil
}

// key is the job's dedup identity: the store-key digest of every semantic
// knob (worker budgets are excluded — they change wall-clock, not bytes).
// Two clients submitting the same configuration land on the same digest and
// therefore the same computation, exactly when their pipeline artifacts
// would share cache entries.
func (r JobRequest) key() string {
	rep := experiments.Options{ShootoutRepeats: r.Repeats}.Normalize().ShootoutRepeats
	return store.Key{Kind: "servejob", Bench: "suite", Parts: []string{
		"run=" + r.Run,
		"scale=" + r.Scale,
		"bench=" + strings.Join(r.Benchmarks, ","),
		"selector=" + r.Selector,
		fmt.Sprintf("repeats=%d", rep),
	}}.Digest()
}

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Job is one submitted analysis: its request, lifecycle timestamps, the
// report bytes once done, and the live event stream.
type Job struct {
	id     string
	key    string
	req    JobRequest
	client string
	trace  string // trace id of the submitting request ("" without telemetry)
	events *eventLog

	mu       sync.Mutex
	state    string
	errMsg   string
	result   []byte
	created  time.Time
	started  time.Time
	finished time.Time
}

func newJob(id, key, client, trace string, req JobRequest) *Job {
	return &Job{
		id:      id,
		key:     key,
		req:     req,
		client:  client,
		trace:   trace,
		events:  newEventLog(eventBuffer),
		state:   StateQueued,
		created: time.Now(),
	}
}

func (j *Job) start() {
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
}

func (j *Job) finish(result []byte, err error) {
	j.mu.Lock()
	j.finished = time.Now()
	if err != nil {
		j.state = StateFailed
		j.errMsg = err.Error()
	} else {
		j.state = StateDone
		j.result = result
	}
	j.mu.Unlock()
	j.events.closeLog()
}

func (j *Job) failed() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state == StateFailed
}

// Status is the wire representation of a job (GET /v1/jobs/{id} and the
// submit response).
type Status struct {
	ID         string   `json:"id"`
	Key        string   `json:"key"`
	Trace      string   `json:"trace_id,omitempty"`
	State      string   `json:"state"`
	Dedup      bool     `json:"dedup,omitempty"`
	Run        string   `json:"run"`
	Scale      string   `json:"scale"`
	Selector   string   `json:"selector"`
	Benchmarks []string `json:"benchmarks,omitempty"`
	Created    string   `json:"created"`
	Started    string   `json:"started,omitempty"`
	Finished   string   `json:"finished,omitempty"`
	Error      string   `json:"error,omitempty"`
	ResultURL  string   `json:"result_url,omitempty"`
	EventsURL  string   `json:"events_url"`
}

func (j *Job) status(dedup bool) Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:         j.id,
		Key:        j.key,
		Trace:      j.trace,
		State:      j.state,
		Dedup:      dedup,
		Run:        j.req.Run,
		Scale:      j.req.Scale,
		Selector:   j.req.Selector,
		Benchmarks: j.req.Benchmarks,
		Created:    j.created.UTC().Format(time.RFC3339Nano),
		Error:      j.errMsg,
		EventsURL:  "/v1/jobs/" + j.id + "/events",
	}
	if !j.started.IsZero() {
		st.Started = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		st.Finished = j.finished.UTC().Format(time.RFC3339Nano)
	}
	if j.state == StateDone {
		st.ResultURL = "/v1/jobs/" + j.id + "/result"
	}
	return st
}

// resultBytes returns the report and whether the job has one yet.
func (j *Job) resultBytes() ([]byte, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.state
}

// ------------------------------------------------------------- event log --

// eventLog buffers a job's JSONL event stream and wakes streaming readers
// as lines arrive. It is the io.Writer under the job's streaming JSONL
// sink: Write accepts arbitrary chunks and splits them into complete lines,
// so readers always observe whole records no matter how the sink's flushes
// chunk the bytes. The buffer is bounded — a runaway job drops its oldest
// lines (counted, and reported on the stream) rather than growing without
// limit inside a long-lived daemon.
type eventLog struct {
	mu      sync.Mutex
	partial []byte
	lines   [][]byte
	base    int // index of lines[0] in the logical stream
	dropped int
	max     int
	closed  bool
	change  chan struct{} // closed and replaced on every append/close
}

// eventBuffer bounds each job's retained event lines.
const eventBuffer = 4096

func newEventLog(max int) *eventLog {
	return &eventLog{max: max, change: make(chan struct{})}
}

// Write implements io.Writer for the job's sink.
func (l *eventLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return len(p), nil // a straggling flush after finish is dropped
	}
	l.partial = append(l.partial, p...)
	changed := false
	for {
		i := indexByte(l.partial, '\n')
		if i < 0 {
			break
		}
		line := append([]byte(nil), l.partial[:i]...)
		l.partial = l.partial[i+1:]
		l.lines = append(l.lines, line)
		changed = true
		if len(l.lines) > l.max {
			over := len(l.lines) - l.max
			l.lines = l.lines[over:]
			l.base += over
			l.dropped += over
		}
	}
	if changed {
		l.wake()
	}
	return len(p), nil
}

func indexByte(b []byte, c byte) int {
	for i, x := range b {
		if x == c {
			return i
		}
	}
	return -1
}

// closeLog marks the stream complete and wakes every reader.
func (l *eventLog) closeLog() {
	l.mu.Lock()
	l.closed = true
	l.wake()
	l.mu.Unlock()
}

// wake must be called with mu held.
func (l *eventLog) wake() {
	close(l.change)
	l.change = make(chan struct{})
}

// droppedCount reports how many lines this log has shed to overflow; the
// self-monitoring probe sums it across jobs into serve.events.dropped.
func (l *eventLog) droppedCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// since returns the lines at logical indices >= from, the next index to
// read, whether the stream is complete, and a channel that is closed on the
// next change — captured under the same lock, so a reader that sees no new
// lines cannot miss the wakeup for lines that arrive after it returns.
func (l *eventLog) since(from int) (lines [][]byte, next int, dropped int, closed bool, change <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < l.base {
		dropped = l.base - from
		from = l.base
	}
	if off := from - l.base; off < len(l.lines) {
		lines = append([][]byte(nil), l.lines[off:]...)
	}
	return lines, l.base + len(l.lines), dropped, l.closed, l.change
}
