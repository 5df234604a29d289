package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"testing"
)

// TestScopedSinksReceiveOnlyTheirJob: two scoped contexts in one process,
// no global tracer — each sink sees exactly its own job's spans and
// progress, the isolation the daemon's per-job event feeds rely on.
func TestScopedSinksReceiveOnlyTheirJob(t *testing.T) {
	if Enabled() {
		t.Skip("a global tracer is active")
	}
	a, b := &collectSink{}, &collectSink{}
	ctxA := WithSink(context.Background(), a)
	ctxB := WithSink(context.Background(), b)

	_, spA := Start(ctxA, "job-a.work")
	spA.End()
	ProgressCtx(ctxA, "analyze", 1, 2, "505.mcf_r")
	HeaderfCtx(ctxA, "scale=%s", "small")

	_, spB := Start(ctxB, "job-b.work")
	spB.End()
	ProgressCtx(ctxB, "analyze", 2, 2, "541.leela_r")

	if len(a.spans) != 1 || a.spans[0].Name != "job-a.work" {
		t.Errorf("sink A spans = %v, want [job-a.work]", a.spans)
	}
	if len(b.spans) != 1 || b.spans[0].Name != "job-b.work" {
		t.Errorf("sink B spans = %v, want [job-b.work]", b.spans)
	}
	if len(a.progress) != 2 || a.progress[0].Msg != "505.mcf_r" || a.progress[1].Stage != "run" {
		t.Errorf("sink A events = %+v, want its progress + header", a.progress)
	}
	if len(b.progress) != 1 || b.progress[0].Msg != "541.leela_r" {
		t.Errorf("sink B events = %+v, want its single progress event", b.progress)
	}
}

// TestScopedAndGlobalSinksBothDeliver: a scoped span also reaches the
// global tracer, so a daemon-wide -trace still captures everything.
func TestScopedAndGlobalSinksBothDeliver(t *testing.T) {
	global, scoped := &collectSink{}, &collectSink{}
	Enable(global)
	defer func() {
		if err := Disable(); err != nil {
			t.Fatal(err)
		}
	}()

	ctx := WithSink(context.Background(), scoped)
	_, sp := Start(ctx, "shared.work")
	sp.End()
	ProgressCtx(ctx, "stage", 0, 0, "msg")
	// An unscoped emission reaches only the global sink.
	ProgressCtx(context.Background(), "global-only", 0, 0, "msg")

	if len(global.spans) != 1 || len(global.progress) != 2 {
		t.Errorf("global sink saw %d spans / %d events, want 1 / 2", len(global.spans), len(global.progress))
	}
	if len(scoped.spans) != 1 || len(scoped.progress) != 1 {
		t.Errorf("scoped sink saw %d spans / %d events, want 1 / 1", len(scoped.spans), len(scoped.progress))
	}
}

// TestWithSinkNests: sinks accumulate through nested scopes.
func TestWithSinkNests(t *testing.T) {
	outer, inner := &collectSink{}, &collectSink{}
	ctx := WithSink(context.Background(), outer)
	ctx = WithSink(ctx, inner)
	ProgressCtx(ctx, "stage", 0, 0, "msg")
	if len(outer.progress) != 1 || len(inner.progress) != 1 {
		t.Errorf("outer %d / inner %d events, want 1 / 1", len(outer.progress), len(inner.progress))
	}
}

// chunkRecorder records every Write chunk it receives, to prove torn lines
// would be visible if they happened.
type chunkRecorder struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *chunkRecorder) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Write(p)
}

// TestJSONLSinkConcurrentJobsDoNotTearLines is the regression test for the
// daemon-concurrency wart: many jobs hammering one JSONL sink (spans,
// progress, and a racing Close) must produce a byte stream in which every
// line parses as a standalone JSON object. Run under -race, it also pins
// the sink's internal synchronization.
func TestJSONLSinkConcurrentJobsDoNotTearLines(t *testing.T) {
	rec := &chunkRecorder{}
	sink := NewStreamingJSONLSink(rec)

	const jobs, perJob = 16, 200
	var wg sync.WaitGroup
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			for i := 0; i < perJob; i++ {
				sink.Progress(ProgressEvent{
					Stage: fmt.Sprintf("job-%02d", j),
					Done:  i, Total: perJob,
					Msg: "a message long enough to span buffer boundaries when interleaved",
				})
				sink.SpanEnd(&SpanData{ID: uint64(j*perJob + i + 1), Name: "work"})
			}
		}(j)
	}
	wg.Wait()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	sc := bufio.NewScanner(&rec.buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := 0
	for sc.Scan() {
		var v map[string]interface{}
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			t.Fatalf("torn JSONL line %d: %v: %q", lines+1, err, sc.Text())
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if want := jobs * perJob * 2; lines != want {
		t.Fatalf("got %d intact lines, want %d", lines, want)
	}
}

// TestStreamingSinkFlushesPerRecord: a reader polling the underlying
// writer sees each record without waiting for Close.
func TestStreamingSinkFlushesPerRecord(t *testing.T) {
	var buf bytes.Buffer
	sink := NewStreamingJSONLSink(&buf)
	sink.Progress(ProgressEvent{Stage: "analyze", Done: 1, Total: 2})
	if buf.Len() == 0 {
		t.Fatal("record not flushed before Close")
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	// No process-wide metrics record lands in a per-job stream.
	if bytes.Contains(buf.Bytes(), []byte(`"type":"metrics"`)) {
		t.Error("streaming sink appended the global metrics snapshot")
	}
}

// TestBufferedSinkStillBatches: the classic whole-run sink keeps its
// batching (nothing reaches the writer before Close) and its final
// metrics record.
func TestBufferedSinkStillBatches(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(nopCloser{&buf})
	sink.Progress(ProgressEvent{Stage: "analyze"})
	if buf.Len() != 0 {
		t.Error("buffered sink flushed before Close")
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"type":"metrics"`)) {
		t.Error("whole-run sink missing the final metrics record")
	}
}

type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }
