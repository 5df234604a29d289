package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// collectSink records everything it receives, for assertions.
type collectSink struct {
	mu       sync.Mutex
	spans    []SpanData
	progress []ProgressEvent
	closed   bool
}

func (c *collectSink) SpanEnd(sd *SpanData) {
	c.mu.Lock()
	c.spans = append(c.spans, *sd)
	c.mu.Unlock()
}

func (c *collectSink) Progress(ev ProgressEvent) {
	c.mu.Lock()
	c.progress = append(c.progress, ev)
	c.mu.Unlock()
}

func (c *collectSink) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return nil
}

func withSink(t *testing.T) *collectSink {
	t.Helper()
	sink := &collectSink{}
	Enable(sink)
	t.Cleanup(func() { Disable() })
	return sink
}

func TestDisabledStartIsNoop(t *testing.T) {
	Disable()
	ctx, sp := Start(context.Background(), "root")
	if sp != nil {
		t.Fatal("disabled Start returned a live span")
	}
	if ctx != context.Background() {
		t.Fatal("disabled Start derived a new context")
	}
	// All nil-span methods must be safe.
	sp.Annotate(Int("k", 1))
	sp.End()
	ProgressCtx(context.Background(), "stage", 1, 2, "msg")
	HeaderfCtx(context.Background(), "header %d", 1)
}

func TestSpanTreeParentLinks(t *testing.T) {
	sink := withSink(t)

	ctx, root := Start(context.Background(), "analyze", String("bench", "505.mcf_r"))
	cctx, child := Start(ctx, "profile")
	_, grand := Start(cctx, "slice")
	grand.End()
	child.End()
	// A sibling under root, started after child ended.
	_, sib := Start(ctx, "cluster")
	sib.End()
	root.Annotate(Int("slices", 42))
	root.End()

	if len(sink.spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(sink.spans))
	}
	byName := map[string]SpanData{}
	for _, sd := range sink.spans {
		byName[sd.Name] = sd
	}
	if byName["analyze"].Parent != 0 {
		t.Errorf("root has parent %d", byName["analyze"].Parent)
	}
	for _, name := range []string{"profile", "cluster"} {
		if byName[name].Parent != byName["analyze"].ID {
			t.Errorf("%s parent = %d, want %d", name, byName[name].Parent, byName["analyze"].ID)
		}
	}
	if byName["slice"].Parent != byName["profile"].ID {
		t.Errorf("slice parent = %d, want %d", byName["slice"].Parent, byName["profile"].ID)
	}
	// Annotations must reach the sink.
	var found bool
	for _, a := range byName["analyze"].Attrs {
		if a.Key == "slices" {
			found = true
		}
	}
	if !found {
		t.Error("Annotate attribute lost")
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	sink := withSink(t)
	_, sp := Start(context.Background(), "once")
	sp.End()
	sp.End()
	if len(sink.spans) != 1 {
		t.Fatalf("double End delivered %d spans", len(sink.spans))
	}
}

func TestProgressAndHeader(t *testing.T) {
	sink := withSink(t)
	HeaderfCtx(context.Background(), "scale=%s workers=%d", "small", 4)
	ProgressCtx(context.Background(), "analyze", 2, 6, "505.mcf_r")
	if len(sink.progress) != 2 {
		t.Fatalf("got %d events, want 2", len(sink.progress))
	}
	if sink.progress[0].Stage != "run" || !strings.Contains(sink.progress[0].Msg, "scale=small") {
		t.Errorf("header event = %+v", sink.progress[0])
	}
	if ev := sink.progress[1]; ev.Done != 2 || ev.Total != 6 || ev.Stage != "analyze" {
		t.Errorf("progress event = %+v", ev)
	}
}

func TestCountersGaugesHistograms(t *testing.T) {
	ResetMetrics()
	c := GetCounter("test.counter")
	if c != GetCounter("test.counter") {
		t.Fatal("counter handle not interned")
	}
	c.Add(2)
	c.Add(3)
	GetGauge("test.gauge").Set(7)
	h := GetHistogram("test.hist")
	h.Observe(1)
	h.Observe(3)

	snap := Snapshot()
	byName := map[string]MetricValue{}
	for _, mv := range snap {
		byName[mv.Name] = mv
	}
	if v := byName["test.counter"]; v.Kind != "counter" || v.Value != 5 {
		t.Errorf("counter = %+v", v)
	}
	if v := byName["test.gauge"]; v.Kind != "gauge" || v.Value != 7 {
		t.Errorf("gauge = %+v", v)
	}
	if v := byName["test.hist"]; v.Kind != "histogram" || v.Count != 2 || v.Sum != 4 || v.Min != 1 || v.Max != 3 || v.Mean != 2 {
		t.Errorf("histogram = %+v", v)
	}

	ResetMetrics()
	if got := c.Value(); got != 0 {
		t.Errorf("counter after reset = %d", got)
	}
}

func TestMetricsConcurrent(t *testing.T) {
	ResetMetrics()
	c := GetCounter("test.concurrent")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(1)
				GetHistogram("test.concurrent.hist").Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
}

// TestJSONLSinkValidTree drives a realistic span tree through the JSONL
// sink and checks that every line parses and the id/parent links form a
// tree rooted at the top-level span.
func TestJSONLSinkValidTree(t *testing.T) {
	var buf bytes.Buffer
	Enable(NewJSONLSink(&buf))
	ctx, root := Start(context.Background(), "analyze", String("bench", "b"))
	_, p := Start(ctx, "profile")
	p.End()
	_, cl := Start(ctx, "cluster")
	cl.End()
	ProgressCtx(context.Background(), "analyze", 1, 1, "b")
	root.End()
	if err := Disable(); err != nil {
		t.Fatal(err)
	}

	type line struct {
		Type   string `json:"type"`
		ID     uint64 `json:"id"`
		Parent uint64 `json:"parent"`
		Name   string `json:"name"`
	}
	ids := map[uint64]bool{}
	var spans []line
	var sawProgress, sawMetrics bool
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", sc.Text(), err)
		}
		switch l.Type {
		case "span":
			spans = append(spans, l)
			ids[l.ID] = true
		case "progress":
			sawProgress = true
		case "metrics":
			sawMetrics = true
		}
	}
	if len(spans) != 3 {
		t.Fatalf("got %d span lines, want 3", len(spans))
	}
	for _, s := range spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("span %q parent %d not in trace", s.Name, s.Parent)
		}
	}
	if !sawProgress || !sawMetrics {
		t.Errorf("progress=%v metrics=%v lines missing", sawProgress, sawMetrics)
	}
}

func TestNarratorFormat(t *testing.T) {
	var buf bytes.Buffer
	n := NewNarrator(&buf)
	Enable(n)
	defer Disable()
	HeaderfCtx(context.Background(), "scale=small")
	ProgressCtx(context.Background(), "analyze", 3, 6, "505.mcf_r")
	out := buf.String()
	if !strings.Contains(out, "run scale=small") {
		t.Errorf("header line missing: %q", out)
	}
	if !strings.Contains(out, "analyze (3/6) 505.mcf_r") {
		t.Errorf("progress line missing: %q", out)
	}
}

func TestDisableClosesSinks(t *testing.T) {
	sink := &collectSink{}
	Enable(sink)
	if !Enabled() {
		t.Fatal("Enable did not enable")
	}
	if err := Disable(); err != nil {
		t.Fatal(err)
	}
	if Enabled() {
		t.Fatal("Disable left tracing on")
	}
	if !sink.closed {
		t.Fatal("Disable did not close the sink")
	}
	// Second Disable is a no-op.
	if err := Disable(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentSpans(t *testing.T) {
	sink := withSink(t)
	ctx, root := Start(context.Background(), "root")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, sp := Start(ctx, "child")
				sp.Annotate(Int("worker", w))
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	root.End()
	if len(sink.spans) != 8*50+1 {
		t.Fatalf("got %d spans, want %d", len(sink.spans), 8*50+1)
	}
	for _, sd := range sink.spans {
		if sd.Name == "child" && sd.Parent != sink.spans[len(sink.spans)-1].ID {
			// Root ends last, so it is the final span delivered.
			t.Fatalf("child parented to %d", sd.Parent)
		}
	}
}
