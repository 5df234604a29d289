package telemetry

import (
	"bytes"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"specsampling/internal/obs"
)

// fakeSnap builds a registry-shaped snapshot without touching the global
// registry, so the exposition tests are hermetic.
func fakeSnap() []obs.MetricValue {
	bounds := obs.BucketBounds()
	buckets := make([]int64, len(bounds)+1)
	// 3 observations: two in the bucket for 0.3 (le 0.5), one overflow.
	for i, b := range bounds {
		if b >= 0.3 {
			buckets[i] = 2
			break
		}
	}
	buckets[len(buckets)-1] = 1
	return []obs.MetricValue{
		{Name: "serve.http.requests{route=\"/v1/jobs\",code=\"2xx\"}", Kind: "counter", Value: 7},
		{Name: "serve.http.requests{route=\"/healthz\",code=\"2xx\"}", Kind: "counter", Value: 2},
		{Name: "store.hit", Kind: "counter", Value: 41},
		{Name: "sched.queue.depth", Kind: "gauge", Value: 3},
		{Name: "serve.http.request_seconds{route=\"/v1/jobs\"}", Kind: "histogram",
			Count: 3, Sum: 100.6, Min: 0.3, Max: 100, Buckets: buckets},
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := WritePrometheus(&a, fakeSnap()); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&b, fakeSnap()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two expositions of the same snapshot differ")
	}
	out := a.String()

	// One # TYPE line per family, families sorted, dots mapped to
	// underscores.
	var typeLines []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			typeLines = append(typeLines, line)
		}
	}
	want := []string{
		"# TYPE sched_queue_depth gauge",
		"# TYPE serve_http_request_seconds histogram",
		"# TYPE serve_http_requests counter",
		"# TYPE store_hit counter",
	}
	if len(typeLines) != len(want) {
		t.Fatalf("TYPE lines = %v, want %v", typeLines, want)
	}
	for i := range want {
		if typeLines[i] != want[i] {
			t.Errorf("TYPE line %d = %q, want %q", i, typeLines[i], want[i])
		}
	}

	// Labelled series grouped under one family, sorted by label set.
	hIdx := strings.Index(out, `serve_http_requests{route="/healthz",code="2xx"} 2`)
	jIdx := strings.Index(out, `serve_http_requests{route="/v1/jobs",code="2xx"} 7`)
	if hIdx < 0 || jIdx < 0 || hIdx > jIdx {
		t.Errorf("labelled counter series missing or out of order (healthz@%d jobs@%d):\n%s", hIdx, jIdx, out)
	}

	// Histogram exposition: cumulative buckets, +Inf equals count, sum and
	// count present with the series labels.
	if !strings.Contains(out, `serve_http_request_seconds_bucket{route="/v1/jobs",le="0.5"} 2`) {
		t.Errorf("missing cumulative le=0.5 bucket:\n%s", out)
	}
	if !strings.Contains(out, `serve_http_request_seconds_bucket{route="/v1/jobs",le="+Inf"} 3`) {
		t.Errorf("missing +Inf bucket:\n%s", out)
	}
	if !strings.Contains(out, `serve_http_request_seconds_sum{route="/v1/jobs"} 100.6`) {
		t.Errorf("missing histogram sum:\n%s", out)
	}
	if !strings.Contains(out, `serve_http_request_seconds_count{route="/v1/jobs"} 3`) {
		t.Errorf("missing histogram count:\n%s", out)
	}
}

// TestExpositionParsesAndIsCoherent runs the same consistency checks the
// load smoke applies to live scrapes, against the hermetic snapshot.
func TestExpositionParsesAndIsCoherent(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, fakeSnap()); err != nil {
		t.Fatal(err)
	}
	if errs := CheckExposition(buf.String()); len(errs) > 0 {
		t.Fatalf("exposition incoherent: %v", errs)
	}
}

func TestSplitSeriesAndSanitize(t *testing.T) {
	cases := []struct{ in, fam, labels string }{
		{"store.hit", "store.hit", ""},
		{`serve.http.requests{route="/v1/jobs"}`, "serve.http.requests", `route="/v1/jobs"`},
		{"odd{unclosed", "odd{unclosed", ""},
	}
	for _, c := range cases {
		fam, labels := splitSeries(c.in)
		if fam != c.fam || labels != c.labels {
			t.Errorf("splitSeries(%q) = (%q, %q), want (%q, %q)", c.in, fam, labels, c.fam, c.labels)
		}
	}
	if got := sanitizeName("serve.http.request_seconds"); got != "serve_http_request_seconds" {
		t.Errorf("sanitizeName = %q", got)
	}
	if got := sanitizeName("9weird-name"); got != "_9weird_name" {
		t.Errorf("sanitizeName(9weird-name) = %q", got)
	}
}

// TestCollectorRunsProbes: Start runs every probe at once, the ticker runs
// them again every interval, and Close stops the loop for good.
func TestCollectorRunsProbes(t *testing.T) {
	var first, second atomic.Int64 // written by the collector goroutine, read here
	c := NewCollector(time.Millisecond,
		func() { first.Add(1) },
		func() { second.Add(1) })
	c.Start()
	if first.Load() < 1 || second.Load() < 1 {
		t.Fatalf("probes ran %d and %d times after Start, want >= 1 each", first.Load(), second.Load())
	}
	deadline := time.Now().Add(5 * time.Second)
	for first.Load() < 5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	c.Close()
	c.Close() // idempotent
	if n := first.Load(); n < 5 {
		t.Errorf("first probe ran %d times, want >= 5", n)
	}
	if first.Load() != second.Load() {
		t.Errorf("probes ran %d and %d times, want every tick to run both", first.Load(), second.Load())
	}
	stopped := first.Load()
	time.Sleep(5 * time.Millisecond)
	if n := first.Load(); n != stopped {
		t.Errorf("probe ran %d more times after Close", n-stopped)
	}
}

func TestRuntimeProbe(t *testing.T) {
	RuntimeProbe()
	got := map[string]int64{}
	for _, mv := range obs.Snapshot() {
		got[mv.Name] = mv.Value
	}
	if got["runtime.goroutines"] < 1 {
		t.Errorf("runtime.goroutines = %d, want >= 1", got["runtime.goroutines"])
	}
	if got["runtime.heap_alloc_bytes"] <= 0 {
		t.Errorf("runtime.heap_alloc_bytes = %d, want > 0", got["runtime.heap_alloc_bytes"])
	}
}
