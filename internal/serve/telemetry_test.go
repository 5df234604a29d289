package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"specsampling/internal/obs"
	"specsampling/internal/telemetry"
)

// scrapeMetrics fetches /metrics and sanity-checks the response envelope.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain exposition", ct)
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// seriesValue extracts one sample's value from an exposition; -1 when the
// series is absent.
func seriesValue(exposition, series string) float64 {
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				return -1
			}
			return v
		}
	}
	return -1
}

// TestHealthzDrainAware pins the load-balancer contract: 200 with uptime
// while serving, 503 + "draining": true once drain has begun.
func TestHealthzDrainAware(t *testing.T) {
	srv, hts := newTestServer(t, context.Background(), Config{})
	var body struct {
		Status   string  `json:"status"`
		Draining bool    `json:"draining"`
		UptimeS  float64 `json:"uptime_s"`
	}
	get := func() int {
		t.Helper()
		resp, err := http.Get(hts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode
	}
	if code := get(); code != http.StatusOK || body.Draining || body.Status != "ok" {
		t.Fatalf("healthz before drain = %d %+v, want 200 ok not draining", code, body)
	}
	if body.UptimeS < 0 {
		t.Errorf("uptime_s = %g, want >= 0", body.UptimeS)
	}
	srv.Drain()
	if code := get(); code != http.StatusServiceUnavailable || !body.Draining || body.Status != "draining" {
		t.Fatalf("healthz after drain = %d %+v, want 503 draining", code, body)
	}
	if body.UptimeS <= 0 {
		t.Errorf("uptime_s after drain = %g, want > 0", body.UptimeS)
	}
}

// TestTraceIDPropagation: a valid inbound X-Trace-Id is echoed on the
// response, lands in the job's status, and is stamped onto the job's span
// tree so events-feed records are attributable to the originating request.
func TestTraceIDPropagation(t *testing.T) {
	_, hts := newTestServer(t, context.Background(), Config{})

	req, err := http.NewRequest("POST", hts.URL+"/v1/jobs",
		strings.NewReader(`{"run":"tableI","scale":"small"}`))
	if err != nil {
		t.Fatal(err)
	}
	const trace = "trace-abc.123_X"
	req.Header.Set("X-Trace-Id", trace)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != trace {
		t.Errorf("response X-Trace-Id = %q, want %q echoed", got, trace)
	}
	var sub Status
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sub.Trace != trace {
		t.Errorf("submit status trace_id = %q, want %q", sub.Trace, trace)
	}
	if st := waitDone(t, hts.URL, sub.ID); st.State != StateDone {
		t.Fatalf("job ended %q: %s", st.State, st.Error)
	}

	// The serve.job span (first line of the events feed) carries the trace.
	er, err := http.Get(hts.URL + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer er.Body.Close()
	found := false
	sc := bufio.NewScanner(er.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if strings.Contains(sc.Text(), `"trace":"`+trace+`"`) {
			found = true
			break
		}
	}
	if !found {
		t.Error("no events-feed record carries the submit request's trace id")
	}
}

// TestTraceIDMinted: requests without a usable X-Trace-Id get a fresh
// 16-hex-digit id; header-injection attempts are not echoed back.
func TestTraceIDMinted(t *testing.T) {
	_, hts := newTestServer(t, context.Background(), Config{})
	hexID := regexp.MustCompile(`^[0-9a-f]{16}$`)
	for _, inbound := range []string{"", "bad id with spaces", strings.Repeat("x", 65)} {
		req, err := http.NewRequest("GET", hts.URL+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		if inbound != "" {
			req.Header.Set("X-Trace-Id", inbound)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := resp.Header.Get("X-Trace-Id"); !hexID.MatchString(got) {
			t.Errorf("inbound %q: response trace id %q, want minted 16-hex", inbound, got)
		}
	}
}

// TestMetricsEndpointAdvances scrapes before and after traffic and checks
// the per-route series moved and every scrape is internally coherent.
func TestMetricsEndpointAdvances(t *testing.T) {
	_, hts := newTestServer(t, context.Background(), Config{})
	before := scrapeMetrics(t, hts.URL)
	if errs := telemetry.CheckExposition(before); len(errs) > 0 {
		t.Fatalf("baseline scrape incoherent: %v", errs)
	}
	// The collector ran its probes at start-up, so the runtime and daemon
	// gauges are in the very first scrape.
	if v := seriesValue(before, "runtime_goroutines"); v < 1 {
		t.Errorf("runtime_goroutines = %g, want >= 1", v)
	}
	for _, g := range []string{"serve_jobs_inflight", "serve_events_dropped"} {
		if v := seriesValue(before, g); v < 0 {
			t.Errorf("%s missing from scrape", g)
		}
	}

	_, sub := postJob(t, hts.URL, "", JobRequest{Run: "tableI", Scale: "small"})
	waitDone(t, hts.URL, sub.ID)
	after := scrapeMetrics(t, hts.URL)
	if errs := telemetry.CheckExposition(after); len(errs) > 0 {
		t.Fatalf("post-traffic scrape incoherent: %v", errs)
	}

	const submitSeries = `serve_http_requests{route="/v1/jobs",method="POST",code="2xx"}`
	b, a := seriesValue(before, submitSeries), seriesValue(after, submitSeries)
	if a < b+1 || a < 1 {
		t.Errorf("%s: %g → %g, want to advance by >= 1", submitSeries, b, a)
	}
	const statusSeries = `serve_http_requests{route="/v1/jobs/{id}",method="GET",code="2xx"}`
	if v := seriesValue(after, statusSeries); v < 1 {
		t.Errorf("%s = %g, want >= 1 after polling", statusSeries, v)
	}
	// The latency histogram for the submit route exists with coherent
	// count, and job counters from the pipeline show up in the same scrape.
	const submitCount = `serve_http_request_seconds_count{route="/v1/jobs",method="POST"}`
	if v := seriesValue(after, submitCount); v < 1 {
		t.Errorf("%s = %g, want >= 1", submitCount, v)
	}
	if v := seriesValue(after, "serve_submit"); v < 1 {
		t.Errorf("serve_submit = %g, want >= 1", v)
	}
}

// TestAccessLogRecords: every completed request produces one parseable
// line with the route, status and trace id the client saw.
func TestAccessLogRecords(t *testing.T) {
	var logBuf syncBuffer
	sink := obs.NewAccessSink(&logBuf)
	_, hts := newTestServer(t, context.Background(), Config{AccessLog: sink})

	req, err := http.NewRequest("GET", hts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Trace-Id", "accesslog-test-1")
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	if resp, err := http.Get(hts.URL + "/v1/jobs/nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	type accessLine struct {
		Type   string `json:"type"`
		Route  string `json:"route"`
		Status int    `json:"status"`
		DurUs  int64  `json:"dur_us"`
		Trace  string `json:"trace"`
	}
	var lines []accessLine
	for _, raw := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var al accessLine
		if err := json.Unmarshal([]byte(raw), &al); err != nil {
			t.Fatalf("unparseable access line %q: %v", raw, err)
		}
		lines = append(lines, al)
	}
	if len(lines) != 2 {
		t.Fatalf("access lines = %d, want 2", len(lines))
	}
	if l := lines[0]; l.Type != "access" || l.Route != "/healthz" || l.Status != 200 || l.Trace != "accesslog-test-1" {
		t.Errorf("healthz access line = %+v", l)
	}
	if l := lines[1]; l.Route != "/v1/jobs/{id}" || l.Status != 404 {
		t.Errorf("404 access line = %+v, want route pattern and status 404", l)
	}
	for _, l := range lines {
		if l.DurUs < 0 {
			t.Errorf("negative duration in access line %+v", l)
		}
	}
}

// TestTelemetryDisabled: the opt-out restores the bare request path — no
// trace header, no collector.
func TestTelemetryDisabled(t *testing.T) {
	srv, hts := newTestServer(t, context.Background(), Config{DisableTelemetry: true})
	if srv.collector != nil {
		t.Error("collector running despite DisableTelemetry")
	}
	resp, err := http.Get(hts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != "" {
		t.Errorf("X-Trace-Id = %q with telemetry disabled, want none", got)
	}
	// /metrics stays mounted; only its request series stop advancing.
	scrapeMetrics(t, hts.URL)
}

// syncBuffer is a mutex-guarded bytes.Buffer: handlers log concurrently.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestTelemetryOverhead measures the cost of the instrument wrapper on a
// cheap route, enabled vs disabled; the numbers are recorded in
// EXPERIMENTS.md. Informational — it fails only if telemetry is
// catastrophically slow (>5x p50 on a sub-millisecond route).
func TestTelemetryOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead measurement skipped in -short")
	}
	measure := func(disable bool) (p50, p99 time.Duration) {
		t.Helper()
		_, hts := newTestServer(t, context.Background(), Config{DisableTelemetry: disable})
		client := hts.Client()
		const n = 2000
		lat := make([]time.Duration, 0, n)
		for i := 0; i < n; i++ {
			t0 := time.Now()
			resp, err := client.Get(hts.URL + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			lat = append(lat, time.Since(t0))
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat[n/2], lat[n*99/100]
	}
	offP50, offP99 := measure(true)
	onP50, onP99 := measure(false)
	t.Logf("telemetry overhead on /healthz (%d requests): disabled p50=%v p99=%v, enabled p50=%v p99=%v",
		2000, offP50, offP99, onP50, onP99)
	fmt.Printf("TELEMETRY_OVERHEAD disabled_p50=%v disabled_p99=%v enabled_p50=%v enabled_p99=%v\n",
		offP50, offP99, onP50, onP99)
	if onP50 > 5*offP50 && onP50-offP50 > time.Millisecond {
		t.Errorf("enabled p50 %v vs disabled %v: instrumentation too expensive", onP50, offP50)
	}
}
