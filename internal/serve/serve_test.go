package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"specsampling/internal/experiments"
	"specsampling/internal/store"
	"specsampling/internal/workload"
)

// newTestServer builds a Server over a fresh store plus an httptest front.
func newTestServer(t *testing.T, ctx context.Context, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Store == nil {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = st
	}
	srv, err := New(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(srv.Handler())
	t.Cleanup(hts.Close)
	t.Cleanup(srv.Drain)
	return srv, hts
}

func postJob(t *testing.T, base, client string, req JobRequest) (*http.Response, Status) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest("POST", base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if client != "" {
		hr.Header.Set("X-Client-ID", client)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return resp, st
}

// waitDone polls the job until it reaches a terminal state. The deadline is
// sized for the slowest caller — the load smoke's full-suite warm job under
// -race, which alone takes ~2 minutes on a modest container.
func waitDone(t *testing.T, base, id string) Status {
	t.Helper()
	deadline := time.Now().Add(5 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return Status{}
}

func TestSubmitValidation(t *testing.T) {
	_, hts := newTestServer(t, context.Background(), Config{})
	cases := []struct {
		name string
		body string
		want string // substring of the error
	}{
		{"bad run", `{"run":"fig99"}`, "unknown run"},
		{"bad scale", `{"run":"tableI","scale":"huge"}`, "unknown scale"},
		{"bad selector", `{"run":"tableI","selector":"nope"}`, "/v1/selectors"},
		{"bad bench", `{"run":"tableI","benchmarks":["999.zork_r"]}`, "999.zork_r"},
		{"negative repeats", `{"run":"tableI","repeats":-3}`, "negative repeats"},
		{"unknown field", `{"run":"tableI","turbo":true}`, "turbo"},
		{"not json", `run=tableI`, "decode request"},
	}
	for _, tc := range cases {
		resp, err := http.Post(hts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		blob, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", tc.name, resp.StatusCode, blob)
			continue
		}
		if !bytes.Contains(blob, []byte(tc.want)) {
			t.Errorf("%s: body %s does not mention %q", tc.name, blob, tc.want)
		}
	}
}

// TestResultByteIdenticalToCLI is the daemon's core contract: the report a
// job serves is byte-for-byte the file `experiments -json` writes for the
// same configuration.
func TestResultByteIdenticalToCLI(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, hts := newTestServer(t, context.Background(), Config{Store: st})

	req := JobRequest{Run: "tableII", Scale: "small", Benchmarks: []string{"505.mcf_r", "541.leela_r"}}
	resp, sub := postJob(t, hts.URL, "", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	final := waitDone(t, hts.URL, sub.ID)
	if final.State != StateDone {
		t.Fatalf("job state = %s (%s), want done", final.State, final.Error)
	}
	rr, err := http.Get(hts.URL + "/v1/jobs/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(rr.Body)
	rr.Body.Close()
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d: %s", rr.StatusCode, got)
	}

	// The reference run goes through the exact cmd/experiments -json path.
	scale, err := workload.ScaleByName(req.Scale)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := experiments.New(experiments.Options{
		Scale:      scale,
		Benchmarks: req.Benchmarks,
		Out:        io.Discard,
		Store:      st,
	})
	if err != nil {
		t.Fatal(err)
	}
	report := experiments.NewReport()
	if err := runner.RunRecorded(context.Background(), req.Run, report); err != nil {
		t.Fatal(err)
	}
	var benchNames []string
	for _, s := range runner.Benchmarks() {
		benchNames = append(benchNames, s.Name)
	}
	var want bytes.Buffer
	if err := report.WriteJSON(&want, "small", benchNames); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("daemon result differs from CLI bytes:\ndaemon: %d bytes\ncli:    %d bytes", len(got), want.Len())
	}
}

// TestDedupIdenticalConfigs: identical submissions collapse to one job —
// across clients — while a distinct configuration gets its own.
func TestDedupIdenticalConfigs(t *testing.T) {
	_, hts := newTestServer(t, context.Background(), Config{})
	req := JobRequest{Run: "tableI", Scale: "small"}

	r1, s1 := postJob(t, hts.URL, "alice", req)
	if r1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", r1.StatusCode)
	}
	r2, s2 := postJob(t, hts.URL, "bob", req)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("dup submit = %d, want 200", r2.StatusCode)
	}
	if s2.ID != s1.ID || !s2.Dedup {
		t.Errorf("dup submit id=%s dedup=%v, want id=%s dedup=true", s2.ID, s2.Dedup, s1.ID)
	}
	r3, s3 := postJob(t, hts.URL, "alice", JobRequest{Run: "tableIII", Scale: "small"})
	if r3.StatusCode != http.StatusAccepted || s3.ID == s1.ID {
		t.Errorf("distinct submit = %d id=%s, want 202 and a fresh id", r3.StatusCode, s3.ID)
	}
	waitDone(t, hts.URL, s1.ID)
	waitDone(t, hts.URL, s3.ID)
	// A dup after completion still resolves to the finished job.
	r4, s4 := postJob(t, hts.URL, "carol", req)
	if r4.StatusCode != http.StatusOK || s4.ID != s1.ID || s4.State != StateDone {
		t.Errorf("post-completion dup = %d id=%s state=%s, want 200 %s done", r4.StatusCode, s4.ID, s4.State, s1.ID)
	}
}

// TestAdmissionAndLoadShedding pins the two 503 paths deterministically by
// parking the queue's only worker on a blocked job.
func TestAdmissionAndLoadShedding(t *testing.T) {
	srv, hts := newTestServer(t, context.Background(), Config{
		JobWorkers: 1, QueueDepth: 8, MaxPerClient: 2,
	})
	block := make(chan struct{})
	defer func() {
		select {
		case <-block:
		default:
			close(block)
		}
	}()
	// Park the worker so queued jobs stay queued.
	if err := srv.queue.Submit(func(context.Context) { <-block }); err != nil {
		t.Fatal(err)
	}

	sub := func(client, run string) (*http.Response, Status) {
		return postJob(t, hts.URL, client, JobRequest{Run: run, Scale: "small"})
	}
	r1, s1 := sub("alice", "tableI")
	r2, _ := sub("alice", "tableIII")
	if r1.StatusCode != http.StatusAccepted || r2.StatusCode != http.StatusAccepted {
		t.Fatalf("alice's first two jobs = %d, %d, want 202", r1.StatusCode, r2.StatusCode)
	}
	// Third live job for the same client: per-client admission says no.
	r3, _ := sub("alice", "fig4")
	if r3.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("alice's third job = %d, want 503", r3.StatusCode)
	}
	if ra := r3.Header.Get("Retry-After"); ra == "" {
		t.Error("per-client 503 missing Retry-After")
	}
	// Another client is still welcome: the limit is per client, not global.
	r4, _ := sub("bob", "fig4")
	if r4.StatusCode != http.StatusAccepted {
		t.Fatalf("bob's job = %d, want 202", r4.StatusCode)
	}
	// Fill the rest of the queue directly, then overflow it.
	for srv.queue.Depth() < 8 {
		if err := srv.queue.Submit(func(context.Context) {}); err != nil {
			t.Fatal(err)
		}
	}
	r5, _ := sub("carol", "fig5")
	if r5.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit = %d, want 503", r5.StatusCode)
	}
	// The rejected job left no trace: its registration was rolled back.
	resp, err := http.Get(hts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct{ Jobs []Status }
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 3 {
		t.Errorf("job list has %d entries, want 3 (carol's rollback)", len(list.Jobs))
	}

	close(block)
	waitDone(t, hts.URL, s1.ID)
}

// TestEventsStreamDeliversJobProgress: the events feed carries the job's
// own pipeline progress as parseable JSONL and terminates when the job does.
func TestEventsStreamDeliversJobProgress(t *testing.T) {
	_, hts := newTestServer(t, context.Background(), Config{})
	resp, sub := postJob(t, hts.URL, "", JobRequest{Run: "tableII", Scale: "small", Benchmarks: []string{"505.mcf_r"}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	es, err := http.Get(hts.URL + sub.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer es.Body.Close()
	if ct := es.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events Content-Type = %q", ct)
	}
	var sawHeader, sawAnalyze, sawSpan bool
	sc := bufio.NewScanner(es.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := 0
	for sc.Scan() {
		lines++
		var ev struct {
			Type  string `json:"type"`
			Stage string `json:"stage"`
			Name  string `json:"name"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("unparseable event line %d: %v: %q", lines, err, sc.Text())
		}
		switch {
		case ev.Type == "progress" && ev.Stage == "run":
			sawHeader = true
		case ev.Type == "progress" && ev.Stage == "analyze":
			sawAnalyze = true
		case ev.Type == "span":
			sawSpan = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawHeader || !sawAnalyze || !sawSpan {
		t.Errorf("stream (%d lines) header=%v analyze=%v span=%v, want all true", lines, sawHeader, sawAnalyze, sawSpan)
	}
	if st := waitDone(t, hts.URL, sub.ID); st.State != StateDone {
		t.Fatalf("job failed: %s", st.Error)
	}
}

// TestResultBeforeDone: asking for a result too early is a 409 carrying the
// job's current status, not an error or a hang.
func TestResultBeforeDone(t *testing.T) {
	srv, hts := newTestServer(t, context.Background(), Config{JobWorkers: 1})
	block := make(chan struct{})
	defer close(block)
	if err := srv.queue.Submit(func(context.Context) { <-block }); err != nil {
		t.Fatal(err)
	}
	_, sub := postJob(t, hts.URL, "", JobRequest{Run: "tableI", Scale: "small"})
	resp, err := http.Get(hts.URL + "/v1/jobs/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("early result = %d, want 409", resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued {
		t.Errorf("early result state = %s, want queued", st.State)
	}
}

func TestUnknownJobIs404(t *testing.T) {
	_, hts := newTestServer(t, context.Background(), Config{})
	for _, path := range []string{"/v1/jobs/j999999", "/v1/jobs/j999999/result", "/v1/jobs/j999999/events"} {
		resp, err := http.Get(hts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestDrain: a drained server finishes accepted work, then sheds
// everything new with 503.
func TestDrain(t *testing.T) {
	srv, hts := newTestServer(t, context.Background(), Config{})
	resp, sub := postJob(t, hts.URL, "", JobRequest{Run: "tableI", Scale: "small"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	srv.Drain() // blocks until the accepted job has finished

	st := waitDone(t, hts.URL, sub.ID)
	if st.State != StateDone {
		t.Fatalf("drained job state = %s, want done", st.State)
	}
	rr, err := http.Get(hts.URL + "/v1/jobs/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusOK {
		t.Errorf("result after drain = %d, want 200", rr.StatusCode)
	}
	post, _ := postJob(t, hts.URL, "", JobRequest{Run: "tableIII", Scale: "small"})
	if post.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit after drain = %d, want 503", post.StatusCode)
	}
	srv.Drain() // idempotent
}

func TestSelectorsAndStatsEndpoints(t *testing.T) {
	_, hts := newTestServer(t, context.Background(), Config{})
	resp, err := http.Get(hts.URL + "/v1/selectors")
	if err != nil {
		t.Fatal(err)
	}
	var sels struct {
		Selectors []string `json:"selectors"`
		Default   string   `json:"default"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sels); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(sels.Selectors) == 0 || sels.Default == "" {
		t.Errorf("selectors = %+v, want a non-empty registry with a default", sels)
	}

	_, sub := postJob(t, hts.URL, "", JobRequest{Run: "tableI", Scale: "small"})
	waitDone(t, hts.URL, sub.ID)
	sr, err := http.Get(hts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsBody
	if err := json.NewDecoder(sr.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if stats.Jobs[StateDone] != 1 {
		t.Errorf("stats = %+v, want one done job", stats)
	}
}

// TestEventLogBoundsAndGap: a reader behind a bounded, overflowing log gets
// an explicit gap record instead of silently missing lines.
func TestEventLogBounds(t *testing.T) {
	l := newEventLog(4)
	for i := 0; i < 10; i++ {
		fmt.Fprintf(l, "{\"n\":%d}\n", i)
	}
	lines, next, dropped, closed, _ := l.since(0)
	if dropped != 6 || len(lines) != 4 || closed {
		t.Fatalf("since(0) = %d lines, %d dropped, closed=%v; want 4, 6, false", len(lines), dropped, closed)
	}
	if got := string(lines[0]); got != `{"n":6}` {
		t.Errorf("first surviving line = %s, want {\"n\":6}", got)
	}
	if next != 10 {
		t.Errorf("next = %d, want 10", next)
	}
	// A partial write only becomes visible once its newline arrives.
	io.WriteString(l, `{"n":10`)
	if _, n, _, _, _ := l.since(next); n != 10 {
		t.Error("partial line leaked into the log")
	}
	io.WriteString(l, "}\n")
	lines, next, _, _, _ = l.since(next)
	if len(lines) != 1 || string(lines[0]) != `{"n":10}` {
		t.Errorf("reassembled line = %q", lines)
	}
	l.closeLog()
	if _, _, _, closed, _ := l.since(next); !closed {
		t.Error("log not closed")
	}
}

// TestRollbackSplicesOwnID: regression for the submit-failure rollback
// truncating whatever id happened to be last in the submission order. The
// lock is dropped between registration and the queue push, so a concurrent
// submit can append another id in that window; a rejected job must splice
// out its own id, or the survivor's id stays in order pointing at a deleted
// job and every list/stats request panics on the nil entry.
func TestRollbackSplicesOwnID(t *testing.T) {
	srv, hts := newTestServer(t, context.Background(), Config{})
	reqA, _, err := JobRequest{Run: "tableI", Scale: "small"}.validate()
	if err != nil {
		t.Fatal(err)
	}
	reqB, _, err := JobRequest{Run: "fig4", Scale: "small"}.validate()
	if err != nil {
		t.Fatal(err)
	}
	// Register A then B exactly as handleSubmit does, then roll A back —
	// the interleaving where B's registration landed inside A's window.
	register := func(req JobRequest, client string) *Job {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		j := newJob(srv.nextID(), req.key(), client, "", req)
		srv.jobs[j.id] = j
		srv.order = append(srv.order, j.id)
		srv.byKey[j.key] = j
		srv.perClient[client]++
		return j
	}
	a := register(reqA, "alice")
	b := register(reqB, "bob")

	srv.rollbackSubmit(a)

	srv.mu.Lock()
	order := append([]string(nil), srv.order...)
	_, aLives := srv.jobs[a.id]
	srv.mu.Unlock()
	if aLives || len(order) != 1 || order[0] != b.id {
		t.Fatalf("after rollback: order=%v, jobs still has %s: %v; want order=[%s]", order, a.id, aLives, b.id)
	}
	// The survivor must still be listable — with the old truncation this
	// dereferenced the deleted job's nil entry and panicked the handler.
	resp, err := http.Get(hts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct{ Jobs []Status }
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != b.id {
		t.Errorf("job list = %+v, want exactly %s", list.Jobs, b.id)
	}
	// Settle b so its event log is closed rather than left open forever.
	b.start()
	b.finish(nil, context.Canceled)
}

// TestEventsConcurrentReaders streams one job's feed from several readers at
// once; every line each reader sees must be intact JSON. Under -race this
// pins that handleEvents never writes into the line buffers shared between
// readers of the same event log.
func TestEventsConcurrentReaders(t *testing.T) {
	_, hts := newTestServer(t, context.Background(), Config{})
	resp, sub := postJob(t, hts.URL, "", JobRequest{Run: "tableII", Scale: "small", Benchmarks: []string{"505.mcf_r"}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	const readers = 4
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			es, err := http.Get(hts.URL + sub.EventsURL)
			if err != nil {
				errs <- err
				return
			}
			defer es.Body.Close()
			sc := bufio.NewScanner(es.Body)
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			lines := 0
			for sc.Scan() {
				lines++
				var v map[string]interface{}
				if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
					errs <- fmt.Errorf("torn line %d: %v: %q", lines, err, sc.Text())
					return
				}
			}
			if err := sc.Err(); err != nil {
				errs <- err
				return
			}
			if lines == 0 {
				errs <- fmt.Errorf("reader saw no events")
				return
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if st := waitDone(t, hts.URL, sub.ID); st.State != StateDone {
		t.Fatalf("job failed: %s", st.Error)
	}
}

// TestJobIDsUniqueAcrossRestarts: the sequence behind job ids restarts with
// every process, so without the per-boot nonce a client holding an id from
// before a restart would fetch whichever job the new process numbered the
// same. Two servers over one store never issue the same id, and the second
// answers the first's id with 404.
func TestJobIDsUniqueAcrossRestarts(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	srv1, hts1 := newTestServer(t, ctx, Config{Store: st})
	_, s1 := postJob(t, hts1.URL, "alice", JobRequest{Run: "tableI", Scale: "small"})
	waitDone(t, hts1.URL, s1.ID)
	srv1.Drain()

	srv2, hts2 := newTestServer(t, ctx, Config{Store: st})
	_, s2 := postJob(t, hts2.URL, "alice", JobRequest{Run: "tableIII", Scale: "small"})
	if s1.ID == "" || s1.ID == s2.ID {
		t.Fatalf("first boot issued %q, second boot %q; want distinct ids", s1.ID, s2.ID)
	}
	resp, err := http.Get(hts2.URL + "/v1/jobs/" + s1.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("second boot answered the first boot's id %s with %d, want 404", s1.ID, resp.StatusCode)
	}
	waitDone(t, hts2.URL, s2.ID)

	seen := map[string]bool{s1.ID: true, s2.ID: true}
	for _, srv := range []*Server{srv1, srv2} {
		srv.mu.Lock()
		for i := 0; i < 1000; i++ {
			id := srv.nextID()
			if seen[id] {
				t.Errorf("id %s issued twice", id)
			}
			seen[id] = true
		}
		srv.mu.Unlock()
	}
}
