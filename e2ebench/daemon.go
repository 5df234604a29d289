package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"specsampling/internal/core"
	"specsampling/internal/experiments"
	"specsampling/internal/sched"
	"specsampling/internal/serve"
	"specsampling/internal/store"
	"specsampling/internal/telemetry"
	"specsampling/internal/workload"
)

// jobSpec is one daemon job: an experiment on one benchmark with one
// selector, at small scale.
type jobSpec struct {
	Run, Bench, Selector string
}

var (
	daemonRuns      = []string{"tableII", "fig7", "fig8", "fig10", "fig12"}
	daemonSelectors = []string{"simpoint", "stratified", "rankedset"}
)

// pollInterval is how often a client polls a job's status while waiting
// for its result.
const pollInterval = 5 * time.Millisecond

// daemonConfigs returns the first n of the runs × benchmarks × selectors
// job space, ordered so that any prefix covers every run and every
// selector, and each multiple of runs × benchmarks covers every benchmark
// once per run. The seed never changes which configs a run serves, only
// their order and timing.
func daemonConfigs(benches []string, n int) []jobSpec {
	per := len(daemonRuns) * len(benches)
	if total := per * len(daemonSelectors); n > total {
		n = total
	}
	out := make([]jobSpec, n)
	for i := range out {
		pass, rem := i/per, i%per
		b, r := rem/len(daemonRuns), rem%len(daemonRuns)
		out[i] = jobSpec{daemonRuns[r], benches[b], daemonSelectors[(b+r+pass)%len(daemonSelectors)]}
	}
	return out
}

func (js jobSpec) body() []byte {
	blob, _ := json.Marshal(serve.JobRequest{Run: js.Run, Scale: "small", Benchmarks: []string{js.Bench}, Selector: js.Selector})
	return blob
}

// renderJob produces a job's expected result the way `experiments -json`
// does: Runner.RunRecorded into a Report, then Report.WriteJSON.
func renderJob(ctx context.Context, st *store.Store, scale workload.Scale, workers int, js jobSpec) ([]byte, error) {
	r, err := experiments.New(experiments.Options{
		Scale: scale, Benchmarks: []string{js.Bench}, Workers: workers,
		Out: io.Discard, Store: st, Selector: js.Selector,
	})
	if err != nil {
		return nil, err
	}
	rep := experiments.NewReport()
	if err := r.RunRecorded(ctx, js.Run, rep); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf, scale.Name, []string{js.Bench}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// fillStore computes every artifact the configs' jobs read: each
// benchmark's profile and selection per selector, and its whole-run cache
// and mix profiles.
func fillStore(ctx context.Context, st *store.Store, scale workload.Scale, workers int, cfgs []jobSpec) error {
	for _, sel := range daemonSelectors {
		var benches []string
		seen := map[string]bool{}
		for _, js := range cfgs {
			if js.Selector == sel && !seen[js.Bench] {
				seen[js.Bench] = true
				benches = append(benches, js.Bench)
			}
		}
		if len(benches) == 0 {
			continue
		}
		r, err := experiments.New(experiments.Options{
			Scale: scale, Benchmarks: benches, Workers: workers,
			Out: io.Discard, Store: st, Selector: sel,
		})
		if err != nil {
			return err
		}
		if err := r.Prewarm(ctx, "fig7", "fig8"); err != nil {
			return err
		}
	}
	return nil
}

// daemon is an in-process serve.Server on a loopback listener.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

// startDaemon serves jobWorkers jobs at a time, each on one goroutine, so
// the pipeline's workers equal jobWorkers.
func startDaemon(ctx context.Context, st *store.Store, jobWorkers int) (*daemon, error) {
	srv, err := serve.New(ctx, serve.Config{
		Store: st, Workers: 1, JobWorkers: jobWorkers,
		StatsInterval: 100 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, err
	}
	d := &daemon{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(d.done)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return d, nil
}

// stop shuts the listener down, waits for the serve loop, and drains the
// job queue.
func (d *daemon) stop(ctx context.Context) error {
	sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(sctx)
	<-d.done
	d.srv.Drain()
	return err
}

// client is the load generator's HTTP side: one transport holding at most
// conns connections in total.
type client struct {
	hc   *http.Client
	tr   *http.Transport
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: time.Minute}, tr: tr, base: base}
}

func (c *client) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// record collects one phase's observations; every method is safe for
// concurrent use.
type record struct {
	mu        sync.Mutex
	jobMs     []float64
	apiMs     []float64
	lateMs    []float64
	queueMs   []float64
	runMs     []float64
	spans     map[string]time.Duration
	ids       map[int]string // config index → job id
	results   map[int][]byte // config index → result bytes
	depthMax  float64
	heapBytes float64
	sent      int
	ops       int
	fails     []string
}

func newRecord() *record {
	return &record{spans: map[string]time.Duration{}, ids: map[int]string{}, results: map[int][]byte{}}
}

func (r *record) add(dst *[]float64, v float64) {
	r.mu.Lock()
	*dst = append(*dst, v)
	r.mu.Unlock()
}

func (r *record) check(ok bool, format string, args ...interface{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	if !ok {
		r.fails = append(r.fails, fmt.Sprintf(format, args...))
	}
}

// send issues one request and counts it; API GETs record their latency
// from intended, the time the request was due.
func (r *record) send(ctx context.Context, c *client, method, path string, body []byte, intended time.Time, api bool) (int, []byte, error) {
	r.mu.Lock()
	r.sent++
	r.mu.Unlock()
	code, data, err := c.do(ctx, method, path, body)
	if api {
		r.add(&r.apiMs, ms(time.Since(intended)))
	}
	return code, data, err
}

// runJob submits one fresh job, polls its status until it finishes, reads
// its result and checks the bytes. Latency runs from intended, the time the
// submit was due. submitted is closed once the submit has returned.
func runJob(ctx context.Context, c *client, r *record, idx int, js jobSpec, want []byte, intended time.Time, traced bool, submitted chan<- struct{}) {
	code, data, err := r.send(ctx, c, "POST", "/v1/jobs", js.body(), intended, false)
	close(submitted)
	var st serve.Status
	if err == nil && code == http.StatusAccepted {
		err = json.Unmarshal(data, &st)
	}
	r.check(err == nil && code == http.StatusAccepted && !st.Dedup, "submit %v: code %d err %v", js, code, err)
	if err != nil || code != http.StatusAccepted {
		return
	}
	r.mu.Lock()
	r.ids[idx] = st.ID
	r.mu.Unlock()
	tick := time.Now()
	for {
		tick = tick.Add(pollInterval)
		if err := sleepUntil(ctx, tick); err != nil {
			r.check(false, "job %s: %v", st.ID, err)
			return
		}
		code, data, err := r.send(ctx, c, "GET", "/v1/jobs/"+st.ID, nil, tick, true)
		if err == nil && code == http.StatusOK {
			err = json.Unmarshal(data, &st)
		}
		if err != nil || code != http.StatusOK || st.State == serve.StateFailed {
			r.check(false, "status %s: code %d state %s err %v", st.ID, code, st.State, err)
			return
		}
		if st.State == serve.StateDone {
			break
		}
	}
	code, data, err = r.send(ctx, c, "GET", "/v1/jobs/"+st.ID+"/result", nil, time.Now(), true)
	r.add(&r.jobMs, ms(time.Since(intended)))
	ok, why := equalBytes(want, data)
	r.check(err == nil && code == http.StatusOK && ok, "result %s %v: code %d err %v %s", st.ID, js, code, err, why)
	r.mu.Lock()
	r.results[idx] = data
	r.mu.Unlock()
	created, _ := time.Parse(time.RFC3339Nano, st.Created)
	started, _ := time.Parse(time.RFC3339Nano, st.Started)
	finished, _ := time.Parse(time.RFC3339Nano, st.Finished)
	r.add(&r.queueMs, ms(started.Sub(created)))
	r.add(&r.runMs, ms(finished.Sub(started)))
	if traced {
		// The job has finished, so its events feed is complete and the
		// request does not hold a connection for the job's life.
		code, data, err := r.send(ctx, c, "GET", "/v1/jobs/"+st.ID+"/events", nil, time.Now(), false)
		r.check(err == nil && code == http.StatusOK, "events %s: code %d err %v", st.ID, code, err)
		r.addSpans(data)
	}
}

// addSpans sums the events feed's span durations by span name.
func (r *record) addSpans(feed []byte) {
	sc := bufio.NewScanner(bytes.NewReader(feed))
	sc.Buffer(make([]byte, 64*1024), 16<<20)
	var ev struct {
		Type  string `json:"type"`
		Name  string `json:"name"`
		DurUS int64  `json:"dur_us"`
	}
	local := map[string]time.Duration{}
	for sc.Scan() {
		ev.Type = ""
		if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Type == "span" {
			local[ev.Name] += time.Duration(ev.DurUS) * time.Microsecond
		}
	}
	r.mu.Lock()
	for name, d := range local {
		r.spans[name] += d
	}
	r.mu.Unlock()
}

// scrape reads /metrics, checks the exposition, and keeps the queue depth
// and heap gauges.
func scrape(ctx context.Context, c *client, r *record, intended time.Time) {
	code, data, err := r.send(ctx, c, "GET", "/metrics", nil, intended, true)
	var problems []string
	if err == nil && code == http.StatusOK {
		problems = telemetry.CheckExposition(string(data))
	}
	r.check(err == nil && code == http.StatusOK && len(problems) == 0, "scrape: code %d err %v %v", code, err, problems)
	depth, heap := gauge(data, "sched_queue_depth"), gauge(data, "runtime_heap_alloc_bytes")
	r.mu.Lock()
	r.depthMax = math.Max(r.depthMax, depth)
	if heap > 0 {
		r.heapBytes = heap
	}
	r.mu.Unlock()
}

// gauge reads an unlabelled sample from a Prometheus text exposition.
func gauge(text []byte, name string) float64 {
	for _, line := range strings.Split(string(text), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == name {
			v, _ := strconv.ParseFloat(f[1], 64)
			return v
		}
	}
	return 0
}

func sleepUntil(ctx context.Context, t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Arrival kinds of the open-loop mix.
const (
	arriveFresh  = iota // a new job
	arriveDup           // resubmit an earlier job's config: must dedup
	arriveReread        // status + result of an earlier, finished job
	arriveScrape        // GET /metrics
)

// arrival is one scheduled request.
type arrival struct {
	at   time.Duration // intended send time, from the phase start
	kind int
	job  int // fresh: config index; dup and reread: target fresh arrival
}

// mixShares are the non-fresh arrival counts as shares of the fresh count.
var mixShares = []struct {
	kind  int
	share float64
}{{arriveDup, 0.25}, {arriveReread, 0.25}, {arriveScrape, 0.1}}

// stratifiedOrder is a seeded order of cfgs in which each successive group
// of len(daemonRuns) jobs holds one job of each experiment, so the heavy
// experiments never bunch up: each experiment's jobs are shuffled, then
// dealt round-robin in a shuffled order per round.
func stratifiedOrder(rng *rand.Rand, cfgs []jobSpec) []int {
	byRun := make([][]int, len(daemonRuns))
	for i, js := range cfgs {
		for r, run := range daemonRuns {
			if js.Run == run {
				byRun[r] = append(byRun[r], i)
			}
		}
	}
	for _, list := range byRun {
		rng.Shuffle(len(list), func(a, b int) { list[a], list[b] = list[b], list[a] })
	}
	var order []int
	for round := 0; len(order) < len(cfgs); round++ {
		for _, r := range rng.Perm(len(byRun)) {
			if round < len(byRun[r]) {
				order = append(order, byRun[r][round])
			}
		}
	}
	return order
}

// schedule draws the open-loop arrival schedule: every config as a fresh
// job, in a seeded stratified order, with exponential inter-arrival times
// at rate per second, merged with the other kinds over the same span.
func schedule(seed uint64, cfgs []jobSpec, rate float64) []arrival {
	n := len(cfgs)
	rng := rand.New(rand.NewSource(int64(seed)))
	// Exponential gaps by stratified sampling: one draw from each of n
	// equal-probability strata of the exponential distribution, in seeded
	// order, rescaled so the n arrivals span exactly n/rate seconds. Every
	// seed then offers the same load with the same gap distribution and
	// differs only in the order of its gaps and jobs.
	gaps := make([]float64, n)
	var sum float64
	for i, k := range rng.Perm(n) {
		gaps[i] = -math.Log(1 - (float64(k)+rng.Float64())/float64(n))
		sum += gaps[i]
	}
	end := float64(n) / rate
	var out []arrival
	var freshAt []time.Duration
	t := 0.0
	for i, j := range stratifiedOrder(rng, cfgs) {
		t += gaps[i] / sum * end
		at := time.Duration(t * float64(time.Second))
		out = append(out, arrival{at: at, kind: arriveFresh, job: j})
		freshAt = append(freshAt, at)
	}
	// The other kinds come in fixed counts at uniform random times: Poisson
	// streams conditioned on their counts.
	for _, m := range mixShares {
		for c := int(math.Round(float64(n) * m.share)); c > 0; c-- {
			at := time.Duration(rng.Float64() * end * float64(time.Second))
			// Dups and rereads target a fresh arrival due before them.
			due := sort.Search(len(freshAt), func(i int) bool { return freshAt[i] > at })
			out = append(out, arrival{at: at, kind: m.kind, job: rng.Intn(max(due, 1))})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// openLoop plays the schedule against d. Each arrival runs on its own
// goroutine from its due time; all requests share one client of at most
// conns connections.
func openLoop(ctx context.Context, d *daemon, conns int, cfgs []jobSpec, want [][]byte, arrivals []arrival, traced bool) *record {
	c := newClient(d.url, conns)
	defer c.tr.CloseIdleConnections()
	r := newRecord()
	// Per fresh arrival (in schedule order): closed when its submit
	// returns, and when its result is in.
	var order []int
	for _, a := range arrivals {
		if a.kind == arriveFresh {
			order = append(order, a.job)
		}
	}
	submitted := make([]chan struct{}, len(order))
	finished := make([]chan struct{}, len(order))
	for i := range submitted {
		submitted[i] = make(chan struct{})
		finished[i] = make(chan struct{})
	}
	var wg sync.WaitGroup
	start := time.Now()
	fresh := 0
	for _, a := range arrivals {
		intended := start.Add(a.at)
		if err := sleepUntil(ctx, intended); err != nil {
			break
		}
		r.add(&r.lateMs, ms(time.Since(intended)))
		a := a
		k := fresh
		if a.kind == arriveFresh {
			fresh++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch a.kind {
			case arriveFresh:
				defer close(finished[k])
				runJob(ctx, c, r, a.job, cfgs[a.job], want[a.job], intended, traced, submitted[k])
			case arriveDup:
				dup(ctx, c, r, cfgs[order[a.job]], submitted[a.job])
			case arriveReread:
				reread(ctx, c, r, order[a.job], want[order[a.job]], intended, finished[a.job])
			case arriveScrape:
				scrape(ctx, c, r, intended)
			}
		}()
	}
	wg.Wait()
	return r
}

// dup resubmits a config once its first submit has returned; the daemon
// must answer with the existing job.
func dup(ctx context.Context, c *client, r *record, js jobSpec, submitted <-chan struct{}) {
	select {
	case <-submitted:
	case <-ctx.Done():
		return
	}
	code, data, err := r.send(ctx, c, "POST", "/v1/jobs", js.body(), time.Now(), false)
	var st serve.Status
	if err == nil {
		err = json.Unmarshal(data, &st)
	}
	r.check(err == nil && code == http.StatusOK && st.Dedup, "dup %v: code %d dedup %v err %v", js, code, st.Dedup, err)
}

// reread fetches a finished job's status and result again once its first
// reader has it; latency runs from the later of the due time and then.
func reread(ctx context.Context, c *client, r *record, idx int, want []byte, intended time.Time, finished <-chan struct{}) {
	select {
	case <-finished:
	case <-ctx.Done():
		return
	}
	if now := time.Now(); now.After(intended) {
		intended = now
	}
	r.mu.Lock()
	_, ok := r.results[idx]
	id := r.ids[idx]
	r.mu.Unlock()
	if !ok {
		return // the first reader failed, and counted it
	}
	code, _, err := r.send(ctx, c, "GET", "/v1/jobs/"+id, nil, intended, true)
	r.check(err == nil && code == http.StatusOK, "reread status %s: code %d err %v", id, code, err)
	code, data, err := r.send(ctx, c, "GET", "/v1/jobs/"+id+"/result", nil, time.Now(), true)
	same, why := equalBytes(want, data)
	r.check(err == nil && code == http.StatusOK && same, "reread result %s: code %d err %v %s", id, code, err, why)
}

// closedLoop has conns clients each run jobs back to back over every
// config, in a seeded stratified order, and returns the time to finish
// them all.
func closedLoop(ctx context.Context, d *daemon, conns int, cfgs []jobSpec, want [][]byte, seed uint64) (*record, time.Duration) {
	c := newClient(d.url, conns)
	defer c.tr.CloseIdleConnections()
	r := newRecord()
	order := stratifiedOrder(rand.New(rand.NewSource(int64(seed)^0x5eed)), cfgs)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					return
				}
				j := order[i]
				runJob(ctx, c, r, j, cfgs[j], want[j], time.Now(), false, make(chan struct{}))
			}
		}()
	}
	wg.Wait()
	return r, time.Since(start)
}

// Each open-loop segment is a fresh server serving every config once under
// its own schedule; the run plays as many whole segments as its seconds
// hold, at least one. The latency metrics are medians over segments, so a
// noisy stretch of a run (CPU stolen by the host) moves one segment only.
// daemonOpen: an in-process server over a store set-up filled for every
// config in the mix, under an open-loop mix at a fixed rate, then a
// closed-loop phase on a fresh server for saturation throughput.
func daemonOpen(ctx context.Context, opt options) (*outcome, error) {
	// Two Ps beyond the job workers, so the in-process load generator and
	// the HTTP handlers do not wait in Go's run queue behind the CPU-bound
	// job goroutines and the garbage collector's dedicated mark worker; the
	// OS still has only opt.workers CPUs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(opt.workers + 2))
	o := newOutcome()
	benches := opt.size.daemonBenches
	if benches == nil {
		benches = workload.Names()
	}
	cfgs := daemonConfigs(benches, opt.size.daemonJobs)
	n := len(cfgs)
	segments := int(opt.seconds * opt.size.daemonRate / float64(n))
	if segments < 1 {
		segments = 1
	}
	// The daemon resolves "small" through the scale environment override,
	// and so does the expected rendering.
	scale := workload.ScaleFromEnv(workload.ScaleSmall)

	// Set-up: fill the store, render every expected result.
	c0 := cpuSeconds()
	st, err := openStore(opt.workdir)
	if err != nil {
		return nil, err
	}
	if err := fillStore(ctx, st, scale, opt.workers, cfgs); err != nil {
		return nil, err
	}
	want := make([][]byte, n)
	if err := sched.ForEach(ctx, opt.workers, n, func(i int) (err error) {
		want[i], err = renderJob(ctx, st, scale, 1, cfgs[i])
		return err
	}); err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = cpuSeconds() - c0
	resetPeakRSS()

	// The job table never forgets, so every phase gets a fresh server, and
	// starts from a collected heap so earlier phases' garbage does not pace
	// its garbage collections.
	phase := func(play func(d *daemon) *record) (*record, error) {
		runtime.GC()
		d, err := startDaemon(ctx, st, opt.workers)
		if err != nil {
			return nil, err
		}
		r := play(d)
		if err := d.stop(ctx); err != nil {
			return nil, err
		}
		o.ops += r.ops
		o.fails = append(o.fails, r.fails...)
		return r, ctx.Err()
	}
	// Open-loop segments alternate with closed-loop batches, so a slow
	// stretch of the host lands on one of each rather than on every batch.
	var open []*record
	var p50, p90, api99, caps, walls, cpus []float64
	grown := counters{} // the open segments' metric growth
	for seg := 0; seg < segments; seg++ {
		arrivals := schedule(opt.seed+uint64(seg)<<32, cfgs, opt.size.daemonRate)
		b := snapshotCounters()
		r, err := phase(func(d *daemon) *record {
			return openLoop(ctx, d, opt.workers, cfgs, want, arrivals, opt.trace)
		})
		if err != nil {
			return nil, err
		}
		grown.add(b, snapshotCounters())
		open = append(open, r)
		p50 = append(p50, quantile(r.jobMs, 0.5))
		p90 = append(p90, quantile(r.jobMs, 0.9))
		api99 = append(api99, quantile(r.apiMs, 0.99))

		var wall time.Duration
		var cpu float64
		closed, err := phase(func(d *daemon) *record {
			var r *record
			c0 := cpuSeconds()
			r, wall = closedLoop(ctx, d, opt.workers, cfgs, want, opt.seed+uint64(seg)<<32)
			cpu = cpuSeconds() - c0
			return r
		})
		if err != nil {
			return nil, err
		}
		o.check(len(closed.results) == n, "closed loop finished %d of %d jobs", len(closed.results), n)
		walls = append(walls, wall.Seconds())
		cpus = append(cpus, cpu)
		caps = append(caps, float64(len(closed.results))/wall.Seconds())
	}

	o.e2e["cpu_s"] = median(cpus)
	o.e2e["wall_s"] = median(walls)
	o.e2e["capacity_jobs_s"] = median(caps)
	o.e2e["job_p50_ms"] = median(p50)
	o.e2e["job_p90_ms"] = median(p90)
	o.e2e["api_p99_ms"] = median(api99)
	if err := servedAccuracy(ctx, o.e2e, cfgs, open[0].results, st, scale); err != nil {
		return nil, err
	}
	all := mergeRecords(open)
	o.note = fmt.Sprintf("%d open-loop segments of %d fresh jobs at %.0f/s (%d job and %d API latencies), each followed by a closed-loop batch of %d jobs",
		segments, n, opt.size.daemonRate, len(all.jobMs), len(all.apiMs), n)
	if opt.trace {
		daemonLayers(o.layer, all, counters{}, grown)
	}
	return o, nil
}

// mergeRecords pools the observations of several phases.
func mergeRecords(rs []*record) *record {
	m := newRecord()
	for _, r := range rs {
		m.jobMs = append(m.jobMs, r.jobMs...)
		m.apiMs = append(m.apiMs, r.apiMs...)
		m.lateMs = append(m.lateMs, r.lateMs...)
		m.queueMs = append(m.queueMs, r.queueMs...)
		m.runMs = append(m.runMs, r.runMs...)
		for name, d := range r.spans {
			m.spans[name] += d
		}
		m.depthMax = math.Max(m.depthMax, r.depthMax)
		m.heapBytes = math.Max(m.heapBytes, r.heapBytes)
		m.sent += r.sent
	}
	return m
}

// reportRows is the part of a job result the accuracy metrics read.
type reportRows struct {
	Results struct {
		Fig8 *struct {
			Rows []struct{ Whole, Warmup struct{ L3 float64 } }
		} `json:"fig8"`
		Fig12 *struct {
			Rows []struct{ NativeCPI, RegionalCPI float64 }
		} `json:"fig12"`
	} `json:"results"`
}

// servedAccuracy reads the sampling accuracy off the results the daemon
// served: L3 miss-rate error of the warm-up sampled run against the whole
// run (fig8), CPI error of the warm-up sampled run against the whole-run
// native CPI (fig12), and, for the fig8 configs, the instructions the
// warm-up pinballs replay as a share of the whole run.
func servedAccuracy(ctx context.Context, e2e map[string]float64, cfgs []jobSpec, results map[int][]byte, st *store.Store, scale workload.Scale) error {
	idx := make([]int, 0, len(results))
	for i := range results {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	var l3, cpi []float64
	var sampled, whole float64
	for _, i := range idx {
		var rep reportRows
		if err := json.Unmarshal(results[i], &rep); err != nil {
			return fmt.Errorf("result %v: %w", cfgs[i], err)
		}
		if f := rep.Results.Fig8; f != nil {
			for _, row := range f.Rows {
				l3 = append(l3, math.Abs(row.Warmup.L3-row.Whole.L3)*100)
			}
			s, w, err := warmupInstrs(ctx, st, scale, cfgs[i])
			if err != nil {
				return err
			}
			sampled, whole = sampled+s, whole+w
		}
		if f := rep.Results.Fig12; f != nil {
			for _, row := range f.Rows {
				cpi = append(cpi, math.Abs(row.RegionalCPI-row.NativeCPI)/row.NativeCPI*100)
			}
		}
	}
	e2e["l3_miss_err_pp"] = mean(l3)
	e2e["cpi_err_pct"] = mean(cpi)
	e2e["sampled_instr_pct"] = ratio(sampled, whole) * 100
	return nil
}

// warmupInstrs is what the config's warm-up pinballs replay, and the whole
// run's length, from the stored analysis.
func warmupInstrs(ctx context.Context, st *store.Store, scale workload.Scale, js jobSpec) (float64, float64, error) {
	spec, err := workload.ByName(js.Bench)
	if err != nil {
		return 0, 0, err
	}
	cfg := core.Config{Scale: scale, Selector: js.Selector}
	an, err := core.AnalyzeStored(ctx, spec, cfg, st)
	if err != nil {
		return 0, 0, err
	}
	pbs, err := an.Pinballs(an.Result, experiments.DefaultWarmupSlices)
	if err != nil {
		return 0, 0, err
	}
	var n uint64
	for _, pb := range pbs {
		n += pb.Len + pb.WarmupLen
	}
	return float64(n), float64(an.TotalInstrs), nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// route is the registry name of a server route's latency histogram.
func route(method, path string) string {
	return fmt.Sprintf("serve.http.request_seconds{route=%q,method=%q}", path, method)
}

// daemonLayers fills the per-layer metrics of the traced open loop from
// the program's counters and route histograms, the jobs' statuses, their
// events feeds and the /metrics scrapes.
func daemonLayers(layer map[string]float64, r *record, before, after counters) {
	sp := func(names ...string) float64 {
		var d time.Duration
		for _, n := range names {
			d += r.spans[n]
		}
		return d.Seconds()
	}
	p99 := func(method, path string) float64 {
		return after.histDelta(before, route(method, path)).Quantile(0.99) * 1000
	}
	hits, misses := after.delta(before, "store.hit"), after.delta(before, "store.miss")
	layer["selector.select_s"] = sp("cluster")
	layer["kmeans.lloyd_iters"] = after.delta(before, "kmeans.lloyd_iters")
	skips := after.delta(before, "kmeans.bounds_skips")
	layer["kmeans.bound_skip_ratio"] = ratio(skips, skips+after.delta(before, "kmeans.bounds_scans"))
	layer["workload.build_s"] = sp("build")
	layer["simpoint.profile_s"] = sp("profile")
	layer["simpoint.slices"] = after.delta(before, "profile.slices")
	layer["core.whole_s"] = sp("whole_cache", "whole_cpi", "whole_mix")
	layer["core.sampled_s"] = sp("replay")
	layer["pinball.replays"] = after.delta(before, "pinball.replayed")
	layer["store.get_s"] = sp("store.get")
	layer["store.gets"] = hits + misses
	layer["store.hit_ratio"] = ratio(hits, hits+misses)
	layer["store.put_s"] = sp("store.put")
	layer["store.puts"] = after.delta(before, "store.write")
	layer["serve.submit_p99_ms"] = p99("POST", "/v1/jobs")
	layer["serve.status_p99_ms"] = p99("GET", "/v1/jobs/{id}")
	layer["serve.result_p99_ms"] = p99("GET", "/v1/jobs/{id}/result")
	layer["telemetry.scrape_p99_ms"] = p99("GET", "/metrics")
	layer["serve.queue_wait_p90_ms"] = quantile(r.queueMs, 0.9)
	layer["serve.run_p50_ms"] = quantile(r.runMs, 0.5)
	layer["serve.run_p90_ms"] = quantile(r.runMs, 0.9)
	layer["serve.dedup_ratio"] = ratio(after.delta(before, "serve.dedup"), after.delta(before, "serve.submit"))
	layer["serve.rejected"] = after.delta(before, "serve.reject")
	layer["sched.queue_depth_max"] = r.depthMax
	layer["runtime.heap_mb"] = r.heapBytes / (1 << 20)
	layer["job.store_get_s"] = sp("store.get")
	layer["job.replay_s"] = sp("replay")
	layer["loadgen.late_p99_ms"] = quantile(r.lateMs, 0.99)
	layer["loadgen.sent"] = float64(r.sent)
	// Coverage here is the share of the jobs' own time (serve.job spans)
	// that the layer spans account for.
	layer["trace.coverage"] = ratio(sp("store.get", "store.put", "replay", "build", "profile", "cluster",
		"whole_cache", "whole_cpi", "whole_mix"), sp("serve.job"))
}
