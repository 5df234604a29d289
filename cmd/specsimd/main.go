// Command specsimd serves the sampling pipeline as a long-lived daemon:
// many clients submit experiment configurations over HTTP and share one
// warm artifact store, one bounded job queue, and one dedup table.
//
// Usage:
//
//	specsimd -cache-dir /var/cache/specsim          # listen on 127.0.0.1:8742
//	specsimd -cache-dir DIR -addr :9000 -job-workers 4
//
// A session:
//
//	curl -d '{"run":"fig4","scale":"small"}' localhost:8742/v1/jobs
//	curl localhost:8742/v1/jobs/j3f9a01c2-000001         # status
//	curl localhost:8742/v1/jobs/j3f9a01c2-000001/events  # live JSONL progress
//	curl localhost:8742/v1/jobs/j3f9a01c2-000001/result  # report JSON
//
// Job ids are j<per-boot nonce>-<sequence>: an id issued before a restart
// is unknown (404) to the next process, never another client's job.
//
// The result bytes are byte-identical to `experiments -run fig4 -scale
// small -json FILE` against the same store. Identical submissions dedup to
// one computation; overload answers 503 with Retry-After.
//
// Telemetry: GET /metrics is a Prometheus text exposition of every counter,
// gauge and latency histogram, with the runtime and daemon gauges refreshed
// every -stats-interval; every response carries an X-Trace-Id. -access-log
// writes one JSON line per request, -debug-addr exposes net/http/pprof on a
// separate (private) listener, and -no-telemetry turns the whole layer off.
//
// Shutdown: SIGTERM (or SIGINT) stops accepting work and drains in-flight
// jobs so every completed stage reaches the store; a second signal or the
// -drain-timeout deadline hard-cancels whatever is still running (the store
// stays uncorrupted either way — interrupted stages are simply recomputed).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"specsampling/internal/cli"
	"specsampling/internal/obs"
	"specsampling/internal/serve"
	"specsampling/internal/store"
)

// Listener timeouts. A client must finish its request headers within
// headerTimeout and may hold an idle keep-alive connection for idleTimeout,
// so a slow or silent client cannot pin a connection forever. Reads of the
// body and writes stay unbounded: /v1/jobs/{id}/events streams for as long
// as the job runs, and pprof's profile endpoint writes after sampling.
const (
	headerTimeout = 10 * time.Second
	idleTimeout   = 2 * time.Minute
)

// newHTTPServer is the one constructor behind both listeners.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: headerTimeout, IdleTimeout: idleTimeout}
}

func main() {
	// The root context and the signal subscription are minted here and
	// nowhere else. The first signal triggers the graceful drain; the root
	// stays live through it so draining jobs finish, and hard-cancelling it
	// is the escalation path (second signal or drain timeout).
	root, hardCancel := context.WithCancel(context.Background())
	defer hardCancel()
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	err := run(root, hardCancel, sig, os.Args[1:])
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "specsimd:", err)
	}
	if code := cli.ExitCode(err); code != 0 {
		os.Exit(code)
	}
}

func run(ctx context.Context, hardCancel context.CancelFunc, sig <-chan os.Signal, args []string) error {
	fs := flag.NewFlagSet("specsimd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8742", "listen address")
	cacheDir := fs.String("cache-dir", os.Getenv("SPECSIM_CACHE"),
		"persistent artifact cache directory shared by every job "+
			"(required; env SPECSIM_CACHE sets the default)")
	workers := fs.Int("workers", runtime.NumCPU(),
		"worker goroutines inside each job's pipeline (results are identical for any value; <= 0 means GOMAXPROCS)")
	jobWorkers := fs.Int("job-workers", 2, "jobs executing concurrently")
	queueDepth := fs.Int("queue-depth", 64, "queued jobs beyond which submissions are shed with 503")
	maxClient := fs.Int("max-client", 16, "live (queued+running) jobs one client may hold")
	drainTimeout := fs.Duration("drain-timeout", time.Minute,
		"how long a shutdown signal waits for in-flight jobs before hard-cancelling them")
	debugAddr := fs.String("debug-addr", "",
		"listen address for net/http/pprof profiling endpoints (empty = off; "+
			"bind to localhost — the profiles are not for public exposure)")
	accessLog := fs.String("access-log", "",
		`access-log destination: a file path (appended), "-" for stderr, empty for off`)
	noTelemetry := fs.Bool("no-telemetry", false,
		"disable request telemetry, /metrics content, access logs and the stats collector")
	statsInterval := fs.Duration("stats-interval", time.Second, "self-monitoring gauge refresh period")
	obsFlags := obs.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return cli.Usagef("%v", err)
	}
	if *cacheDir == "" {
		fs.Usage()
		return cli.Usagef("missing -cache-dir (or env SPECSIM_CACHE): the daemon serves every client from one persistent artifact store")
	}
	st, err := store.Open(*cacheDir)
	if err != nil {
		return err
	}
	shutdown, err := obsFlags.Activate(os.Stderr)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := shutdown(); cerr != nil {
			fmt.Fprintln(os.Stderr, "specsimd:", cerr)
		}
	}()

	var accessSink *obs.AccessSink
	if *accessLog != "" && !*noTelemetry {
		if *accessLog == "-" {
			// Hide os.Stderr's Closer so sink.Close never closes stderr.
			accessSink = obs.NewAccessSink(struct{ io.Writer }{os.Stderr})
		} else {
			f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("open access log: %w", err)
			}
			accessSink = obs.NewAccessSink(f)
		}
		defer func() {
			if cerr := accessSink.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "specsimd: access log:", cerr)
			}
		}()
	}

	srv, err := serve.New(ctx, serve.Config{
		Store:            st,
		Workers:          *workers,
		JobWorkers:       *jobWorkers,
		QueueDepth:       *queueDepth,
		MaxPerClient:     *maxClient,
		AccessLog:        accessSink,
		DisableTelemetry: *noTelemetry,
		StatsInterval:    *statsInterval,
	})
	if err != nil {
		return err
	}

	// The profiling listener is separate from the API listener on purpose:
	// pprof handlers expose heap contents and must never ride on the
	// publicly reachable address. Off unless -debug-addr is set.
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dhs := newHTTPServer(dmux)
		go func() {
			if derr := dhs.Serve(dln); derr != nil && !errors.Is(derr, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "specsimd: debug server:", derr)
			}
		}()
		defer func() {
			if cerr := dhs.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "specsimd: debug server:", cerr)
			}
		}()
		fmt.Fprintf(os.Stderr, "specsimd: pprof on http://%s/debug/pprof/\n", dln.Addr())
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := newHTTPServer(srv.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "specsimd: listening on %s (store %s)\n", ln.Addr(), st.Dir())

	select {
	case err := <-serveErr:
		return err
	case <-sig:
	}
	fmt.Fprintf(os.Stderr, "specsimd: shutdown signal; draining in-flight jobs (timeout %s, signal again to abort)\n", *drainTimeout)

	drained := make(chan struct{})
	go func() {
		srv.Drain() // rejects new work immediately, then waits for jobs
		close(drained)
	}()
	go func() {
		select {
		case <-drained:
		case <-sig:
			fmt.Fprintln(os.Stderr, "specsimd: second signal; hard-cancelling")
			hardCancel()
		case <-time.After(*drainTimeout):
			fmt.Fprintln(os.Stderr, "specsimd: drain timeout; hard-cancelling")
			hardCancel()
		}
	}()
	// Shutdown stops the listener and waits for handlers; the event streams
	// end as their jobs finish (or immediately, once the drain closes them).
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "specsimd:", err)
	}
	<-drained
	fmt.Fprintln(os.Stderr, "specsimd: drained; bye")
	return nil
}
