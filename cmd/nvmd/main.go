// Command nvmd is the long-running experiment daemon plus its client CLI.
//
//	nvmd serve       -data DIR [-addr HOST:PORT] [-job-workers N] [-queue N] [-port-file PATH] [-cache] [-cache-dir DIR] [-cache-peer URL]
//	nvmd coordinator (serve flags) [-lease-timeout D] [-worker-ttl D] [-lease-wait D]
//	nvmd worker      -coordinator URL [-slots N] [-name LABEL]
//	nvmd submit      -spec FILE|- [client flags] [-wait] [-federated]
//	nvmd status      -id JOB [client flags] [-partial]
//	nvmd wait        -id JOB [client flags]
//	nvmd cancel      -id JOB [client flags]
//	nvmd result      -id JOB [client flags]
//	nvmd metrics     [client flags]
//	nvmd cache       [client flags]
//	nvmd workers     [client flags]
//
// serve runs until SIGINT/SIGTERM, then drains: running jobs are
// interrupted (their checkpoints keep every completed cell) and resume on
// the next start. With -cache the daemon memoizes every cell result in a
// content-addressed cache under <data>/cache (or -cache-dir), shared
// across jobs and restarts; -cache-peer fills local misses from another
// daemon's /v1/cluster/cache/get endpoint before computing. submit reads
// a JSON JobSpec from a file or stdin and prints the assigned job; with
// -wait it follows the event stream and exits non-zero unless the job
// completes.
//
// coordinator is serve plus the cluster layer: the daemon also mounts
// /v1/cluster/* and dispatches the cells of federated jobs (spec field
// "federated": true, or submit -federated) to registered workers instead
// of computing them in-process; with -cache its memo cache answers every
// repeated cell before dispatch. worker is the matching half — it joins a
// coordinator, leases cells, computes them with the same engine (it
// keeps no cache of its own), and reports results; kill it any time, its
// leases expire and the cells move to surviving workers. Because the coordinator commits results through
// the same ordered runner as a local sweep, a federated job's result,
// events and checkpoint are byte-identical to a single-node run at any
// worker count.
//
// Every client subcommand shares the retry knobs alongside -addr:
// -retry-attempts, -retry-base, -retry-max and -request-timeout tune the
// internal/service/client retry policy (transient 5xx/429/transport
// failures are retried with capped exponential backoff; 0 selects each
// knob's documented default).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"maxwe/internal/cluster"
	"maxwe/internal/service"
	"maxwe/internal/service/client"
	"maxwe/internal/sim"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = cmdServe(os.Args[2:])
	case "coordinator":
		err = cmdCoordinator(os.Args[2:])
	case "worker":
		err = cmdWorker(os.Args[2:])
	case "submit":
		err = cmdSubmit(os.Args[2:])
	case "status":
		err = cmdStatus(os.Args[2:])
	case "wait":
		err = cmdWait(os.Args[2:])
	case "cancel":
		err = cmdCancel(os.Args[2:])
	case "result":
		err = cmdResult(os.Args[2:])
	case "metrics":
		err = cmdMetrics(os.Args[2:])
	case "cache":
		err = cmdCache(os.Args[2:])
	case "workers":
		err = cmdWorkers(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "nvmd: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvmd:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: nvmd <command> [flags]

commands:
  serve        run the experiment daemon
  coordinator  run the daemon with the cluster layer: federated jobs fan out to workers
  worker       join a coordinator, lease sweep cells and compute them
  submit       submit a job spec (JSON file or - for stdin)
  status       show one job's status
  wait         block until a job finishes
  cancel       cancel a queued or running job
  result       print a done job's result document
  metrics      print the daemon's counters
  cache        print the daemon's result-cache status and counters
  workers      list the coordinator's registered workers

run "nvmd <command> -h" for that command's flags.
`)
}

// cmdServe runs the plain daemon until SIGINT/SIGTERM, then drains the
// manager and shuts the HTTP server down.
func cmdServe(args []string) error {
	return runDaemon("serve", args, false)
}

// cmdCoordinator runs the daemon with the cluster layer mounted:
// federated jobs dispatch their cells to registered workers.
func cmdCoordinator(args []string) error {
	return runDaemon("coordinator", args, true)
}

// runDaemon is the shared body of serve and coordinator. The two modes
// differ only in whether a cluster.Coordinator is constructed and wired
// in as the manager's cell dispatcher (plus the /v1/cluster mux and the
// cluster block on /metrics).
func runDaemon(name string, args []string, coordinator bool) error {
	fs := newFlagSet(name)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (use :0 for a random port)")
	data := fs.String("data", "", "durable job data directory (required)")
	workers := fs.Int("job-workers", 2, "concurrent jobs")
	queue := fs.Int("queue", 1024, "job queue depth")
	portFile := fs.String("port-file", "", "write the bound address here once listening")
	cache := fs.Bool("cache", false, "memoize cell results in a content-addressed cache shared across jobs and restarts")
	cacheDir := fs.String("cache-dir", "", "result cache directory (implies -cache; default <data>/cache)")
	cachePeer := fs.String("cache-peer", "", "peer daemon base URL; local cache misses probe its /v1/cluster/cache/get before computing (requires -cache)")
	var leaseTimeout, workerTTL, leaseWait *time.Duration
	if coordinator {
		leaseTimeout = fs.Duration("lease-timeout", cluster.DefaultLeaseTimeout, "how long a leased cell may run between heartbeats before it is reassigned")
		workerTTL = fs.Duration("worker-ttl", cluster.DefaultWorkerTTL, "how long a silent worker stays registered")
		leaseWait = fs.Duration("lease-wait", cluster.DefaultLeaseWait, "how long an idle lease poll parks before returning empty")
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" {
		return fmt.Errorf("%s: -data is required", name)
	}
	if *cache && *cacheDir == "" {
		*cacheDir = filepath.Join(*data, "cache")
	}
	if *cachePeer != "" && *cacheDir == "" {
		return fmt.Errorf("%s: -cache-peer requires -cache or -cache-dir", name)
	}

	cfg := service.Config{
		DataDir:    *data,
		JobWorkers: *workers,
		QueueDepth: *queue,
		CacheDir:   *cacheDir,
	}
	if *cachePeer != "" {
		cfg.CachePeer = &cluster.CachePeer{URL: strings.TrimRight(*cachePeer, "/")}
	}
	var coord *cluster.Coordinator
	if coordinator {
		coord = cluster.NewCoordinator(cluster.Config{
			LeaseTimeout: *leaseTimeout,
			WorkerTTL:    *workerTTL,
			LeaseWait:    *leaseWait,
			EngineSchema: sim.EngineSchemaVersion,
		})
		cfg.Dispatcher = coord
	}

	mgr, err := service.NewManager(cfg)
	if err != nil {
		return err
	}
	mgr.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		mgr.Close()
		return fmt.Errorf("%s: listen %s: %w", name, *addr, err)
	}
	bound := ln.Addr().String()
	if *portFile != "" {
		//lint:allow durablewrite "advisory discovery file for scripts; losing it on crash is harmless and the daemon rewrites it every start"
		if err := os.WriteFile(*portFile, []byte(bound+"\n"), 0o644); err != nil {
			_ = ln.Close()
			mgr.Close()
			return fmt.Errorf("%s: write port file: %w", name, err)
		}
	}
	fmt.Fprintf(os.Stderr, "nvmd: %s listening on %s (data %s)\n", name, bound, *data)

	srv := &http.Server{Handler: daemonHandler(mgr, coord)}
	errc := make(chan error, 1)
	//lint:allow nondeterminism "the HTTP server needs its own goroutine so main can select on signals; job payloads stay deterministic"
	go func() { errc <- srv.Serve(ln) }() //lint:allow ctxprop "never blocks: errc has capacity 1 and exactly one send"

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "nvmd: %v — draining\n", sig)
	case err := <-errc:
		mgr.Close()
		return fmt.Errorf("%s: %w", name, err)
	}

	// Drain jobs first so their checkpoints are final, then let in-flight
	// HTTP requests (event streams end when the manager drains) finish.
	mgr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("%s: shutdown: %w", name, err)
	}
	fmt.Fprintln(os.Stderr, "nvmd: drained")
	return nil
}

// daemonHandler composes the daemon's HTTP surface. Plain daemons serve
// the job API, plus the peer-fill cache endpoint when a cache is open so
// sibling daemons can -cache-peer at them. Coordinators additionally
// mount the full /v1/cluster surface and append the cluster counter
// block to /metrics.
func daemonHandler(mgr *service.Manager, coord *cluster.Coordinator) http.Handler {
	api := service.NewHandler(mgr)
	// A nil *memo.Cache must become a nil interface, not a typed nil,
	// or the handler would call Get on a nil receiver.
	var src cluster.CacheSource
	if c := mgr.Cache(); c != nil {
		src = c
	}
	if coord == nil {
		if src == nil {
			return api
		}
		mux := http.NewServeMux()
		mux.Handle("POST /v1/cluster/cache/get", cluster.CacheHandler(src))
		mux.Handle("/", api)
		return mux
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/cluster/", cluster.NewHandler(coord, src))
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		text, err := mgr.MetricsSnapshot()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, text)
		fmt.Fprint(w, cluster.MetricsText(coord.Stats()))
	})
	mux.Handle("/", api)
	return mux
}

// cmdWorker joins a coordinator and computes leased cells until
// SIGINT/SIGTERM. A worker holds no job state of its own: killing one
// only delays the cells it was computing until their leases expire and a
// surviving worker picks them up.
func cmdWorker(args []string) error {
	fs := newFlagSet("worker")
	coordURL := fs.String("coordinator", "", "coordinator base URL (required)")
	slots := fs.Int("slots", 0, "concurrent cells (0 = one per CPU)")
	label := fs.String("name", "", "worker label shown in nvmd workers (default hostname)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coordURL == "" {
		return fmt.Errorf("worker: -coordinator is required")
	}
	base := strings.TrimRight(*coordURL, "/")
	if *slots <= 0 {
		*slots = runtime.NumCPU()
	}
	if *label == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		*label = host
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "nvmd: worker %q joining %s (slots %d)\n", *label, base, *slots)
	err := cluster.RunWorker(ctx, cluster.WorkerOptions{
		Coordinator: base,
		Info: cluster.WorkerInfo{
			Name:         *label,
			Slots:        *slots,
			EngineSchema: sim.EngineSchemaVersion,
		},
		Compute: func(ctx context.Context, t cluster.Task) (json.RawMessage, error) {
			v, err := service.ComputeCell(ctx, t.Spec, t.Key, nil)
			return json.RawMessage(v), err
		},
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "nvmd: worker: "+format+"\n", args...)
		},
	})
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "nvmd: worker stopped")
		return nil
	}
	return err
}

// clientFlags registers the shared client flags (-addr plus the retry
// knobs) on fs and returns a constructor for the configured client, to be
// called after fs.Parse.
func clientFlags(fs *flag.FlagSet) func() *client.Client {
	addr := fs.String("addr", "http://127.0.0.1:8080", "daemon base URL")
	attempts := fs.Int("retry-attempts", 0, "max attempts per request (0 = default 4; 1 disables retries)")
	base := fs.Duration("retry-base", 0, "initial retry backoff (0 = default 50ms)")
	maxb := fs.Duration("retry-max", 0, "retry backoff cap (0 = default 2s)")
	timeout := fs.Duration("request-timeout", 0, "per-attempt timeout (0 = default 30s; negative disables)")
	return func() *client.Client {
		c := client.New(*addr)
		c.Retry = client.RetryPolicy{
			MaxAttempts:    *attempts,
			BaseBackoff:    *base,
			MaxBackoff:     *maxb,
			RequestTimeout: *timeout,
		}
		return c
	}
}

// cmdSubmit reads a JobSpec and submits it; with -wait it follows the job
// to completion and fails unless the job is done.
func cmdSubmit(args []string) error {
	fs := newFlagSet("submit")
	mkClient := clientFlags(fs)
	spec := fs.String("spec", "", "JSON JobSpec file, or - for stdin (required)")
	wait := fs.Bool("wait", false, "wait for the job to finish")
	federated := fs.Bool("federated", false, "mark the job federated: a coordinator fans its cells out to workers")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *spec == "" {
		return fmt.Errorf("submit: -spec is required")
	}
	var raw []byte
	var err error
	if *spec == "-" {
		raw, err = io.ReadAll(os.Stdin)
	} else {
		raw, err = os.ReadFile(*spec)
	}
	if err != nil {
		return fmt.Errorf("submit: read spec: %w", err)
	}
	var js service.JobSpec
	if err := json.Unmarshal(raw, &js); err != nil {
		return fmt.Errorf("submit: parse spec: %w", err)
	}
	if *federated {
		js.Federated = true
	}

	c := mkClient()
	ctx := context.Background()
	st, err := c.Submit(ctx, js)
	if err != nil {
		return err
	}
	if !*wait {
		return printJSON(st)
	}
	fmt.Fprintf(os.Stderr, "nvmd: submitted %s (%d cells), waiting\n", st.ID, st.CellsTotal)
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		return err
	}
	if err := printJSON(final); err != nil {
		return err
	}
	if final.State != service.StateDone {
		return fmt.Errorf("submit: job %s ended %s: %s", final.ID, final.State, final.Error)
	}
	return nil
}

// cmdStatus prints one job's status document.
func cmdStatus(args []string) error {
	fs := newFlagSet("status")
	mkClient := clientFlags(fs)
	id := fs.String("id", "", "job ID (required)")
	partial := fs.Bool("partial", false, "include checkpointed partial results")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("status: -id is required")
	}
	st, err := mkClient().Status(context.Background(), *id, *partial)
	if err != nil {
		return err
	}
	return printJSON(st)
}

// cmdWait blocks until the job finishes and fails unless it is done.
func cmdWait(args []string) error {
	fs := newFlagSet("wait")
	mkClient := clientFlags(fs)
	id := fs.String("id", "", "job ID (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("wait: -id is required")
	}
	st, err := mkClient().Wait(context.Background(), *id)
	if err != nil {
		return err
	}
	if err := printJSON(st); err != nil {
		return err
	}
	if st.State != service.StateDone {
		return fmt.Errorf("wait: job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return nil
}

// cmdCancel cancels a job.
func cmdCancel(args []string) error {
	fs := newFlagSet("cancel")
	mkClient := clientFlags(fs)
	id := fs.String("id", "", "job ID (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("cancel: -id is required")
	}
	st, err := mkClient().Cancel(context.Background(), *id)
	if err != nil {
		return err
	}
	return printJSON(st)
}

// cmdResult prints a done job's result document, byte-exact as stored.
func cmdResult(args []string) error {
	fs := newFlagSet("result")
	mkClient := clientFlags(fs)
	id := fs.String("id", "", "job ID (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("result: -id is required")
	}
	raw, err := mkClient().Result(context.Background(), *id)
	if err != nil {
		return err
	}
	if _, err := os.Stdout.Write(raw); err != nil {
		return fmt.Errorf("result: write: %w", err)
	}
	return nil
}

// cmdMetrics prints the daemon's /metrics exposition.
func cmdMetrics(args []string) error {
	fs := newFlagSet("metrics")
	mkClient := clientFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	text, err := mkClient().Metrics(context.Background())
	if err != nil {
		return err
	}
	if _, err := fmt.Print(text); err != nil {
		return fmt.Errorf("metrics: write: %w", err)
	}
	return nil
}

// cmdCache prints the daemon's result-cache status document.
func cmdCache(args []string) error {
	fs := newFlagSet("cache")
	mkClient := clientFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cs, err := mkClient().CacheStats(context.Background())
	if err != nil {
		return err
	}
	return printJSON(cs)
}

// cmdWorkers lists the coordinator's registered workers.
func cmdWorkers(args []string) error {
	fs := newFlagSet("workers")
	mkClient := clientFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ws, err := mkClient().Workers(context.Background())
	if err != nil {
		return err
	}
	return printJSON(ws)
}

// newFlagSet names a subcommand flag set consistently.
func newFlagSet(name string) *flag.FlagSet {
	return flag.NewFlagSet("nvmd "+name, flag.ExitOnError)
}

// printJSON writes v as indented JSON on stdout.
func printJSON(v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal output: %w", err)
	}
	if _, err := os.Stdout.Write(append(raw, '\n')); err != nil {
		return fmt.Errorf("write output: %w", err)
	}
	return nil
}
