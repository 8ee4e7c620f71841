// Command nocd serves pseudo-circuit simulations over HTTP: submit an
// experiment+workload spec as a job, poll or stream its progress, fetch the
// result. Identical specs are content-addressed — a repeated submission is
// answered from the result cache without re-simulating, and identical
// in-flight submissions share one run. Cancelling a job (or shutting the
// daemon down past its drain deadline) stops the simulation at the next
// chunk boundary, within 1000 cycles.
//
// Quickstart:
//
//	nocd -listen localhost:8080 &
//	curl -s localhost:8080/jobs -d '{"topology":"mesh8x8","scheme":"pseudo+s+b",
//	  "va":"static","workload":{"pattern":"uniform","rate":0.1}}'
//	curl -s localhost:8080/jobs/j1?wait=1          # block until done
//	curl -s localhost:8080/jobs -d '...same spec'  # -> "cacheHit": true
//
// Endpoints: POST /jobs (?wait=1), GET /jobs, GET /jobs/{id} (?wait=1,
// ?watch=1 for an NDJSON progress stream with cycles/sec and ETA),
// GET /jobs/{id}/result, POST /jobs/{id}/cancel (or DELETE /jobs/{id}),
// POST /sweeps (template + parameter axes expanded server-side; ?wait=1
// blocks, ?watch=1 streams each grid point's result as NDJSON), GET
// /sweeps, GET /sweeps/{id}, POST /sweeps/{id}/cancel (or DELETE),
// GET /healthz (liveness), GET /readyz (readiness: 503 while draining or
// queue-full), GET /metrics (Prometheus text exposition; the one place the
// service counters are published), GET /spans (job-lifecycle spans: JSONL,
// ?format=chrome for chrome://tracing), and the stock /debug/pprof.
// -log-json adds one structured JSON log line per request on stderr.
//
// -store-dir persists results on disk (content-addressed by canonical
// spec hash, checksummed, LRU-bounded by -store-bytes), so a restarted
// daemon re-serves its history without re-simulating. A directory that
// does not exist yet is created with the first result. -peers/-self
// dispatch sweep grid points across a fleet by consistent hashing of the
// spec hash, with replica failover and local fallback; see DESIGN.md §16.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pseudocircuit/internal/cluster"
	"pseudocircuit/internal/service"
	"pseudocircuit/internal/store"
	"pseudocircuit/internal/sweepapi"
)

func main() {
	d, err := newDaemon(os.Args[1:], os.Stderr)
	if err != nil {
		fatal("%v", err)
	}
	srv := &http.Server{Addr: d.listen, Handler: d.handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "nocd: listening on %s\n", d.listen)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fatal("%v", err)
	case <-ctx.Done():
	}

	fmt.Fprintf(os.Stderr, "nocd: draining (deadline %v)\n", d.drain)
	dctx, cancel := context.WithTimeout(context.Background(), d.drain)
	defer cancel()
	d.shutdown(dctx, os.Stderr)
	if err := srv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fatal("http shutdown: %v", err)
	}
}

// daemon is nocd assembled from its command line: the job service, the
// sweep manager over it and the HTTP handler that serves both. main and the
// package's tests build it the same way, with newDaemon.
type daemon struct {
	listen  string
	drain   time.Duration
	jobs    *service.Manager
	sweeps  *sweepapi.Manager
	handler http.Handler
}

// newDaemon parses nocd's flags from args and builds the daemon they
// describe: the disk store, the service, the fleet dispatcher, the sweep
// manager and the handler. Start-up notes, flag errors and, with -log-json,
// the request log go to stderr. Like flag.CommandLine, -h exits 0 and a bad
// flag exits 2.
func newDaemon(args []string, stderr io.Writer) (*daemon, error) {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		listen   = fs.String("listen", "localhost:8080", "HTTP listen address")
		workers  = fs.Int("workers", 0, "simulation workers (0 = GOMAXPROCS)")
		queueCap = fs.Int("queue", 64, "max queued jobs before submissions are rejected")
		cacheCap = fs.Int("cache", 1024, "max cached results (oldest evicted)")
		drain    = fs.Duration("drain", 30*time.Second, "graceful-shutdown drain deadline before in-flight jobs are cancelled")
		spanCap  = fs.Int("spans", 4096, "max retained job-lifecycle spans (oldest evicted)")
		logJSON  = fs.Bool("log-json", false, "emit one structured JSON log line per request on stderr")

		storeDir   = fs.String("store-dir", "", "directory for the persistent result store (empty = in-memory cache only)")
		storeBytes = fs.Int64("store-bytes", 256<<20, "disk store byte cap; least-recently-used entries evicted past it")

		sweepPoints   = fs.Int("sweep-points", sweepapi.DefaultMaxPoints, "max grid points one sweep may expand to (larger grids are rejected)")
		sweepInflight = fs.Int("sweep-inflight", 16, "grid points one sweep keeps in flight at once")

		peers    = fs.String("peers", "", "comma-separated base URLs of peer nocds; sweeps dispatch grid points to their consistent-hash owners")
		selfURL  = fs.String("self", "", "this node's own base URL exactly as the peers list it (required with -peers)")
		replicas = fs.Int("replicas", 2, "consistent-hash owners consulted per grid point before local fallback")
	)
	fs.Parse(args)
	if *peers != "" && *selfURL == "" {
		return nil, errors.New("-peers requires -self (this node's base URL as the peers list it)")
	}

	var st *store.Store
	if *storeDir != "" {
		var err error
		if st, err = store.Open(*storeDir, *storeBytes); err != nil {
			return nil, fmt.Errorf("opening result store: %w", err)
		}
		fmt.Fprintf(stderr, "nocd: result store %s: %d entries, %d bytes\n",
			*storeDir, st.Len(), st.Bytes())
	}

	m := service.New(service.Config{
		Workers:  *workers,
		QueueCap: *queueCap,
		CacheCap: *cacheCap,
		SpanCap:  *spanCap,
		Store:    st,
	})

	var dispatcher service.Fleet
	if *peers != "" {
		peerList := strings.Split(*peers, ",")
		for i := range peerList {
			peerList[i] = strings.TrimSpace(peerList[i])
		}
		d, err := cluster.New(cluster.Config{
			Self:      *selfURL,
			Peers:     peerList,
			Replicas:  *replicas,
			Telemetry: m.Telemetry(),
			Spans:     m.SpanLog(),
		})
		if err != nil {
			m.Shutdown(context.Background())
			return nil, err
		}
		dispatcher = d
		fmt.Fprintf(stderr, "nocd: dispatching sweeps across %v\n", d.Ring().Members())
	}

	sw := sweepapi.New(m, sweepapi.Config{
		MaxPoints:  *sweepPoints,
		Inflight:   *sweepInflight,
		Dispatcher: dispatcher,
	})

	var handler http.Handler = newMux(m, sw)
	if *logJSON {
		handler = requestLog(slog.New(slog.NewJSONHandler(stderr, nil)), handler)
	}
	return &daemon{listen: *listen, drain: *drain, jobs: m, sweeps: sw, handler: handler}, nil
}

// shutdown drains the daemon within ctx. Sweeps drain first: they are the
// service's upstream, so their remaining points still reach an open job
// queue, and only then does the queue close.
func (d *daemon) shutdown(ctx context.Context, stderr io.Writer) {
	if err := d.sweeps.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "nocd: drain deadline hit, running sweeps cancelled: %v\n", err)
	}
	if err := d.jobs.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "nocd: drain deadline hit, in-flight jobs cancelled: %v\n", err)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "nocd: "+format+"\n", args...)
	os.Exit(1)
}
