// Command nocd serves pseudo-circuit simulations over HTTP: submit an
// experiment+workload spec as a job, poll or stream its progress, fetch the
// result. Identical specs are content-addressed — a repeated submission is
// answered from the result cache without re-simulating, and identical
// in-flight submissions share one run. Cancelling a job (or shutting the
// daemon down past its drain deadline) stops the simulation at the next
// chunk boundary.
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
// daemon re-serves its history without re-simulating. -peers/-self
// dispatch sweep grid points across a fleet by consistent hashing of the
// spec hash, with replica failover and local fallback; see DESIGN.md §16.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof"
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
	var (
		listen   = flag.String("listen", "localhost:8080", "HTTP listen address")
		workers  = flag.Int("workers", 0, "simulation workers (0 = GOMAXPROCS)")
		queueCap = flag.Int("queue", 64, "max queued jobs before submissions are rejected")
		cacheCap = flag.Int("cache", 1024, "max cached results (oldest evicted)")
		chunk    = flag.Int("chunk", 1000, "cycles between cancellation checks and progress updates")
		drain    = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain deadline before in-flight jobs are cancelled")
		spanCap  = flag.Int("spans", 4096, "max retained job-lifecycle spans (oldest evicted)")
		logJSON  = flag.Bool("log-json", false, "emit one structured JSON log line per request on stderr")

		storeDir   = flag.String("store-dir", "", "directory for the persistent result store (empty = in-memory cache only)")
		storeBytes = flag.Int64("store-bytes", 256<<20, "disk store byte cap; least-recently-used entries evicted past it")

		sweepPoints   = flag.Int("sweep-points", sweepapi.DefaultMaxPoints, "max grid points one sweep may expand to (larger grids are rejected)")
		sweepInflight = flag.Int("sweep-inflight", 16, "grid points one sweep keeps in flight at once")

		peers    = flag.String("peers", "", "comma-separated base URLs of peer nocds; sweeps dispatch grid points to their consistent-hash owners")
		selfURL  = flag.String("self", "", "this node's own base URL exactly as the peers list it (required with -peers)")
		replicas = flag.Int("replicas", 2, "consistent-hash owners consulted per grid point before local fallback")
	)
	flag.Parse()

	var st *store.Store
	if *storeDir != "" {
		var err error
		if st, err = store.Open(*storeDir, *storeBytes); err != nil {
			fatal("opening result store: %v", err)
		}
		fmt.Fprintf(os.Stderr, "nocd: result store %s: %d entries, %d bytes\n",
			*storeDir, st.Len(), st.Bytes())
	}

	m := service.New(service.Config{
		Workers:  *workers,
		QueueCap: *queueCap,
		CacheCap: *cacheCap,
		Chunk:    *chunk,
		SpanCap:  *spanCap,
		Store:    st,
	})

	var dispatcher service.Fleet
	if *peers != "" {
		if *selfURL == "" {
			fatal("-peers requires -self (this node's base URL as the peers list it)")
		}
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
			fatal("%v", err)
		}
		dispatcher = d
		fmt.Fprintf(os.Stderr, "nocd: dispatching sweeps across %v\n", d.Ring().Members())
	}

	sw := sweepapi.New(m, sweepapi.Config{
		MaxPoints:  *sweepPoints,
		Inflight:   *sweepInflight,
		Dispatcher: dispatcher,
	})

	mux := newMux(m, sw)
	// The pprof handlers self-register on the default mux; delegate the
	// whole /debug/ subtree to it.
	mux.Handle("GET /debug/", http.DefaultServeMux)

	var handler http.Handler = mux
	if *logJSON {
		logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
		handler = requestLog(logger, mux)
	}

	srv := &http.Server{Addr: *listen, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "nocd: listening on %s\n", *listen)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fatal("%v", err)
	case <-ctx.Done():
	}

	fmt.Fprintf(os.Stderr, "nocd: draining (deadline %v)\n", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Sweeps drain first: they are the service's upstream, so cancelling
	// them stops new point submissions before the job queue closes.
	if err := sw.Shutdown(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "nocd: drain deadline hit, running sweeps cancelled: %v\n", err)
	}
	if err := m.Shutdown(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "nocd: drain deadline hit, in-flight jobs cancelled: %v\n", err)
	}
	if err := srv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fatal("http shutdown: %v", err)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "nocd: "+format+"\n", args...)
	os.Exit(1)
}
