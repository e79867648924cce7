// Command gfserver serves subgraph queries over HTTP: load or generate a
// graph, build the catalogue once, then answer /query, /prepare,
// /execute/{name}, /explain, /ingest, /compact, /stats, /metrics and
// /healthz requests (see internal/server for the endpoint contracts).
// Every query runs under a per-request deadline through the ctx-aware
// execution core, admission is a bounded priority queue with
// per-tenant quotas (saturation sheds with Retry-After), per-query
// memory budgets abort runaway queries with 422, and SIGINT/SIGTERM
// trigger a graceful drain that refuses late work before the store
// closes.
//
// The graph is live: /ingest applies mutation batches (each one becomes
// a new epoch with snapshot isolation for queries already running) and a
// background compactor folds the delta overlay into a fresh CSR base
// once it outgrows -compact-threshold. Edge-list files may be
// gzip-compressed (detected by magic bytes).
//
// Observability: GET /metrics serves Prometheus text covering request
// latency histograms, plan-cache hit counters, live-store/WAL gauges
// and per-stage executor timings; -slow-query-ms logs queries over the
// threshold with their plan digest and stage breakdown; -log-format
// selects human-readable text or JSON structured logs.
//
// Usage:
//
//	gfserver -dataset Epinions -addr :8090
//	gfserver -data graph.txt.gz -timeout 10s -max-concurrent 32
//
//	curl -s localhost:8090/query -d '{"pattern":"a->b, b->c, a->c"}'
//	curl -s localhost:8090/prepare -d '{"name":"tri","pattern":"a->b, b->c, a->c"}'
//	curl -s localhost:8090/execute/tri -d '{"workers":4}'
//	curl -s localhost:8090/ingest -d '{"add_edges":[{"src":1,"dst":2,"label":0}]}'
//	curl -s 'localhost:8090/explain?pattern=a->b,b->c,a->c&analyze=true'
//	curl -s localhost:8090/metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux, served only by -debug-addr
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"graphflow"
	"graphflow/internal/logx"
	"graphflow/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":8090", "listen address")
		dataFile  = flag.String("data", "", "edge-list file to load, optionally gzip-compressed (see internal/graph format)")
		dsName    = flag.String("dataset", "", "built-in dataset name (Amazon, Epinions, LiveJournal, Twitter, BerkStan, Google, Human)")
		scale     = flag.Int("scale", 1, "dataset scale factor")
		timeout   = flag.Duration("timeout", 30*time.Second, "default per-query execution deadline")
		maxTime   = flag.Duration("max-timeout", 5*time.Minute, "ceiling on request-supplied timeouts")
		maxConc   = flag.Int("max-concurrent", 64, "admission limit on concurrently executing queries")
		maxRows   = flag.Int("max-rows", 10000, "ceiling on rows returned by one match request")
		maxWork   = flag.Int("max-workers", 16, "ceiling on request-supplied worker counts")
		catZ      = flag.Int("catz", 1000, "catalogue sample size z")
		catH      = flag.Int("cath", 3, "catalogue max subquery size h")
		drain     = flag.Duration("drain", 15*time.Second, "graceful-shutdown drain budget")
		compact   = flag.Int("compact-threshold", 0, "delta-overlay mutations before background compaction (0 = default 16384, negative disables)")
		debug     = flag.String("debug-addr", "", "optional listener for net/http/pprof, e.g. localhost:6060 (disabled when empty; keep it on a loopback or otherwise private address)")
		dataDir   = flag.String("data-dir", "", "durability directory: WAL + checkpoints; /ingest batches survive restarts and are recovered on boot (empty = in-memory only)")
		fsync     = flag.String("fsync", "batch", `WAL fsync policy: "batch" (fsync before every acknowledged batch), "interval", or "off"`)
		fsyncInt  = flag.Duration("fsync-interval", 0, "period of the interval fsync policy (0 = default 100ms)")
		maxBody   = flag.Int64("max-body-bytes", 0, "request-body cap for query endpoints (0 = default 1 MiB)")
		maxIngBd  = flag.Int64("max-ingest-body-bytes", 0, "request-body cap for /ingest (0 = default 64 MiB)")
		logFmt    = flag.String("log-format", "text", `structured log rendering: "text" or "json"`)
		slowMS    = flag.Int64("slow-query-ms", 0, "log queries slower than this many milliseconds with plan digest and stage breakdown (0 disables)")
		memBudget = flag.Int64("mem-budget-bytes", 0, "per-query memory budget: queries whose metered allocations exceed it abort with 422 (0 = unlimited)")
		memGlobal = flag.Int64("mem-global-bytes", 0, "process-wide query-memory ceiling shared by all in-flight queries (0 = unlimited)")
		queueDep  = flag.Int("queue-depth", 0, "admission queue depth at saturation (0 = default 2x max-concurrent, negative disables queueing)")
		queueWait = flag.Duration("queue-wait", 0, "longest a request may queue for an admission slot before 429 (0 = default 1s, negative disables queueing)")
		tenantHdr = flag.String("tenant-header", "", `request header naming the tenant for quota accounting (default "X-Tenant")`)
		tenantQ   = flag.String("tenant-quotas", "", `per-tenant concurrent-slot quotas as "name=n,name=n" (empty = none)`)
		tenantDef = flag.Int("tenant-default-quota", 0, "concurrent-slot quota for tenants not listed in -tenant-quotas (0 = unlimited)")
	)
	flag.Parse()

	logger, err := logx.Setup(*logFmt, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gfserver:", err)
		os.Exit(2)
	}

	quotas, err := parseTenantQuotas(*tenantQ)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gfserver:", err)
		os.Exit(2)
	}

	opts := &graphflow.Options{
		CatalogueH: *catH, CatalogueZ: *catZ, CompactThreshold: *compact,
		DataDir: *dataDir, Fsync: *fsync, FsyncInterval: *fsyncInt,
		MemBudgetBytes: *memBudget, MemGlobalBytes: *memGlobal,
	}
	var db *graphflow.DB
	switch {
	case *dataFile != "":
		f, ferr := os.Open(*dataFile)
		if ferr != nil {
			logger.Error("opening data file", "err", ferr)
			os.Exit(1)
		}
		db, err = graphflow.NewFromEdgeList(f, opts)
		f.Close()
	case *dsName != "":
		db, err = graphflow.NewFromDataset(*dsName, *scale, opts)
	default:
		fmt.Fprintln(os.Stderr, "gfserver: one of -data or -dataset is required")
		os.Exit(2)
	}
	if err != nil {
		logger.Error("loading graph", "err", err)
		os.Exit(1)
	}
	logger.Info("graph loaded", "vertices", db.NumVertices(), "edges", db.NumEdges())
	if ls := db.LiveStats(); ls.WALEnabled {
		logger.Info("durable store recovered",
			"dir", *dataDir, "epoch", ls.Epoch, "replayed_batches", ls.ReplayedBatches,
			"checkpoint_epoch", ls.CheckpointEpoch, "torn_tail_dropped", ls.WALTornTail)
	}

	srv, err := server.New(server.Config{
		DB:                 db,
		DefaultTimeout:     *timeout,
		MaxTimeout:         *maxTime,
		MaxConcurrent:      *maxConc,
		MaxRows:            *maxRows,
		MaxWorkers:         *maxWork,
		MaxBodyBytes:       *maxBody,
		MaxIngestBodyBytes: *maxIngBd,
		SlowQueryThreshold: time.Duration(*slowMS) * time.Millisecond,
		Logger:             logger,
		MaxQueueDepth:      *queueDep,
		MaxQueueWait:       *queueWait,
		TenantHeader:       *tenantHdr,
		TenantQuotas:       quotas,
		DefaultTenantQuota: *tenantDef,
	})
	if err != nil {
		logger.Error("building server", "err", err)
		os.Exit(1)
	}

	// The pprof listener is separate from the query listener on purpose:
	// profiles of the vectorized batch path can be captured in production
	// without exposing /debug/pprof to query traffic. It is a real
	// http.Server (not a fire-and-forget ListenAndServe) so the drain
	// path below can shut it down instead of leaking the listener.
	var debugSrv *http.Server
	if *debug != "" {
		debugSrv = &http.Server{
			Addr:              *debug,
			Handler:           http.DefaultServeMux,
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			logger.Info("pprof debug listener started", "addr", *debug)
			if err := debugSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("debug listener", "err", err)
			}
		}()
	}

	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
		// ReadHeaderTimeout guards against slowloris clients holding
		// connections open without sending a request.
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Serve until SIGINT/SIGTERM, then drain: Shutdown stops accepting
	// new connections and waits for in-flight requests — whose query
	// contexts keep running until their own deadlines — up to the drain
	// budget, after which Close cancels whatever remains.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Info("gfserver listening", "addr", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	logger.Info("signal received; draining", "budget", drain.String())
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Drain the admission controller first: queued waiters are shed with
	// Retry-After, new arrivals (including late /ingest batches) get 503,
	// and the call returns once every in-flight slot is released — so by
	// the time the DB closes below, no request can still be mutating it.
	if err := srv.Drain(drainCtx); err != nil {
		logger.Warn("admission drain budget exhausted", "err", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		logger.Warn("drain budget exhausted, closing", "err", err)
		_ = httpSrv.Close()
	}
	// The debug listener drains inside the same budget: profiles in
	// flight (e.g. a 30s CPU profile) are abandoned once the budget is
	// spent rather than pinning the process.
	if debugSrv != nil {
		if err := debugSrv.Shutdown(drainCtx); err != nil {
			_ = debugSrv.Close()
		}
	}
	// Close the DB after the HTTP drain so every acknowledged ingest is
	// synced to the WAL before exit.
	if err := db.Close(); err != nil {
		logger.Error("closing store", "err", err)
	}
	logger.Info("gfserver stopped")
}

// parseTenantQuotas parses the -tenant-quotas flag: a comma-separated
// list of name=n pairs, each n a positive concurrent-slot count.
func parseTenantQuotas(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	quotas := make(map[string]int)
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("-tenant-quotas: %q is not name=n", pair)
		}
		n, err := strconv.Atoi(val)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("-tenant-quotas: %q needs a positive slot count", pair)
		}
		quotas[name] = n
	}
	return quotas, nil
}
