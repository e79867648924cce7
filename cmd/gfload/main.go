// Command gfload drives a weighted query + ingest mix against a running
// gfserver and reports latency percentiles and achieved throughput.
// The default scenario mixes triangle and star counts, a row-returning
// path match, and a ~10% stream of random mutation batches; -qps paces
// the aggregate request rate open-loop (0 = closed-loop, as fast as
// responses return).
//
// Usage:
//
//	gfserver -dataset Epinions -data-dir /tmp/gf &
//	gfload -url http://localhost:8090 -duration 30s -qps 200 -c 8
//
// The report is one text row per template plus an overall row: requests,
// errors, sheds, retries, p50/p95/p99 and mean latency, achieved QPS.
// When the target serves /metrics, the driver scrapes it before and after
// the run and adds per-endpoint server-side p50/p95/p99 rows (from the
// request-histogram bucket deltas), so the report separates queueing and
// network overhead from time actually spent in the server.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"graphflow/internal/load"
	"graphflow/internal/logx"
)

func main() {
	var (
		url      = flag.String("url", "http://localhost:8090", "base URL of the target gfserver")
		duration = flag.Duration("duration", 10*time.Second, "run length")
		maxReq   = flag.Int64("max-requests", 0, "stop after this many requests (0 = duration only)")
		conc     = flag.Int("c", 8, "concurrent workers")
		qps      = flag.Float64("qps", 0, "target aggregate QPS (0 = closed loop)")
		seed     = flag.Int64("seed", 1, "seed for template selection and ingest batches")
		logFmt   = flag.String("log-format", "text", `structured log rendering: "text" or "json"`)
		retries  = flag.Int("retries", 0, "retries per shed (429/503) request, honouring Retry-After with capped exponential backoff (0 = default 3, negative disables)")
		backoff  = flag.Duration("backoff-cap", 0, "ceiling on one retry backoff sleep (0 = default 2s)")
	)
	flag.Parse()

	if _, err := logx.Setup(*logFmt, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "gfload:", err)
		os.Exit(2)
	}

	rep, err := load.Run(load.Config{
		BaseURL:     *url,
		Templates:   load.DefaultTemplates(),
		Duration:    *duration,
		MaxRequests: *maxReq,
		Concurrency: *conc,
		TargetQPS:   *qps,
		Seed:        *seed,
		MaxRetries:  *retries,
		BackoffCap:  *backoff,
	})
	if err != nil {
		slog.Error("load run failed", "err", err)
		os.Exit(1)
	}
	fmt.Printf("%-18s %9s %7s %6s %7s %9s %9s %9s %9s %10s\n",
		"template", "requests", "errors", "sheds", "retries", "p50(ms)", "p95(ms)", "p99(ms)", "mean(ms)", "qps")
	for _, r := range rep.Results {
		fmt.Printf("%-18s %9d %7d %6d %7d %9.2f %9.2f %9.2f %9.2f %10.1f\n",
			r.Name, r.Requests, r.Errors, r.Sheds, r.Retries, r.P50MS, r.P95MS, r.P99MS, r.MeanMS, r.AchievedQPS)
	}
	if len(rep.Server) > 0 {
		fmt.Printf("\nserver-side (from /metrics bucket deltas):\n")
		fmt.Printf("%-18s %9s %9s %9s %9s %9s\n",
			"endpoint", "requests", "p50(ms)", "p95(ms)", "p99(ms)", "mean(ms)")
		for _, r := range rep.Server {
			fmt.Printf("%-18s %9d %9.2f %9.2f %9.2f %9.2f\n",
				r.Endpoint, r.Requests, r.P50MS, r.P95MS, r.P99MS, r.MeanMS)
		}
	}
}
