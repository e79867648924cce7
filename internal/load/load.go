// Package load is a closed+open-loop load driver for a running
// gfserver: a weighted mix of query templates and ingest mutation
// batches is fired at the HTTP API from a pool of workers, optionally
// paced to a target aggregate QPS, and per-template latency percentiles
// (p50/p95/p99), error counts and achieved throughput are reported. The
// server's /metrics exposition is scraped before and after the run, so
// the report also carries the server-side latency distribution of each
// endpoint (reconstructed from histogram bucket deltas) next to the
// client-observed numbers — the gap between the two is pure
// network/encode overhead. The cmd/gfload wrapper adds flags; the
// package itself is driven in-process by tests against an
// httptest-mounted server.
package load

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"graphflow/internal/metrics"
)

// Template is one weighted request generator of the mix. Exactly one of
// Query or Ingest semantics applies: a template with Ingest true draws a
// random mutation batch each call instead of posting Body to /query.
type Template struct {
	// Name labels the template in the report.
	Name string
	// Weight is the template's share of the mix (relative to the sum of
	// all weights; non-positive templates are dropped).
	Weight int
	// Body is the /query request body (pattern, mode, workers, ...).
	// Ignored for ingest templates.
	Body map[string]any
	// Ingest marks the template as a mutation generator: each call posts
	// a random small batch (edge adds and deletes over the live vertex
	// range) to /ingest.
	Ingest bool
}

// Config tunes one load run.
type Config struct {
	// BaseURL roots the target server, e.g. "http://localhost:8090".
	BaseURL string
	// Templates is the weighted mix; at least one entry required.
	Templates []Template
	// Duration bounds the run (default 10s). The run also stops once
	// MaxRequests have been issued, when positive.
	Duration    time.Duration
	MaxRequests int64
	// Concurrency is the worker-pool size (default 8).
	Concurrency int
	// TargetQPS paces the aggregate request rate across workers; 0 runs
	// closed-loop (every worker fires as fast as responses return).
	TargetQPS float64
	// Seed drives template selection and ingest batch generation.
	Seed int64
	// Client overrides the HTTP client (tests inject an httptest one).
	Client *http.Client
	// Vertices is the live vertex-ID range ingest batches draw from; 0
	// asks the server's /stats once at startup.
	Vertices int
	// MaxRetries bounds how many times one shed request (429/503) is
	// re-issued, honouring the server's Retry-After with capped
	// exponential backoff. Default 3; negative disables retries.
	MaxRetries int
	// BackoffCap clamps one backoff sleep (default 2s). The server's
	// Retry-After seeds the delay when present, else 100ms, doubling per
	// attempt up to this cap, with up to 25% jitter.
	BackoffCap time.Duration
}

// Result is one template's (or the overall) aggregate outcome: a row of
// the report.
type Result struct {
	Name        string
	Requests    int64
	Errors      int64
	P50MS       float64
	P95MS       float64
	P99MS       float64
	MeanMS      float64
	AchievedQPS float64
	TargetQPS   float64
	// Sheds counts 429/503 responses the server returned for this
	// template (including ones a retry then got through); Retries counts
	// re-issued requests; ShedRate is Sheds over issued requests
	// (requests + retries), the fraction of sends the server refused.
	Sheds    int64
	Retries  int64
	ShedRate float64
}

// ServerResult is one endpoint's server-side latency distribution over
// the run, reconstructed from the /metrics request histograms scraped
// before and after (the quantiles interpolate within bucket-count
// deltas, so they are exact to bucket resolution, not sample-exact).
type ServerResult struct {
	Endpoint string
	Requests int64
	P50MS    float64
	P95MS    float64
	P99MS    float64
	MeanMS   float64
}

// Report is what one run measured: one Result per template plus an
// overall row last, and the server-side rows. Server is empty when the
// target exposes no /metrics endpoint (older builds) — the client-side
// rows still stand alone.
type Report struct {
	Results []Result
	Server  []ServerResult
}

// DefaultTemplates is the standard mixed scenario: two count shapes the
// paper's plan spectrum keys on, a row-returning match, and a mutation
// stream — roughly 10% writes.
func DefaultTemplates() []Template {
	return []Template{
		{Name: "tri-count", Weight: 5, Body: map[string]any{"pattern": "a->b, b->c, a->c"}},
		{Name: "star-count", Weight: 2, Body: map[string]any{"pattern": "a->b, a->c, a->d"}},
		{Name: "path-match", Weight: 2, Body: map[string]any{"pattern": "a->b, b->c", "mode": "match", "limit": 64}},
		{Name: "ingest", Weight: 1, Ingest: true},
	}
}

// sample is one recorded request.
type sample struct {
	tpl     int
	latency time.Duration
	err     bool
}

// Run drives the configured mix and aggregates the report rows.
func Run(cfg Config) (*Report, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("load: BaseURL required")
	}
	var tpls []Template
	for _, t := range cfg.Templates {
		if t.Weight > 0 {
			tpls = append(tpls, t)
		}
	}
	if len(tpls) == 0 {
		return nil, errors.New("load: no templates with positive weight")
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Second
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 3
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.BackoffCap <= 0 {
		cfg.BackoffCap = 2 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	vertices := cfg.Vertices
	if vertices <= 0 {
		v, err := fetchVertexCount(client, cfg.BaseURL)
		if err != nil {
			return nil, fmt.Errorf("load: fetching vertex range: %w", err)
		}
		vertices = v
	}
	if vertices < 2 {
		return nil, fmt.Errorf("load: server graph has %d vertices; need at least 2 for ingest templates", vertices)
	}

	totalWeight := 0
	for _, t := range tpls {
		totalWeight += t.Weight
	}
	// Pre-marshal static query bodies once.
	bodies := make([][]byte, len(tpls))
	for i, t := range tpls {
		if !t.Ingest {
			b, err := json.Marshal(t.Body)
			if err != nil {
				return nil, fmt.Errorf("load: template %s: %w", t.Name, err)
			}
			bodies[i] = b
		}
	}

	// Scrape the server's request-latency histograms before firing any
	// load; the post-run scrape diffs against this baseline so only this
	// run's requests land in the server-side rows. A nil scrape (no
	// /metrics endpoint) simply omits them.
	before := scrapeRequestLatency(client, cfg.BaseURL)

	ctx, cancel := context.WithTimeout(context.Background(), cfg.Duration)
	defer cancel()

	var (
		tickets atomic.Int64 // issued-request counter, also the pacing ticket
		mu      sync.Mutex
		samples []sample
	)
	shedCounts := make([]atomic.Int64, len(tpls))
	retryCounts := make([]atomic.Int64, len(tpls))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(worker)*7919))
			local := make([]sample, 0, 1024)
			for {
				n := tickets.Add(1) - 1
				if cfg.MaxRequests > 0 && n >= cfg.MaxRequests {
					break
				}
				if cfg.TargetQPS > 0 {
					// Open-loop pacing: ticket n is due at start + n/QPS.
					due := start.Add(time.Duration(float64(n) / cfg.TargetQPS * float64(time.Second)))
					if d := time.Until(due); d > 0 {
						select {
						case <-time.After(d):
						case <-ctx.Done():
						}
					}
				}
				if ctx.Err() != nil {
					break
				}
				// Weighted template draw.
				pick := rng.Intn(totalWeight)
				ti := 0
				for i, t := range tpls {
					if pick < t.Weight {
						ti = i
						break
					}
					pick -= t.Weight
				}
				var path string
				var body []byte
				if tpls[ti].Ingest {
					path, body = "/ingest", ingestBody(rng, vertices)
				} else {
					path, body = "/query", bodies[ti]
				}
				t0 := time.Now()
				ok, sheds, retries := post(ctx, client, cfg.BaseURL+path, body, rng, &cfg)
				lat := time.Since(t0)
				shedCounts[ti].Add(sheds)
				retryCounts[ti].Add(retries)
				if ctx.Err() != nil {
					// Don't count a request the deadline chopped mid-flight.
					break
				}
				local = append(local, sample{tpl: ti, latency: lat, err: !ok})
			}
			mu.Lock()
			samples = append(samples, local...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &Report{}
	perTpl := make([][]time.Duration, len(tpls))
	errCounts := make([]int64, len(tpls))
	var all []time.Duration
	var allErrs int64
	for _, s := range samples {
		if s.err {
			errCounts[s.tpl]++
			allErrs++
			continue
		}
		perTpl[s.tpl] = append(perTpl[s.tpl], s.latency)
		all = append(all, s.latency)
	}
	var totalSheds, totalRetries int64
	for i, t := range tpls {
		row := aggregate("load/"+t.Name, perTpl[i], errCounts[i], elapsed, 0)
		row.Sheds = shedCounts[i].Load()
		row.Retries = retryCounts[i].Load()
		row.ShedRate = shedRate(row.Sheds, row.Requests+row.Retries)
		totalSheds += row.Sheds
		totalRetries += row.Retries
		rep.Results = append(rep.Results, row)
	}
	overall := aggregate("load/overall", all, allErrs, elapsed, cfg.TargetQPS)
	overall.Sheds = totalSheds
	overall.Retries = totalRetries
	overall.ShedRate = shedRate(totalSheds, overall.Requests+totalRetries)
	rep.Results = append(rep.Results, overall)
	if before != nil {
		if after := scrapeRequestLatency(client, cfg.BaseURL); after != nil {
			rep.Server = serverDelta(before, after)
		}
	}
	return rep, nil
}

// serverHist is one endpoint's scraped request histogram: de-cumulated
// bucket counts (last = +Inf) plus the _sum/_count pair.
type serverHist struct {
	bounds []float64
	counts []int64
	sum    float64
	count  int64
}

// scrapeRequestLatency fetches and parses /metrics, returning the
// graphflow_http_request_seconds state keyed by endpoint. nil on any
// failure — scraping is best-effort and must never fail a load run
// against a server that predates the metrics endpoint.
func scrapeRequestLatency(client *http.Client, baseURL string) map[string]serverHist {
	resp, err := client.Get(baseURL + "/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	fams, err := metrics.ParseText(resp.Body)
	if err != nil {
		return nil
	}
	var fam *metrics.ParsedFamily
	for _, f := range fams {
		if f.Name == "graphflow_http_request_seconds" {
			fam = f
			break
		}
	}
	if fam == nil {
		return nil
	}
	endpoints := make(map[string]bool)
	for _, s := range fam.Series {
		if ep := s.Labels["endpoint"]; ep != "" {
			endpoints[ep] = true
		}
	}
	out := make(map[string]serverHist, len(endpoints))
	for ep := range endpoints {
		bounds, counts, ok := fam.Buckets(map[string]string{"endpoint": ep})
		if !ok {
			continue
		}
		h := serverHist{bounds: bounds, counts: counts}
		for _, s := range fam.Series {
			if s.Labels["endpoint"] != ep {
				continue
			}
			switch s.Labels["__suffix__"] {
			case "sum":
				h.sum = s.Value
			case "count":
				h.count = int64(s.Value)
			}
		}
		out[ep] = h
	}
	return out
}

// serverDelta subtracts the pre-run scrape from the post-run one and
// folds each endpoint's bucket-count delta into percentile rows.
// Endpoints with no traffic during the run are dropped; an endpoint
// whose bucket layout changed between scrapes (server restart) is
// skipped rather than reported wrong.
func serverDelta(before, after map[string]serverHist) []ServerResult {
	eps := make([]string, 0, len(after))
	for ep := range after {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	var out []ServerResult
	for _, ep := range eps {
		a := after[ep]
		b := before[ep] // zero value when the endpoint is new since the baseline
		if b.counts != nil && len(b.counts) != len(a.counts) {
			continue
		}
		d := make([]int64, len(a.counts))
		var n int64
		for i := range a.counts {
			d[i] = a.counts[i]
			if b.counts != nil {
				d[i] -= b.counts[i]
			}
			n += d[i]
		}
		if n <= 0 {
			continue
		}
		q := func(p float64) float64 { return metrics.QuantileFromBuckets(a.bounds, d, p) * 1000 }
		r := ServerResult{Endpoint: ep, Requests: n, P50MS: q(0.50), P95MS: q(0.95), P99MS: q(0.99)}
		if dc := a.count - b.count; dc > 0 {
			r.MeanMS = (a.sum - b.sum) / float64(dc) * 1000
		}
		out = append(out, r)
	}
	return out
}

// aggregate folds one latency set into a Result row.
func aggregate(name string, lats []time.Duration, errs int64, elapsed time.Duration, targetQPS float64) Result {
	r := Result{Name: name, Requests: int64(len(lats)) + errs, Errors: errs, TargetQPS: targetQPS}
	if len(lats) == 0 {
		return r
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(q float64) float64 {
		idx := int(q*float64(len(lats))+0.5) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(lats) {
			idx = len(lats) - 1
		}
		return float64(lats[idx].Microseconds()) / 1000
	}
	var sum time.Duration
	for _, l := range lats {
		sum += l
	}
	r.P50MS = pct(0.50)
	r.P95MS = pct(0.95)
	r.P99MS = pct(0.99)
	r.MeanMS = float64(sum.Microseconds()) / float64(len(lats)) / 1000
	if elapsed > 0 {
		r.AchievedQPS = float64(len(lats)) / elapsed.Seconds()
	}
	return r
}

// ingestBody draws one small random mutation batch: a handful of edge
// adds and deletes over the live vertex range (adds and deletes overlap
// on purpose, so delete-heavy semantics stay exercised).
func ingestBody(rng *rand.Rand, vertices int) []byte {
	type edge struct {
		Src   int `json:"src"`
		Dst   int `json:"dst"`
		Label int `json:"label"`
	}
	var adds, dels []edge
	for i := 1 + rng.Intn(4); i > 0; i-- {
		adds = append(adds, edge{Src: rng.Intn(vertices), Dst: rng.Intn(vertices), Label: rng.Intn(2)})
	}
	for i := rng.Intn(3); i > 0; i-- {
		e := edge{Src: rng.Intn(vertices), Dst: rng.Intn(vertices), Label: rng.Intn(2)}
		if len(adds) > 0 && rng.Intn(2) == 0 {
			e = adds[rng.Intn(len(adds))] // delete something this batch added
		}
		dels = append(dels, e)
	}
	b, _ := json.Marshal(map[string]any{"add_edges": adds, "delete_edges": dels})
	return b
}

// shedRate is sheds over issued sends, 0 when nothing was sent.
func shedRate(sheds, issued int64) float64 {
	if issued <= 0 {
		return 0
	}
	return float64(sheds) / float64(issued)
}

// post issues one request, honouring load-shedding responses (429 and
// 503) by re-issuing up to cfg.MaxRetries times with capped exponential
// backoff: the server's Retry-After seeds the delay when present (else
// 100ms), doubling per attempt, clamped to cfg.BackoffCap, plus up to
// 25% jitter from the worker's rng so synchronized workers do not
// re-converge on the saturated server. Reports success plus how many
// sheds were observed and how many sends were retries.
func post(ctx context.Context, client *http.Client, url string, body []byte, rng *rand.Rand, cfg *Config) (ok bool, sheds, retries int64) {
	delay := 100 * time.Millisecond
	for attempt := 0; ; attempt++ {
		status, retryAfter := postOnce(ctx, client, url, body)
		if status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable {
			return status >= 200 && status < 300, sheds, retries
		}
		sheds++
		if attempt >= cfg.MaxRetries || ctx.Err() != nil {
			return false, sheds, retries
		}
		d := delay
		if retryAfter > 0 {
			d = retryAfter
		}
		if d > cfg.BackoffCap {
			d = cfg.BackoffCap
		}
		d += time.Duration(rng.Int63n(int64(d)/4 + 1))
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return false, sheds, retries
		}
		retries++
		delay *= 2
	}
}

// postOnce issues one request, reporting the status code (0 on
// transport error) and any Retry-After hint the response carried.
func postOnce(ctx context.Context, client *http.Client, url string, body []byte) (status int, retryAfter time.Duration) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, 0
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, 0
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
	}
	return resp.StatusCode, retryAfter
}

// fetchVertexCount reads the live vertex count from /stats.
func fetchVertexCount(client *http.Client, baseURL string) (int, error) {
	resp, err := client.Get(baseURL + "/stats")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("/stats returned %d", resp.StatusCode)
	}
	var st struct {
		Graph struct {
			Vertices int `json:"vertices"`
		} `json:"graph"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, err
	}
	return st.Graph.Vertices, nil
}
