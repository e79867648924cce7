// Package server exposes a graphflow DB over HTTP: ad-hoc counting and
// matching, a named prepared-statement registry backed by the DB's
// compiled-plan cache, plan inspection, and operational stats. Every
// query executes under a per-request deadline threaded through the
// ctx-aware execution core, so a pathological worst-case-optimal query
// cannot pin a worker past its budget, and an admission controller —
// a bounded priority queue with per-tenant quotas over a fixed number
// of execution slots — sheds load with Retry-After once the server is
// saturated. Queries aborted by their memory budget come back as 422
// with a machine-readable code; panics recovered inside the engine are
// logged with their stack and reported as 500 without killing the
// process.
//
// Endpoints (all JSON):
//
//	POST /query            one-shot count or match of a pattern
//	POST /prepare          register a named prepared statement
//	POST /execute/{name}   run a previously prepared statement
//	DELETE /prepare/{name} drop a prepared statement
//	GET/POST /explain      optimizer plan; ?analyze=true runs it and
//	                       annotates each operator with actual rows and wall time
//	POST /ingest           apply one mutation batch (vertices, edge adds/deletes)
//	POST /compact          force a compaction of the delta overlay
//	GET /stats             graph, epoch, plan-cache, prepared and request counters
//	GET /metrics           Prometheus text exposition of every server and DB metric
//	GET /healthz           liveness probe
//
// Every mutating or querying endpoint runs behind one timing middleware:
// request latency histograms (per endpoint) and response counters (per
// endpoint and status code) are observed in exactly one place, and the
// ElapsedMS field every response carries is measured from the same
// request-arrival instant the histograms use. Queries slower than
// Config.SlowQueryThreshold are logged through slog with their plan
// digest and per-stage time breakdown.
//
// Mutations go through the DB's live store: each /ingest batch becomes
// one new epoch, queries already executing keep their snapshot, and
// later queries run their cached plans against the mutated graph.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"graphflow"
	"graphflow/internal/exec"
	"graphflow/internal/metrics"
	"graphflow/internal/resource"
)

// StatusClientClosedRequest is the non-standard 499 status (nginx
// convention) reported when the client abandoned a request whose query
// was then cancelled. It distinguishes client-initiated cancellation
// from the server-initiated 504 deadline.
const StatusClientClosedRequest = 499

// Config tunes a Server. The zero value of every field takes a sensible
// default; only DB is mandatory.
type Config struct {
	// DB is the database served. Required.
	DB *graphflow.DB
	// DefaultTimeout bounds query execution when the request does not set
	// timeout_ms. Default 30s.
	DefaultTimeout time.Duration
	// MaxTimeout clamps request-supplied timeouts. Default 5m.
	MaxTimeout time.Duration
	// MaxConcurrent is the admission limit: at most this many requests
	// plan or execute concurrently; the rest queue (up to MaxQueueDepth
	// for MaxQueueWait) and are then shed with 429. Default 64.
	MaxConcurrent int
	// MaxQueueDepth bounds how many requests may wait for an execution
	// slot before new arrivals are shed immediately. Default
	// 2×MaxConcurrent; negative disables queueing (saturation sheds at
	// once, the pre-queue behaviour).
	MaxQueueDepth int
	// MaxQueueWait bounds how long one queued request waits for a slot
	// before it is shed with 429 queue_timeout. Default 1s; negative
	// disables queueing.
	MaxQueueWait time.Duration
	// TenantHeader names the request header whose value identifies the
	// tenant for quota accounting. Default "X-Tenant"; requests without
	// the header share the unquota'd anonymous tenant.
	TenantHeader string
	// TenantQuotas caps concurrent execution slots per tenant value;
	// tenants at quota are shed with 429 tenant_quota even when slots
	// are free, so one tenant cannot monopolise the server.
	TenantQuotas map[string]int
	// DefaultTenantQuota caps tenants absent from TenantQuotas
	// (0 = unlimited).
	DefaultTenantQuota int
	// MaxRows clamps the number of rows a match request may return.
	// Default 10000.
	MaxRows int
	// MaxWorkers clamps request-supplied worker counts. Default 16.
	MaxWorkers int
	// MaxBodyBytes caps request bodies on the query-shaped endpoints
	// (/query, /prepare, /execute, /explain). Default 1 MiB. Oversized
	// bodies are rejected with 413.
	MaxBodyBytes int64
	// MaxIngestBodyBytes caps /ingest request bodies, which carry bulk
	// edge data and routinely dwarf query bodies. Default 64 MiB.
	MaxIngestBodyBytes int64
	// SlowQueryThreshold, when positive, logs every query whose total
	// request time meets it at Warn level with the pattern or template
	// name, plan digest, plan kind and per-stage time breakdown. 0
	// disables slow-query logging.
	SlowQueryThreshold time.Duration
	// Logger receives the server's structured log records. Nil takes
	// slog.Default() (configure process-wide with internal/logx).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 64
	}
	if c.MaxQueueDepth == 0 {
		c.MaxQueueDepth = 2 * c.MaxConcurrent
	}
	if c.MaxQueueDepth < 0 {
		c.MaxQueueDepth = 0
	}
	if c.MaxQueueWait == 0 {
		c.MaxQueueWait = time.Second
	}
	if c.MaxQueueWait < 0 {
		c.MaxQueueWait = 0
	}
	if c.TenantHeader == "" {
		c.TenantHeader = "X-Tenant"
	}
	if c.MaxRows <= 0 {
		c.MaxRows = 10000
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = 16
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxIngestBodyBytes <= 0 {
		c.MaxIngestBodyBytes = 64 << 20
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Server is the HTTP serving layer over one DB. It is safe for
// concurrent use; construct with New and mount via Handler or ServeHTTP.
type Server struct {
	cfg Config
	mux *http.ServeMux
	// adm is the admission controller: a slot is held while a request
	// plans or executes a query — the CPU-bound phases — and released
	// before the response is encoded, so a slow-reading client cannot
	// hold admission capacity with no query running.
	adm *admission

	mu       sync.RWMutex
	prepared map[string]*graphflow.PreparedQuery

	served, rejected, deadlined, ingested atomic.Int64

	// budgetAborts counts queries stopped by their memory budget (422);
	// panicked counts queries failed by a recovered execution panic.
	budgetAborts, panicked atomic.Int64

	// Per-kernel intersection dispatch totals accumulated across served
	// count-mode queries (match mode streams rows and does not report
	// per-run statistics), surfaced by /stats as the serving-layer view
	// of the intersection engine.
	kernelMerge, kernelGallop, kernelPinnedProbe atomic.Int64
	// carriedSets totals the intersections seeded with an upstream
	// stage's extension set (Stats.CarriedSets), reported beside them.
	carriedSets atomic.Int64

	// Per-stage batch dispatch totals of the vectorized engine, same
	// accumulation rules as the kernel counters.
	batchScan, batchExtend, batchProbe atomic.Int64

	// Factorized-execution totals across served count-mode queries:
	// prefixes that hit a factorized tail and the tuples whose
	// materialisation the cross-product arithmetic avoided.
	factorizedPrefixes, factorizedAvoided atomic.Int64

	// stageNanos accumulates per-stage executor wall time across served
	// count-mode queries, indexed by stageNames; /metrics exposes it as
	// graphflow_exec_stage_seconds_total{stage=...}.
	stageNanos [len(stageNames)]atomic.Int64

	// reg holds every server and DB metric; /metrics serialises it.
	reg *metrics.Registry
	// httpSeconds/httpResponses are fed exclusively by the instrument
	// middleware so all endpoints share one timing implementation.
	httpSeconds   *metrics.HistogramVec
	httpResponses *metrics.CounterVec
	// templateSeconds tracks /execute latency per prepared-statement name.
	templateSeconds *metrics.HistogramVec
	// shedTotal counts admission refusals by reason; admissionWait is
	// the queueing delay of requests that waited for a slot;
	// budgetAbortBytes records how much memory a budget-aborted query
	// had reserved when it hit its ceiling.
	shedTotal        *metrics.CounterVec
	admissionWait    *metrics.Histogram
	budgetAbortBytes *metrics.Histogram
}

// stageNames indexes Server.stageNanos and labels the per-stage time
// series; order matches the executor's Profile stage breakdown.
var stageNames = [...]string{"scan", "extend", "probe", "factorized", "build", "emit"}

// New builds a Server over cfg.DB.
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, errors.New("server: Config.DB is required")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg: cfg,
		adm: newAdmission(cfg.MaxConcurrent, cfg.MaxQueueDepth, cfg.MaxQueueWait,
			cfg.TenantQuotas, cfg.DefaultTenantQuota),
		prepared: make(map[string]*graphflow.PreparedQuery),
	}
	s.registerMetrics()
	mux := http.NewServeMux()
	mux.Handle("POST /query", s.instrument("/query", s.handleQuery))
	mux.Handle("POST /prepare", s.instrument("/prepare", s.handlePrepare))
	mux.Handle("DELETE /prepare/{name}", s.instrument("/prepare/{name}", s.handleUnprepare))
	mux.Handle("POST /execute/{name}", s.instrument("/execute/{name}", s.handleExecute))
	mux.Handle("/explain", s.instrument("/explain", s.handleExplain))
	mux.Handle("POST /ingest", s.instrument("/ingest", s.handleIngest))
	mux.Handle("POST /compact", s.instrument("/compact", s.handleCompact))
	mux.Handle("GET /stats", s.instrument("/stats", s.handleStats))
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux = mux
	return s, nil
}

// registerMetrics builds the server's registry: the DB's graphflow_*
// internals plus the serving layer's request, admission, per-template
// and per-stage series. The counter funcs read the same atomics /stats
// reports, so the two views can never disagree.
func (s *Server) registerMetrics() {
	s.reg = metrics.NewRegistry()
	s.cfg.DB.RegisterMetrics(s.reg)
	s.httpSeconds = s.reg.HistogramVec("graphflow_http_request_seconds",
		"End-to-end request latency by endpoint, decode through response write.",
		metrics.DefBuckets, "endpoint")
	s.httpResponses = s.reg.CounterVec("graphflow_http_responses_total",
		"Responses by endpoint and status code.", "endpoint", "code")
	s.templateSeconds = s.reg.HistogramVec("graphflow_exec_template_seconds",
		"Query latency of /execute by prepared-statement name.",
		metrics.DefBuckets, "template")
	s.reg.CounterFunc("graphflow_requests_served_total", "Queries that completed successfully.",
		func() float64 { return float64(s.served.Load()) })
	s.reg.CounterFunc("graphflow_requests_rejected_total", "Requests shed at the admission limit (429).",
		func() float64 { return float64(s.rejected.Load()) })
	s.reg.CounterFunc("graphflow_requests_deadlined_total", "Queries that exceeded their deadline (504).",
		func() float64 { return float64(s.deadlined.Load()) })
	s.reg.GaugeFunc("graphflow_requests_in_flight", "Admission slots currently held.",
		func() float64 { return float64(s.adm.inFlightCount()) })
	s.reg.GaugeFunc("graphflow_admission_queue_depth", "Requests queued for an admission slot.",
		func() float64 { return float64(s.adm.queueDepth()) })
	s.shedTotal = s.reg.CounterVec("graphflow_admission_shed_total",
		"Requests shed at admission by reason.", "reason")
	s.admissionWait = s.reg.Histogram("graphflow_admission_wait_seconds",
		"Time requests spent queued for an admission slot.", metrics.DefBuckets)
	s.reg.CounterFunc("graphflow_query_budget_aborts_total",
		"Queries aborted by a per-query or global memory budget (422).",
		func() float64 { return float64(s.budgetAborts.Load()) })
	s.budgetAbortBytes = s.reg.Histogram("graphflow_query_budget_abort_bytes",
		"Bytes a budget-aborted query had reserved when it hit its ceiling.",
		[]float64{1 << 16, 1 << 20, 1 << 24, 1 << 28, 1 << 32})
	s.reg.CounterFunc("graphflow_query_panics_total",
		"Queries failed by a panic recovered inside the execution engine.",
		func() float64 { return float64(s.panicked.Load()) })
	s.reg.CounterFunc("graphflow_ingest_batches_total", "Mutation batches applied via /ingest.",
		func() float64 { return float64(s.ingested.Load()) })
	s.reg.GaugeFunc("graphflow_prepared_statements", "Registered prepared statements.",
		func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return float64(len(s.prepared))
		})
	for i, name := range stageNames {
		n := &s.stageNanos[i]
		s.reg.CounterFunc("graphflow_exec_stage_seconds_total",
			"Executor wall time attributed to each pipeline stage across served count queries.",
			func() float64 { return float64(n.Load()) / 1e9 }, "stage", name)
	}
	for _, k := range []struct {
		name string
		c    *atomic.Int64
	}{
		{"merge", &s.kernelMerge}, {"gallop", &s.kernelGallop}, {"pinned_probe", &s.kernelPinnedProbe},
	} {
		c := k.c
		s.reg.CounterFunc("graphflow_exec_kernel_dispatch_total",
			"Intersection-kernel dispatches across served count queries.",
			func() float64 { return float64(c.Load()) }, "kernel", k.name)
	}
	s.reg.CounterFunc("graphflow_exec_carried_sets_total",
		"E/I intersections seeded with the upstream stage's extension set across served count queries.",
		func() float64 { return float64(s.carriedSets.Load()) })
	s.reg.CounterFunc("graphflow_exec_factorized_prefixes_total",
		"Prefixes that reached a factorized tail across served count queries.",
		func() float64 { return float64(s.factorizedPrefixes.Load()) })
	s.reg.CounterFunc("graphflow_exec_factorized_avoided_tuples_total",
		"Output tuples counted without materialisation by factorized execution.",
		func() float64 { return float64(s.factorizedAvoided.Load()) })
}

// Metrics returns the server's registry so embedding processes (tests,
// the gfserver binary) can add their own series to the same /metrics
// exposition.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// startTimeKey carries the middleware's request-arrival instant through
// the request context, so handler-level ElapsedMS fields and the
// latency histograms measure from the same clock edge.
type startTimeKey struct{}

// statusRecorder captures the status code a handler wrote so the
// middleware can label the response counter.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (rec *statusRecorder) WriteHeader(code int) {
	rec.status = code
	rec.ResponseWriter.WriteHeader(code)
}

// instrument is the shared timing middleware: one histogram observation
// and one response-count increment per request, plus the arrival
// timestamp every handler derives ElapsedMS from.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		r = r.WithContext(context.WithValue(r.Context(), startTimeKey{}, start))
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		s.httpSeconds.With(endpoint).ObserveDuration(time.Since(start))
		s.httpResponses.With(endpoint, strconv.Itoa(rec.status)).Inc()
	})
}

// requestStart returns the middleware's arrival instant (now, when the
// handler runs outside the instrumented mux, e.g. in direct tests).
func requestStart(r *http.Request) time.Time {
	if t, ok := r.Context().Value(startTimeKey{}).(time.Time); ok {
		return t
	}
	return time.Now()
}

// elapsedMS reports milliseconds since the request arrived, the value
// every response's ElapsedMS field carries.
func elapsedMS(r *http.Request) float64 {
	return float64(time.Since(requestStart(r)).Microseconds()) / 1000
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// queryRequest is the body of /query and /execute/{name}. All fields are
// optional except Pattern (ignored by /execute, which uses the prepared
// statement's pattern).
type queryRequest struct {
	Pattern string `json:"pattern"`
	// Mode is "count" (default) or "match".
	Mode      string `json:"mode"`
	Workers   int    `json:"workers"`
	Limit     int64  `json:"limit"`
	Distinct  bool   `json:"distinct"`
	Adaptive  bool   `json:"adaptive"`
	WCO       bool   `json:"wco"`
	TimeoutMS int64  `json:"timeout_ms"`
	// MemBudgetBytes tightens the per-query memory budget for this
	// request (0 = server default). It can only lower the configured
	// default, never widen it.
	MemBudgetBytes int64 `json:"mem_budget_bytes"`
}

// queryResponse is the body of a successful /query or /execute response.
// Count and Rows are pointers so their zero values still serialise in
// the mode that produced them ("count":0, "rows":[]) while the other
// mode omits the field entirely.
type queryResponse struct {
	Count     *int64               `json:"count,omitempty"`
	Rows      *[]map[string]uint32 `json:"rows,omitempty"`
	Truncated bool                 `json:"truncated,omitempty"`
	PlanKind  string               `json:"plan_kind,omitempty"`
	// Kernels reports the intersection-kernel dispatch counts of this
	// run (count mode only): merge, gallop, pinned_probe.
	Kernels *kernelCounts `json:"kernels,omitempty"`
	// Batches reports the columnar batches each stage kind of the
	// vectorized engine dispatched for this run (count mode only).
	Batches *batchCounts `json:"batches,omitempty"`
	// Factorized reports the factorized-execution counters of this run
	// (count mode only): how many prefixes reached a factorized tail and
	// how many output tuples were counted without materialisation.
	Factorized *factorizedCounts `json:"factorized,omitempty"`
	// Stages attributes this run's executor wall time to pipeline stages
	// (count mode only), in milliseconds.
	Stages    *stageMillis `json:"stage_ms,omitempty"`
	ElapsedMS float64      `json:"elapsed_ms"`
}

// stageMillis is the JSON shape of the per-stage wall-time breakdown.
type stageMillis struct {
	Scan       float64 `json:"scan"`
	Extend     float64 `json:"extend"`
	Probe      float64 `json:"probe"`
	Factorized float64 `json:"factorized"`
	Build      float64 `json:"build"`
	Emit       float64 `json:"emit"`
}

// stageMillisFrom converts a Stats stage breakdown to milliseconds,
// returning nil when no stage time was attributed.
func stageMillisFrom(st *graphflow.Stats) *stageMillis {
	total := st.StageScanNanos + st.StageExtendNanos + st.StageProbeNanos +
		st.StageFactorizedNanos + st.StageBuildNanos + st.StageEmitNanos
	if total == 0 {
		return nil
	}
	ms := func(n int64) float64 { return float64(n) / 1e6 }
	return &stageMillis{
		Scan:       ms(st.StageScanNanos),
		Extend:     ms(st.StageExtendNanos),
		Probe:      ms(st.StageProbeNanos),
		Factorized: ms(st.StageFactorizedNanos),
		Build:      ms(st.StageBuildNanos),
		Emit:       ms(st.StageEmitNanos),
	}
}

// factorizedCounts is the JSON shape of factorized-execution counters.
type factorizedCounts struct {
	Prefixes      int64 `json:"prefixes"`
	AvoidedTuples int64 `json:"avoided_tuples"`
}

// batchCounts is the JSON shape of per-stage batch dispatch counters.
type batchCounts struct {
	Scan   int64 `json:"scan"`
	Extend int64 `json:"extend"`
	Probe  int64 `json:"probe"`
}

// kernelCounts is the JSON shape of per-kernel intersection dispatch
// counters.
type kernelCounts struct {
	Merge       int64 `json:"merge"`
	Gallop      int64 `json:"gallop"`
	PinnedProbe int64 `json:"pinned_probe"`
	// CarriedSets counts the intersections that started from the set an
	// upstream E/I stage carried down rather than from adjacency lists.
	CarriedSets int64 `json:"carried_sets"`
}

type errorResponse struct {
	Error string `json:"error"`
	// Code is the machine-readable error class, present on
	// resource-governance refusals: "budget_exceeded",
	// "global_budget_exceeded", or an admission shed reason.
	Code string `json:"code,omitempty"`
	// LimitBytes/ReservedBytes detail a budget abort: the ceiling that
	// was hit and the bytes reserved when the query crossed it.
	LimitBytes    int64 `json:"limit_bytes,omitempty"`
	ReservedBytes int64 `json:"reserved_bytes,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// decodeBody parses the request body into v, reading at most limit
// bytes; a missing body is treated as an empty object so every knob
// defaults. Anything but whitespace after the JSON value is rejected.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, limit int64) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == nil {
			err = errTrailingData
		}
	}
	if err != nil && !errors.Is(err, io.EOF) {
		writeBodyError(w, err)
		return false
	}
	return true
}

// writeBodyError answers a request whose body could not be read or
// decoded. Oversized bodies get 413 with the effective limit named so
// the client knows what to shrink (or which server knob to raise).
func writeBodyError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge,
			"request body exceeds the %d-byte limit for this endpoint", tooBig.Limit)
		return
	}
	writeError(w, http.StatusBadRequest, "bad request body: %v", err)
}

// admit acquires an execution slot through the admission controller,
// queueing up to Config.MaxQueueWait when the server is saturated. On
// success it returns the release closure the handler must call once
// the CPU-bound phase ends. On refusal the shed response — 429 (or 503
// while draining), always with Retry-After — is already written and
// admit returns nil, false.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	tenant := r.Header.Get(s.cfg.TenantHeader)
	res := s.adm.acquire(r.Context(), priorityFrom(r.Header.Get("X-Priority")), tenant)
	if res.waited > 0 {
		s.admissionWait.ObserveDuration(res.waited)
	}
	if res.ok {
		return func() { s.adm.release(tenant) }, true
	}
	if res.clientGone {
		writeError(w, StatusClientClosedRequest, "client closed request while queued for admission")
		return nil, false
	}
	s.rejected.Add(1)
	s.shedTotal.With(res.shed).Inc()
	w.Header().Set("Retry-After", s.retryAfter(res.shed))
	status := http.StatusTooManyRequests
	if res.shed == shedDraining {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, errorResponse{
		Error: fmt.Sprintf("admission refused: %s (limit %d in flight, queue %d deep)",
			res.shed, s.cfg.MaxConcurrent, s.cfg.MaxQueueDepth),
		Code: res.shed,
	})
	return nil, false
}

// retryAfter suggests a client backoff per shed reason, in whole
// seconds (the only unit the header carries portably).
func (s *Server) retryAfter(reason string) string {
	switch reason {
	case shedDraining:
		return "5"
	case shedQueueFull, shedQueueTimeout:
		return strconv.Itoa(int(s.cfg.MaxQueueWait/time.Second) + 1)
	}
	return "1" // tenant_quota: retry as soon as one of your queries ends
}

// Drain refuses new work (queued waiters are shed, new arrivals get
// 503 + Retry-After) and waits until every in-flight request has
// released its slot or ctx expires. Call before closing the DB so a
// late /ingest cannot race a shutdown.
func (s *Server) Drain(ctx context.Context) error {
	select {
	case <-s.adm.beginDrain():
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// queryOptions maps a request onto QueryOptions, clamping workers and
// limits to the server's configured ceilings and sanitizing nonsense
// values. Negative workers/limit clamp to 0 (auto / unlimited); a
// negative mem_budget_bytes is rejected with 400.
func (s *Server) queryOptions(req *queryRequest) (*graphflow.QueryOptions, error) {
	workers := req.Workers
	if workers < 0 {
		workers = 0
	}
	if workers > s.cfg.MaxWorkers {
		workers = s.cfg.MaxWorkers
	}
	limit := req.Limit
	if limit < 0 {
		limit = 0
	}
	if req.MemBudgetBytes < 0 {
		return nil, fmt.Errorf("%w: mem_budget_bytes %d is negative (0 = server default)", errBadRequest, req.MemBudgetBytes)
	}
	return &graphflow.QueryOptions{
		Workers:        workers,
		Limit:          limit,
		Distinct:       req.Distinct,
		Adaptive:       req.Adaptive,
		WCOOnly:        req.WCO,
		MemBudgetBytes: req.MemBudgetBytes,
	}, nil
}

// timeout resolves the request's execution budget. The millisecond
// value is compared before multiplying so an absurd timeout_ms cannot
// overflow time.Duration into a negative (instantly expired) deadline.
func (s *Server) timeout(req *queryRequest) time.Duration {
	d := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		if req.TimeoutMS >= s.cfg.MaxTimeout.Milliseconds() {
			return s.cfg.MaxTimeout
		}
		d = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// writeRunError maps an execution error onto resource-governance and
// timeout/cancellation semantics: 422 when the query's memory budget
// aborted it (with the ceiling and reservation in the body), 500 with
// a stack-carrying log record when a panic was recovered inside the
// engine, 504 when the server-side deadline expired, 499 when the
// client went away, 500 otherwise.
func (s *Server) writeRunError(w http.ResponseWriter, r *http.Request, err error) {
	var pe *exec.PanicError
	switch {
	case errors.Is(err, resource.ErrBudgetExceeded):
		s.budgetAborts.Add(1)
		resp := errorResponse{Error: fmt.Sprintf("query aborted: %v", err), Code: "budget_exceeded"}
		var be *resource.BudgetError
		if errors.As(err, &be) {
			s.budgetAbortBytes.Observe(float64(be.Reserved))
			resp.LimitBytes = be.Limit
			resp.ReservedBytes = be.Reserved
			if be.Global {
				resp.Code = "global_budget_exceeded"
			}
		}
		writeJSON(w, http.StatusUnprocessableEntity, resp)
	case errors.As(err, &pe):
		// The engine recovered a panic, poisoned the worker and failed
		// only this query; the stack goes to the log, not the client.
		s.panicked.Add(1)
		s.cfg.Logger.Error("query panicked",
			slog.Any("panic", pe.Value),
			slog.String("stack", string(pe.Stack)))
		writeError(w, http.StatusInternalServerError, "query failed: internal execution panic (see server log)")
	case errors.Is(err, context.DeadlineExceeded):
		s.deadlined.Add(1)
		writeError(w, http.StatusGatewayTimeout, "query exceeded its deadline: %v", err)
	case errors.Is(err, context.Canceled) && r.Context().Err() != nil:
		// The request context is the only canceller wired in; its
		// cancellation means the client closed the connection.
		writeError(w, StatusClientClosedRequest, "client closed request: %v", err)
	default:
		writeError(w, http.StatusInternalServerError, "query failed: %v", err)
	}
}

// errUnknownMode marks a request whose mode field is neither "count"
// nor "match"; respond maps it to 400.
var errUnknownMode = errors.New("unknown mode")

// errBadRequest marks a request with invalid option values; respond
// maps it to 400.
var errBadRequest = errors.New("bad request")

// execute runs pq under the request's deadline and options. name is the
// prepared-statement name ("" for ad-hoc /query), labelling the
// per-template latency histogram and slow-query log lines. The caller
// must hold an admission slot: planning and execution are the CPU-bound
// phases the semaphore bounds.
func (s *Server) execute(r *http.Request, name string, pq *graphflow.PreparedQuery, req *queryRequest) (queryResponse, error) {
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(req))
	defer cancel()

	start := requestStart(r)
	resp := queryResponse{PlanKind: pq.PlanKind()}
	opts, err := s.queryOptions(req)
	if err != nil {
		return resp, err
	}
	opts.Context = ctx
	switch req.Mode {
	case "", "count":
		n, st, err := pq.CountStats(opts)
		if err != nil {
			return resp, err
		}
		resp.Count = &n
		resp.Kernels = &kernelCounts{
			Merge:       st.KernelMerge,
			Gallop:      st.KernelGallop,
			PinnedProbe: st.KernelPinnedProbe,
			CarriedSets: st.CarriedSets,
		}
		resp.Batches = &batchCounts{
			Scan:   st.ScanBatches,
			Extend: st.ExtendBatches,
			Probe:  st.ProbeBatches,
		}
		resp.Factorized = &factorizedCounts{
			Prefixes:      st.FactorizedPrefixes,
			AvoidedTuples: st.FactorizedAvoided,
		}
		resp.Stages = stageMillisFrom(&st)
		s.kernelMerge.Add(st.KernelMerge)
		s.kernelGallop.Add(st.KernelGallop)
		s.kernelPinnedProbe.Add(st.KernelPinnedProbe)
		s.carriedSets.Add(st.CarriedSets)
		s.batchScan.Add(st.ScanBatches)
		s.batchExtend.Add(st.ExtendBatches)
		s.batchProbe.Add(st.ProbeBatches)
		s.factorizedPrefixes.Add(st.FactorizedPrefixes)
		s.factorizedAvoided.Add(st.FactorizedAvoided)
		s.stageNanos[0].Add(st.StageScanNanos)
		s.stageNanos[1].Add(st.StageExtendNanos)
		s.stageNanos[2].Add(st.StageProbeNanos)
		s.stageNanos[3].Add(st.StageFactorizedNanos)
		s.stageNanos[4].Add(st.StageBuildNanos)
		s.stageNanos[5].Add(st.StageEmitNanos)
	case "match":
		rowCap := int64(s.cfg.MaxRows)
		capped := opts.Limit <= 0 || opts.Limit > rowCap
		if capped {
			opts.Limit = rowCap
		}
		rows := make([]map[string]uint32, 0, 16)
		err := pq.Match(func(m map[string]uint32) bool {
			rows = append(rows, m)
			return true
		}, opts)
		if err != nil {
			return resp, err
		}
		resp.Rows = &rows
		// A full rowCap of rows under the server's ceiling (no caller limit,
		// or one the ceiling clamped) means enumeration may have been cut
		// short rather than exhausted.
		resp.Truncated = capped && int64(len(rows)) == rowCap
	default:
		return resp, fmt.Errorf("%w %q (want \"count\" or \"match\")", errUnknownMode, req.Mode)
	}
	elapsed := time.Since(start)
	resp.ElapsedMS = float64(elapsed.Microseconds()) / 1000
	if name != "" {
		s.templateSeconds.With(name).ObserveDuration(elapsed)
	}
	s.maybeLogSlow(name, pq, req, elapsed, resp.Stages)
	return resp, nil
}

// maybeLogSlow emits the slow-query Warn record when the run met the
// configured threshold: enough to find the query (pattern or template),
// group it across processes (plan digest), and see where the time went
// (planning, when this request planned; the per-stage breakdown, when the
// vectorized engine attributed one).
func (s *Server) maybeLogSlow(name string, pq *graphflow.PreparedQuery, req *queryRequest, elapsed time.Duration, stages *stageMillis) {
	if s.cfg.SlowQueryThreshold <= 0 || elapsed < s.cfg.SlowQueryThreshold {
		return
	}
	attrs := []any{
		slog.Float64("elapsed_ms", float64(elapsed.Microseconds())/1000),
		slog.String("plan_digest", pq.PlanDigest()),
		slog.String("plan_kind", pq.PlanKind()),
	}
	if name != "" {
		attrs = append(attrs, slog.String("template", name))
	} else {
		attrs = append(attrs, slog.String("pattern", req.Pattern))
		// An ad-hoc query is prepared inside the request: when the plan
		// cache missed, say how much of elapsed_ms was the optimizer.
		if took := pq.PlanTime(); took > 0 {
			attrs = append(attrs, slog.Float64("plan_ms", float64(took.Microseconds())/1000))
		}
	}
	if mode := req.Mode; mode == "" {
		attrs = append(attrs, slog.String("mode", "count"))
	} else {
		attrs = append(attrs, slog.String("mode", mode))
	}
	if stages != nil {
		attrs = append(attrs,
			slog.Float64("scan_ms", stages.Scan),
			slog.Float64("extend_ms", stages.Extend),
			slog.Float64("probe_ms", stages.Probe),
			slog.Float64("factorized_ms", stages.Factorized),
			slog.Float64("build_ms", stages.Build),
			slog.Float64("emit_ms", stages.Emit),
		)
	}
	s.cfg.Logger.Warn("slow query", attrs...)
}

// respond writes the outcome of execute.
func (s *Server) respond(w http.ResponseWriter, r *http.Request, resp queryResponse, err error) {
	switch {
	case err == nil:
		s.served.Add(1)
		writeJSON(w, http.StatusOK, resp)
	case errors.Is(err, errUnknownMode), errors.Is(err, errBadRequest):
		writeError(w, http.StatusBadRequest, "%v", err)
	default:
		s.writeRunError(w, r, err)
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !decodeBody(w, r, &req, s.cfg.MaxBodyBytes) {
		return
	}
	if req.Pattern == "" {
		writeError(w, http.StatusBadRequest, "missing pattern")
		return
	}
	// Planning runs inside the admission slot too: a flood of novel
	// patterns is optimizer work the admission limit must bound.
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	pq, err := s.prepare(req.Pattern, req.WCO)
	if err != nil {
		release()
		writeError(w, http.StatusBadRequest, "bad pattern: %v", err)
		return
	}
	resp, runErr := s.execute(r, "", pq, &req)
	release()
	s.respond(w, r, resp, runErr)
}

func (s *Server) prepare(pattern string, wco bool) (*graphflow.PreparedQuery, error) {
	if wco {
		return s.cfg.DB.PrepareWCO(pattern)
	}
	return s.cfg.DB.Prepare(pattern)
}

// prepareRequest is the body of /prepare.
type prepareRequest struct {
	Name    string `json:"name"`
	Pattern string `json:"pattern"`
	WCO     bool   `json:"wco"`
}

type prepareResponse struct {
	Name     string `json:"name"`
	PlanKind string `json:"plan_kind"`
	Plan     string `json:"plan"`
}

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	var req prepareRequest
	if !decodeBody(w, r, &req, s.cfg.MaxBodyBytes) {
		return
	}
	if req.Name == "" || req.Pattern == "" {
		writeError(w, http.StatusBadRequest, "both name and pattern are required")
		return
	}
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	pq, err := s.prepare(req.Pattern, req.WCO)
	release()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad pattern: %v", err)
		return
	}
	s.mu.Lock()
	if _, exists := s.prepared[req.Name]; exists {
		s.mu.Unlock()
		writeError(w, http.StatusConflict, "statement %q already prepared", req.Name)
		return
	}
	s.prepared[req.Name] = pq
	s.mu.Unlock()
	st := pq.Stats()
	writeJSON(w, http.StatusCreated, prepareResponse{Name: req.Name, PlanKind: st.PlanKind, Plan: st.Plan})
}

func (s *Server) handleUnprepare(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	_, ok := s.prepared[name]
	delete(s.prepared, name)
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "no prepared statement %q", name)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.RLock()
	pq, ok := s.prepared[name]
	s.mu.RUnlock()
	if !ok {
		writeError(w, http.StatusNotFound, "no prepared statement %q", name)
		return
	}
	var req queryRequest
	if !decodeBody(w, r, &req, s.cfg.MaxBodyBytes) {
		return
	}
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	resp, runErr := s.execute(r, name, pq, &req)
	release()
	s.respond(w, r, resp, runErr)
}

// explainRequest is the POST body of /explain. Analyze switches from
// plan inspection to EXPLAIN ANALYZE: the plan is executed
// single-threaded under the request deadline and each operator is
// annotated with its actual tuples, i-cost, cache hits and wall time.
type explainRequest struct {
	Pattern   string `json:"pattern"`
	Analyze   bool   `json:"analyze"`
	TimeoutMS int64  `json:"timeout_ms"`
}

type explainResponse struct {
	PlanKind   string  `json:"plan_kind"`
	Plan       string  `json:"plan"`
	PlanDigest string  `json:"plan_digest"`
	Estimated  float64 `json:"estimated_cardinality"`
	// Analyzed is true when the plan was actually executed; the fields
	// below it are only present in that case.
	Analyzed bool   `json:"analyzed,omitempty"`
	Matches  *int64 `json:"matches,omitempty"`
	// Stages attributes the analysis run's executor wall time to
	// pipeline stages, in milliseconds.
	Stages    *stageMillis `json:"stage_ms,omitempty"`
	ElapsedMS float64      `json:"elapsed_ms"`
}

// handleExplain accepts the pattern either as a ?pattern= query
// parameter (GET) or a JSON body (POST); ?analyze=true (or "analyze":
// true in the body) upgrades the plan dump to EXPLAIN ANALYZE.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	pattern := q.Get("pattern")
	analyze := q.Get("analyze") == "true" || q.Get("analyze") == "1"
	var req explainRequest
	if r.Method == http.MethodPost {
		if !decodeBody(w, r, &req, s.cfg.MaxBodyBytes) {
			return
		}
		if pattern == "" {
			pattern = req.Pattern
		}
		analyze = analyze || req.Analyze
	}
	if pattern == "" {
		writeError(w, http.StatusBadRequest, "missing pattern")
		return
	}
	// Admission covers planning, and for analyze the full execution.
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	pq, err := s.cfg.DB.Prepare(pattern)
	if err != nil {
		release()
		writeError(w, http.StatusBadRequest, "bad pattern: %v", err)
		return
	}
	pst := pq.Stats()
	est, _ := s.cfg.DB.EstimateCardinality(pattern)
	resp := explainResponse{
		PlanKind:   pst.PlanKind,
		Plan:       pst.Plan,
		PlanDigest: pq.PlanDigest(),
		Estimated:  est,
	}
	if analyze {
		ctx, cancel := context.WithTimeout(r.Context(), s.timeout(&queryRequest{TimeoutMS: req.TimeoutMS}))
		ast, runErr := s.cfg.DB.Analyze(pattern, &graphflow.QueryOptions{Context: ctx})
		cancel()
		release()
		if runErr != nil {
			s.writeRunError(w, r, runErr)
			return
		}
		resp.Analyzed = true
		resp.Plan = ast.Plan
		resp.Matches = &ast.Matches
		resp.Stages = stageMillisFrom(&ast)
		resp.ElapsedMS = elapsedMS(r)
		writeJSON(w, http.StatusOK, resp)
		return
	}
	release()
	resp.ElapsedMS = elapsedMS(r)
	writeJSON(w, http.StatusOK, resp)
}

type ingestResponse struct {
	Epoch uint64 `json:"epoch"`
	// FirstNewVertex is a pointer so the field is present exactly when
	// the batch added vertices: vertex IDs start at 0, and a plain
	// omitempty uint32 would swallow the very first vertex of an empty
	// store (ID 0), leaving the client unable to tell what it created.
	FirstNewVertex *uint32 `json:"first_new_vertex,omitempty"`
	AddedVertices  int     `json:"added_vertices"`
	AddedEdges     int     `json:"added_edges"`
	DeletedEdges   int     `json:"deleted_edges"`
	Vertices       int     `json:"vertices"`
	Edges          int     `json:"edges"`
	ElapsedMS      float64 `json:"elapsed_ms"`
}

// handleIngest applies one mutation batch: the body of /ingest,
// {"add_vertices":[label, ...], "add_edges":[{"src":s, "dst":d,
// "label":l}, ...], "delete_edges":[...]}, applied atomically as a
// single new epoch. Edges may reference vertices added by the same
// batch (IDs are assigned sequentially from the current vertex count).
// Ingest work runs inside the admission semaphore like queries: overlay
// rebuilding for hot vertices is CPU-bound work the limit must cover.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	sc := getIngestScratch()
	defer sc.release()
	sc.body.Reset()
	_, err := sc.body.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxIngestBodyBytes))
	if err == nil {
		err = decodeIngest(sc.body.Bytes(), &sc.batch)
	}
	if err != nil {
		writeBodyError(w, err)
		return
	}
	b := &sc.batch
	if len(b.AddVertices) == 0 && len(b.AddEdges) == 0 && len(b.DeleteEdges) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch: provide add_vertices, add_edges or delete_edges")
		return
	}
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	res, err := s.cfg.DB.Apply(*b)
	release()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad batch: %v", err)
		return
	}
	s.ingested.Add(1)
	var firstNew *uint32
	if res.AddedVertices > 0 {
		v := res.FirstNewVertex
		firstNew = &v
	}
	// Counts come from the ApplyResult, read atomically with the epoch —
	// re-reading the DB here could observe a concurrent later batch.
	writeJSON(w, http.StatusOK, ingestResponse{
		Epoch:          res.Epoch,
		FirstNewVertex: firstNew,
		AddedVertices:  res.AddedVertices,
		AddedEdges:     res.AddedEdges,
		DeletedEdges:   res.DeletedEdges,
		Vertices:       res.Vertices,
		Edges:          res.Edges,
		ElapsedMS:      elapsedMS(r),
	})
}

type compactResponse struct {
	Epoch     uint64 `json:"epoch"`
	BaseEdges int    `json:"base_edges"`
	DeltaOps  int    `json:"delta_ops"`
}

// handleCompact forces a synchronous compaction pass.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	err := s.cfg.DB.Compact()
	release()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "compaction failed: %v", err)
		return
	}
	ls := s.cfg.DB.LiveStats()
	writeJSON(w, http.StatusOK, compactResponse{Epoch: ls.Epoch, BaseEdges: ls.BaseEdges, DeltaOps: ls.DeltaOps})
}

type statsResponse struct {
	Graph struct {
		Vertices    int    `json:"vertices"`
		Edges       int    `json:"edges"`
		Epoch       uint64 `json:"epoch"`
		BaseEdges   int    `json:"base_edges"`
		DeltaOps    int    `json:"delta_ops"`
		Compactions int64  `json:"compactions"`
		Ingested    int64  `json:"ingested_batches"`
	} `json:"graph"`
	// WAL reports the durability layer's state; all-zero (enabled:false)
	// when the server runs over an ephemeral store.
	WAL struct {
		Enabled         bool   `json:"enabled"`
		Bytes           int64  `json:"bytes"`
		Batches         int64  `json:"batches"`
		ReplayedBatches int    `json:"replayed_batches"`
		TornTailDropped bool   `json:"torn_tail_dropped"`
		CheckpointEpoch uint64 `json:"checkpoint_epoch"`
		Checkpoints     int64  `json:"checkpoints"`
	} `json:"wal"`
	// Kernels totals intersection-kernel dispatches across served
	// count-mode queries.
	Kernels kernelCounts `json:"kernels"`
	// Batches totals the vectorized engine's per-stage batch dispatches
	// across served count-mode queries.
	Batches batchCounts `json:"batches"`
	// Factorized totals factorized-execution work across served
	// count-mode queries.
	Factorized factorizedCounts `json:"factorized"`
	PlanCache  struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
		Entries   int   `json:"entries"`
	} `json:"plan_cache"`
	// Catalogue reports the planner statistics: the published generation,
	// how far the graph has drifted from the one it was sampled on (a
	// background refresh is due at a tenth of edges_at_build), what the
	// published catalogue cost to build, and its entries and their bytes.
	Catalogue struct {
		Generation   uint64  `json:"generation"`
		Builds       int64   `json:"builds"`
		EdgesAtBuild int     `json:"edges_at_build"`
		DriftEdges   int64   `json:"drift_edges"`
		LastBuildMS  float64 `json:"last_build_ms"`
		Entries      int     `json:"entries"`
		Bytes        int64   `json:"bytes"`
	} `json:"catalogue"`
	Prepared int `json:"prepared_statements"`
	Requests struct {
		Served    int64 `json:"served"`
		Rejected  int64 `json:"rejected"`
		Deadlined int64 `json:"deadlined"`
		InFlight  int   `json:"in_flight"`
		// Queued is the current admission-queue depth; BudgetAborts and
		// Panics count queries stopped by their memory budget (422) and
		// by recovered engine panics (500).
		Queued       int   `json:"queued"`
		BudgetAborts int64 `json:"budget_aborts"`
		Panics       int64 `json:"panics"`
	} `json:"requests"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var resp statsResponse
	ls := s.cfg.DB.LiveStats()
	resp.Graph.Vertices = ls.Vertices
	resp.Graph.Edges = ls.Edges
	resp.Graph.Epoch = ls.Epoch
	resp.Graph.BaseEdges = ls.BaseEdges
	resp.Graph.DeltaOps = ls.DeltaOps
	resp.Graph.Compactions = ls.Compactions
	resp.Graph.Ingested = s.ingested.Load()
	resp.WAL.Enabled = ls.WALEnabled
	resp.WAL.Bytes = ls.WALBytes
	resp.WAL.Batches = ls.WALBatches
	resp.WAL.ReplayedBatches = ls.ReplayedBatches
	resp.WAL.TornTailDropped = ls.WALTornTail
	resp.WAL.CheckpointEpoch = ls.CheckpointEpoch
	resp.WAL.Checkpoints = ls.Checkpoints
	resp.Kernels = kernelCounts{
		Merge:       s.kernelMerge.Load(),
		Gallop:      s.kernelGallop.Load(),
		PinnedProbe: s.kernelPinnedProbe.Load(),
		CarriedSets: s.carriedSets.Load(),
	}
	resp.Batches = batchCounts{
		Scan:   s.batchScan.Load(),
		Extend: s.batchExtend.Load(),
		Probe:  s.batchProbe.Load(),
	}
	resp.Factorized = factorizedCounts{
		Prefixes:      s.factorizedPrefixes.Load(),
		AvoidedTuples: s.factorizedAvoided.Load(),
	}
	pc := s.cfg.DB.PlanCacheStats()
	resp.PlanCache.Hits = pc.Hits
	resp.PlanCache.Misses = pc.Misses
	resp.PlanCache.Evictions = pc.Evictions
	resp.PlanCache.Entries = pc.Entries
	cs := s.cfg.DB.CatalogueStats()
	resp.Catalogue.Generation = cs.Generation
	resp.Catalogue.Builds = cs.Builds
	resp.Catalogue.EdgesAtBuild = cs.EdgesAtBuild
	resp.Catalogue.DriftEdges = cs.DriftEdges
	resp.Catalogue.LastBuildMS = float64(cs.LastBuild) / float64(time.Millisecond)
	resp.Catalogue.Entries = cs.Entries
	resp.Catalogue.Bytes = cs.Bytes
	s.mu.RLock()
	resp.Prepared = len(s.prepared)
	s.mu.RUnlock()
	resp.Requests.Served = s.served.Load()
	resp.Requests.Rejected = s.rejected.Load()
	resp.Requests.Deadlined = s.deadlined.Load()
	resp.Requests.InFlight = s.adm.inFlightCount()
	resp.Requests.Queued = s.adm.queueDepth()
	resp.Requests.BudgetAborts = s.budgetAborts.Load()
	resp.Requests.Panics = s.panicked.Load()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
