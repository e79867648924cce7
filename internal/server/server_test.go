package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"graphflow"
	"graphflow/internal/query"
)

var (
	dbOnce sync.Once
	testDB *graphflow.DB
)

// sharedDB builds one Epinions-like DB for every test; catalogue
// construction dominates setup so it is done once.
func sharedDB(t *testing.T) *graphflow.DB {
	t.Helper()
	dbOnce.Do(func() {
		db, err := graphflow.NewFromDataset("Epinions", 1, &graphflow.Options{CatalogueZ: 200})
		if err != nil {
			t.Fatal(err)
		}
		testDB = db
	})
	return testDB
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.DB == nil {
		cfg.DB = sharedDB(t)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// do issues one request against the in-process handler and returns the
// recorder. body may be a raw string or any JSON-marshalable value.
func do(t *testing.T, s *Server, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	return doCtx(t, s, context.Background(), method, path, body)
}

func doCtx(t *testing.T, s *Server, ctx context.Context, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	switch b := body.(type) {
	case nil:
		rd = bytes.NewReader(nil)
	case string:
		rd = bytes.NewReader([]byte(b))
	default:
		buf, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req := httptest.NewRequest(method, path, rd).WithContext(ctx)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

const triangle = "a->b, b->c, a->c"

func TestHandlerTable(t *testing.T) {
	s := newTestServer(t, Config{})
	// One statement for the /execute cases.
	if w := do(t, s, "POST", "/prepare", queryRequest{Name: "tri", Pattern: triangle}); w.Code != http.StatusCreated {
		t.Fatalf("prepare: status %d: %s", w.Code, w.Body)
	}

	cases := []struct {
		name       string
		method     string
		path       string
		body       any
		wantStatus int
		wantSubstr string // substring of the response body
	}{
		{"healthz", "GET", "/healthz", nil, http.StatusOK, `"ok"`},
		{"count triangle", "POST", "/query", queryRequest{Pattern: triangle}, http.StatusOK, `"count"`},
		{"match with limit", "POST", "/query", queryRequest{Pattern: triangle, Mode: "match", Limit: 5}, http.StatusOK, `"rows"`},
		{"parallel count", "POST", "/query", queryRequest{Pattern: triangle, Workers: 4}, http.StatusOK, `"count"`},
		{"bad pattern", "POST", "/query", queryRequest{Pattern: "a->"}, http.StatusBadRequest, "bad pattern"},
		{"disconnected pattern", "POST", "/query", queryRequest{Pattern: "a->b, c->d"}, http.StatusBadRequest, "bad pattern"},
		{"empty pattern", "POST", "/query", queryRequest{}, http.StatusBadRequest, "missing pattern"},
		{"malformed json", "POST", "/query", `{"pattern": `, http.StatusBadRequest, "bad request body"},
		{"two values", "POST", "/query", `{"pattern":"a->b, b->c, a->c"} {"pattern":"a->b"}`, http.StatusBadRequest, "bad request body"},
		{"trailing garbage", "POST", "/query", `{"pattern":"a->b, b->c, a->c"} garbage`, http.StatusBadRequest, "bad request body"},
		{"trailing whitespace", "POST", "/query", "{\"pattern\":\"a->b, b->c, a->c\"}\n\t ", http.StatusOK, `"count"`},
		{"bad mode", "POST", "/query", queryRequest{Pattern: triangle, Mode: "explode"}, http.StatusBadRequest, "unknown mode"},
		{"explain GET", "GET", "/explain?pattern=" + "a-%3Eb,b-%3Ec,a-%3Ec", nil, http.StatusOK, `"plan_kind"`},
		{"explain bad", "GET", "/explain?pattern=zzz", nil, http.StatusBadRequest, "bad pattern"},
		{"explain missing", "GET", "/explain", nil, http.StatusBadRequest, "missing pattern"},
		{"prepare duplicate", "POST", "/prepare", queryRequest{Name: "tri", Pattern: triangle}, http.StatusConflict, "already prepared"},
		{"prepare nameless", "POST", "/prepare", queryRequest{Pattern: triangle}, http.StatusBadRequest, "required"},
		{"prepare bad pattern", "POST", "/prepare", queryRequest{Name: "bad", Pattern: "->"}, http.StatusBadRequest, "bad pattern"},
		{"execute", "POST", "/execute/tri", queryRequest{}, http.StatusOK, `"count"`},
		{"execute match", "POST", "/execute/tri", queryRequest{Mode: "match", Limit: 3}, http.StatusOK, `"rows"`},
		{"execute unknown", "POST", "/execute/nope", queryRequest{}, http.StatusNotFound, "no prepared statement"},
		{"stats", "GET", "/stats", nil, http.StatusOK, `"plan_cache"`},
		{"query wrong method", "GET", "/query", nil, http.StatusMethodNotAllowed, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := do(t, s, tc.method, tc.path, tc.body)
			if w.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body: %s)", w.Code, tc.wantStatus, w.Body)
			}
			if tc.wantSubstr != "" && !strings.Contains(w.Body.String(), tc.wantSubstr) {
				t.Errorf("body %q does not contain %q", w.Body, tc.wantSubstr)
			}
		})
	}
}

// TestExplainEstimateIsThePlans holds /explain's estimated_cardinality to
// the estimate the prepared plan was priced on: for three spellings of
// each of Q1–Q14 (vertices renamed, edges shuffled) the response carries
// the plan's EstimatedCardinality bit for bit, the same for every
// spelling, and DB.EstimateCardinality agrees with it.
func TestExplainEstimateIsThePlans(t *testing.T) {
	db, err := graphflow.NewFromDataset("Epinions", 1, &graphflow.Options{CatalogueZ: 200})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{DB: db})
	rng := rand.New(rand.NewSource(1))
	for j := 1; j <= 14; j++ {
		first := math.NaN()
		for range 3 {
			q := query.Benchmark(j).Clone()
			names := rng.Perm(len(q.Vertices))
			for i := range q.Vertices {
				q.Vertices[i].Name = fmt.Sprintf("v%d", names[i])
			}
			rng.Shuffle(len(q.Edges), func(i, j int) { q.Edges[i], q.Edges[j] = q.Edges[j], q.Edges[i] })
			pattern := q.String()
			w := do(t, s, "POST", "/explain", queryRequest{Pattern: pattern})
			if w.Code != http.StatusOK {
				t.Fatalf("Q%d %s: status %d: %s", j, pattern, w.Code, w.Body)
			}
			var resp explainResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			pq, err := db.Prepare(pattern)
			if err != nil {
				t.Fatal(err)
			}
			want := pq.EstimatedCardinality()
			if math.Float64bits(resp.Estimated) != math.Float64bits(want) {
				t.Errorf("Q%d %s: estimated_cardinality %v, the plan's %v", j, pattern, resp.Estimated, want)
			}
			if est, err := db.EstimateCardinality(pattern); err != nil || math.Float64bits(est) != math.Float64bits(want) {
				t.Errorf("Q%d %s: DB.EstimateCardinality %v (%v), the plan's %v", j, pattern, est, err, want)
			}
			if math.IsNaN(first) {
				first = resp.Estimated
			} else if resp.Estimated != first {
				t.Errorf("Q%d %s: estimated_cardinality %v, another spelling's %v", j, pattern, resp.Estimated, first)
			}
		}
	}
}

func TestQueryCountValue(t *testing.T) {
	s := newTestServer(t, Config{})
	want, err := s.cfg.DB.Count(triangle, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := do(t, s, "POST", "/query", queryRequest{Pattern: triangle})
	var resp queryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad response %s: %v", w.Body, err)
	}
	if resp.Count == nil || *resp.Count != want {
		t.Errorf("served count = %v, want %d", resp.Count, want)
	}
	if resp.PlanKind == "" {
		t.Error("missing plan_kind")
	}
}

// TestZeroCountSerialized pins the regression where "count":0 was
// dropped by omitempty: a query with no matches must still carry an
// explicit count field.
func TestZeroCountSerialized(t *testing.T) {
	s := newTestServer(t, Config{})
	// Epinions has a single vertex label, so label 9 matches nothing.
	w := do(t, s, "POST", "/query", queryRequest{Pattern: "a:9 -> b:9"})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), `"count":0`) {
		t.Errorf(`zero-match response must contain "count":0, got %s`, w.Body)
	}
}

// TestEmptyMatchSerializesRows: a match with zero results must still
// carry "rows":[] so clients can distinguish it from a count response.
func TestEmptyMatchSerializesRows(t *testing.T) {
	s := newTestServer(t, Config{})
	w := do(t, s, "POST", "/query", queryRequest{Pattern: "a:9 -> b:9", Mode: "match"})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), `"rows":[]`) {
		t.Errorf(`empty match response must contain "rows":[], got %s`, w.Body)
	}
}

// TestTruncatedOnClampedLimit: a client limit above MaxRows is clamped,
// and the response must admit the cut with truncated=true.
func TestTruncatedOnClampedLimit(t *testing.T) {
	s := newTestServer(t, Config{MaxRows: 5})
	w := do(t, s, "POST", "/query", queryRequest{Pattern: triangle, Mode: "match", Limit: 50})
	var resp queryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad response %s: %v", w.Body, err)
	}
	if resp.Rows == nil || len(*resp.Rows) != 5 {
		t.Fatalf("got rows %v, want the MaxRows clamp of 5", resp.Rows)
	}
	if !resp.Truncated {
		t.Error("clamped match response must set truncated")
	}
	// A caller limit below the ceiling is honored exactly and not
	// reported as truncation.
	w = do(t, s, "POST", "/query", queryRequest{Pattern: triangle, Mode: "match", Limit: 3})
	resp = queryResponse{}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Rows == nil || len(*resp.Rows) != 3 || resp.Truncated {
		t.Errorf("limit 3: got rows %v truncated=%v, want 3 rows untruncated", resp.Rows, resp.Truncated)
	}
}

// TestDeadlineReturns504 pins the timeout semantics: a server-side
// deadline that expires during execution surfaces as 504 Gateway
// Timeout. The default timeout is set below any possible execution time,
// so the executor's first context poll deterministically observes
// expiry.
func TestDeadlineReturns504(t *testing.T) {
	s := newTestServer(t, Config{DefaultTimeout: time.Nanosecond})
	prepareTriangle(t, s)
	for _, r := range executingRequests {
		w := do(t, s, "POST", r.path, r.body)
		if w.Code != http.StatusGatewayTimeout {
			t.Fatalf("%s: status = %d, want %d (body: %s)", r.name, w.Code, http.StatusGatewayTimeout, w.Body)
		}
	}
	st := do(t, s, "GET", "/stats", nil)
	if want := fmt.Sprintf(`"deadlined":%d`, len(executingRequests)); !strings.Contains(st.Body.String(), want) {
		t.Errorf("stats should count every deadlined request (%s): %s", want, st.Body)
	}
}

// executingRequests are the ways a request runs a query — count and
// match mode of /query, a prepared statement's /execute, and
// /explain?analyze — which must all reach the engine bounded by the
// request's context. /execute/tri needs prepareTriangle first.
var executingRequests = []struct {
	name, path string
	body       any
}{
	{"count", "/query", queryRequest{Pattern: triangle}},
	{"match", "/query", queryRequest{Pattern: triangle, Mode: "match"}},
	{"execute", "/execute/tri", queryRequest{}},
	{"explain analyze", "/explain?analyze=true", queryRequest{Pattern: triangle}},
}

// prepareTriangle registers the triangle as the statement "tri".
func prepareTriangle(t *testing.T, s *Server) {
	t.Helper()
	if w := do(t, s, "POST", "/prepare", queryRequest{Name: "tri", Pattern: triangle}); w.Code != http.StatusCreated {
		t.Fatalf("prepare: status %d: %s", w.Code, w.Body)
	}
}

// TestOneRequestContract sends the same body to /query, to a statement
// prepared from it (/execute) and to /explain?analyze=true: each reads
// wco, mem_budget_bytes and timeout_ms alike, so the three report the
// same plan kind, the same 422 for a request ceiling too small to run
// under, the same 400 for a negative one and the same 504 for a deadline
// too short. The plain /explain of the
// 6-cycle under wco reports the WCO plan the others run, not the
// unrestricted optimizer's hash join.
func TestOneRequestContract(t *testing.T) {
	const (
		cycle5 = "a->b, b->c, c->d, d->e, e->a"
		cycle6 = "a->b, b->c, c->d, d->e, e->f, f->a"
	)
	s := newTestServer(t, Config{})
	// Unrestricted, the optimizer plans both cycles as hash joins.
	for _, p := range []string{cycle5, cycle6} {
		if w := do(t, s, "POST", "/explain", queryRequest{Pattern: p}); !strings.Contains(w.Body.String(), `"plan_kind":"bj"`) {
			t.Fatalf("/explain %q: %s; the test needs an unrestricted hash join", p, w.Body)
		}
	}
	for i, tc := range []struct {
		name       string
		req        queryRequest
		wantStatus int
		wantSubstr string
	}{
		{"wco", queryRequest{Pattern: cycle5, WCO: true, Limit: 1}, http.StatusOK, `"plan_kind":"wco"`},
		{"request ceiling", queryRequest{Pattern: cycle6, WCO: true, MemBudgetBytes: 512}, http.StatusUnprocessableEntity, `"limit_bytes":512`},
		{"negative ceiling", queryRequest{Pattern: cycle6, WCO: true, MemBudgetBytes: -1}, http.StatusBadRequest, "mem_budget_bytes -1 is negative"},
		{"request deadline", queryRequest{Pattern: cycle6, WCO: true, TimeoutMS: 1}, http.StatusGatewayTimeout, "deadline"},
	} {
		name := fmt.Sprintf("contract%d", i)
		if w := do(t, s, "POST", "/prepare", queryRequest{Name: name, Pattern: tc.req.Pattern, WCO: true}); w.Code != http.StatusCreated {
			t.Fatalf("prepare %s: status %d: %s", name, w.Code, w.Body)
		}
		for _, path := range []string{"/query", "/execute/" + name, "/explain?analyze=true"} {
			w := do(t, s, "POST", path, tc.req)
			if w.Code != tc.wantStatus || !strings.Contains(w.Body.String(), tc.wantSubstr) {
				t.Errorf("%s %s: status %d, want %d with %s: %s", tc.name, path, w.Code, tc.wantStatus, tc.wantSubstr, w.Body)
			}
		}
	}
	w := do(t, s, "POST", "/explain", queryRequest{Pattern: cycle6, WCO: true})
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"plan_kind":"wco"`) {
		t.Errorf("/explain of the 6-cycle with wco: status %d, want 200 with plan_kind wco: %s", w.Code, w.Body)
	}
}

// TestHugeTimeoutMSClampsInsteadOfOverflowing: an absurd timeout_ms used
// to overflow into a negative deadline and 504 instantly; it must clamp
// to MaxTimeout and succeed.
func TestHugeTimeoutMSClampsInsteadOfOverflowing(t *testing.T) {
	s := newTestServer(t, Config{})
	w := do(t, s, "POST", "/query", queryRequest{Pattern: triangle, TimeoutMS: 9_300_000_000_000_000})
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 (body: %s)", w.Code, w.Body)
	}
}

// TestClientCancelReturns499 pins the cancellation semantics: when the
// client abandons the request (its context is cancelled rather than the
// server deadline expiring), the handler reports the non-standard 499.
func TestClientCancelReturns499(t *testing.T) {
	s := newTestServer(t, Config{})
	prepareTriangle(t, s)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range executingRequests {
		w := doCtx(t, s, ctx, "POST", r.path, r.body)
		if w.Code != StatusClientClosedRequest {
			t.Fatalf("%s: status = %d, want %d (body: %s)", r.name, w.Code, StatusClientClosedRequest, w.Body)
		}
	}
}

// TestAdmissionLimitReturns429 fills the admission controller and
// checks that the next query is shed with 429 (queueing disabled here
// so saturation sheds immediately) and carries a Retry-After hint.
func TestAdmissionLimitReturns429(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1, MaxQueueDepth: -1})
	if res := s.adm.acquire(context.Background(), priNormal, ""); !res.ok {
		t.Fatalf("could not occupy the only execution slot: %+v", res)
	}
	defer s.adm.release("")

	w := do(t, s, "POST", "/query", queryRequest{Pattern: triangle})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want %d (body: %s)", w.Code, http.StatusTooManyRequests, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("shed response is missing the Retry-After header")
	}
	if !strings.Contains(w.Body.String(), shedQueueFull) {
		t.Errorf("shed body should carry the reason %q: %s", shedQueueFull, w.Body)
	}
	// Non-executing endpoints must stay available under load shedding.
	if w := do(t, s, "GET", "/healthz", nil); w.Code != http.StatusOK {
		t.Errorf("healthz unavailable during admission pressure: %d", w.Code)
	}
	st := do(t, s, "GET", "/stats", nil)
	if !strings.Contains(st.Body.String(), `"rejected":1`) {
		t.Errorf("stats should count the rejected request: %s", st.Body)
	}
}

// TestConcurrentExecuteOnePreparedStatement hammers a single prepared
// statement from many goroutines through a real HTTP server; run under
// -race this exercises the registry's locking, the admission semaphore
// and the compiled plan's concurrent execution.
func TestConcurrentExecuteOnePreparedStatement(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 128})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/prepare", "application/json",
		strings.NewReader(`{"name":"tri","pattern":"a->b, b->c, a->c"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("prepare: status %d", resp.StatusCode)
	}
	want, err := s.cfg.DB.Count(triangle, nil)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines, perG = 8, 5
	var wg sync.WaitGroup
	errc := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Mix modes and worker counts so count, limited match and
				// parallel runs interleave on the same compiled plan.
				body := `{"workers":2}`
				if i%2 == 1 {
					body = `{"mode":"match","limit":3}`
				}
				resp, err := http.Post(ts.URL+"/execute/tri", "application/json", strings.NewReader(body))
				if err != nil {
					errc <- err
					return
				}
				var qr queryResponse
				err = json.NewDecoder(resp.Body).Decode(&qr)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("goroutine %d: status %d", g, resp.StatusCode)
					return
				}
				if i%2 == 0 && (qr.Count == nil || *qr.Count != want) {
					errc <- fmt.Errorf("goroutine %d: count %v, want %d", g, qr.Count, want)
					return
				}
				if i%2 == 1 && (qr.Rows == nil || len(*qr.Rows) != 3) {
					errc <- fmt.Errorf("goroutine %d: rows %v, want 3", g, qr.Rows)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// ingestDB builds a small private DB for mutation tests — the shared DB
// must stay frozen so other tests' counts are stable.
func ingestDB(t *testing.T) *graphflow.DB {
	t.Helper()
	b := graphflow.NewBuilder(4)
	b.AddEdge(0, 1, 0)
	b.AddEdge(1, 2, 0)
	db, err := b.Open(&graphflow.Options{CatalogueZ: 50, CatalogueH: 2})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestIngestAppliesBatchAndBumpsEpoch(t *testing.T) {
	db := ingestDB(t)
	s := newTestServer(t, Config{DB: db})

	// Close the triangle 0->1->2 with 2->0, plus a new vertex wired in.
	w := do(t, s, http.MethodPost, "/ingest", map[string]any{
		"add_vertices": []uint16{0},
		"add_edges": []map[string]any{
			{"src": 2, "dst": 0, "label": 0},
			{"src": 0, "dst": 4, "label": 0},
		},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("/ingest = %d: %s", w.Code, w.Body.String())
	}
	var resp struct {
		Epoch         uint64 `json:"epoch"`
		AddedVertices int    `json:"added_vertices"`
		AddedEdges    int    `json:"added_edges"`
		Vertices      int    `json:"vertices"`
		Edges         int    `json:"edges"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Epoch != 1 || resp.AddedVertices != 1 || resp.AddedEdges != 2 {
		t.Fatalf("ingest response %+v", resp)
	}
	if resp.Vertices != 5 || resp.Edges != 4 {
		t.Fatalf("live counts %d/%d, want 5/4", resp.Vertices, resp.Edges)
	}

	// The cycle query must now see the ingested edge.
	w = do(t, s, http.MethodPost, "/query", map[string]any{"pattern": "a->b, b->c, c->a"})
	if w.Code != http.StatusOK {
		t.Fatalf("/query = %d: %s", w.Code, w.Body.String())
	}
	var q struct {
		Count *int64 `json:"count"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &q); err != nil {
		t.Fatal(err)
	}
	if q.Count == nil || *q.Count != 3 {
		t.Fatalf("cycle count after ingest = %v, want 3 (one per rotation)", q.Count)
	}
}

func TestIngestDeleteEdges(t *testing.T) {
	db := ingestDB(t)
	s := newTestServer(t, Config{DB: db})
	w := do(t, s, http.MethodPost, "/ingest", map[string]any{
		"delete_edges": []map[string]any{{"src": 0, "dst": 1, "label": 0}},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("/ingest = %d: %s", w.Code, w.Body.String())
	}
	if db.NumEdges() != 1 {
		t.Fatalf("edges after delete = %d, want 1", db.NumEdges())
	}
}

func TestIngestRejectsBadBatches(t *testing.T) {
	db := ingestDB(t)
	s := newTestServer(t, Config{DB: db})
	epoch := db.Epoch()
	cases := []any{
		"{}", // empty batch
		map[string]any{"add_edges": []map[string]any{{"src": 0, "dst": 999, "label": 0}}},
		"not json",
		// Data after the batch: two batches, or one and garbage.
		`{"add_edges":[{"src":2,"dst":0,"label":0}]}{"add_edges":[{"src":2,"dst":3,"label":0}]}`,
		`{"add_edges":[{"src":2,"dst":0,"label":0}]} garbage`,
		// A repeated key, in the batch or in one edge, under any spelling.
		`{"add_edges":[{"src":0,"dst":2,"label":0}],"add_edges":[{"src":3}]}`,
		`{"add_edges":[{"src":0,"dst":2,"label":0}],"ADD_EDGES":[{"src":3}]}`,
		`{"add_edges":[{"src":0,"dst":2,"label":0,"Src":3}]}`,
	}
	for i, body := range cases {
		if w := do(t, s, http.MethodPost, "/ingest", body); w.Code != http.StatusBadRequest {
			t.Errorf("case %d: /ingest = %d, want 400: %s", i, w.Code, w.Body.String())
		}
	}
	if db.Epoch() != epoch {
		t.Fatalf("rejected batches moved the epoch: %d -> %d", epoch, db.Epoch())
	}
}

func TestCompactEndpointAndStatsEpoch(t *testing.T) {
	db := ingestDB(t)
	s := newTestServer(t, Config{DB: db})
	do(t, s, http.MethodPost, "/ingest", map[string]any{
		"add_edges": []map[string]any{{"src": 2, "dst": 3, "label": 0}},
	})

	var st struct {
		Graph struct {
			Epoch     uint64 `json:"epoch"`
			DeltaOps  int    `json:"delta_ops"`
			BaseEdges int    `json:"base_edges"`
			Edges     int    `json:"edges"`
			Ingested  int64  `json:"ingested_batches"`
		} `json:"graph"`
	}
	w := do(t, s, http.MethodGet, "/stats", nil)
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Graph.Epoch != 1 || st.Graph.DeltaOps != 1 || st.Graph.Ingested != 1 {
		t.Fatalf("stats after ingest: %+v", st.Graph)
	}

	w = do(t, s, http.MethodPost, "/compact", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("/compact = %d: %s", w.Code, w.Body.String())
	}
	var c struct {
		Epoch     uint64 `json:"epoch"`
		BaseEdges int    `json:"base_edges"`
		DeltaOps  int    `json:"delta_ops"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &c); err != nil {
		t.Fatal(err)
	}
	if c.Epoch != 2 || c.DeltaOps != 0 || c.BaseEdges != 3 {
		t.Fatalf("compact response %+v", c)
	}
}

// TestBatchCountersServed checks that count-mode responses carry the
// vectorized engine's per-stage batch counters and that /stats
// accumulates them.
func TestBatchCountersServed(t *testing.T) {
	s := newTestServer(t, Config{})
	w := do(t, s, "POST", "/query", queryRequest{Pattern: triangle})
	var resp queryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad response %s: %v", w.Body, err)
	}
	if resp.Batches == nil || resp.Batches.Scan == 0 {
		t.Fatalf("count response missing batch counters: %s", w.Body)
	}
	st := do(t, s, "GET", "/stats", nil)
	var stats statsResponse
	if err := json.Unmarshal(st.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	// (Extend stays 0 here: a pure count of a triangle factorizes its
	// only E/I stage, so no extend output batches are materialised.)
	if stats.Batches.Scan == 0 {
		t.Errorf("/stats batch counters not accumulated: %+v", stats.Batches)
	}
}

// TestAllocsCeilingServedRequests bounds what the two benchmarked request
// shapes allocate through ServeHTTP, httptest request and recorder
// included: a /query whose plan the cache holds (cold-plan's body: a
// pattern and limit 100) and a prepared /execute with one worker
// (hot-count's body). The ceilings are what both allocated before the
// four query endpoints shared one request body.
func TestAllocsCeilingServedRequests(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled buffers")
	}
	s := newTestServer(t, Config{})
	prepareTriangle(t, s)
	for _, tc := range []struct {
		name, path, body string
		ceiling          float64
	}{
		{"query plan-cache hit", "/query", `{"pattern":"a->b, b->c, a->c","limit":100}`, 87},
		{"execute", "/execute/tri", `{"workers":1}`, 63},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serve := func() {
				w := httptest.NewRecorder()
				s.ServeHTTP(w, httptest.NewRequest("POST", tc.path, strings.NewReader(tc.body)))
				if w.Code != http.StatusOK {
					t.Fatalf("status %d: %s", w.Code, w.Body)
				}
			}
			serve() // plans the pattern and warms the pools
			n := testing.AllocsPerRun(100, serve)
			t.Logf("%.0f allocations per request", n)
			if n > tc.ceiling {
				t.Errorf("%.0f allocations per request, want at most %.0f", n, tc.ceiling)
			}
		})
	}
}
