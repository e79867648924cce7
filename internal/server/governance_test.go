package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"graphflow"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQueueGrantsWhenSlotFrees pins the queueing upgrade: a request
// arriving at capacity waits instead of shedding, and completes once
// the held slot releases.
func TestQueueGrantsWhenSlotFrees(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1, MaxQueueWait: 5 * time.Second})
	if res := s.adm.acquire(context.Background(), priNormal, ""); !res.ok {
		t.Fatalf("could not occupy the slot: %+v", res)
	}

	type result struct{ code int }
	done := make(chan result, 1)
	go func() {
		w := do(t, s, "POST", "/query", queryRequest{Pattern: triangle})
		done <- result{w.Code}
	}()
	waitFor(t, "the query to queue", func() bool { return s.adm.queueDepth() == 1 })
	s.adm.release("")
	if r := <-done; r.code != http.StatusOK {
		t.Fatalf("queued query: status %d, want 200", r.code)
	}
}

// TestQueueTimeoutSheds429 pins the bounded wait: a queued request is
// shed with 429 queue_timeout and a Retry-After hint when no slot
// frees within MaxQueueWait.
func TestQueueTimeoutSheds429(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1, MaxQueueWait: 20 * time.Millisecond})
	if res := s.adm.acquire(context.Background(), priNormal, ""); !res.ok {
		t.Fatalf("could not occupy the slot: %+v", res)
	}
	defer s.adm.release("")

	w := do(t, s, "POST", "/query", queryRequest{Pattern: triangle})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body: %s)", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), shedQueueTimeout) {
		t.Errorf("body should carry reason %q: %s", shedQueueTimeout, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("queue-timeout shed is missing Retry-After")
	}
}

// TestClientGoneWhileQueuedReturns499 pins the disconnect path: a
// client that cancels while queued gets 499, not a shed count.
func TestClientGoneWhileQueuedReturns499(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1, MaxQueueWait: 5 * time.Second})
	if res := s.adm.acquire(context.Background(), priNormal, ""); !res.ok {
		t.Fatalf("could not occupy the slot: %+v", res)
	}
	defer s.adm.release("")

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan int, 1)
	go func() {
		w := doCtx(t, s, ctx, "POST", "/query", queryRequest{Pattern: triangle})
		done <- w.Code
	}()
	waitFor(t, "the query to queue", func() bool { return s.adm.queueDepth() == 1 })
	rejectedBefore := s.rejected.Load()
	cancel()
	if code := <-done; code != StatusClientClosedRequest {
		t.Fatalf("status = %d, want %d", code, StatusClientClosedRequest)
	}
	if got := s.rejected.Load(); got != rejectedBefore {
		t.Errorf("client disconnect was counted as a shed: rejected %d -> %d", rejectedBefore, got)
	}
}

// TestPriorityOrdering pins the queue discipline: when a slot frees,
// a high-priority waiter is granted before an earlier low-priority one.
func TestPriorityOrdering(t *testing.T) {
	a := newAdmission(1, 8, 5*time.Second, nil, 0)
	if res := a.acquire(context.Background(), priNormal, ""); !res.ok {
		t.Fatalf("could not occupy the slot: %+v", res)
	}
	results := make(chan string, 2)
	go func() {
		a.acquire(context.Background(), priLow, "")
		results <- "low"
		a.release("")
	}()
	waitFor(t, "the low waiter to queue", func() bool { return a.queueDepth() == 1 })
	go func() {
		a.acquire(context.Background(), priHigh, "")
		results <- "high"
		a.release("")
	}()
	waitFor(t, "the high waiter to queue", func() bool { return a.queueDepth() == 2 })
	a.release("")
	if first := <-results; first != "high" {
		t.Fatalf("first grant went to %q, want high", first)
	}
	if second := <-results; second != "low" {
		t.Fatalf("second grant went to %q, want low", second)
	}
	waitFor(t, "all slots to release", func() bool { return a.inFlightCount() == 0 })
}

// TestTenantQuotaSheds429 pins per-tenant isolation: a tenant at its
// quota is shed with tenant_quota even though slots are free, while
// other tenants keep executing.
func TestTenantQuotaSheds429(t *testing.T) {
	s := newTestServer(t, Config{
		MaxConcurrent: 4,
		TenantQuotas:  map[string]int{"alice": 1},
	})
	if res := s.adm.acquire(context.Background(), priNormal, "alice"); !res.ok {
		t.Fatalf("could not occupy alice's slot: %+v", res)
	}
	defer s.adm.release("alice")

	w := doTenant(t, s, "alice", queryRequest{Pattern: triangle})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("alice at quota: status %d, want 429 (body: %s)", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), shedTenantQuota) {
		t.Errorf("body should carry reason %q: %s", shedTenantQuota, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("tenant-quota shed is missing Retry-After")
	}
	if w := doTenant(t, s, "bob", queryRequest{Pattern: triangle}); w.Code != http.StatusOK {
		t.Fatalf("bob should still execute: status %d (body: %s)", w.Code, w.Body)
	}
}

// doTenant issues one /query carrying an X-Tenant header.
func doTenant(t *testing.T, s *Server, tenant string, body queryRequest) *httptest.ResponseRecorder {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/query", bytes.NewReader(buf))
	req.Header.Set("X-Tenant", tenant)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// TestIngestAndCompactShedWithRetryAfter pins the satellite fix: the
// mutation endpoints share admission and their 429s now carry
// Retry-After like the query endpoints.
func TestIngestAndCompactShedWithRetryAfter(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1, MaxQueueDepth: -1})
	if res := s.adm.acquire(context.Background(), priNormal, ""); !res.ok {
		t.Fatalf("could not occupy the slot: %+v", res)
	}
	defer s.adm.release("")

	for _, tc := range []struct {
		path string
		body any
	}{
		{"/ingest", ingestRequest{AddVertices: []uint16{0}}},
		{"/compact", nil},
	} {
		w := do(t, s, "POST", tc.path, tc.body)
		if w.Code != http.StatusTooManyRequests {
			t.Errorf("%s: status %d, want 429 (body: %s)", tc.path, w.Code, w.Body)
			continue
		}
		if w.Header().Get("Retry-After") == "" {
			t.Errorf("%s: 429 is missing Retry-After", tc.path)
		}
	}
}

// TestDrainRefusesLateIngest pins the drain/ingest serialization: once
// Drain begins, a late /ingest is refused with 503 + Retry-After
// instead of racing the shutdown, and Drain returns only after the
// in-flight slot releases.
func TestDrainRefusesLateIngest(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1})
	if res := s.adm.acquire(context.Background(), priNormal, ""); !res.ok {
		t.Fatalf("could not occupy the slot (the in-flight request): %+v", res)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	waitFor(t, "drain to begin", func() bool {
		s.adm.mu.Lock()
		defer s.adm.mu.Unlock()
		return s.adm.draining
	})

	w := do(t, s, "POST", "/ingest", ingestRequest{AddVertices: []uint16{0}})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("late ingest during drain: status %d, want 503 (body: %s)", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("drain shed is missing Retry-After")
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v before the in-flight slot released", err)
	default:
	}
	s.adm.release("")
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// TestBudgetExceededReturns422 pins the budget-abort contract end to
// end: a query whose mem_budget_bytes cannot cover even its batch
// buffers comes back as a structured 422 naming the ceiling, and the
// server keeps serving unbudgeted queries afterwards.
func TestBudgetExceededReturns422(t *testing.T) {
	s := newTestServer(t, Config{})
	w := do(t, s, "POST", "/query", queryRequest{Pattern: triangle, MemBudgetBytes: 512})
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422 (body: %s)", w.Code, w.Body)
	}
	body := w.Body.String()
	if !strings.Contains(body, `"code":"budget_exceeded"`) {
		t.Errorf("422 body should carry code budget_exceeded: %s", body)
	}
	if !strings.Contains(body, `"limit_bytes":512`) {
		t.Errorf("422 body should name the 512-byte ceiling: %s", body)
	}
	// The abort left nothing behind: the same server answers the same
	// pattern correctly without a budget.
	if w := do(t, s, "POST", "/query", queryRequest{Pattern: triangle}); w.Code != http.StatusOK {
		t.Fatalf("post-abort query: status %d (body: %s)", w.Code, w.Body)
	}
	st := do(t, s, "GET", "/stats", nil)
	if !strings.Contains(st.Body.String(), `"budget_aborts":1`) {
		t.Errorf("stats should count the budget abort: %s", st.Body)
	}
	// A negative budget is a client error, not an abort.
	if w := do(t, s, "POST", "/query", queryRequest{Pattern: triangle, MemBudgetBytes: -1}); w.Code != http.StatusBadRequest {
		t.Fatalf("negative budget: status %d, want 400 (body: %s)", w.Code, w.Body)
	}
}

// TestExplainAnalyzeBudgetReturns422 holds EXPLAIN ANALYZE to the DB's
// per-query memory ceiling and to the request's own mem_budget_bytes: an
// analysis that cannot run within either comes back as the structured
// 422 a /query gets, while the plan dump, which runs nothing, still
// answers.
func TestExplainAnalyzeBudgetReturns422(t *testing.T) {
	db, err := graphflow.NewFromDataset("Epinions", 1, &graphflow.Options{CatalogueZ: 50, MemBudgetBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := newTestServer(t, Config{DB: db})
	path := "/explain?pattern=" + url.QueryEscape(triangle)
	w := do(t, s, "GET", path+"&analyze=true", nil)
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422 (body: %s)", w.Code, w.Body)
	}
	body := w.Body.String()
	if !strings.Contains(body, `"code":"budget_exceeded"`) || !strings.Contains(body, `"limit_bytes":512`) {
		t.Errorf("422 body should carry code budget_exceeded and the 512-byte ceiling: %s", body)
	}
	if w := do(t, s, "GET", path, nil); w.Code != http.StatusOK {
		t.Fatalf("plan dump: status %d, want 200 (body: %s)", w.Code, w.Body)
	}

	// The same ceiling set by the request on a DB without one.
	s = newTestServer(t, Config{})
	w = do(t, s, "POST", "/explain?analyze=true", queryRequest{Pattern: triangle, MemBudgetBytes: 512})
	body = w.Body.String()
	if w.Code != http.StatusUnprocessableEntity || !strings.Contains(body, `"code":"budget_exceeded"`) || !strings.Contains(body, `"limit_bytes":512`) {
		t.Errorf("request ceiling: status %d, want 422 with code budget_exceeded and the 512-byte ceiling: %s", w.Code, body)
	}
	if w := do(t, s, "POST", "/explain", queryRequest{Pattern: triangle, MemBudgetBytes: 512}); w.Code != http.StatusOK {
		t.Fatalf("request ceiling, plan dump: status %d, want 200 (body: %s)", w.Code, w.Body)
	}
}
