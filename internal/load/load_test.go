package load

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"graphflow"
	"graphflow/internal/server"
)

// testServer mounts a real gfserver handler over a small durable graph.
func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	b := graphflow.NewBuilder(32)
	for v := uint32(0); v < 32; v++ {
		for d := uint32(1); d <= 3; d++ {
			b.AddEdge(v, (v+d)%32, 0)
		}
	}
	db, err := b.Open(&graphflow.Options{CatalogueZ: 50, CatalogueH: 2, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	srv, err := server.New(server.Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func TestRunMixedScenario(t *testing.T) {
	ts := testServer(t)
	rep, err := Run(Config{
		BaseURL:     ts.URL,
		Templates:   DefaultTemplates(),
		Duration:    5 * time.Second,
		MaxRequests: 300,
		Concurrency: 4,
		Seed:        1,
		Client:      ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(DefaultTemplates())+1 {
		t.Fatalf("%d result rows, want %d", len(rep.Results), len(DefaultTemplates())+1)
	}
	overall := rep.Results[len(rep.Results)-1]
	if overall.Name != "load/overall" || overall.Requests == 0 {
		t.Fatalf("overall row %+v", overall)
	}
	if overall.Errors != 0 {
		t.Fatalf("%d errors against in-process server", overall.Errors)
	}
	if overall.P50MS <= 0 || overall.P99MS < overall.P50MS {
		t.Fatalf("percentiles not monotone: %+v", overall)
	}
	if overall.AchievedQPS <= 0 {
		t.Fatalf("achieved QPS %v", overall.AchievedQPS)
	}
	// Every template must have been exercised.
	for _, r := range rep.Results[:len(rep.Results)-1] {
		if r.Requests == 0 {
			t.Fatalf("template %s never ran: %+v", r.Name, rep.Results)
		}
	}
	// The target serves /metrics, so the report must carry server-side
	// percentile rows reconstructed from the request-histogram deltas,
	// covering at least the /query endpoint the mix hammers.
	if len(rep.Server) == 0 {
		t.Fatal("no server-side rows despite a /metrics-serving target")
	}
	var query *ServerResult
	for i := range rep.Server {
		if rep.Server[i].Endpoint == "/query" {
			query = &rep.Server[i]
		}
	}
	if query == nil {
		t.Fatalf("no /query server-side row: %+v", rep.Server)
	}
	if query.Requests == 0 || query.P50MS <= 0 || query.P99MS < query.P50MS {
		t.Fatalf("server-side /query row malformed: %+v", *query)
	}
	// Server-side time excludes the client's network/encode overhead, so
	// its p50 cannot exceed the client-observed p50 by more than bucket
	// resolution; a grossly larger value means the diff is wrong.
	if query.P50MS > overall.P50MS*10+5 {
		t.Fatalf("server-side p50 %.2fms implausibly above client p50 %.2fms", query.P50MS, overall.P50MS)
	}
}

func TestRunPacedToTargetQPS(t *testing.T) {
	ts := testServer(t)
	rep, err := Run(Config{
		BaseURL:     ts.URL,
		Templates:   []Template{{Name: "tri", Weight: 1, Body: map[string]any{"pattern": "a->b, b->c, a->c"}}},
		Duration:    2 * time.Second,
		TargetQPS:   50,
		Concurrency: 4,
		Seed:        2,
		Client:      ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	overall := rep.Results[len(rep.Results)-1]
	// 50 QPS over ~2s: the open-loop pacer should land near 100 requests;
	// allow generous slack for CI jitter but catch closed-loop runaway.
	if overall.Requests < 40 || overall.Requests > 160 {
		t.Fatalf("paced run issued %d requests, want ~100", overall.Requests)
	}
	if overall.TargetQPS != 50 {
		t.Fatalf("target QPS %v not recorded", overall.TargetQPS)
	}
}

func TestRunRejectsEmptyMix(t *testing.T) {
	if _, err := Run(Config{BaseURL: "http://x", Templates: []Template{{Name: "z", Weight: 0}}}); err == nil {
		t.Fatal("empty mix accepted")
	}
}

// TestRunRetriesShedRequests pins the backoff satellite: a server that
// sheds every first attempt with 429 + Retry-After sees the driver
// retry (honouring the hint, clamped to BackoffCap) until the request
// lands, and the report carries the shed and retry counts.
func TestRunRetriesShedRequests(t *testing.T) {
	var attempts atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1)%2 == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"admission refused: queue_full","code":"queue_full"}`)
			return
		}
		fmt.Fprint(w, `{"count":1,"elapsed_ms":0.1}`)
	}))
	defer stub.Close()

	rep, err := Run(Config{
		BaseURL:     stub.URL,
		Templates:   []Template{{Name: "tri", Weight: 1, Body: map[string]any{"pattern": "a->b, b->c, a->c"}}},
		Duration:    10 * time.Second,
		MaxRequests: 20,
		// One worker so the stub's strict 429/200 alternation holds: every
		// request sheds exactly once and lands on its first retry.
		Concurrency: 1,
		Seed:        3,
		Client:      stub.Client(),
		Vertices:    32,
		BackoffCap:  5 * time.Millisecond, // clamp the 1s Retry-After so the test stays fast
	})
	if err != nil {
		t.Fatal(err)
	}
	overall := rep.Results[len(rep.Results)-1]
	if overall.Errors != 0 {
		t.Fatalf("%d errors: every shed should have been retried through (%+v)", overall.Errors, overall)
	}
	if overall.Sheds == 0 || overall.Retries == 0 {
		t.Fatalf("sheds/retries not reported: %+v", overall)
	}
	if overall.ShedRate <= 0 || overall.ShedRate >= 1 {
		t.Fatalf("shed rate %v out of (0,1)", overall.ShedRate)
	}

	// With retries disabled the same server produces hard errors.
	attempts.Store(0)
	rep, err = Run(Config{
		BaseURL:     stub.URL,
		Templates:   []Template{{Name: "tri", Weight: 1, Body: map[string]any{"pattern": "a->b, b->c, a->c"}}},
		Duration:    10 * time.Second,
		MaxRequests: 10,
		Concurrency: 1,
		Seed:        3,
		Client:      stub.Client(),
		Vertices:    32,
		MaxRetries:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	overall = rep.Results[len(rep.Results)-1]
	if overall.Errors == 0 {
		t.Fatalf("retries disabled but no errors surfaced: %+v", overall)
	}
	if overall.Retries != 0 {
		t.Fatalf("retries disabled but %d retries issued", overall.Retries)
	}
}
