package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"graphflow"
	"graphflow/internal/metrics"
)

// TestMetricsEndpoint drives traffic through every instrumented
// endpoint and checks the exposition is valid Prometheus text (our own
// linter: no duplicate families, cumulative monotone buckets, +Inf
// present) covering the request, plan-cache, live-store and per-stage
// families the observability contract promises.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	if w := do(t, s, http.MethodPost, "/query", map[string]any{"pattern": triangle}); w.Code != http.StatusOK {
		t.Fatalf("/query = %d: %s", w.Code, w.Body)
	}
	if w := do(t, s, http.MethodPost, "/ingest", map[string]any{
		"add_edges": []map[string]any{{"src": 1, "dst": 2, "label": 0}},
	}); w.Code != http.StatusOK {
		t.Fatalf("/ingest = %d: %s", w.Code, w.Body)
	}
	if w := do(t, s, http.MethodGet, "/explain?pattern="+url.QueryEscape(triangle), nil); w.Code != http.StatusOK {
		t.Fatalf("/explain = %d: %s", w.Code, w.Body)
	}

	w := do(t, s, http.MethodGet, "/metrics", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics = %d: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type = %q", ct)
	}
	body := w.Body.Bytes()
	if errs := metrics.Lint(bytes.NewReader(body)); len(errs) > 0 {
		t.Fatalf("exposition fails lint: %v", errs)
	}
	for _, want := range []string{
		"graphflow_http_request_seconds",
		"graphflow_http_responses_total",
		"graphflow_requests_served_total",
		"graphflow_requests_rejected_total",
		"graphflow_requests_in_flight",
		"graphflow_exec_stage_seconds_total",
		"graphflow_exec_kernel_dispatch_total",
		"graphflow_plan_cache_hits_total",
		"graphflow_plan_cache_misses_total",
		"graphflow_plan_seconds_bucket",
		"graphflow_graph_vertices",
		"graphflow_graph_epoch",
		"graphflow_overlay_delta_ops",
		"graphflow_wal_enabled",
		"graphflow_compaction_seconds",
		"graphflow_ingest_batches_total",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("exposition missing %s", want)
		}
	}

	// The /query traffic above must appear in the per-endpoint request
	// histogram and in the per-stage time attribution.
	fams, err := metrics.ParseText(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]*metrics.ParsedFamily, len(fams))
	for _, f := range fams {
		byName[f.Name] = f
	}
	_, counts, ok := byName["graphflow_http_request_seconds"].Buckets(map[string]string{"endpoint": "/query"})
	if !ok {
		t.Fatal("no /query request histogram series")
	}
	var n int64
	for _, c := range counts {
		n += c
	}
	if n != 1 {
		t.Fatalf("/query request histogram holds %d observations, want 1", n)
	}
	var stageTotal float64
	for _, srs := range byName["graphflow_exec_stage_seconds_total"].Series {
		stageTotal += srs.Value
	}
	if stageTotal <= 0 {
		t.Fatal("per-stage time attribution is zero after a served count query")
	}
}

// TestMetricsResponseCodeLabels checks the middleware labels responses
// by status: a bad request must land in the 400 series, not the 200 one.
func TestMetricsResponseCodeLabels(t *testing.T) {
	s := newTestServer(t, Config{})
	do(t, s, http.MethodPost, "/query", map[string]any{"pattern": triangle})
	do(t, s, http.MethodPost, "/query", `{"pattern":""}`) // 400: missing pattern
	w := do(t, s, http.MethodGet, "/metrics", nil)
	fams, err := metrics.ParseText(bytes.NewReader(w.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, f := range fams {
		if f.Name != "graphflow_http_responses_total" {
			continue
		}
		for _, srs := range f.Series {
			if srs.Labels["endpoint"] == "/query" {
				got[srs.Labels["code"]] = srs.Value
			}
		}
	}
	if got["200"] != 1 || got["400"] != 1 {
		t.Fatalf("response counts by code = %v, want 200:1 400:1", got)
	}
}

// TestExplainAnalyzePreparesOnce holds an EXPLAIN ANALYZE to one plan
// lookup: the handler analyzes the PreparedQuery it prepared for the plan
// dump instead of preparing the pattern a second time.
func TestExplainAnalyzePreparesOnce(t *testing.T) {
	db, err := graphflow.NewFromDataset("Epinions", 1, &graphflow.Options{CatalogueZ: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := newTestServer(t, Config{DB: db})
	lookups := func() int64 { st := db.PlanCacheStats(); return st.Hits + st.Misses }
	for _, fresh := range []bool{true, false} {
		before := lookups()
		if w := do(t, s, "GET", "/explain?pattern="+url.QueryEscape(triangle)+"&analyze=true", nil); w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
		if got := lookups() - before; got != 1 {
			t.Errorf("fresh=%v: one /explain?analyze=true made %d plan-cache lookups, want 1", fresh, got)
		}
	}
}

// TestExplainAnalyze exercises EXPLAIN ANALYZE through both spellings
// (?analyze=true and the JSON body field): the response must carry the
// actual match count, per-operator wall times in the plan tree, and the
// stage breakdown.
func TestExplainAnalyze(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, tc := range []struct {
		name, method, path string
		body               any
	}{
		{"query-param", http.MethodGet, "/explain?pattern=" + url.QueryEscape(triangle) + "&analyze=true", nil},
		{"json-body", http.MethodPost, "/explain", map[string]any{"pattern": triangle, "analyze": true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := do(t, s, tc.method, tc.path, tc.body)
			if w.Code != http.StatusOK {
				t.Fatalf("status %d: %s", w.Code, w.Body)
			}
			var resp struct {
				Analyzed   bool    `json:"analyzed"`
				Matches    *int64  `json:"matches"`
				Plan       string  `json:"plan"`
				PlanDigest string  `json:"plan_digest"`
				ElapsedMS  float64 `json:"elapsed_ms"`
				Stages     *struct {
					Scan float64 `json:"scan"`
				} `json:"stage_ms"`
			}
			mustDecode(t, w.Body.Bytes(), &resp)
			if !resp.Analyzed {
				t.Fatal("analyzed = false")
			}
			if resp.Matches == nil || *resp.Matches <= 0 {
				t.Fatalf("matches = %v, want > 0", resp.Matches)
			}
			if !strings.Contains(resp.Plan, "time=") {
				t.Fatalf("analyzed plan lacks per-operator wall times:\n%s", resp.Plan)
			}
			if !strings.Contains(resp.Plan, "out=") {
				t.Fatalf("analyzed plan lacks actual row counts:\n%s", resp.Plan)
			}
			if resp.PlanDigest == "" {
				t.Fatal("empty plan digest")
			}
			if resp.Stages == nil {
				t.Fatal("no stage breakdown")
			}
			if resp.ElapsedMS <= 0 {
				t.Fatalf("elapsed_ms = %v", resp.ElapsedMS)
			}
		})
	}
	// Plain explain still must not execute: no matches field, analyzed false.
	w := do(t, s, http.MethodGet, "/explain?pattern="+url.QueryEscape(triangle), nil)
	var plain struct {
		Analyzed bool   `json:"analyzed"`
		Matches  *int64 `json:"matches"`
	}
	mustDecode(t, w.Body.Bytes(), &plain)
	if plain.Analyzed || plain.Matches != nil {
		t.Fatalf("plain explain executed: %+v", plain)
	}
}

// TestElapsedMSConsistency pins satellite contract: /execute, /ingest
// and /explain all report elapsed_ms, measured from the shared
// middleware's arrival instant.
func TestElapsedMSConsistency(t *testing.T) {
	s := newTestServer(t, Config{})
	if w := do(t, s, http.MethodPost, "/prepare", map[string]any{"name": "tri", "pattern": triangle}); w.Code != http.StatusCreated {
		t.Fatalf("/prepare = %d: %s", w.Code, w.Body)
	}
	for _, tc := range []struct {
		path, method string
		body         any
	}{
		{"/execute/tri", http.MethodPost, map[string]any{}},
		{"/ingest", http.MethodPost, map[string]any{"add_edges": []map[string]any{{"src": 3, "dst": 4, "label": 0}}}},
		{"/explain?pattern=" + url.QueryEscape(triangle), http.MethodGet, nil},
	} {
		w := do(t, s, tc.method, tc.path, tc.body)
		if w.Code != http.StatusOK {
			t.Fatalf("%s = %d: %s", tc.path, w.Code, w.Body)
		}
		var resp struct {
			ElapsedMS *float64 `json:"elapsed_ms"`
		}
		mustDecode(t, w.Body.Bytes(), &resp)
		if resp.ElapsedMS == nil || *resp.ElapsedMS < 0 {
			t.Fatalf("%s: elapsed_ms = %v", tc.path, resp.ElapsedMS)
		}
	}
}

// TestSlowQueryLogged checks the slow-query spine: a threshold of 1ns
// makes every query slow, and the Warn record must carry the pattern,
// plan digest and stage breakdown.
func TestSlowQueryLogged(t *testing.T) {
	var buf bytes.Buffer
	s := newTestServer(t, Config{
		SlowQueryThreshold: time.Nanosecond,
		Logger:             slog.New(slog.NewTextHandler(&buf, nil)),
	})
	if w := do(t, s, http.MethodPost, "/query", map[string]any{"pattern": triangle}); w.Code != http.StatusOK {
		t.Fatalf("/query = %d: %s", w.Code, w.Body)
	}
	out := buf.String()
	for _, want := range []string{"slow query", "plan_digest=", "plan_kind=", "pattern=", "elapsed_ms=", "scan_ms="} {
		if !strings.Contains(out, want) {
			t.Fatalf("slow-query log missing %q:\n%s", want, out)
		}
	}

	// plan_ms says how much of the request was the optimizer: present when
	// the request planned (a pattern no other test of the shared DB sends),
	// absent when the plan cache served it.
	for _, planned := range []bool{true, false} {
		buf.Reset()
		do(t, s, http.MethodPost, "/query", map[string]any{"pattern": "p->q, q->r, r->s, s->t, t->p, p->r", "limit": 1})
		if out := buf.String(); !strings.Contains(out, "slow query") || strings.Contains(out, "plan_ms=") != planned {
			t.Fatalf("slow-query log carries plan_ms = %v, want %v:\n%s", !planned, planned, out)
		}
	}

	// Above the threshold nothing is logged.
	buf.Reset()
	s2 := newTestServer(t, Config{
		SlowQueryThreshold: time.Hour,
		Logger:             slog.New(slog.NewTextHandler(&buf, nil)),
	})
	do(t, s2, http.MethodPost, "/query", map[string]any{"pattern": triangle})
	if buf.Len() != 0 {
		t.Fatalf("unexpected log output under threshold: %s", buf.String())
	}
}

// TestPerTemplateHistogram checks /execute feeds the per-template
// latency series under the statement's name.
func TestPerTemplateHistogram(t *testing.T) {
	s := newTestServer(t, Config{})
	if w := do(t, s, http.MethodPost, "/prepare", map[string]any{"name": "tmpl-metrics", "pattern": triangle}); w.Code != http.StatusCreated {
		t.Fatalf("/prepare = %d: %s", w.Code, w.Body)
	}
	for i := 0; i < 3; i++ {
		if w := do(t, s, http.MethodPost, "/execute/tmpl-metrics", map[string]any{}); w.Code != http.StatusOK {
			t.Fatalf("/execute = %d: %s", w.Code, w.Body)
		}
	}
	w := do(t, s, http.MethodGet, "/metrics", nil)
	fams, err := metrics.ParseText(bytes.NewReader(w.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fams {
		if f.Name != "graphflow_exec_template_seconds" {
			continue
		}
		_, counts, ok := f.Buckets(map[string]string{"template": "tmpl-metrics"})
		if !ok {
			t.Fatal("no series for template tmpl-metrics")
		}
		var n int64
		for _, c := range counts {
			n += c
		}
		if n != 3 {
			t.Fatalf("template histogram count = %d, want 3", n)
		}
		return
	}
	t.Fatal("graphflow_exec_template_seconds family missing")
}

func mustDecode(t *testing.T, b []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("decoding %s: %v", b, err)
	}
}

// TestCatalogueMetricsIngestOnly pins the demand-driven refresh: ingest
// alone, however far past the refresh rule, builds no catalogue — the
// build counter stays at its set-up value while drift accumulates — and
// the first query afterwards starts exactly one background refresh that
// /stats and /metrics then report.
func TestCatalogueMetricsIngestOnly(t *testing.T) {
	db := ingestDB(t)
	defer db.Close()
	s := newTestServer(t, Config{DB: db})

	scrape := func() map[string]float64 {
		t.Helper()
		w := do(t, s, http.MethodGet, "/metrics", nil)
		if errs := metrics.Lint(bytes.NewReader(w.Body.Bytes())); len(errs) > 0 {
			t.Fatalf("exposition fails lint: %v", errs)
		}
		fams, err := metrics.ParseText(bytes.NewReader(w.Body.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]float64{}
		for _, f := range fams {
			if strings.HasPrefix(f.Name, "graphflow_catalogue_") && len(f.Series) == 1 {
				got[f.Name] = f.Series[0].Value
			}
		}
		return got
	}
	type catalogueStats struct {
		Catalogue struct {
			Generation   uint64  `json:"generation"`
			Builds       int64   `json:"builds"`
			EdgesAtBuild int     `json:"edges_at_build"`
			DriftEdges   int64   `json:"drift_edges"`
			LastBuildMS  float64 `json:"last_build_ms"`
			Entries      int     `json:"entries"`
			Bytes        int64   `json:"bytes"`
		} `json:"catalogue"`
	}
	stats := func() (st catalogueStats) {
		t.Helper()
		mustDecode(t, do(t, s, http.MethodGet, "/stats", nil).Body.Bytes(), &st)
		return st
	}

	// Ten batches of one new vertex and one edge to it: 20 mutations on a
	// 2-edge graph.
	for i := 0; i < 10; i++ {
		if w := do(t, s, http.MethodPost, "/ingest", map[string]any{
			"add_vertices": []uint16{0},
			"add_edges":    []map[string]any{{"src": 0, "dst": 4 + i, "label": 0}},
		}); w.Code != http.StatusOK {
			t.Fatalf("/ingest %d = %d: %s", i, w.Code, w.Body)
		}
	}
	m := scrape()
	if m["graphflow_catalogue_builds_total"] != 1 || m["graphflow_catalogue_generation"] != 0 || m["graphflow_catalogue_drift_edges"] != 20 {
		t.Fatalf("ingest alone must build nothing: %v", m)
	}
	if st := stats().Catalogue; st.Generation != 0 || st.Builds != 1 || st.EdgesAtBuild != 2 || st.DriftEdges != 20 || st.LastBuildMS <= 0 {
		t.Fatalf("/stats after ingest: %+v", st)
	}

	if w := do(t, s, http.MethodPost, "/query", map[string]any{"pattern": "a->b, b->c"}); w.Code != http.StatusOK {
		t.Fatalf("/query = %d: %s", w.Code, w.Body)
	}
	waitFor(t, "the background statistics refresh", func() bool { return stats().Catalogue.Generation == 1 })
	if st := stats().Catalogue; st.Builds != 2 || st.EdgesAtBuild != 12 || st.DriftEdges != 0 {
		t.Fatalf("/stats after the refresh: %+v", st)
	}
	m = scrape()
	if m["graphflow_catalogue_builds_total"] != 2 || m["graphflow_catalogue_generation"] != 1 || m["graphflow_catalogue_drift_edges"] != 0 {
		t.Fatalf("/metrics after the refresh: %v", m)
	}
	// The refreshed catalogue has entries; /stats and /metrics report the
	// same size.
	if st := stats().Catalogue; st.Entries == 0 || st.Bytes <= int64(st.Entries) ||
		m["graphflow_catalogue_entries"] != float64(st.Entries) || m["graphflow_catalogue_bytes"] != float64(st.Bytes) {
		t.Fatalf("catalogue size: /stats %d entries, %d bytes; /metrics %v", st.Entries, st.Bytes, m)
	}
	if body := do(t, s, http.MethodGet, "/metrics", nil).Body.String(); !strings.Contains(body, "graphflow_catalogue_build_seconds_count 2") {
		t.Fatal("build-duration histogram does not hold both builds")
	}
}

// TestCarriedSetsSurfaces checks the counters the carried extension sets
// and the pinned operands add, everywhere they are promised: a 4-clique
// count response reports kernels.carried_sets and kernels.pinned_probe
// > 0, /stats and /metrics accumulate them (the latter as one more kernel
// of graphflow_exec_kernel_dispatch_total), and EXPLAIN ANALYZE renders
// the inheriting operator with ↑, carried= and pinned=.
func TestCarriedSetsSurfaces(t *testing.T) {
	const clique4 = "a->b, a->c, b->c, a->d, b->d, c->d"
	s := newTestServer(t, Config{})
	w := do(t, s, http.MethodPost, "/query", map[string]any{"pattern": clique4, "wco": true})
	if w.Code != http.StatusOK {
		t.Fatalf("/query = %d: %s", w.Code, w.Body)
	}
	type kernels struct {
		Kernels struct {
			CarriedSets int64 `json:"carried_sets"`
			PinnedProbe int64 `json:"pinned_probe"`
		} `json:"kernels"`
	}
	var resp, stats kernels
	mustDecode(t, w.Body.Bytes(), &resp)
	if resp.Kernels.CarriedSets <= 0 || resp.Kernels.PinnedProbe <= 0 {
		t.Fatalf("count response kernels = %+v, want carried_sets and pinned_probe > 0: %s", resp.Kernels, w.Body)
	}
	mustDecode(t, do(t, s, http.MethodGet, "/stats", nil).Body.Bytes(), &stats)
	if stats != resp {
		t.Errorf("/stats kernels = %+v, the one served query reported %+v", stats.Kernels, resp.Kernels)
	}
	fams, err := metrics.ParseText(bytes.NewReader(do(t, s, http.MethodGet, "/metrics", nil).Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	carried, pinned := false, false
	for _, f := range fams {
		switch f.Name {
		case "graphflow_exec_carried_sets_total":
			carried = len(f.Series) == 1 && f.Series[0].Value == float64(resp.Kernels.CarriedSets)
		case "graphflow_exec_kernel_dispatch_total":
			for _, series := range f.Series {
				if series.Labels["kernel"] == "pinned_probe" {
					pinned = series.Value == float64(resp.Kernels.PinnedProbe)
				}
			}
		}
	}
	if !carried {
		t.Errorf("graphflow_exec_carried_sets_total missing or not %d", resp.Kernels.CarriedSets)
	}
	if !pinned {
		t.Errorf(`graphflow_exec_kernel_dispatch_total{kernel="pinned_probe"} missing or not %d`, resp.Kernels.PinnedProbe)
	}
	w = do(t, s, http.MethodPost, "/explain", map[string]any{"pattern": clique4, "wco": true, "analyze": true})
	var explained struct {
		Plan string `json:"plan"`
	}
	mustDecode(t, w.Body.Bytes(), &explained)
	if !strings.Contains(explained.Plan, "<- ↑∩") || !strings.Contains(explained.Plan, "carried=") || !strings.Contains(explained.Plan, "pinned=") {
		t.Errorf("analyzed 4-clique plan does not show the inheriting operator with its carried and pinned counts:\n%s", explained.Plan)
	}
}
