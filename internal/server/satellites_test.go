package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"graphflow"
)

// TestIngestFirstNewVertexZero is a regression test for the omitempty
// bug: the very first vertex of an empty store has ID 0, which a plain
// `omitempty` uint32 silently dropped from the response.
func TestIngestFirstNewVertexZero(t *testing.T) {
	db, err := graphflow.NewBuilder(0).Open(&graphflow.Options{CatalogueZ: 10})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{DB: db})
	w := do(t, s, http.MethodPost, "/ingest", map[string]any{
		"add_vertices": []uint16{0, 1},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("/ingest = %d: %s", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), `"first_new_vertex":0`) {
		t.Fatalf("first_new_vertex missing for vertex ID 0: %s", w.Body)
	}
	var resp ingestResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.FirstNewVertex == nil || *resp.FirstNewVertex != 0 || resp.AddedVertices != 2 {
		t.Fatalf("ingest response %+v", resp)
	}

	// A batch with no vertex adds must omit the field entirely.
	w = do(t, s, http.MethodPost, "/ingest", map[string]any{
		"add_edges": []map[string]any{{"src": 0, "dst": 1, "label": 0}},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("/ingest = %d: %s", w.Code, w.Body)
	}
	if strings.Contains(w.Body.String(), "first_new_vertex") {
		t.Fatalf("first_new_vertex present without vertex adds: %s", w.Body)
	}
}

// TestBodyLimits checks the per-endpoint request-body caps: a query
// body over MaxBodyBytes gets 413, while /ingest runs under its own
// (much larger) MaxIngestBodyBytes limit.
func TestBodyLimits(t *testing.T) {
	db := ingestDB(t)
	s := newTestServer(t, Config{DB: db, MaxBodyBytes: 128})

	big := `{"pattern": "a->b", "mode": "` + strings.Repeat("x", 200) + `"}`
	w := do(t, s, http.MethodPost, "/query", big)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized /query = %d, want 413: %s", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), "128-byte limit") {
		t.Fatalf("413 does not name the limit: %s", w.Body)
	}

	// The same payload size sails through /ingest, whose limit defaulted
	// to 64 MiB.
	edges := make([]map[string]any, 0, 40)
	for i := 0; i < 40; i++ {
		edges = append(edges, map[string]any{"src": 0, "dst": 1, "label": i})
	}
	w = do(t, s, http.MethodPost, "/ingest", map[string]any{"add_edges": edges})
	if w.Code != http.StatusOK {
		t.Fatalf("large /ingest = %d, want 200: %s", w.Code, w.Body)
	}

	// And a tiny ingest cap rejects it with 413.
	s2 := newTestServer(t, Config{DB: ingestDB(t), MaxIngestBodyBytes: 64})
	w = do(t, s2, http.MethodPost, "/ingest", map[string]any{"add_edges": edges})
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized /ingest = %d, want 413: %s", w.Code, w.Body)
	}
}

// TestQueryOptionSanitization checks the negative-input handling of
// queryOptions: nonsense workers/limit clamp to their automatic
// defaults. batch_size is no longer a request field: a request that
// still sends one, even a negative value, runs on the default engine.
func TestQueryOptionSanitization(t *testing.T) {
	s := newTestServer(t, Config{})

	cases := []struct {
		name string
		mode string
		req  any
	}{
		{"negative workers", "", queryRequest{Pattern: triangle, Workers: -5}},
		{"negative limit count", "", queryRequest{Pattern: triangle, Limit: -3}},
		{"negative limit match", "match", queryRequest{Pattern: triangle, Mode: "match", Limit: -3}},
		{"negative batch_size", "", `{"pattern": "` + triangle + `", "batch_size": -1}`},
		{"negative batch_size match", "match", `{"pattern": "` + triangle + `", "mode": "match", "batch_size": -7}`},
	}
	var wantCount int64
	{
		w := do(t, s, http.MethodPost, "/query", queryRequest{Pattern: triangle})
		var resp queryResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.Count == nil {
			t.Fatalf("baseline count: %s (%v)", w.Body, err)
		}
		wantCount = *resp.Count
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := do(t, s, http.MethodPost, "/query", tc.req)
			if w.Code != http.StatusOK {
				t.Fatalf("status %d, want 200: %s", w.Code, w.Body)
			}
			// Sanitized requests must still answer correctly.
			var resp queryResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if tc.mode == "" && (resp.Count == nil || *resp.Count != wantCount) {
				t.Fatalf("count %v, want %d", resp.Count, wantCount)
			}
			// The reference counter dispatches no batches.
			if tc.mode == "" && (resp.Batches == nil || resp.Batches.Scan == 0) {
				t.Fatalf("no scan batches: the query did not run on the engine: %s", w.Body)
			}
		})
	}
}

// durableIngestBase rebuilds the deterministic base graph a durable
// ingest server boots from; recovery needs the identical base until the
// first checkpoint lands.
func durableIngestBase(t *testing.T, dir string) *graphflow.DB {
	t.Helper()
	b := graphflow.NewBuilder(4)
	b.AddEdge(0, 1, 0)
	b.AddEdge(1, 2, 0)
	db, err := b.Open(&graphflow.Options{CatalogueZ: 50, CatalogueH: 2, DataDir: dir, CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestIngestDeleteHeavyOverHTTPWithRecovery drives a delete-heavy
// mutation mix through /ingest against a durable store — including a
// batch that adds and deletes the same edge — checking every epoch and
// count in the responses against a shadow edge set, then reopens the
// data directory and verifies the recovered store matches the shadow.
func TestIngestDeleteHeavyOverHTTPWithRecovery(t *testing.T) {
	dir := t.TempDir()
	db := durableIngestBase(t, dir)
	s := newTestServer(t, Config{DB: db})

	shadow := map[[3]uint32]bool{{0, 1, 0}: true, {1, 2, 0}: true}
	apply := func(add, del [][3]uint32, wantEpoch uint64) {
		t.Helper()
		body := map[string]any{}
		var adds, dels []map[string]any
		for _, e := range add {
			adds = append(adds, map[string]any{"src": e[0], "dst": e[1], "label": e[2]})
		}
		for _, e := range del {
			dels = append(dels, map[string]any{"src": e[0], "dst": e[1], "label": e[2]})
		}
		if adds != nil {
			body["add_edges"] = adds
		}
		if dels != nil {
			body["delete_edges"] = dels
		}
		w := do(t, s, http.MethodPost, "/ingest", body)
		if w.Code != http.StatusOK {
			t.Fatalf("/ingest = %d: %s", w.Code, w.Body)
		}
		var resp ingestResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		wantAdded, wantDeleted := 0, 0
		for _, e := range add {
			if !shadow[e] && e[0] != e[1] {
				shadow[e] = true
				wantAdded++
			}
		}
		for _, e := range del {
			if shadow[e] {
				delete(shadow, e)
				wantDeleted++
			}
		}
		if resp.Epoch != wantEpoch || resp.AddedEdges != wantAdded || resp.DeletedEdges != wantDeleted {
			t.Fatalf("epoch %d added %d deleted %d, want %d/%d/%d (body %s)",
				resp.Epoch, resp.AddedEdges, resp.DeletedEdges, wantEpoch, wantAdded, wantDeleted, w.Body)
		}
		if resp.Edges != len(shadow) {
			t.Fatalf("live edges %d, shadow %d", resp.Edges, len(shadow))
		}
	}

	// Delete-heavy mix: prune the base, re-add, prune again.
	apply(nil, [][3]uint32{{0, 1, 0}, {1, 2, 0}}, 1)
	apply([][3]uint32{{0, 1, 0}, {2, 3, 0}, {3, 0, 1}}, nil, 2)
	// Add and delete the same edge in one batch: the add lands first,
	// the delete then removes it, so the batch is a net no-op for it.
	apply([][3]uint32{{1, 3, 0}}, [][3]uint32{{1, 3, 0}, {2, 3, 0}}, 3)
	// Deleting an absent edge is a no-op and duplicate adds are dropped;
	// a batch where nothing changes does not publish (or log) an epoch.
	apply([][3]uint32{{0, 1, 0}}, [][3]uint32{{3, 3, 1}}, 3)

	finalEpoch := db.Epoch()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen over the same directory and base: the recovered store must
	// match the shadow set exactly.
	db2 := durableIngestBase(t, dir)
	defer db2.Close()
	if db2.Epoch() != finalEpoch {
		t.Fatalf("recovered epoch %d, want %d", db2.Epoch(), finalEpoch)
	}
	if db2.NumEdges() != len(shadow) {
		t.Fatalf("recovered %d edges, shadow has %d", db2.NumEdges(), len(shadow))
	}
	ls := db2.LiveStats()
	if !ls.WALEnabled || ls.ReplayedBatches != 3 {
		t.Fatalf("recovered LiveStats: %+v", ls)
	}

	// The recovered server keeps serving and reports WAL state in /stats.
	s2 := newTestServer(t, Config{DB: db2})
	w := do(t, s2, http.MethodGet, "/stats", nil)
	var st statsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if !st.WAL.Enabled || st.WAL.ReplayedBatches != 3 {
		t.Fatalf("/stats wal section: %+v", st.WAL)
	}
	if st.WAL.Bytes == 0 {
		t.Fatal("/stats wal bytes is 0 for a non-empty log")
	}
}
