package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"graphflow"
)

// ingestEdge and ingestRequest are the encoding/json form of an /ingest
// body: the oracle FuzzIngestBody holds decodeIngest to, and a typed
// body for handler tests.
type ingestEdge struct {
	Src   uint32 `json:"src"`
	Dst   uint32 `json:"dst"`
	Label uint16 `json:"label"`
}

type ingestRequest struct {
	AddVertices []uint16     `json:"add_vertices"`
	AddEdges    []ingestEdge `json:"add_edges"`
	DeleteEdges []ingestEdge `json:"delete_edges"`
}

// decodeWithJSON decodes a body with encoding/json: an empty body is an
// empty batch, anything else goes through json.Unmarshal into
// ingestRequest and is converted. json.Unmarshal, unlike a json.Decoder,
// rejects data after the value, so that needs no exception below.
func decodeWithJSON(body []byte) (graphflow.Batch, error) {
	var b graphflow.Batch
	if len(bytes.TrimLeft(body, " \t\r\n")) == 0 {
		return b, nil
	}
	var req ingestRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return b, err
	}
	b.AddVertices = req.AddVertices
	for _, e := range req.AddEdges {
		b.AddEdges = append(b.AddEdges, graphflow.EdgeOp(e))
	}
	for _, e := range req.DeleteEdges {
		b.DeleteEdges = append(b.DeleteEdges, graphflow.EdgeOp(e))
	}
	return b, nil
}

// sameBatch compares two batches, a nil slice equal to an empty one.
func sameBatch(a, b graphflow.Batch) bool {
	return slices.Equal(a.AddVertices, b.AddVertices) &&
		slices.Equal(a.AddEdges, b.AddEdges) && slices.Equal(a.DeleteEdges, b.DeleteEdges)
}

// repeatsField reports whether a valid JSON body names one batch field
// twice in its top-level object, or one edge field twice in an edge
// object, under encoding/json's key matching.
func repeatsField(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	return walkFields(dec, "batch")
}

// walkFields consumes one value from dec; kind is what the value is to
// a batch: "batch", "edges" (an add_edges or delete_edges array), "edge"
// (one element of one) or "" (nothing the batch reads).
func walkFields(dec *json.Decoder, kind string) bool {
	tok, err := dec.Token()
	if err != nil {
		return false
	}
	delim, ok := tok.(json.Delim)
	if !ok {
		return false
	}
	repeated := false
	switch delim {
	case '[':
		child := ""
		if kind == "edges" {
			child = "edge"
		}
		for dec.More() {
			repeated = walkFields(dec, child) || repeated
		}
	case '{':
		var names []string
		switch kind {
		case "batch":
			names = batchFields[:]
		case "edge":
			names = edgeFields[:]
		}
		var seen []string
		for dec.More() {
			tok, err := dec.Token()
			if err != nil {
				return repeated
			}
			child := ""
			for _, name := range names {
				if strings.EqualFold(tok.(string), name) {
					repeated = repeated || slices.Contains(seen, name)
					seen = append(seen, name)
					if kind == "batch" && name != "add_vertices" {
						child = "edges"
					}
				}
			}
			repeated = walkFields(dec, child) || repeated
		}
	}
	dec.Token() // the closing delimiter
	return repeated
}

// benchIngestBody is the benchmark's ingest-heavy request: 32 adds and
// 32 deletes between random vertices of a 2M-vertex graph, marshalled
// the way the benchmark marshals it.
func benchIngestBody() []byte {
	rng := rand.New(rand.NewSource(1))
	edges := func() []ingestEdge {
		out := make([]ingestEdge, 32)
		for i := range out {
			out[i] = ingestEdge{Src: uint32(rng.Intn(2_000_000)), Dst: uint32(rng.Intn(2_000_000))}
		}
		return out
	}
	body, err := json.Marshal(map[string]any{"add_edges": edges(), "delete_edges": edges()})
	if err != nil {
		panic(err)
	}
	return body
}

// ingestSeeds are FuzzIngestBody's seed corpus: each corner of the
// contract in the decoder's doc comment.
func ingestSeeds() []string {
	deep := func(n int) string {
		return `{"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `,"add_vertices":[1]}`
	}
	return []string{
		string(benchIngestBody()),
		`{"add_vertices":[0,1,65535],"add_edges":[{"src":0,"dst":4294967295,"label":7}],"delete_edges":[]}`,
		// Escaped keys, case-insensitive keys and a key that folds to one.
		`{"add_edges":[{"src":1,"dSt":2,"label\u0000":3}],"\/x":1}`,
		`{"ADD_EDGES":[{"SRC":1,"Dst":2,"LaBeL":3}],"Delete_Edges":null}`,
		`{"add_edgeſ":[{"ſrc":1,"dſt":2}]}`,
		`{"add_edgeſ":[{"ſrc":1}],"delete_edgeſ":[{"src":2}]}`,
		`{"😀add_edges":[{"src":1}],"\ud800add_edges":[{"src":2}],"add_edges\ud800":[{"src":3}]}`,
		`{"add_edges\ud800A":[],"\ud800\ud800":[],"add_edges😀":[{"src":2}]}`,
		`{"add_vertices                              ":[1],"add_vertices":[2]}`,
		`{"add_vertices":[1],"add_edgeſ":[{"Src":1}],"delete_edges":[{"label":2}]}`,
		`{"add_edges\b":[],"add_edges\t":[],"add_edges\n\r\f\"\\":[]}`,
		"{\"add_edges\xff\":[{\"src\":1}],\"add_vertices\":[2]}",
		`{"add_edges":[{"src":1}],"ADD_EDGES":[{"src":2}]}`,
		`{"\u0000":1,"add_vertices":[1]}`,
		// null as an array, an element and a field.
		`{"add_edges":[null,{"src":null,"dst":2,"label":null}],"delete_edges":null,"add_vertices":[null,3]}`,
		`{"add_vertices":null,"add_edges":[{}]}`,
		// Range limits.
		`{"add_edges":[{"src":4294967296,"dst":1}]}`,
		`{"add_edges":[{"src":4294967295,"dst":0,"label":65535}]}`,
		`{"add_edges":[{"src":1,"dst":2,"label":65536}]}`,
		`{"add_vertices":[65536]}`,
		`{"add_vertices":[99999999999999999999999]}`,
		// Whole numbers encoding/json will not put in an unsigned field.
		`{"add_edges":[{"src":1.0,"dst":2}]}`,
		`{"add_vertices":[1e2]}`,
		`{"add_edges":[{"src":1,"dst":-0}]}`,
		`{"add_vertices":[-1]}`,
		`{"add_vertices":[01]}`,
		`{"add_vertices":["1"]}`,
		`{"add_vertices":[true]}`,
		`{"add_edges":[{"src":[1]}]}`,
		`{"add_edges":[[1,2]]}`,
		`{"add_edges":{"src":1}}`,
		`{"add_edges":"x"}`,
		// Values the decoder skips: every type, valid and not.
		`{"x":{"y":[1,-2.5e+3,0.5E-1,true,false,null,"s",{},[]]},"add_vertices":[0]}`,
		`{"x":"\q","add_vertices":[1]}`,
		`{"x":"é\n\"\\\/\b\f\r\t","add_vertices":[1]}`,
		`{"x":"\u12G4","add_vertices":[1]}`,
		"{\"x\":\"a\x01b\",\"add_vertices\":[1]}",
		"{\"x\x1f\":1,\"add_vertices\":[1]}",
		`{"x":[1,],"add_vertices":[1]}`,
		`{"x":{"a":1,},"add_vertices":[1]}`,
		`{"x":[1}],"add_vertices":[1]}`,
		`{"x":{"a"},"add_vertices":[1]}`,
		`{"x":-,"add_vertices":[1]}`,
		`{"x":1.,"add_vertices":[1]}`,
		`{"x":1e,"add_vertices":[1]}`,
		`{"x":tru,"add_vertices":[1]}`,
		`{"x":nulll,"add_vertices":[1]}`,
		`{"add_edges":[{"src":1,"x":{"deep":[[[]]]},"dst":2}]}`,
		// Nesting at encoding/json's limit and one past it.
		deep(9999),
		deep(10000),
		// Top-level shapes.
		`null`, ``, " \n\t", `[]`, `"add_edges"`, `1`, `{}`, `{`, `{"add_vertices":[1]`, `nul`,
		// Trailing data and repeated keys.
		`{"add_vertices":[1]}{"add_vertices":[2]}`,
		`{"add_vertices":[1]} garbage`,
		`{"add_vertices":[1]} `,
		`{"add_edges":[{"src":1,"dst":2,"label":3}],"add_edges":[{"src":5}]}`,
		`{"add_edges":[{"src":1,"dst":2,"SRC":3}]}`,
		`{"add_vertices":null,"add_vertices":[1]}`,
		`{"x":1,"x":2,"add_edges":[{"y":1,"y":2}]}`,
	}
}

// FuzzIngestBody holds decodeIngest to encoding/json: the same
// accept/reject decision and, where both accept, the same batch, from a
// fresh batch and from a pooled one left dirty by an earlier body. The
// one divergence is a repeated key, which decodeIngest rejects and
// encoding/json merged into the earlier value; a rejection for it must
// point at a real repeat.
func FuzzIngestBody(f *testing.F) {
	for _, s := range ingestSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantErr := decodeWithJSON(body)
		var fresh graphflow.Batch
		err := decodeIngest(body, &fresh)
		dirty := graphflow.Batch{
			AddVertices: []uint16{9, 9},
			AddEdges:    []graphflow.EdgeOp{{Src: 9, Dst: 9, Label: 9}},
			DeleteEdges: make([]graphflow.EdgeOp, 3, 8),
		}
		dirtyErr := decodeIngest(body, &dirty)
		if (err == nil) != (dirtyErr == nil) {
			t.Fatalf("decodeIngest(%q): %v into a fresh batch, %v into a used one", body, err, dirtyErr)
		}
		switch {
		case err == nil && wantErr == nil:
			if !sameBatch(fresh, want) || !sameBatch(dirty, want) {
				t.Fatalf("decodeIngest(%q) = %+v (used batch: %+v), encoding/json = %+v", body, fresh, dirty, want)
			}
		case err != nil && wantErr != nil:
		case errors.Is(err, errIngestDuplicate) && wantErr == nil:
			if !repeatsField(body) {
				t.Fatalf("decodeIngest(%q) reports a repeated key; there is none", body)
			}
		default:
			t.Fatalf("decodeIngest(%q) = %v, encoding/json = %v", body, err, wantErr)
		}
	})
}

// TestConcurrentIngest posts distinct batches from several clients at
// once through a real HTTP server: every batch must land whole, so no
// two requests ever share a pooled body buffer or batch.
func TestConcurrentIngest(t *testing.T) {
	b := graphflow.NewBuilder(64)
	db, err := b.Open(&graphflow.Options{CatalogueZ: 10})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{DB: db})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients, batches, perBatch = 8, 10, 4
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				var req ingestRequest
				for k := 0; k < perBatch; k++ {
					req.AddEdges = append(req.AddEdges, ingestEdge{Src: uint32(c), Dst: uint32(clients + i*perBatch + k)})
				}
				body, _ := json.Marshal(req)
				resp, err := http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var got ingestResponse
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || got.AddedEdges != perBatch {
					t.Errorf("client %d batch %d: status %d, %+v, %v", c, i, resp.StatusCode, got, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got, want := db.NumEdges(), clients*batches*perBatch; got != want {
		t.Fatalf("%d edges after the storm, want %d", got, want)
	}
}

// TestZeroAllocs is the dynamic backstop of decodeIngest's //gf:noalloc:
// once a pooled scratch has grown to the benchmark's 32 + 32 body,
// reading that body into it and decoding the batch allocate nothing.
func TestZeroAllocs(t *testing.T) {
	body := benchIngestBody()
	sc := getIngestScratch()
	defer sc.release()
	var rd bytes.Reader
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"ingest 32+32", func() {
			rd.Reset(body)
			sc.body.Reset()
			if _, err := sc.body.ReadFrom(&rd); err != nil {
				t.Fatal(err)
			}
			if err := decodeIngest(sc.body.Bytes(), &sc.batch); err != nil {
				t.Fatal(err)
			}
			if len(sc.batch.AddEdges) != 32 || len(sc.batch.DeleteEdges) != 32 {
				t.Fatalf("decoded %d adds, %d deletes", len(sc.batch.AddEdges), len(sc.batch.DeleteEdges))
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.fn() // grow the scratch
			if n := testing.AllocsPerRun(100, tc.fn); n != 0 {
				t.Errorf("%.1f allocs per run, want 0", n)
			}
		})
	}
}

// BenchmarkIngestDecode decodes the benchmark's 32 + 32 body with
// decodeIngest into a reused batch and, beside it, with json.Unmarshal
// into ingestRequest.
func BenchmarkIngestDecode(b *testing.B) {
	body := benchIngestBody()
	b.Run("decodeIngest", func(b *testing.B) {
		var batch graphflow.Batch
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			if err := decodeIngest(body, &batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			var req ingestRequest
			if err := json.Unmarshal(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
