package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"graphflow"
	"graphflow/internal/server"
)

// env is one served store: what set-up produces and a run drives.
type env struct {
	db  *graphflow.DB
	srv *server.Server
	dir string // data directory of a durable store, "" otherwise
}

func (e *env) close() error {
	err := e.db.Close()
	if e.dir != "" {
		if rmErr := os.RemoveAll(e.dir); err == nil {
			err = rmErr
		}
	}
	return err
}

// setUp goes from edge arrays in memory to a server that answers: CSR and
// hub-index build, live store open (WAL open where durable), catalogue
// build, server construction and /prepare of the hot patterns. Its wall time
// is the setup_s metric.
func setUp(w *workload) (*env, error) {
	e := &env{}
	opts := w.opts
	if w.durable {
		dir, err := os.MkdirTemp("", "gfbench-"+w.name+"-")
		if err != nil {
			return nil, err
		}
		e.dir = dir
		opts.DataDir = dir
	}
	b := graphflow.NewBuilder(w.numVertices)
	for v, l := range w.vertexLabels {
		if l != 0 {
			b.SetVertexLabel(uint32(v), l)
		}
	}
	for _, ed := range w.edges {
		b.AddEdge(ed.Src, ed.Dst, ed.Label)
	}
	db, err := b.Open(&opts)
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	e.db = db
	e.srv, err = server.New(server.Config{
		DB:            db,
		MaxConcurrent: 2 * w.clients,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, err
	}
	for _, h := range w.hot {
		body := mustJSON(map[string]any{"name": h.name, "pattern": h.pattern})
		if status, resp := serve(e.srv, &recorder{}, "/prepare", body); status != http.StatusCreated {
			return nil, fmt.Errorf("/prepare %s: status %d: %s", h.name, status, resp)
		}
	}
	return e, nil
}

// recorder is a minimal in-memory http.ResponseWriter, reused across ops.
type recorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header {
	if r.header == nil {
		r.header = make(http.Header)
	}
	return r.header
}
func (r *recorder) WriteHeader(code int)        { r.status = code }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }

func (r *recorder) reset() {
	r.status = http.StatusOK
	r.body.Reset()
	for k := range r.header {
		delete(r.header, k)
	}
}

// serve sends one POST through the server's handler in-process: JSON
// decoding, admission, planning, execution and response encoding all run, the
// socket layer does not.
func serve(srv *server.Server, rec *recorder, path string, body []byte) (int, []byte) {
	rec.reset()
	req, err := http.NewRequest(http.MethodPost, "http://bench"+path, bytes.NewReader(body))
	if err != nil {
		panic(err) // paths are generated by the benchmark itself
	}
	srv.ServeHTTP(rec, req)
	return rec.status, rec.body.Bytes()
}

type readResponse struct {
	Count *int64 `json:"count"`
}

type writeResponse struct {
	AddedEdges   int `json:"added_edges"`
	DeletedEdges int `json:"deleted_edges"`
	Edges        int `json:"edges"`
}

// check reports why the response to o is wrong, or "" when it is right,
// along with the count a read answered (-1 for writes and failures). A
// non-2xx status covers refusals by admission (429/503) as well as errors.
func (o *op) check(status int, body []byte) (count int64, why string) {
	if status != http.StatusOK {
		return -1, fmt.Sprintf("%s: status %d: %s", o.path, status, bytes.TrimSpace(body))
	}
	if o.kind == opWrite {
		var r writeResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return -1, fmt.Sprintf("%s: bad response: %v", o.path, err)
		}
		if r.AddedEdges != len(o.adds) || r.DeletedEdges != len(o.dels) || r.Edges != o.wantEdges {
			return -1, fmt.Sprintf("%s: added %d deleted %d edges %d, want %d %d %d",
				o.path, r.AddedEdges, r.DeletedEdges, r.Edges, len(o.adds), len(o.dels), o.wantEdges)
		}
		return -1, ""
	}
	var r readResponse
	if err := json.Unmarshal(body, &r); err != nil || r.Count == nil {
		return -1, fmt.Sprintf("%s: bad response %q: %v", o.path, body, err)
	}
	if o.want >= 0 && *r.Count != o.want {
		return -1, fmt.Sprintf("%s %s: count %d, want %d", o.path, o.pattern, *r.Count, o.want)
	}
	return *r.Count, ""
}

// sample is one completed op of a round.
type sample struct {
	kind opKind
	ms   float64 // raw latency
}

// roundResult is what one round of closed-loop clients measured.
type roundResult struct {
	samples []sample
	wall    time.Duration
	// opsPerS is the round's raw throughput: every client's ops over the time
	// that client took, summed. Dividing all ops by the round's wall time
	// would charge the faster client for idling until the slower one ends.
	opsPerS  float64
	failures []string
}

// hook lets the traced run observe each op: it is called on the client's
// goroutine right after the op completes, outside the op's own timing, with
// the count a read answered. What it returns is booked as a failure.
type hook func(o *op, start, end time.Time, count int64) (why string)

// runRound drives one round: every client sends its ops back to back, each
// waiting for its reply before the next (closed loop).
func runRound(e *env, clients [][]op, after hook) roundResult {
	var (
		mu  sync.Mutex
		res roundResult
		wg  sync.WaitGroup
	)
	start := time.Now()
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rec := &recorder{}
			samples := make([]sample, 0, len(clients[c]))
			var failures []string
			began := time.Now()
			for i := range clients[c] {
				o := &clients[c][i]
				t0 := time.Now()
				status, body := serve(e.srv, rec, o.path, o.body)
				t1 := time.Now()
				samples = append(samples, sample{o.kind, float64(t1.Sub(t0)) / float64(time.Millisecond)})
				count, why := o.check(status, body)
				if why == "" && after != nil {
					why = after(o, t0, t1, count)
				}
				if why != "" {
					failures = append(failures, why)
				}
			}
			busy := time.Since(began)
			mu.Lock()
			res.samples = append(res.samples, samples...)
			res.opsPerS += float64(len(samples)) / busy.Seconds()
			res.failures = append(res.failures, failures...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// oracle fills in the expected count of every pattern using the
// tuple-at-a-time engine (the engine's own differential-testing reference)
// through the library, bypassing the plan cache so the served configuration
// is not warmed by it.
func oracle(db *graphflow.DB, pats []checkedPattern) error {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		fail error
	)
	workers := runtime.GOMAXPROCS(0)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for i := wk; i < len(pats); i += workers {
				n, err := db.Count(pats[i].pattern, &graphflow.QueryOptions{BatchSize: -1, SkipPlanCache: true})
				if err != nil {
					mu.Lock()
					fail = fmt.Errorf("oracle %q: %w", pats[i].pattern, err)
					mu.Unlock()
					return
				}
				pats[i].want = n
			}
		}(wk)
	}
	wg.Wait()
	return fail
}

// rebuildCounts counts the check patterns on a store built from scratch
// from the shadow edge set, with the tuple-at-a-time engine. The catalogue is
// sampled thinly: the rebuild only has to count correctly, not plan well.
func rebuildCounts(w *workload) ([]int64, error) {
	b := graphflow.NewBuilder(w.numVertices)
	for k := range w.shadow {
		b.AddEdge(uint32(k>>32), uint32(k), 0)
	}
	db, err := b.Open(&graphflow.Options{CatalogueZ: 100, CatalogueH: 2})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	pats := make([]checkedPattern, len(w.checkPatterns))
	for i, p := range w.checkPatterns {
		pats[i].pattern = p
	}
	if err := oracle(db, pats); err != nil {
		return nil, err
	}
	counts := make([]int64, len(pats))
	for i := range pats {
		counts[i] = pats[i].want
	}
	return counts, nil
}

// verifyMutations checks a mutation workload after its timed phase: the live
// edge count and the check-pattern counts, as served, against a from-scratch
// rebuild of the shadow edge set.
func verifyMutations(w *workload, e *env) []string {
	var failures []string
	if got := e.db.NumEdges(); got != len(w.shadow) {
		failures = append(failures, fmt.Sprintf("final edge count %d, shadow has %d", got, len(w.shadow)))
	}
	want, err := rebuildCounts(w)
	if err != nil {
		return append(failures, "rebuild: "+err.Error())
	}
	rec := &recorder{}
	for i, p := range w.checkPatterns {
		o := op{kind: opRead, path: "/query", pattern: p, want: want[i]}
		status, body := serve(e.srv, rec, o.path, mustJSON(map[string]any{"pattern": p}))
		if _, why := o.check(status, body); why != "" {
			failures = append(failures, "final "+why)
		}
	}
	return failures
}

// verifyRecovery closes the durable store and reopens it over the same base
// graph: the recovered store must resume at the epoch and edge count the
// closed one had. It returns how long recovery (open + replay + catalogue)
// took. The env's db is replaced by the reopened one.
func verifyRecovery(w *workload, e *env) (time.Duration, []string) {
	epoch, edges := e.db.Epoch(), e.db.NumEdges()
	if err := e.db.Close(); err != nil {
		return 0, []string{"close: " + err.Error()}
	}
	opts := w.opts
	opts.DataDir = e.dir
	b := graphflow.NewBuilder(w.numVertices)
	for _, ed := range w.edges {
		b.AddEdge(ed.Src, ed.Dst, ed.Label)
	}
	start := time.Now()
	db, err := b.Open(&opts)
	took := time.Since(start)
	if err != nil {
		return took, []string{"reopen: " + err.Error()}
	}
	e.db = db
	var failures []string
	if db.Epoch() != epoch || db.NumEdges() != edges {
		failures = append(failures, fmt.Sprintf("recovered epoch %d with %d edges, closed at epoch %d with %d",
			db.Epoch(), db.NumEdges(), epoch, edges))
	}
	return took, failures
}

// heapAlloc is the live heap after two collections (the second frees what
// finalizers of the first released).
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
