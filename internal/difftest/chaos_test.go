package difftest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"graphflow"
	"graphflow/internal/exec"
	"graphflow/internal/faultinject"
	"graphflow/internal/resource"
	"graphflow/internal/server"
)

// The chaos sweep: storms of concurrent queries where a deterministic
// fraction is sabotaged — starved of memory budget or killed by an
// injected panic — while the rest must keep returning exact counts.
// After the storm every resource the engine hands out must be back:
// governor reservations at zero, admission slots free, goroutines at
// baseline. Bounded to run as a CI smoke test under -race.

var chaosPatterns = []string{
	"a->b, b->c, a->c",             // cyclic: exercises intersection + hash-join plans
	"a->b, a->c, a->d",             // star: exercises the factorized tail
	"a->b, a->c, b->c, b->d, c->d", // diamond-X: its WCO plans end in a chain Adaptive routes
}

// chaosMode is the deterministic per-query sabotage schedule.
type chaosMode int

const (
	modeClean chaosMode = iota
	modeBudget
	modePanic
	modeCancel
	numModes
)

// TestChaosExecStorm storms the public query API directly: every fourth
// query is budget-starved, every fourth is panic-injected, every fourth
// has its context cancelled under it, and the surviving fourth must return
// the exact count throughout — the reference counter's (BatchSize -1),
// which shares no code with the engine. Every other query of each kind is
// Adaptive over a WCO plan, so the sabotage also lands in a router and the
// orderings it built. The engine must map each sabotage to its structured
// error, leak nothing, and keep serving.
func TestChaosExecStorm(t *testing.T) {
	db, err := OpenDB(GenGraph(41))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	oracle := make(map[string]int64, len(chaosPatterns))
	for _, p := range chaosPatterns {
		n, err := db.Count(p, &graphflow.QueryOptions{BatchSize: -1})
		if err != nil {
			t.Fatal(err)
		}
		oracle[p] = n
	}

	lc := NewLeakCheck()
	const workers, rounds = 8, 24
	errCh := make(chan error, workers*rounds)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				pat := chaosPatterns[(w+i)%len(chaosPatterns)]
				adaptive := (w*rounds+i)/int(numModes)%2 == 1
				opts := graphflow.QueryOptions{Adaptive: adaptive, WCOOnly: adaptive}
				switch chaosMode((w*rounds + i) % int(numModes)) {
				case modeClean:
					opts.Workers = 2
					n, err := db.Count(pat, &opts)
					if err != nil {
						errCh <- fmt.Errorf("clean %q: %v", pat, err)
					} else if n != oracle[pat] {
						errCh <- fmt.Errorf("clean %q = %d, oracle %d", pat, n, oracle[pat])
					}
				case modeBudget:
					opts.MemBudgetBytes = 512
					_, err := db.Count(pat, &opts)
					if !errors.Is(err, resource.ErrBudgetExceeded) {
						errCh <- fmt.Errorf("budget-starved %q: err = %v, want ErrBudgetExceeded", pat, err)
					}
				case modePanic:
					inj := &faultinject.Injector{PanicEvery: 1, Points: 1 << faultinject.PointWorkerStart}
					_, err := db.Count(pat, Under(opts, func(c *exec.RunConfig) { c.Faults = inj }))
					var pe *exec.PanicError
					if !errors.As(err, &pe) {
						errCh <- fmt.Errorf("panic-injected %q: err = %v, want *PanicError", pat, err)
					}
				case modeCancel:
					// The cancel races the run: it either lands or comes too late.
					ctx, cancel := context.WithCancel(context.Background())
					go cancel()
					opts.Context = ctx
					n, err := db.Count(pat, &opts)
					if !errors.Is(err, context.Canceled) && (err != nil || n != oracle[pat]) {
						errCh <- fmt.Errorf("cancelled %q = %d, %v; want the oracle's %d or context.Canceled", pat, n, err, oracle[pat])
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// Everything handed out during the storm must be back.
	if used := db.Governor().InUse(); used != 0 {
		t.Errorf("governor still holds %d bytes after the storm", used)
	}
	if err := lc.Check(); err != nil {
		t.Error(err)
	}
	for _, p := range chaosPatterns {
		n, err := db.Count(p, nil)
		if err != nil || n != oracle[p] {
			t.Errorf("post-storm %q = %d, %v; oracle %d", p, n, err, oracle[p])
		}
	}
}

// TestChaosServerStorm runs the same storm over HTTP against a server
// with tight admission (3 slots, short queue) and an injector, attached
// to every request's context, that panics a fraction of queries. Every
// response must be one of the governed outcomes — 200 with the exact
// count, 422 with a structured budget error, 429/503 with Retry-After,
// 500 from an injected panic — the server must stay healthy throughout,
// and slots, reservations and goroutines must return to baseline.
func TestChaosServerStorm(t *testing.T) {
	db, err := OpenDB(GenGraph(42))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	pattern := chaosPatterns[0]
	oracle, err := db.Count(pattern, &graphflow.QueryOptions{BatchSize: -1})
	if err != nil {
		t.Fatal(err)
	}

	inj := &faultinject.Injector{PanicEvery: 40, Points: 1 << faultinject.PointWorkerStart}
	srv, err := server.New(server.Config{
		DB:            db,
		MaxConcurrent: 3,
		MaxQueueDepth: 4,
		MaxQueueWait:  200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	faults := func(c *exec.RunConfig) { c.Faults = inj }
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.ServeHTTP(w, r.WithContext(exec.WithRunConfig(r.Context(), faults)))
	}))
	defer ts.Close()
	client := ts.Client()

	post := func(body string) (int, []byte, http.Header) {
		resp, err := client.Post(ts.URL+"/query", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Errorf("transport: %v", err)
			return 0, nil, nil
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, data, resp.Header
	}

	// Warm up (plan cache, connection pool) before the leak baseline.
	if code, body, _ := post(`{"pattern": "` + pattern + `"}`); code != http.StatusOK {
		t.Fatalf("warm-up: %d %s", code, body)
	}
	lc := NewLeakCheck()

	const workers, rounds = 12, 12
	var mu sync.Mutex
	outcomes := make(map[int]int)
	var stormErrs []string
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				budgeted := (w+i)%3 == 0
				body := `{"pattern": "` + pattern + `"}`
				if budgeted {
					body = `{"pattern": "` + pattern + `", "mem_budget_bytes": 512}`
				}
				code, data, hdr := post(body)
				var fail string
				switch code {
				case http.StatusOK:
					var qr struct {
						Count int64 `json:"count"`
					}
					if err := json.Unmarshal(data, &qr); err != nil || qr.Count != oracle {
						fail = fmt.Sprintf("200 count = %d (err %v), oracle %d", qr.Count, err, oracle)
					}
				case http.StatusUnprocessableEntity:
					if !budgeted || !bytes.Contains(data, []byte("budget_exceeded")) {
						fail = fmt.Sprintf("unexpected 422 (budgeted=%v): %s", budgeted, data)
					}
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					if hdr.Get("Retry-After") == "" {
						fail = fmt.Sprintf("%d shed without Retry-After: %s", code, data)
					}
				case http.StatusInternalServerError:
					if !bytes.Contains(data, []byte("panic")) {
						fail = fmt.Sprintf("500 without a panic body: %s", data)
					}
				default:
					fail = fmt.Sprintf("ungoverned status %d: %s", code, data)
				}
				mu.Lock()
				outcomes[code]++
				if fail != "" {
					stormErrs = append(stormErrs, fail)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	for _, e := range stormErrs {
		t.Error(e)
	}
	if outcomes[http.StatusOK] == 0 {
		t.Errorf("no query survived the storm: %v", outcomes)
	}
	t.Logf("storm outcomes by status: %v (injector fired %d times)", outcomes, inj.Panics())

	// The server must still be healthy and fully drained.
	resp, err := client.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after storm: %v %v", resp, err)
	}
	resp.Body.Close()
	resp, err = client.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Requests struct {
			InFlight     int   `json:"in_flight"`
			Queued       int   `json:"queued"`
			BudgetAborts int64 `json:"budget_aborts"`
			Panics       int64 `json:"panics"`
		} `json:"requests"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Requests.InFlight != 0 || st.Requests.Queued != 0 {
		t.Errorf("admission not drained: in_flight %d, queued %d", st.Requests.InFlight, st.Requests.Queued)
	}
	if got := st.Requests.BudgetAborts; got != int64(outcomes[http.StatusUnprocessableEntity]) {
		t.Errorf("stats budget_aborts = %d, observed %d 422s", got, outcomes[http.StatusUnprocessableEntity])
	}
	if got := st.Requests.Panics; got != int64(outcomes[http.StatusInternalServerError]) {
		t.Errorf("stats panics = %d, observed %d 500s", got, outcomes[http.StatusInternalServerError])
	}
	if used := db.Governor().InUse(); used != 0 {
		t.Errorf("governor still holds %d bytes after the storm", used)
	}
	// Idle keep-alive connections hold goroutines on both sides; release
	// them before the leak comparison.
	client.CloseIdleConnections()
	if err := lc.Check(); err != nil {
		t.Error(err)
	}
}

// TestChaosStatisticsRefresh extends the goroutine census to the
// background statistics refresher: writers keep a small graph drifting
// past the refresh rule while readers and a compactor run against it, so
// refreshers start throughout. Once the DB is closed the refresher, the
// compactor and every query worker must be gone, and before that the
// live DB must count what the BJ reference counts on a from-scratch
// rebuild of the shadow.
func TestChaosStatisticsRefresh(t *testing.T) {
	lc := NewLeakCheck()
	g := GenGraph(43)
	db, err := OpenLiveDB(g, 10)
	if err != nil {
		t.Fatal(err)
	}
	sh := NewShadow(g)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := db.Count(chaosPatterns[(r+i)%len(chaosPatterns)], &graphflow.QueryOptions{Workers: 1 + r%2}); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}(r)
	}
	rng := rand.New(rand.NewSource(43))
	for b := 0; b < 40; b++ {
		batch := GenBatch(rng, sh)
		if _, err := db.Apply(batch); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		sh.Apply(batch)
		if b%8 == 7 {
			if err := db.Compact(); err != nil {
				t.Fatalf("batch %d: compact: %v", b, err)
			}
		}
	}
	close(stop)
	wg.Wait()

	rebuilt := sh.Build()
	for seed := int64(0); seed < 4; seed++ {
		res, err := ComparePair(db, rebuilt, GenPattern(rand.New(rand.NewSource(seed))))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Skipped && (res.Got != res.Want || res.GotWCO != res.Want) {
			t.Errorf("%s: hybrid=%d wco=%d reference=%d", res.Pattern, res.Got, res.GotWCO, res.Want)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Close waited for whatever refresh the last planner started.
	if cs := db.CatalogueStats(); cs.Generation == 0 {
		t.Errorf("40 batches past the refresh rule published no new generation: %+v", cs)
	}
	if err := lc.Check(); err != nil {
		t.Error(err)
	}
}
