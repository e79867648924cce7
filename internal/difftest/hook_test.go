package difftest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"graphflow"
	"graphflow/internal/exec"
	"graphflow/internal/faultinject"
	"graphflow/internal/server"
)

// hookObserved is what one run through an entry point reports of the
// engine counters an ablation zeroes; has is false for the entry points
// that return no statistics (Count, Match).
type hookObserved struct {
	has                         bool
	cacheHits, carried, pinned  int64
	factorizedPrefixes, matches int64
}

func observedFrom(st graphflow.Stats) hookObserved {
	return hookObserved{true, st.CacheHits, st.CarriedSets, st.Kernels.PinnedProbe, st.FactorizedPrefixes, st.Matches}
}

// statusError is a response other than the one a request expected.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("status %d: %s", e.code, e.body) }

// TestRunConfigHookReachesEveryEntryPoint holds the run-config hook
// (exec.WithRunConfig) to every path a query takes into the engine: the
// DB's Count, CountStats, Match and Analyze, a PreparedQuery's count and
// match, and the server's /query and /execute through ServeHTTP. Under
// each of the three variants the sweeps use — the intersection cache off,
// the factorized tier off, a panic injected at worker start — the hook
// must run and its effect must show: no cache hits, carried sets or
// pinned probes with the cache off, no factorized prefixes with the tier
// off, and the injected panic surfacing as a *exec.PanicError (a 500
// naming the panic over HTTP).
func TestRunConfigHookReachesEveryEntryPoint(t *testing.T) {
	const triangle = "a->b, b->c, a->c"
	db, err := graphflow.NewFromDataset("Epinions", 1, &graphflow.Options{CatalogueZ: 200})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Without a hook the triangle pins, factorizes and finds matches, so
	// every zero below is the hook's doing.
	if _, st, err := db.CountStats(triangle, nil); err != nil || st.Kernels.PinnedProbe == 0 || st.FactorizedPrefixes == 0 {
		t.Fatalf("default triangle: pinned %d, factorized prefixes %d, err %v; want both > 0", st.Kernels.PinnedProbe, st.FactorizedPrefixes, err)
	}
	pq, err := db.Prepare(triangle)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{DB: db, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	post := func(ctx context.Context, path, body string, want int) (*httptest.ResponseRecorder, error) {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)).WithContext(ctx))
		if w.Code != want {
			return nil, &statusError{w.Code, w.Body.String()}
		}
		return w, nil
	}
	serve := func(ctx context.Context, path, body string) (hookObserved, error) {
		w, err := post(ctx, path, body, http.StatusOK)
		if err != nil {
			return hookObserved{}, err
		}
		var resp struct {
			Count   int64 `json:"count"`
			Kernels struct {
				PinnedProbe int64 `json:"pinned_probe"`
			} `json:"kernels"`
			Factorized struct {
				Prefixes int64 `json:"prefixes"`
			} `json:"factorized"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			return hookObserved{}, err
		}
		return hookObserved{has: true, pinned: resp.Kernels.PinnedProbe, factorizedPrefixes: resp.Factorized.Prefixes, matches: resp.Count}, nil
	}
	if _, err := post(context.Background(), "/prepare", `{"name": "tri", "pattern": "`+triangle+`"}`, http.StatusCreated); err != nil {
		t.Fatal(err)
	}
	every := func(map[string]uint32) bool { return true }
	entries := []struct {
		name string
		run  func(ctx context.Context) (hookObserved, error)
	}{
		{"DB.Count", func(ctx context.Context) (hookObserved, error) {
			_, err := db.Count(triangle, &graphflow.QueryOptions{Context: ctx})
			return hookObserved{}, err
		}},
		{"DB.CountStats", func(ctx context.Context) (hookObserved, error) {
			_, st, err := db.CountStats(triangle, &graphflow.QueryOptions{Context: ctx})
			return observedFrom(st), err
		}},
		{"DB.Match", func(ctx context.Context) (hookObserved, error) {
			return hookObserved{}, db.Match(triangle, every, &graphflow.QueryOptions{Context: ctx})
		}},
		{"DB.Analyze", func(ctx context.Context) (hookObserved, error) {
			st, err := db.Analyze(triangle, &graphflow.QueryOptions{Context: ctx})
			return observedFrom(st), err
		}},
		{"PreparedQuery.CountStats", func(ctx context.Context) (hookObserved, error) {
			_, st, err := pq.CountStats(&graphflow.QueryOptions{Context: ctx})
			return observedFrom(st), err
		}},
		{"PreparedQuery.Match", func(ctx context.Context) (hookObserved, error) {
			return hookObserved{}, pq.Match(every, &graphflow.QueryOptions{Context: ctx})
		}},
		{"/query", func(ctx context.Context) (hookObserved, error) {
			return serve(ctx, "/query", `{"pattern": "`+triangle+`"}`)
		}},
		{"/execute", func(ctx context.Context) (hookObserved, error) {
			return serve(ctx, "/execute/tri", `{}`)
		}},
	}
	variants := []struct {
		name  string
		hook  func(*exec.RunConfig)
		check func(hookObserved, error) error
	}{
		{"cache off", CacheOff, func(o hookObserved, err error) error {
			if err != nil {
				return err
			}
			if o.cacheHits != 0 || o.carried != 0 || o.pinned != 0 {
				return fmt.Errorf("%d cache hits, %d carried sets, %d pinned probes with the cache off", o.cacheHits, o.carried, o.pinned)
			}
			return nil
		}},
		{"factorization off", NoFactorize, func(o hookObserved, err error) error {
			if err != nil {
				return err
			}
			if o.factorizedPrefixes != 0 {
				return fmt.Errorf("%d factorized prefixes with factorization off", o.factorizedPrefixes)
			}
			return nil
		}},
		{"panic", func(c *exec.RunConfig) {
			c.Faults = &faultinject.Injector{PanicEvery: 1, Points: 1 << faultinject.PointWorkerStart}
		}, func(o hookObserved, err error) error {
			var (
				pe *exec.PanicError
				se *statusError
			)
			if errors.As(err, &pe) || errors.As(err, &se) && se.code == http.StatusInternalServerError && strings.Contains(se.body, "panic") {
				return nil
			}
			return fmt.Errorf("err = %v, want the injected panic", err)
		}},
	}
	for _, e := range entries {
		for _, v := range variants {
			t.Run(e.name+"/"+v.name, func(t *testing.T) {
				var calls atomic.Int64
				ctx := exec.WithRunConfig(context.Background(), func(c *exec.RunConfig) {
					calls.Add(1)
					v.hook(c)
				})
				o, err := e.run(ctx)
				if calls.Load() == 0 {
					t.Fatalf("the hook never ran (err %v)", err)
				}
				if err := v.check(o, err); err != nil {
					t.Fatal(err)
				}
				if err == nil && o.has && o.matches != 17888 {
					t.Fatalf("%d matches, want 17888", o.matches)
				}
			})
		}
	}
}

// TestRunConfigHookIsPerQuery runs two streams of the same prepared query
// at once, one with the cache off and one with factorization off: each
// run must show its own ablation and not the other's, and each hook must
// run exactly once per query of its own stream.
func TestRunConfigHookIsPerQuery(t *testing.T) {
	const triangle, rounds = "a->b, b->c, a->c", 20
	db, err := graphflow.NewFromDataset("Epinions", 1, &graphflow.Options{CatalogueZ: 200})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	pq, err := db.Prepare(triangle)
	if err != nil {
		t.Fatal(err)
	}
	var cacheCalls, factCalls atomic.Int64
	streams := []struct {
		calls *atomic.Int64
		hook  func(*exec.RunConfig)
		ok    func(graphflow.Stats) bool
	}{
		{&cacheCalls, CacheOff, func(st graphflow.Stats) bool { return st.Kernels.PinnedProbe == 0 && st.FactorizedPrefixes > 0 }},
		{&factCalls, NoFactorize, func(st graphflow.Stats) bool { return st.Kernels.PinnedProbe > 0 && st.FactorizedPrefixes == 0 }},
	}
	var wg sync.WaitGroup
	for i, s := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := exec.WithRunConfig(context.Background(), func(c *exec.RunConfig) {
				s.calls.Add(1)
				s.hook(c)
			})
			for r := 0; r < rounds; r++ {
				n, st, err := pq.CountStats(&graphflow.QueryOptions{Context: ctx, Workers: 2})
				if err != nil || n != 17888 || !s.ok(st) {
					t.Errorf("stream %d round %d: count %d, pinned %d, factorized prefixes %d, err %v", i, r, n, st.Kernels.PinnedProbe, st.FactorizedPrefixes, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if cacheCalls.Load() != rounds || factCalls.Load() != rounds {
		t.Errorf("hook calls: cache off %d, factorization off %d; want %d each", cacheCalls.Load(), factCalls.Load(), rounds)
	}
}
