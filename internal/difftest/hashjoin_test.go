package difftest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"graphflow/internal/exec"
	"graphflow/internal/faultinject"
	"graphflow/internal/graph"
	"graphflow/internal/live"
	"graphflow/internal/plan"
	"graphflow/internal/query"
)

// wcoNode chains SCAN + E/I operators over q in the given vertex order
// (which must start with an edge); the order may cover only part of q.
func wcoNode(t *testing.T, q *query.Graph, order []int) plan.Node {
	t.Helper()
	var node plan.Node
	for _, e := range q.Edges {
		if (e.From == order[0] && e.To == order[1]) || (e.From == order[1] && e.To == order[0]) {
			node = plan.NewScan(q, e)
			break
		}
	}
	if node == nil {
		t.Fatalf("order %v of %s does not start with an edge", order, q)
	}
	for _, v := range order[2:] {
		ext, err := plan.NewExtend(q, node, v)
		if err != nil {
			t.Fatal(err)
		}
		node = ext
	}
	return node
}

// hashJoinShape is a pattern with a forced split: the optimizer is not
// asked, the two sides are WCO chains joined by plan.NewHashJoin.
type hashJoinShape struct {
	name         string
	pattern      string
	build, probe []int
	keyWidth     int
}

var hashJoinShapes = []hashJoinShape{
	// Two 2-paths closing a diamond, joined on the two middle vertices or on
	// the two ends.
	{"diamond/middle", "a->b, a->c, b->d, c->d", []int{0, 1, 2}, []int{1, 3, 2}, 2},
	{"diamond/ends", "a->b, a->c, b->d, c->d", []int{0, 1, 3}, []int{0, 2, 3}, 2},
	// Diamond + chord: two triangles sharing the edge b->c.
	{"diamondx", "a->b, a->c, b->c, b->d, c->d", []int{0, 1, 2}, []int{1, 2, 3}, 2},
	// Two triangles sharing a vertex.
	{"bowtie", "a->b, b->c, a->c, c->d, d->e, c->e", []int{0, 1, 2}, []int{2, 3, 4}, 1},
	// Two four-vertex halves sharing b, c and d: the key width that used to
	// take the byte-string fork of the table.
	{"wide", "a->b, a->c, a->d, b->c, c->d, b->e, c->e, d->e", []int{0, 1, 2, 3}, []int{1, 2, 3, 4}, 3},
}

// rowsOf enumerates cp under cfg as sorted rows in query-vertex order
// (plans lay their tuples out differently).
func rowsOf(t *testing.T, cp *exec.CompiledPlan, cfg exec.RunConfig) []string {
	t.Helper()
	out := cp.Root().Out()
	var (
		mu   sync.Mutex
		rows []string
	)
	_, err := cp.RunCtx(context.Background(), cfg, func(tu []graph.VertexID) bool {
		row := make([]graph.VertexID, len(out))
		for slot, v := range out {
			row[v] = tu[slot]
		}
		mu.Lock()
		rows = append(rows, fmt.Sprint(row))
		mu.Unlock()
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(rows)
	return rows
}

// pollCtx reports Canceled from its after+1-th Err poll on; Done is never
// readable, so only the engine's own polls can notice.
type pollCtx struct {
	context.Context
	polls atomic.Int64
	after int64
}

func (c *pollCtx) Err() error {
	if c.polls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestDifferentialHashJoin checks the hash-join table end to end on plans
// that cannot avoid it: forced build/probe splits with one-, two- and
// three-vertex keys, at batch sizes 1/3/64/1024, one worker and four, on
// a static graph and on a live overlay. Counts (enumerated and counted by
// the terminal probe), exact limits and full row sets must equal the
// reference matcher's (query.RefEnumerate, which has no table, no kernel
// and no plan) on the graph, or on a from-scratch rebuild of the
// overlay's logical graph. MaxBuildRows holds to the row, and a panic
// injected into the build sink or a cancellation after it leaves the
// pooled table and workers fit for the next run.
func TestDifferentialHashJoin(t *testing.T) {
	seeds := []int64{61000, 61001}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		g := GenDenseGraph(seed, false)
		rng := rand.New(rand.NewSource(seed * 7919))
		store, err := live.Open(g, live.Config{CompactThreshold: -1})
		if err != nil {
			t.Fatal(err)
		}
		sh := NewShadow(g)
		for b := 0; b < 3; b++ {
			batch := GenBatch(rng, sh)
			if b == 2 {
				batch = denseBatch(rng, sh, false)
			}
			if _, err := store.Apply(liveBatch(batch)); err != nil {
				t.Fatal(err)
			}
			sh.Apply(batch)
		}
		views := []struct {
			name      string
			view, ref graph.View
		}{{"static", g, g}, {"overlay", store.Snapshot(), sh.Build()}}
		for _, v := range views {
			for _, shape := range hashJoinShapes {
				name := fmt.Sprintf("seed %d %s %s", seed, v.name, shape.name)
				q := query.MustParse(shape.pattern)
				hj, err := plan.NewHashJoin(wcoNode(t, q, shape.build), wcoNode(t, q, shape.probe))
				if err != nil {
					t.Fatal(err)
				}
				if len(hj.JoinVertices) != shape.keyWidth {
					t.Fatalf("%s: join key %v, want %d vertices", name, hj.JoinVertices, shape.keyWidth)
				}
				cp, err := exec.Compile(v.view, &plan.Plan{Query: q, Root: hj})
				if err != nil {
					t.Fatal(err)
				}
				var wantRows []string
				query.RefEnumerate(v.ref, q, func(a []graph.VertexID) {
					wantRows = append(wantRows, fmt.Sprint(a))
				})
				sort.Strings(wantRows)
				want := int64(len(wantRows))
				if want < 10 {
					t.Fatalf("%s: %d matches; fixture too sparse", name, want)
				}
				checkHashJoin(t, name, cp, want, wantRows)
			}
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func checkHashJoin(t *testing.T, name string, cp *exec.CompiledPlan, want int64, wantRows []string) {
	t.Helper()
	var buildRows int64
	for _, bs := range BatchSizes {
		for _, workers := range []int{1, 4} {
			cfg := exec.RunConfig{BatchSize: bs, Workers: workers}
			at := fmt.Sprintf("%s bs=%d workers=%d", name, bs, workers)
			for _, off := range []bool{true, false} {
				cfg.NoFactorize = off
				n, prof, err := cp.CountCtx(context.Background(), cfg)
				if err != nil || n != want {
					t.Fatalf("%s factorization off=%v: count = %d, %v; reference %d", at, off, n, err, want)
				}
				if buildRows == 0 {
					buildRows = prof.HashedTuples
				}
				if prof.HashedTuples != buildRows || prof.ProbedTuples == 0 {
					t.Fatalf("%s factorization off=%v: hashed %d rows (first run %d), probed %d", at, off, prof.HashedTuples, buildRows, prof.ProbedTuples)
				}
			}
			for _, limit := range []int64{1, 5, want - 1, want + 50} {
				if n, _, err := cp.CountUpToCtx(context.Background(), cfg, limit); err != nil || n != min(limit, want) {
					t.Fatalf("%s: CountUpToCtx(%d) = %d, %v; want %d", at, limit, n, err, min(limit, want))
				}
			}
			if err := diffRows(rowsOf(t, cp, cfg), wantRows); err != nil {
				t.Fatalf("%s: %v", at, err)
			}

			// The cap holds to the row, through Count and CountUpToCtx.
			cfg.MaxBuildRows = buildRows
			if n, _, err := cp.CountCtx(context.Background(), cfg); err != nil || n != want {
				t.Fatalf("%s: MaxBuildRows = the %d rows built: count = %d, %v", at, buildRows, n, err)
			}
			cfg.MaxBuildRows = buildRows - 1
			if _, _, err := cp.CountCtx(context.Background(), cfg); err != exec.ErrBuildTooLarge {
				t.Fatalf("%s: MaxBuildRows one under the %d rows built: err = %v", at, buildRows, err)
			}
			if _, _, err := cp.CountUpToCtx(context.Background(), cfg, 3); err != exec.ErrBuildTooLarge {
				t.Fatalf("%s: CountUpToCtx with MaxBuildRows one under: err = %v", at, err)
			}
			cfg.MaxBuildRows = 0

			// A panic in the build sink, then a cancellation noticed once the
			// build is done: each fails its own run only.
			inj := &faultinject.Injector{PanicEvery: 1, Points: 1 << faultinject.PointHashBuild}
			cfg.Faults = inj
			var pe *exec.PanicError
			if _, _, err := cp.CountCtx(context.Background(), cfg); !errors.As(err, &pe) || inj.Panics() == 0 {
				t.Fatalf("%s: injected build panic: err = %v after %d panics", at, err, inj.Panics())
			}
			cfg.Faults = nil
			if n, _, err := cp.CountCtx(context.Background(), cfg); err != nil || n != want {
				t.Fatalf("%s: count after the injected panic = %d, %v; want %d", at, n, err, want)
			}
			if _, _, err := cp.CountCtx(&pollCtx{Context: context.Background(), after: 1}, cfg); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: cancelled after the build: err = %v", at, err)
			}
			if n, _, err := cp.CountCtx(context.Background(), cfg); err != nil || n != want {
				t.Fatalf("%s: count after the cancelled run = %d, %v; want %d", at, n, err, want)
			}
		}
	}
}
