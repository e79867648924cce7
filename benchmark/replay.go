package main

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"graphflow/internal/cache"
	"graphflow/internal/catalogue"
	"graphflow/internal/exec"
	"graphflow/internal/graph"
	"graphflow/internal/live"
	"graphflow/internal/optimizer"
	"graphflow/internal/query"
	"graphflow/internal/resource"
	"graphflow/internal/wal"
)

// replica is the benchmark's own copy of the store, driven through the
// layers' public functions in the order graphflow.go calls them. The traced
// run replays every request on it right after the server answered the same
// request, timing each call: those timings are the child spans of the
// request's root span, which itself wraps the real ServeHTTP call. Nothing
// inside the program is instrumented.
type replica struct {
	tr    *tracer
	store *live.DB
	gov   *resource.Governor
	plans *cache.Cache[*replicaPlan]

	prepared map[string]*preparedStmt

	mu        sync.Mutex
	cat       *catalogue.Catalogue
	catEpoch  uint64
	prof      exec.Profile
	planKinds map[string]int
	overlayPk int

	// Durable workloads only: dir holds the replica store's own WAL and
	// checkpoints; log and ckptDir receive the same records and graphs once
	// more, alone, so that wal.Append and wal.WriteCheckpoint can be timed
	// apart from the live store's work around them.
	dir, ckptDir string
	log          *wal.Log
	walEdges     int64

	compactThreshold int
	catCfg           catalogue.Config

	graphBuildMS    float64
	csrBytesPerEdge float64
}

type replicaPlan struct {
	compiled *exec.CompiledPlan
	epoch    uint64
}

// preparedStmt mirrors graphflow.PreparedQuery: the parsed pattern and the
// plan it last resolved to, reused while the epoch stands.
type preparedStmt struct {
	q   *query.Graph
	cur atomic.Pointer[replicaPlan]
}

// layout places the child spans of one request back to back inside its root
// span, starting at the root's start: the replay runs after the real request,
// so only the durations are real, not the offsets. A nil layout records
// nothing (used to keep the replica in step during untraced rounds).
type layout struct {
	tr         *tracer
	parent, op int
	cursor     int64
}

func (l *layout) child(name string, d time.Duration) *layout {
	if l == nil {
		return nil
	}
	id := l.tr.add(name, l.cursor, l.cursor+int64(d), l.parent, l.op)
	sub := &layout{tr: l.tr, parent: id, op: l.op, cursor: l.cursor}
	l.cursor += int64(d)
	return sub
}

// newReplica builds the replica from the workload's edge arrays, timing the
// graph build, the live-store open and the catalogue build as spans of a
// set-up op.
func newReplica(w *workload, tr *tracer) (*replica, error) {
	rp := &replica{
		tr:               tr,
		gov:              resource.NewGovernor(w.opts.MemGlobalBytes),
		plans:            cache.New[*replicaPlan](256),
		prepared:         map[string]*preparedStmt{},
		planKinds:        map[string]int{},
		compactThreshold: w.opts.CompactThreshold,
		catCfg:           catalogue.Config{H: w.opts.CatalogueH, Z: w.opts.CatalogueZ, Seed: w.opts.Seed},
	}
	if rp.compactThreshold == 0 {
		rp.compactThreshold = live.DefaultCompactThreshold
	}
	op := tr.newOp()
	start := time.Now()
	root := &layout{tr: tr, parent: -1, op: op, cursor: tr.since(start)}

	heapBefore := heapAlloc()
	t := time.Now()
	b := graph.NewBuilder(w.numVertices)
	for v, l := range w.vertexLabels {
		b.SetVertexLabel(graph.VertexID(v), graph.Label(l))
	}
	for _, e := range w.edges {
		b.AddEdge(graph.VertexID(e.Src), graph.VertexID(e.Dst), graph.Label(e.Label))
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	buildTook := time.Since(t)
	b = nil
	rp.graphBuildMS = float64(buildTook) / 1e6
	rp.csrBytesPerEdge = float64(int64(heapAlloc())-int64(heapBefore)) / float64(len(w.edges))

	cfg := live.Config{
		CompactThreshold: -1, // the replay compacts explicitly, as a span of its own
		OnEpoch:          func(*live.Snapshot) { rp.plans.Clear() },
	}
	if w.durable {
		if rp.dir, err = os.MkdirTemp("", "gfbench-replica-"); err != nil {
			return nil, err
		}
		if rp.ckptDir, err = os.MkdirTemp("", "gfbench-ckpt-"); err != nil {
			return nil, err
		}
		cfg.Dir = rp.dir + "/store"
		if cfg.Sync, err = wal.ParseSyncPolicy(w.opts.Fsync); err != nil {
			return nil, err
		}
		logDir := rp.dir + "/log"
		if err = os.MkdirAll(logDir, 0o755); err != nil {
			return nil, err
		}
		if rp.log, _, err = wal.Open(logDir, 0, wal.Options{Policy: cfg.Sync}, nil); err != nil {
			return nil, err
		}
	}
	t = time.Now()
	rp.store, err = live.Open(g, cfg)
	if err != nil {
		return nil, err
	}
	openTook := time.Since(t)

	t = time.Now()
	rp.cat = catalogue.Build(rp.store.Snapshot(), rp.catCfg)
	catTook := time.Since(t)

	setup := tr.add("bench.setup", root.cursor, root.cursor+int64(buildTook+openTook+catTook), -1, op)
	root.parent = setup
	root.child("graph.build", buildTook)
	root.child("live.open", openTook)
	root.child("catalogue.build", catTook)

	for _, h := range w.hot {
		q, err := query.ParseAny(h.pattern)
		if err != nil {
			return nil, err
		}
		pl, err := rp.planFor(nil, q)
		if err != nil {
			return nil, err
		}
		st := &preparedStmt{q: q}
		st.cur.Store(pl)
		rp.prepared[h.name] = st
	}
	return rp, nil
}

func (rp *replica) close() error {
	err := rp.store.Close()
	if rp.log != nil {
		if cerr := rp.log.Close(); err == nil {
			err = cerr
		}
	}
	for _, d := range []string{rp.dir, rp.ckptDir} {
		if d != "" {
			if rmErr := os.RemoveAll(d); err == nil {
				err = rmErr
			}
		}
	}
	return err
}

// catalogueFor mirrors DB.catalogueFor: one catalogue per epoch, rebuilt on
// the first plan after an epoch bump.
func (rp *replica) catalogueFor(l *layout, snap *live.Snapshot) *catalogue.Catalogue {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if rp.catEpoch != snap.Epoch() {
		t := time.Now()
		rp.cat = catalogue.Build(snap, rp.catCfg)
		rp.catEpoch = snap.Epoch()
		l.child("catalogue.build", time.Since(t))
	}
	return rp.cat
}

// planFor mirrors DB.preparedFor: canonicalise, look the plan up by canonical
// key and epoch, and on a miss optimise and compile.
func (rp *replica) planFor(l *layout, q *query.Graph) (*replicaPlan, error) {
	t := time.Now()
	canon, _ := q.Canonical()
	snap := rp.store.Snapshot()
	key := canon.Key() + "|e" + strconv.FormatUint(snap.Epoch(), 10)
	l.child("query.canon", time.Since(t))

	t = time.Now()
	pl, ok := rp.plans.Get(key)
	l.child("cache.lookup", time.Since(t))
	if ok {
		return pl, nil
	}
	cat := rp.catalogueFor(l, snap)
	t = time.Now()
	p, err := optimizer.Optimize(canon, optimizer.Options{Catalogue: cat, Factorized: true})
	l.child("optimizer.optimize", time.Since(t))
	if err != nil {
		return nil, err
	}
	t = time.Now()
	cp, err := exec.Compile(snap, p)
	l.child("exec.compile", time.Since(t))
	if err != nil {
		return nil, err
	}
	pl = &replicaPlan{compiled: cp, epoch: snap.Epoch()}
	rp.plans.Put(key, pl)
	if l != nil {
		rp.mu.Lock()
		rp.planKinds[p.Kind()]++
		rp.mu.Unlock()
	}
	return pl, nil
}

// resolve replays what the server does before it executes a read: a prepared
// statement re-plans only when the epoch has moved (PreparedQuery.resolve),
// an ad-hoc pattern is parsed, canonicalised and looked up every time.
func (rp *replica) resolve(l *layout, o *op) (*replicaPlan, error) {
	if st := rp.prepared[o.prepared]; st != nil {
		pl := st.cur.Load()
		if pl.epoch != rp.store.Epoch() {
			var err error
			if pl, err = rp.planFor(l, st.q); err != nil {
				return nil, err
			}
			st.cur.Store(pl)
		}
		return pl, nil
	}
	t := time.Now()
	q, err := query.ParseAny(o.pattern)
	l.child("query.parse", time.Since(t))
	if err != nil {
		return nil, err
	}
	return rp.planFor(l, q)
}

// execute runs a resolved plan the way DB.runCount does for o's options.
func (rp *replica) execute(pl *replicaPlan, o *op) (int64, exec.Profile, error) {
	mem := resource.NewBudget(0, rp.gov)
	defer mem.Close()
	cfg := exec.RunConfig{Workers: 1, Factorized: true, MemBudget: mem}
	if o.limit > 0 {
		return pl.compiled.CountUpToCtx(context.Background(), cfg, o.limit)
	}
	cfg.FastCount = true
	return pl.compiled.CountCtx(context.Background(), cfg)
}

// read replays one /query or /execute and returns the count it computed.
func (rp *replica) read(l *layout, o *op) (int64, error) {
	pl, err := rp.resolve(l, o)
	if err != nil {
		return 0, err
	}
	t := time.Now()
	n, prof, err := rp.execute(pl, o)
	run := l.child("exec.run", time.Since(t))
	if err != nil {
		return 0, err
	}
	// The executor attributes its own wall time to stage kinds; the stages
	// become children of the run span so the trace shows them.
	for _, st := range []struct {
		name  string
		nanos int64
	}{
		{"exec.stage_scan", prof.Stages.Scan}, {"exec.stage_extend", prof.Stages.Extend},
		{"exec.stage_probe", prof.Stages.Probe}, {"exec.stage_factorized", prof.Stages.Factorized},
		{"exec.stage_build", prof.Stages.Build}, {"exec.stage_emit", prof.Stages.Emit},
	} {
		if st.nanos > 0 {
			run.child(st.name, time.Duration(st.nanos))
		}
	}
	if l != nil {
		rp.mu.Lock()
		rp.prof.Add(prof)
		rp.mu.Unlock()
	}
	return n, nil
}

func toLive(es []edgeOp) []live.EdgeOp {
	out := make([]live.EdgeOp, len(es))
	for i, e := range es {
		out[i] = live.EdgeOp{Src: graph.VertexID(e.Src), Dst: graph.VertexID(e.Dst), Label: graph.Label(e.Label)}
	}
	return out
}

func toWAL(es []edgeOp) []wal.EdgeOp {
	out := make([]wal.EdgeOp, len(es))
	for i, e := range es {
		out[i] = wal.EdgeOp{Src: graph.VertexID(e.Src), Dst: graph.VertexID(e.Dst), Label: graph.Label(e.Label)}
	}
	return out
}

// write replays one /ingest: the batch is applied to the replica store, the
// same record is appended once more to a log of its own, and when the overlay
// has outgrown the compaction threshold the replica compacts, which the
// served store would do in the background.
func (rp *replica) write(l *layout, o *op) error {
	t := time.Now()
	res, err := rp.store.Apply(live.Batch{AddEdges: toLive(o.adds), DeleteEdges: toLive(o.dels)})
	apply := l.child("live.apply", time.Since(t))
	if err != nil {
		return err
	}
	if res.Edges != o.wantEdges {
		return fmt.Errorf("replica has %d edges after the batch, want %d", res.Edges, o.wantEdges)
	}
	if rp.log != nil {
		t = time.Now()
		err = rp.log.Append(wal.Record{Epoch: res.Epoch, AddEdges: toWAL(o.adds), DeleteEdges: toWAL(o.dels)})
		apply.child("wal.append", time.Since(t))
		if err != nil {
			return err
		}
		rp.walEdges += int64(len(o.adds) + len(o.dels))
	}
	delta := rp.store.Snapshot().DeltaOps()
	if delta > rp.overlayPk {
		rp.overlayPk = delta
	}
	if delta < rp.compactThreshold {
		return nil
	}
	t = time.Now()
	if err := rp.store.Compact(); err != nil {
		return err
	}
	took := time.Since(t)
	if l == nil {
		return nil
	}
	bg := rp.tr.newOp()
	id := rp.tr.add("live.compact", rp.tr.since(t), rp.tr.since(t)+int64(took), -1, bg)
	if rp.log != nil {
		snap := rp.store.Snapshot()
		t2 := time.Now()
		err := wal.WriteCheckpoint(rp.ckptDir, snap.Epoch(), snap.Base())
		(&layout{tr: rp.tr, parent: id, op: bg, cursor: rp.tr.since(t)}).child("wal.checkpoint", time.Since(t2))
		if err != nil {
			return err
		}
		if err := wal.DropCheckpointsBefore(rp.ckptDir, snap.Epoch()); err != nil {
			return err
		}
	}
	return nil
}
