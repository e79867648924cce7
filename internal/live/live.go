package live

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"graphflow/internal/graph"
	"graphflow/internal/metrics"
	"graphflow/internal/wal"
)

// DefaultCompactThreshold is the overlay size (mutations since the last
// base build) at which the background compactor folds the delta into a
// fresh CSR.
const DefaultCompactThreshold = 1 << 14

// Config tunes a live DB.
type Config struct {
	// CompactThreshold is the overlay mutation count that triggers
	// background compaction. 0 takes DefaultCompactThreshold; a negative
	// value disables automatic compaction (Compact still works).
	CompactThreshold int
	// HubThreshold is the adjacency-partition size at which compaction
	// rebuilds materialise hub bitset indexes in the fresh CSR base (0
	// takes graph.DefaultHubThreshold; negative disables indexing). It
	// should match the threshold the initial base was built with.
	HubThreshold int
	// OnEpoch, when non-nil, is called after every epoch publication
	// (mutation batch or compaction) with the new snapshot, outside the
	// writer lock. The DB layer uses it to unbind cached plans from the
	// snapshot they superseded. Hooks of consecutive epochs may run out of
	// order.
	OnEpoch func(*Snapshot)
	// Dir, when non-empty, makes the store durable: every mutation batch
	// is appended (length-prefixed, CRC32-checksummed) to a write-ahead
	// log in this directory before its epoch is published, compaction
	// writes an atomic full-graph checkpoint and prunes the log, and Open
	// recovers by loading the newest checkpoint and replaying the WAL
	// tail (a torn final record is dropped). Empty disables durability.
	Dir string
	// Sync selects the WAL fsync policy (per-batch, interval or off);
	// SyncInterval is the interval policy's period (0 takes the wal
	// package default). Both ignored when Dir is empty.
	Sync         wal.SyncPolicy
	SyncInterval time.Duration
}

// EdgeOp names one directed labelled edge in a Batch.
type EdgeOp struct {
	Src, Dst graph.VertexID
	Label    graph.Label
}

// Batch is one atomic group of mutations. Vertices are appended first, so
// AddEdges/DeleteEdges may reference vertices created by the same batch.
type Batch struct {
	// AddVertices appends one vertex per label; IDs are assigned
	// sequentially from the current vertex count.
	AddVertices []graph.Label
	AddEdges    []EdgeOp
	DeleteEdges []EdgeOp
}

// ApplyResult reports what one batch did.
type ApplyResult struct {
	// Epoch is the snapshot version the batch produced.
	Epoch uint64
	// FirstNewVertex is the ID of the first appended vertex (meaningful
	// only when AddedVertices > 0; subsequent IDs are consecutive).
	FirstNewVertex graph.VertexID
	AddedVertices  int
	// AddedEdges counts edges actually inserted (duplicates and self-loops
	// are dropped, matching the frozen Builder's semantics).
	AddedEdges int
	// DeletedEdges counts edges actually removed (deleting an absent edge
	// is a no-op).
	DeletedEdges int
	// Vertices and Edges are the post-batch live counts, read atomically
	// with the epoch so the triple is self-consistent even under
	// concurrent writers.
	Vertices, Edges int
}

// DB is the mutable, versioned graph store. Readers obtain an immutable
// Snapshot with a single atomic load and never block; writers serialise
// on an internal mutex and publish each batch as a new epoch with an
// atomic pointer swap.
type DB struct {
	mu        sync.Mutex // serialises writers and the compaction swap
	cur       atomic.Pointer[Snapshot]
	threshold int
	onEpoch   func(*Snapshot)

	compacting  atomic.Bool
	compactions atomic.Int64
	compactWG   sync.WaitGroup
	// compactSeconds observes full compaction-pass durations (rebuild
	// through publish, including the checkpoint write for durable
	// stores). Owned here so it records regardless of whether a metrics
	// registry is attached; exposed via CompactionHistogram.
	compactSeconds *metrics.Histogram

	// Durability state; log is nil for an ephemeral store.
	log      *wal.Log
	dir      string
	closed   atomic.Bool
	replayed int  // WAL records replayed at open
	tornTail bool // open dropped a torn final record
	// checkpointEpoch is the epoch covered by the newest durable
	// checkpoint (0 when the implicit checkpoint is the boot-time base);
	// checkpoints counts checkpoint files written by this process.
	checkpointEpoch atomic.Uint64
	checkpoints     atomic.Int64
	// checkpointTime is when the newest durable checkpoint was written
	// (UnixNano; 0 = no checkpoint yet), feeding the checkpoint-age
	// gauge.
	checkpointTime atomic.Int64
}

// compactBuckets spans compaction-pass durations: sub-millisecond
// overlay folds on small graphs up to multi-second full rebuilds.
var compactBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// CompactionHistogram exposes the store's compaction-duration histogram
// for registration in a metrics registry.
func (db *DB) CompactionHistogram() *metrics.Histogram { return db.compactSeconds }

// FsyncHistogram exposes the WAL's fsync-latency histogram, or nil for
// an ephemeral store.
func (db *DB) FsyncHistogram() *metrics.Histogram {
	if db.log == nil {
		return nil
	}
	return db.log.FsyncHistogram()
}

// CheckpointTime reports when the newest durable checkpoint was
// written; ok is false when none exists (recovery would replay from the
// boot-time base).
func (db *DB) CheckpointTime() (time.Time, bool) {
	ns := db.checkpointTime.Load()
	if ns == 0 {
		return time.Time{}, false
	}
	return time.Unix(0, ns), true
}

// Open wraps a frozen base graph in a live DB. Without Config.Dir the
// store starts at epoch 0 over base and loses every mutation on process
// exit. With Config.Dir, Open recovers the durable state: the newest
// checkpoint in the directory replaces base (when one exists), the WAL
// tail past the checkpoint's epoch is replayed into the overlay, a torn
// final record is truncated away, and the returned store resumes at the
// recovered epoch with every subsequent batch logged before publication.
// The caller must pass the same logical base graph across restarts —
// until the first checkpoint lands, base itself is the recovery root.
func Open(base *graph.Graph, cfg Config) (*DB, error) {
	th := cfg.CompactThreshold
	if th == 0 {
		th = DefaultCompactThreshold
	}
	db := &DB{threshold: th, onEpoch: cfg.OnEpoch, compactSeconds: metrics.NewHistogram(compactBuckets)}
	if cfg.Dir == "" {
		s := newBaseSnapshot(base, 0)
		s.hubThreshold = cfg.HubThreshold
		db.cur.Store(s)
		return db, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("live: data dir: %w", err)
	}
	wal.RemoveStaleTemp(cfg.Dir)
	ckpt, ckptEpoch, ok, err := wal.LoadNewestCheckpoint(cfg.Dir, cfg.HubThreshold)
	if err != nil {
		return nil, err
	}
	start := uint64(0)
	if ok {
		base, start = ckpt, ckptEpoch
	}
	cur := newBaseSnapshot(base, start)
	cur.hubThreshold = cfg.HubThreshold
	replayed := 0
	log, info, err := wal.Open(cfg.Dir, start, wal.Options{Policy: cfg.Sync, Interval: cfg.SyncInterval}, func(rec wal.Record) error {
		if rec.Epoch <= start {
			// Covered by the checkpoint: the segment holding it was rotated
			// out before the checkpoint landed but not yet pruned.
			return nil
		}
		ns, _, err := applyBatch(cur, batchFromRecord(rec))
		if err != nil {
			return fmt.Errorf("live: wal replay epoch %d: %w", rec.Epoch, err)
		}
		if ns != cur {
			// Epochs can skip numbers across compactions (which publish an
			// epoch without a WAL record), so trust the logged epoch.
			ns.epoch = rec.Epoch
			cur = ns
		}
		replayed++
		return nil
	})
	if err != nil {
		return nil, err
	}
	db.log, db.dir = log, cfg.Dir
	db.replayed, db.tornTail = replayed, info.TornTail
	db.checkpointEpoch.Store(start)
	if ok {
		if mt, found := wal.CheckpointModTime(cfg.Dir, start); found {
			db.checkpointTime.Store(mt.UnixNano())
		}
	}
	db.cur.Store(cur)
	return db, nil
}

// batchFromRecord converts a logged record back into a Batch.
func batchFromRecord(rec wal.Record) Batch {
	b := Batch{AddVertices: rec.AddVertices}
	if len(rec.AddEdges) > 0 {
		b.AddEdges = make([]EdgeOp, len(rec.AddEdges))
		for i, e := range rec.AddEdges {
			b.AddEdges[i] = EdgeOp{Src: e.Src, Dst: e.Dst, Label: e.Label}
		}
	}
	if len(rec.DeleteEdges) > 0 {
		b.DeleteEdges = make([]EdgeOp, len(rec.DeleteEdges))
		for i, e := range rec.DeleteEdges {
			b.DeleteEdges[i] = EdgeOp{Src: e.Src, Dst: e.Dst, Label: e.Label}
		}
	}
	return b
}

// recordFromBatch converts a batch (plus the epoch its application will
// publish) into its WAL record.
func recordFromBatch(epoch uint64, b Batch) wal.Record {
	rec := wal.Record{Epoch: epoch, AddVertices: b.AddVertices}
	if len(b.AddEdges) > 0 {
		rec.AddEdges = make([]wal.EdgeOp, len(b.AddEdges))
		for i, e := range b.AddEdges {
			rec.AddEdges[i] = wal.EdgeOp{Src: e.Src, Dst: e.Dst, Label: e.Label}
		}
	}
	if len(b.DeleteEdges) > 0 {
		rec.DeleteEdges = make([]wal.EdgeOp, len(b.DeleteEdges))
		for i, e := range b.DeleteEdges {
			rec.DeleteEdges[i] = wal.EdgeOp{Src: e.Src, Dst: e.Dst, Label: e.Label}
		}
	}
	return rec
}

// Close waits for background compaction and closes the WAL (syncing any
// buffered appends). Apply fails afterwards; reads keep working against
// the last snapshot. A nil error is returned for an ephemeral store.
func (db *DB) Close() error {
	if db.closed.Swap(true) {
		return nil
	}
	db.compactWG.Wait()
	if db.log != nil {
		return db.log.Close()
	}
	return nil
}

// WALStats reports the durability layer's state; Enabled is false (and
// the rest zero) for an ephemeral store.
type WALStats struct {
	Enabled bool
	// Bytes is the live WAL size across segments; Appended counts batches
	// logged by this process.
	Bytes    int64
	Appended int64
	// Replayed is the number of WAL records recovered at open, and
	// TornTailDropped whether a torn final record was discarded.
	Replayed        int
	TornTailDropped bool
	// CheckpointEpoch is the newest durable checkpoint's epoch (0 = the
	// boot-time base); Checkpoints counts checkpoints this process wrote.
	CheckpointEpoch uint64
	Checkpoints     int64
}

// WALStats reports the durability layer's state.
func (db *DB) WALStats() WALStats {
	if db.log == nil {
		return WALStats{}
	}
	return WALStats{
		Enabled:         true,
		Bytes:           db.log.Size(),
		Appended:        db.log.Appended(),
		Replayed:        db.replayed,
		TornTailDropped: db.tornTail,
		CheckpointEpoch: db.checkpointEpoch.Load(),
		Checkpoints:     db.checkpoints.Load(),
	}
}

// notifyEpoch invokes the epoch hook; callers must not hold db.mu.
func (db *DB) notifyEpoch(s *Snapshot) {
	if db.onEpoch != nil {
		db.onEpoch(s)
	}
}

// Snapshot returns the current epoch's immutable view. The caller may
// hold it for arbitrarily long; later mutations never disturb it.
func (db *DB) Snapshot() *Snapshot { return db.cur.Load() }

// Epoch returns the current epoch number.
func (db *DB) Epoch() uint64 { return db.cur.Load().epoch }

// Compactions returns how many compaction passes have completed.
func (db *DB) Compactions() int64 { return db.compactions.Load() }

// AddVertex appends a vertex with the given label and returns its ID.
func (db *DB) AddVertex(label graph.Label) (graph.VertexID, error) {
	res, err := db.Apply(Batch{AddVertices: []graph.Label{label}})
	if err != nil {
		return 0, err
	}
	return res.FirstNewVertex, nil
}

// AddEdge inserts the directed edge src->dst with the given label. It
// reports whether the edge was new (false: duplicate or self-loop, both
// dropped to preserve the frozen Builder's semantics).
func (db *DB) AddEdge(src, dst graph.VertexID, label graph.Label) (bool, error) {
	res, err := db.Apply(Batch{AddEdges: []EdgeOp{{src, dst, label}}})
	if err != nil {
		return false, err
	}
	return res.AddedEdges > 0, nil
}

// DeleteEdge removes the directed edge src->dst with the given (exact)
// label, reporting whether it existed.
func (db *DB) DeleteEdge(src, dst graph.VertexID, label graph.Label) (bool, error) {
	res, err := db.Apply(Batch{DeleteEdges: []EdgeOp{{src, dst, label}}})
	if err != nil {
		return false, err
	}
	return res.DeletedEdges > 0, nil
}

// Apply runs one batch atomically: either the whole batch is published as
// a single new epoch, or (on validation error) nothing changes. A batch
// whose operations are all no-ops (duplicate adds, self-loops, absent
// deletes) publishes nothing: the graph is logically unchanged, so
// cached plans and catalogue statistics stay valid. In-flight readers
// keep their snapshot.
func (db *DB) Apply(b Batch) (ApplyResult, error) {
	if db.closed.Load() {
		return ApplyResult{}, fmt.Errorf("live: store is closed")
	}
	db.mu.Lock()
	s := db.cur.Load()
	ns, res, err := applyBatch(s, b)
	if err != nil {
		db.mu.Unlock()
		return ApplyResult{}, err
	}
	published := ns != s && (res.AddedVertices > 0 || res.AddedEdges > 0 || res.DeletedEdges > 0)
	if published && db.log != nil {
		// Durability point: the raw client batch is logged (replay re-drops
		// duplicates and absent deletes deterministically) and made durable
		// per the sync policy before the epoch becomes visible, so an
		// acknowledged batch can never outrun the log.
		if err := db.log.Append(recordFromBatch(ns.epoch, b)); err != nil {
			db.mu.Unlock()
			return ApplyResult{}, err
		}
	}
	if published {
		db.cur.Store(ns)
	}
	cur := db.cur.Load()
	res.Epoch = cur.epoch
	res.Vertices = cur.NumVertices()
	res.Edges = cur.NumEdges()
	db.mu.Unlock()
	if published {
		db.notifyEpoch(cur)
	}
	db.maybeCompact()
	return res, nil
}

// applyBatch builds the next epoch's snapshot from s without publishing it.
func applyBatch(s *Snapshot, b Batch) (*Snapshot, ApplyResult, error) {
	var res ApplyResult
	nAfter := s.NumVertices() + len(b.AddVertices)
	for _, l := range b.AddVertices {
		if l == graph.WildcardLabel {
			return nil, res, fmt.Errorf("live: vertex uses reserved wildcard label")
		}
	}
	for _, e := range b.AddEdges {
		if e.Label == graph.WildcardLabel {
			return nil, res, fmt.Errorf("live: edge (%d->%d) uses reserved wildcard label", e.Src, e.Dst)
		}
		if int(e.Src) >= nAfter || int(e.Dst) >= nAfter {
			return nil, res, fmt.Errorf("live: edge (%d->%d) references vertex beyond %d", e.Src, e.Dst, nAfter-1)
		}
	}
	for _, e := range b.DeleteEdges {
		if e.Label == graph.WildcardLabel {
			return nil, res, fmt.Errorf("live: delete (%d->%d) uses reserved wildcard label", e.Src, e.Dst)
		}
		if int(e.Src) >= nAfter || int(e.Dst) >= nAfter {
			return nil, res, fmt.Errorf("live: delete (%d->%d) references vertex beyond %d", e.Src, e.Dst, nAfter-1)
		}
	}
	if len(b.AddVertices) == 0 && len(b.AddEdges) == 0 && len(b.DeleteEdges) == 0 {
		return s, res, nil
	}

	ns := s.clone()
	if len(b.AddVertices) > 0 {
		res.FirstNewVertex = graph.VertexID(ns.NumVertices())
		res.AddedVertices = len(b.AddVertices)
		for _, l := range b.AddVertices {
			ns.extra = append(ns.extra, l)
			if int(l)+1 > ns.numVertexLabels {
				ns.numVertexLabels = int(l) + 1
			}
		}
	}
	// touched tracks which adjacencies are already private to ns, so a
	// batch touching the same vertex repeatedly clones it once.
	touchedF := map[graph.VertexID]bool{}
	touchedB := map[graph.VertexID]bool{}
	for _, e := range b.AddEdges {
		if e.Src == e.Dst {
			continue // self-loops dropped: subgraph queries bind distinct vertices
		}
		if ns.HasEdge(e.Src, e.Dst, e.Label) {
			continue
		}
		ns.materialize(graph.Forward, e.Src, touchedF).insert(e.Label, ns.VertexLabel(e.Dst), e.Dst)
		ns.materialize(graph.Backward, e.Dst, touchedB).insert(e.Label, ns.VertexLabel(e.Src), e.Src)
		ns.m++
		ns.deltaOps++
		if int(e.Label)+1 > ns.numEdgeLabels {
			ns.numEdgeLabels = int(e.Label) + 1
		}
		res.AddedEdges++
	}
	for _, e := range b.DeleteEdges {
		if !ns.HasEdge(e.Src, e.Dst, e.Label) {
			continue
		}
		ns.materialize(graph.Forward, e.Src, touchedF).remove(e.Label, ns.VertexLabel(e.Dst), e.Dst)
		ns.materialize(graph.Backward, e.Dst, touchedB).remove(e.Label, ns.VertexLabel(e.Src), e.Src)
		ns.m--
		ns.deltaOps++
		res.DeletedEdges++
	}
	return ns, res, nil
}

// materialize returns a private (mutable) vadj for v in dir, cloning the
// published overlay entry or materialising the base adjacency on first
// touch.
func (s *Snapshot) materialize(dir graph.Direction, v graph.VertexID, touched map[graph.VertexID]bool) *vadj {
	ov := s.overlay(dir)
	if touched[v] {
		return ov[v]
	}
	var a *vadj
	switch {
	case ov[v] != nil:
		a = ov[v].clone()
	case int(v) < s.nBase:
		a = fromPartitions(s.base, v, dir)
	default:
		a = &vadj{}
	}
	ov[v] = a
	touched[v] = true
	return a
}

// maybeCompact kicks off a background compaction pass when the overlay
// has outgrown the threshold and no pass is already running.
func (db *DB) maybeCompact() {
	if db.threshold <= 0 || db.closed.Load() {
		return
	}
	if db.cur.Load().deltaOps < db.threshold {
		return
	}
	if !db.compacting.CompareAndSwap(false, true) {
		return
	}
	db.compactWG.Add(1)
	go func() {
		defer db.compactWG.Done()
		defer db.compacting.Store(false)
		// The overlay only grows until a compaction lands, so an error here
		// (impossible for overlays built through Apply, which validates)
		// just leaves the delta in place for the next trigger.
		_ = db.compactOnce()
	}()
}

// Compact folds the current overlay into a fresh CSR base synchronously
// and bumps the epoch. A no-op when the overlay is empty.
func (db *DB) Compact() error { return db.compactOnce() }

// WaitCompaction blocks until any in-flight background compaction pass
// finishes — a test and shutdown aid.
func (db *DB) WaitCompaction() { db.compactWG.Wait() }

// compactOnce rebuilds the base CSR from the current snapshot. The
// rebuild runs without the writer lock (queries and writers proceed);
// the swap retries if a writer published a new epoch mid-rebuild, and
// after repeated conflicts rebuilds once more under the lock so the pass
// terminates even under a sustained write load.
func (db *DB) compactOnce() error {
	t0 := time.Now()
	defer func() { db.compactSeconds.ObserveDuration(time.Since(t0)) }()
	for tries := 0; ; tries++ {
		s := db.cur.Load()
		if s.deltaOps == 0 && len(s.extra) == 0 {
			return nil
		}
		g, err := Rebuild(s)
		if err != nil {
			return err
		}
		db.mu.Lock()
		if db.cur.Load() == s {
			return db.publishCompacted(s, g) // unlocks db.mu
		}
		if tries >= 2 {
			s = db.cur.Load()
			if s.deltaOps == 0 && len(s.extra) == 0 {
				// A concurrent pass already landed; publishing a rebuild of
				// an empty overlay would bump the epoch for no logical change.
				db.mu.Unlock()
				return nil
			}
			g, err = Rebuild(s)
			if err != nil {
				db.mu.Unlock()
				return err
			}
			return db.publishCompacted(s, g) // unlocks db.mu
		}
		db.mu.Unlock()
	}
}

// publishCompacted swaps in the rebuilt base as a new epoch and, for a
// durable store, rotates the WAL onto a fresh segment while still under
// the writer lock — no append can land between the swap and the
// rotation, so the old segments hold exactly the records the new base
// covers. The expensive part, serialising the checkpoint, then runs
// outside the lock; only once it is durable are the covered segments and
// older checkpoints pruned. A crash anywhere in between recovers from
// the previous checkpoint plus the retained segments. Called with db.mu
// held; always unlocks it.
func (db *DB) publishCompacted(s *Snapshot, g *graph.Graph) error {
	ns := newBaseSnapshot(g, s.epoch+1)
	ns.hubThreshold = s.hubThreshold
	db.cur.Store(ns)
	var rotateErr error
	if db.log != nil {
		rotateErr = db.log.Rotate(ns.epoch)
	}
	db.mu.Unlock()
	db.compactions.Add(1)
	db.notifyEpoch(ns)
	if db.log == nil {
		return nil
	}
	if rotateErr != nil {
		// The in-memory swap already happened; durability just lags — the
		// current segment keeps accumulating records, all replayable from
		// the previous checkpoint. Skip the checkpoint and surface it.
		return rotateErr
	}
	if err := wal.WriteCheckpoint(db.dir, ns.epoch, g); err != nil {
		// Keep every segment: recovery still reaches the current state
		// from the previous checkpoint plus the full log.
		return err
	}
	db.checkpointEpoch.Store(ns.epoch)
	db.checkpoints.Add(1)
	db.checkpointTime.Store(time.Now().UnixNano())
	if err := db.log.DropSegmentsBefore(ns.epoch); err != nil {
		return err
	}
	return wal.DropCheckpointsBefore(db.dir, ns.epoch)
}
