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
	// OnEpoch, when non-nil, is called after every epoch publication
	// (mutation batch or compaction) with the new snapshot, outside the
	// writer lock. It serves the benchmark's replica, which clears its plan
	// cache on every epoch; the DB layer does not set it. Hooks of
	// consecutive epochs may run out of order.
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

// EdgeOp names one directed labelled edge in a Batch. It is the log's own
// type, so a batch reaches the WAL without being copied.
type EdgeOp = wal.EdgeOp

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
	mu        sync.Mutex // serialises writers and compaction's freeze and rebase
	cur       atomic.Pointer[Snapshot]
	threshold int
	onEpoch   func(*Snapshot)

	// compactMu serialises compaction passes (background and forced) and
	// guards stageHook; it is never taken while holding mu.
	compactMu   sync.Mutex
	stageHook   func(CompactStage)
	compacting  atomic.Bool // the background compactor is running
	folds       atomic.Int64
	compactions atomic.Int64
	compactWG   sync.WaitGroup
	// compactSeconds observes full compaction-pass durations (freeze
	// through rebase, including the checkpoint write for durable
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
		db.cur.Store(newBaseSnapshot(base, 0))
		return db, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("live: data dir: %w", err)
	}
	wal.RemoveStaleTemp(cfg.Dir)
	ckpt, ckptEpoch, ok, err := wal.LoadNewestCheckpoint(cfg.Dir)
	if err != nil {
		return nil, err
	}
	start := uint64(0)
	if ok {
		base, start = ckpt, ckptEpoch
	}
	cur := newBaseSnapshot(base, start)
	replayed := 0
	log, info, err := wal.Open(cfg.Dir, start, wal.Options{Policy: cfg.Sync, Interval: cfg.SyncInterval}, func(rec wal.Record) error {
		if rec.Epoch <= start {
			// Covered by the checkpoint: the segment holding it was rotated
			// out before the checkpoint landed but not yet pruned.
			return nil
		}
		if rec.Empty() {
			// A compaction published this epoch over an unchanged edge set.
			// cur is still private to Open, so it takes the epoch in place.
			cur.epoch = rec.Epoch
			return nil
		}
		// The logged epoch is the one to build: stores written before
		// compactions were logged skip a number at each of them.
		ns, _, err := applyBatch(cur, Batch{rec.AddVertices, rec.AddEdges, rec.DeleteEdges}, rec.Epoch)
		if err != nil {
			return fmt.Errorf("live: wal replay epoch %d: %w", rec.Epoch, err)
		}
		cur = ns
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
	// Replayed is the number of mutation batches recovered from the WAL
	// at open (a compaction's empty record is not one), and
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
	res, err := db.Apply(Batch{AddEdges: []EdgeOp{{Src: src, Dst: dst, Label: label}}})
	if err != nil {
		return false, err
	}
	return res.AddedEdges > 0, nil
}

// DeleteEdge removes the directed edge src->dst with the given (exact)
// label, reporting whether it existed.
func (db *DB) DeleteEdge(src, dst graph.VertexID, label graph.Label) (bool, error) {
	res, err := db.Apply(Batch{DeleteEdges: []EdgeOp{{Src: src, Dst: dst, Label: label}}})
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
	ns, res, err := applyBatch(s, b, s.epoch+1)
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
		if err := db.log.Append(wal.Record{Epoch: ns.epoch, AddVertices: b.AddVertices, AddEdges: b.AddEdges, DeleteEdges: b.DeleteEdges}); err != nil {
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

// applyBatch builds the given epoch's snapshot from s without publishing it.
func applyBatch(s *Snapshot, b Batch, epoch uint64) (*Snapshot, ApplyResult, error) {
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

	ns := s.fork(epoch)
	if len(b.AddVertices) > 0 {
		res.FirstNewVertex = graph.VertexID(ns.NumVertices())
		res.AddedVertices = len(b.AddVertices)
		ns.extra = append(ns.extra, b.AddVertices...)
		for _, l := range b.AddVertices {
			if int(l)+1 > ns.numVertexLabels {
				ns.numVertexLabels = int(l) + 1
			}
		}
	}
	for _, e := range b.AddEdges {
		if e.Src == e.Dst {
			continue // self-loops dropped: subgraph queries bind distinct vertices
		}
		if ns.HasEdge(e.Src, e.Dst, e.Label) {
			continue
		}
		ns.materialize(graph.Forward, e.Src).Insert(e.Label, ns.VertexLabel(e.Dst), e.Dst)
		ns.materialize(graph.Backward, e.Dst).Insert(e.Label, ns.VertexLabel(e.Src), e.Src)
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
		ns.materialize(graph.Forward, e.Src).Remove(e.Label, ns.VertexLabel(e.Dst), e.Dst)
		ns.materialize(graph.Backward, e.Dst).Remove(e.Label, ns.VertexLabel(e.Src), e.Src)
		ns.m--
		ns.deltaOps++
		res.DeletedEdges++
	}
	return ns, res, nil
}

// materialize returns v's adjacency in dir, private to the epoch s is
// building: the entry as it stands when this epoch already made it,
// otherwise a copy of what v reads now — its published overlay entry, its
// base adjacency or no runs at all.
func (s *Snapshot) materialize(dir graph.Direction, v graph.VertexID) *vadj {
	p := s.overlay(dir).slot(v, s.epoch)
	if *p == nil || (*p).stamp != s.epoch {
		a := &vadj{stamp: s.epoch}
		a.CopyVertex(s.adj(v, dir))
		*p = a
	}
	return *p
}

// maybeCompact starts the background compactor when the overlay has
// outgrown the threshold and it is not already running.
func (db *DB) maybeCompact() {
	if !db.overThreshold() || !db.compacting.CompareAndSwap(false, true) {
		return
	}
	db.compactWG.Add(1)
	go func() {
		defer db.compactWG.Done()
		// One fold per iteration: a rebase leaves behind what was written
		// during its fold, which may itself be over threshold. An error
		// (none for overlays built through Apply, which validates) leaves
		// the delta in place for the next trigger.
		var err error
		for err == nil && db.overThreshold() {
			err = db.Compact()
		}
		db.compacting.Store(false)
		if err == nil {
			// A writer that crossed the threshold meanwhile started none.
			db.maybeCompact()
		}
	}()
}

func (db *DB) overThreshold() bool {
	return db.threshold > 0 && !db.closed.Load() && db.cur.Load().deltaOps >= db.threshold
}

// WaitCompaction blocks until the background compactor has brought the
// overlay back under the threshold and stopped — a test and shutdown aid.
func (db *DB) WaitCompaction() { db.compactWG.Wait() }

// CompactStage names a point in a compaction pass for SetCompactionHook:
// StageFrozen once the snapshot to fold is chosen and the WAL rotated at
// its epoch (the fold has not started), StageCheckpointed once the folded
// base is built and, for a durable store, its checkpoint is on disk, and
// StageRebased once the new base is published and its compaction record
// logged, before superseded segments and checkpoints are pruned.
type CompactStage int

const (
	StageFrozen CompactStage = iota
	StageCheckpointed
	StageRebased
)

// SetCompactionHook installs fn to be called, with no lock but the
// compaction pass's own held, at each CompactStage of every pass. It
// exists for crash and concurrency tests, which copy the data directory
// or apply batches from it; fn must not call Compact.
func (db *DB) SetCompactionHook(fn func(CompactStage)) {
	db.compactMu.Lock()
	db.stageHook = fn
	db.compactMu.Unlock()
}

func (db *DB) atStage(st CompactStage) {
	if db.stageHook != nil {
		db.stageHook(st)
	}
}

// Compact runs one compaction pass synchronously: it folds the current
// overlay into a fresh CSR base and bumps the epoch, or does nothing on
// an empty overlay. The pass freezes the current snapshot S under the
// writer lock — rotating the WAL there, so every record S covers sits in
// older segments — then, with writers running, merges S into a new CSR
// base and writes that as the checkpoint of S's epoch. The lock is taken
// again only to rebase: whatever was written during the fold is carried
// over the new base (all but the last few batches of it before the lock)
// and published as one more epoch, logged as an empty record so that a
// reopened store resumes at it. A crash anywhere in between recovers from
// the newest complete checkpoint plus the retained segments; covered
// segments and older checkpoints are pruned last.
func (db *DB) Compact() error {
	db.compactMu.Lock()
	defer db.compactMu.Unlock()
	t0 := time.Now()
	if db.log != nil {
		// Flush what the sync policy left buffered (appends carry on), so
		// the rotation under the lock has next to nothing to sync. The
		// rotation reports any failure again.
		_ = db.log.Sync()
	}
	db.mu.Lock()
	s := db.cur.Load()
	if s.deltaOps == 0 && len(s.extra) == 0 {
		db.mu.Unlock() // nothing to fold: no epoch for no logical change
		return nil
	}
	var err error
	if db.log != nil {
		err = db.log.Rotate(s.epoch)
	}
	db.mu.Unlock()
	if err != nil {
		return err
	}
	defer func() { db.compactSeconds.ObserveDuration(time.Since(t0)) }()
	db.atStage(StageFrozen)
	g, err := fold(s)
	if err != nil {
		return err
	}
	db.folds.Add(1)
	if db.log != nil {
		// Every segment is still there: should this fail, recovery reaches
		// the current state from the previous checkpoint plus the full log.
		if err := wal.WriteCheckpoint(db.dir, s.epoch, g); err != nil {
			return err
		}
		db.checkpointEpoch.Store(s.epoch)
		db.checkpoints.Add(1)
		db.checkpointTime.Store(time.Now().UnixNano())
	}
	db.atStage(StageCheckpointed)

	// Carry while writers still run; under the lock, only what they wrote
	// in the meantime.
	ns := newBaseSnapshot(g, 0)
	mid := db.cur.Load()
	ns.carry(s, mid, s.epoch)
	db.mu.Lock()
	ns.carry(s, db.cur.Load(), mid.epoch)
	if db.log != nil {
		if err := db.log.Append(wal.Record{Epoch: ns.epoch}); err != nil {
			db.mu.Unlock()
			return err
		}
	}
	db.cur.Store(ns)
	db.mu.Unlock()
	db.compactions.Add(1)
	db.notifyEpoch(ns)
	db.atStage(StageRebased)
	if db.log == nil {
		return nil
	}
	if err := db.log.DropSegmentsBefore(s.epoch); err != nil {
		return err
	}
	return wal.DropCheckpointsBefore(db.dir, s.epoch)
}

// fold merges s into a fresh CSR: each vertex contributes its overlay
// adjacency where it has one and its base run otherwise, both already in
// CSR order, so nothing is sorted.
func fold(s *Snapshot) (*graph.Graph, error) {
	n := s.NumVertices()
	labels := make([]graph.Label, n)
	for v := range labels {
		labels[v] = s.VertexLabel(graph.VertexID(v))
	}
	asm := graph.NewAssembler(labels, s.m)
	for _, dir := range []graph.Direction{graph.Forward, graph.Backward} {
		// Stretches between two overlay entries are copied from the base whole.
		base, next := s.base.Adjacency(dir), graph.VertexID(0)
		fromBase := func(upTo graph.VertexID) {
			if upTo = min(upTo, graph.VertexID(s.nBase)); next < upTo {
				asm.AppendRange(dir, base, next, upTo, next)
			}
		}
		s.overlay(dir).walk(0, func(v graph.VertexID, a *vadj) {
			fromBase(v)
			asm.AppendRange(dir, &a.Adjacency, 0, 1, v)
			next = v + 1
		})
		fromBase(graph.VertexID(n))
	}
	return asm.Finish()
}

// carry makes ns, a snapshot over the fold of s, the successor of cur: it
// takes cur's counters and appended labels and adopts cur's adjacencies
// stamped after the given epoch. One stamped after s holds its vertex's
// complete neighbour set, so it is valid over any base; the rest of cur's
// overlay is in the fold. A second call with a later cur and the earlier
// cur's epoch brings ns up to date with what was written in between.
func (ns *Snapshot) carry(s, cur *Snapshot, after uint64) {
	ns.epoch = cur.epoch + 1
	ns.extra = append([]graph.Label(nil), cur.extra[len(s.extra):]...) // not a subslice: the folded labels can go
	ns.m = cur.m
	ns.deltaOps = cur.deltaOps - s.deltaOps
	ns.numVertexLabels = max(ns.numVertexLabels, cur.numVertexLabels)
	ns.numEdgeLabels = max(ns.numEdgeLabels, cur.numEdgeLabels)
	for _, dir := range []graph.Direction{graph.Forward, graph.Backward} {
		ix := ns.overlay(dir)
		cur.overlay(dir).walk(after, func(v graph.VertexID, a *vadj) {
			*ix.slot(v, ns.epoch) = a
		})
	}
}
