package exec

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"graphflow/internal/graph"
)

// This file is the execution engine's data path: tuples flow through the
// pipeline as columnar batches (struct-of-arrays, one column per bound
// query vertex) instead of one at a time, so per-stage dispatch is paid
// once per batch and the inner loops become plain column sweeps.
//
// Binary and worst-case optimal joins share one protocol here. Every
// stage that produces rows — the scan, E/I, the hash probe and the
// factorized tail's unfold — writes them through one fan-out writer
// (fanOut): a fixed tuple replicated beside columns spliced from a source
// at a stride (an adjacency run, an extension set, a sealed table's
// build rows), chunked at batch capacity, with the terminal count-only
// rule in the writer. Every stage that reads a key from consecutive rows
// — E/I inside a prefix run, the hash probe, the adaptive router — finds
// its key runs with one compare (loadKey): E/I serves an unchanged key
// from its intersection cache, the probe looks a changed key up once, the
// router re-prices once. The cancellation poll and match accounting
// happen at batch granularity with exact row counts.
//
// There is one engine. Its tests hold it to references that share no
// code with it — query.RefCount and query.RefEnumerate (backtracking over
// graph.View lookups) and baseline.CFLCount — and hold its counters to
// the same plan run at a batch size of one.

// DefaultBatchSize is the row capacity of one columnar tuple batch when
// RunConfig.BatchSize is zero. 1024 rows keeps a 6-wide batch (the
// deepest common pipelines) within L2 while amortizing dispatch to
// nothing.
const DefaultBatchSize = 1024

// Morsel scheduling constants: the scan's vertex domain is handed to
// workers in small morsels through an atomic cursor, and a scan vertex
// whose adjacency run is hub-sized has its edges split into sub-morsels
// other workers can steal, so one hub does not pin its whole extension
// subtree on one worker.
const (
	// morselVertices is the scan-range morsel size.
	morselVertices = 1024
	// hubSplitDegree is the adjacency length at which a scan vertex's
	// edge list is split across workers.
	hubSplitDegree = 4096
	// hubChunkEdges is the edge count of one split hub morsel.
	hubChunkEdges = 2048
)

// BatchCounters counts columnar batches dispatched by each stage kind —
// the observability surface of the vectorized engine (surfaced per query
// and aggregated in gfserver's /stats).
type BatchCounters struct {
	// Scan counts edge batches filled by scan stages.
	Scan int64
	// Extend counts output batches produced by E/I stages, including the
	// batches a factorized tail unfolds its products into.
	Extend int64
	// Probe counts output batches produced by hash-probe stages.
	Probe int64
}

// Add accumulates other into c.
func (c *BatchCounters) Add(other BatchCounters) {
	c.Scan += other.Scan
	c.Extend += other.Extend
	c.Probe += other.Probe
}

// tupleBatch is a columnar block of tuples: cols[s][r] is slot s of row
// r. Columns share one row count; capacity is fixed at construction and
// rows are appended column-wise, so steady-state refills never allocate.
type tupleBatch struct {
	cols [][]graph.VertexID
	n    int

	// Carried extension sets: an E/I stage whose downstream inherits (see
	// extendSpec.covered) publishes, for each prefix run of the batch —
	// the rows one input row fanned out to — the extension set S it fanned
	// out. runEnds holds each run's exclusive end row. A run that lies
	// wholly inside the batch needs no storage at all: its rows' last
	// column IS S. Only a run cut by a batch boundary does: tailSet
	// aliases the producer's live buffer for the last run while the batch
	// is dispatched mid-fan-out (dispatch is synchronous, so the buffer
	// outlives the consumer's pushBatch), and headSet — a copy owned by
	// headBuf — serves a first run that began in an earlier batch and ended
	// here with more rows behind it. At most one copy per batch, but the
	// copy is the whole of S, not just the rows that landed here: headBuf
	// grows to the largest carried set seen (bounded by the maximum degree,
	// not by the batch size). The worker's upfront estimate does not cover
	// it; closeRun reserves it from the budget as it grows.
	runEnds          []int32
	headSet, tailSet []graph.VertexID
	headBuf          []graph.VertexID
	// headMetered is headBuf's capacity already charged to the run's
	// memory budget (growth beyond it is reserved, as for extendState).
	headMetered int
}

// newTupleBatch makes an empty batch of width columns, capacity rows each,
// in one allocation.
func newTupleBatch(width, capacity int) *tupleBatch {
	b := &tupleBatch{cols: make([][]graph.VertexID, width)}
	buf := make([]graph.VertexID, width*capacity)
	for i := range b.cols {
		b.cols[i] = buf[i*capacity : i*capacity : (i+1)*capacity]
	}
	return b
}

// clear resets the batch to zero rows, keeping column capacity.
func (b *tupleBatch) clear() {
	for i := range b.cols {
		b.cols[i] = b.cols[i][:0]
	}
	b.n = 0
	b.runEnds = b.runEnds[:0]
	b.headSet, b.tailSet = nil, nil
}

// closeRun records that the run fanning set out ends (for this batch) at
// the current row. partial says the batch's column holds only part of
// set — the run began in an earlier batch or the batch filled before the
// fan-out finished. A full batch is dispatched right away, so the live
// buffer can be aliased; otherwise the run is over and the producer is
// about to reuse its buffer, so set is copied.
func (b *tupleBatch) closeRun(w *worker, set []graph.VertexID, partial, full bool) {
	b.runEnds = append(b.runEnds, int32(b.n))
	if !partial {
		return
	}
	if full {
		b.tailSet = set
		return
	}
	b.headBuf = append(b.headBuf[:0], set...)
	b.headSet = b.headBuf
	if c := cap(b.headBuf); c > b.headMetered {
		w.rc.mem.Reserve(int64(c-b.headMetered) * vertexIDBytes)
		b.headMetered = c
	}
}

// carriedRun returns the extension set published for run k and the run's
// exclusive end row.
func (b *tupleBatch) carriedRun(k int) ([]graph.VertexID, int) {
	end := int(b.runEnds[k])
	switch {
	case k == len(b.runEnds)-1 && b.tailSet != nil:
		return b.tailSet, end
	case k == 0 && b.headSet != nil:
		return b.headSet, end
	}
	start := 0
	if k > 0 {
		start = int(b.runEnds[k-1])
	}
	return b.cols[len(b.cols)-1][start:end], end
}

// runCursor walks a batch's published runs in row order for an
// inheriting consumer: at is asked for rows in ascending order, and for
// the first row of every run (the rows between may be skipped — the run's
// end is in end).
type runCursor struct {
	k, end int
	set    []graph.VertexID
}

// rewind readies the cursor for row 0 of the next batch.
func (c *runCursor) rewind() { c.k, c.end, c.set = 0, 0, nil }

// at returns the carried set of the run holding row r.
func (c *runCursor) at(in *tupleBatch, r int) []graph.VertexID {
	if r == c.end {
		c.set, c.end = in.carriedRun(c.k)
		c.k++
	}
	return c.set
}

// noVertex is no vertex's ID. A key that holds no row yet holds it in
// every position, so the first row loadKey loads changes all of them.
const noVertex = ^graph.VertexID(0)

// loadKey loads row r of in — its values in the columns slots names — into
// key and returns the mask of the key positions that changed, bit i for
// key[i]. Loaded row after row it finds key runs: 0 is a row that repeats
// the key of the row loaded before it.
func loadKey(key []graph.VertexID, in *tupleBatch, slots []int, r int) uint32 {
	changed := uint32(0)
	for i, sl := range slots {
		// Branch-free: which positions change from row to row is data the
		// branch predictor cannot learn (the 4-clique's carried runs on
		// LiveJournal(1) are 1.8 rows long on average).
		v, bit := in.cols[sl][r], uint32(0)
		if v != key[i] {
			bit = 1 << uint(i)
		}
		changed |= bit
		key[i] = v
	}
	return changed
}

// clearKey makes key hold no row (see noVertex).
func clearKey(key []graph.VertexID) {
	for i := range key {
		key[i] = noVertex
	}
}

// batchKind names the BatchCounters field a writer's dispatches count.
type batchKind uint8

const (
	scanBatches batchKind = iota
	extendBatches
	probeBatches
)

// fanOut is the output side of a stage that produces rows: the batch it
// fills, the stage that consumes it (next, as dispatchBatch takes it) and
// the kind of batch it counts. Rows are written a fan-out at a time: n
// rows that share one fixed tuple, beside columns spliced from one source
// read at a stride — row t of a fan-out is fixed followed by
// src[t*stride+at] for every at in cols. The writer chunks a fan-out at
// batch capacity and dispatches every batch that fills; flush sends the
// partial one.
type fanOut struct {
	batch *tupleBatch
	next  int
	kind  batchKind
	// last marks the writer of a pipeline's last stage, the scan's
	// excepted (see write); fixed at construction so that write, called
	// once per fan-out, stays small enough to inline.
	last bool
	// publish closes a carried run in the batch after every chunk (see
	// tupleBatch.closeRun) over the spliced set: the writer of an E/I stage
	// whose downstream inherits its extension set.
	publish bool
	fixed   []graph.VertexID
	cols    []int
}

// oneColumn splices a source of stride 1 whole: an adjacency run or an
// extension set.
var oneColumn = []int{0}

// newFanOut makes a writer of rows of fixed replicated values and the
// spliced columns cols into batches of capacity rows.
func newFanOut(fixed int, cols []int, capacity, next int, kind batchKind) fanOut {
	return fanOut{
		batch: newTupleBatch(fixed+len(cols), capacity),
		next:  next,
		kind:  kind,
		last:  next <= sinkStage && kind != scanBatches,
		fixed: make([]graph.VertexID, fixed),
		cols:  cols,
	}
}

// write fans out n rows of src. With in non-nil, fixed begins with row r
// of in; the rest of fixed is the caller's to load. The last stage of a
// pure count does not write: it adds n to Matches (factorized counting,
// Section 10). The scan always writes — its batches are what the
// cancellation poll runs on.
func (o *fanOut) write(w *worker, in *tupleBatch, r int, src []graph.VertexID, stride, n int) {
	if w.countFast && o.last {
		w.profile.Matches += int64(n)
	} else if n > 0 {
		o.fill(w, in, r, src, stride, n)
	}
}

// fill appends write's n rows column by column, chunked at batch
// capacity.
func (o *fanOut) fill(w *worker, in *tupleBatch, r int, src []graph.VertexID, stride, n int) {
	if in != nil {
		for c, col := range in.cols {
			o.fixed[c] = col[r]
		}
	}
	b := o.batch
	for off := 0; off < n; {
		k := min(n-off, w.batchSize-b.n)
		from, to := b.n, b.n+k
		for c, v := range o.fixed {
			col := b.cols[c][:to]
			for t := from; t < to; t++ {
				col[t] = v
			}
			b.cols[c] = col
		}
		for j, at := range o.cols {
			col := b.cols[len(o.fixed)+j][:to]
			if stride == 1 {
				copy(col[from:], src[off+at:])
			} else {
				for t, i := from, off*stride+at; t < to; t, i = t+1, i+stride {
					col[t] = src[i]
				}
			}
			b.cols[len(o.fixed)+j] = col
		}
		b.n = to
		off += k
		full := to >= w.batchSize
		if o.publish {
			b.closeRun(w, src, off > k || off < n, full)
		}
		if full {
			o.flush(w)
		}
	}
}

// flush dispatches the batch, if it holds any row, and counts it.
func (o *fanOut) flush(w *worker) {
	if o.batch.n == 0 {
		return
	}
	switch o.kind {
	case scanBatches:
		w.profile.Batches.Scan++
	case extendBatches:
		w.profile.Batches.Extend++
	default:
		w.profile.Batches.Probe++
	}
	w.dispatchBatch(o.next, o.batch)
	o.batch.clear()
}

// batchStage is the per-run mutable state of one operator in the
// vectorized engine.
type batchStage interface {
	// pushBatch processes every row of in. The rows it produces go through
	// its writer, which dispatches full batches downstream as they fill
	// and keeps a partial one across calls.
	pushBatch(w *worker, in *tupleBatch)
	// output is the stage's writer: nil for the router, which hands its
	// input on to an ordering's stages.
	output() *fanOut
	// reset readies the stage for reuse by a pooled worker in a fresh
	// run: mutable per-run state (cache validity, counters, hash-table
	// pointers, retained batches) is cleared, allocated scratch is kept.
	reset(rc *runContext)
}

// dispatchBatch hands a produced batch to stage i (the sink, for
// i <= sinkStage). Every produced row at every stage flows through here,
// which makes it the natural hook for exact row accounting and for the
// amortized cancellation poll: long-running pipelines produce rows
// constantly, so polling every cancelCheckInterval rows bounds
// cancellation latency without a per-row context load.
//
//gf:noalloc
func (w *worker) dispatchBatch(i int, b *tupleBatch) {
	if b.n == 0 {
		return
	}
	sink := i <= sinkStage
	// Sink rows delivered to an emit callback are counted per row just
	// before their emit call (in sinkBatch), so a profile observed after
	// early termination never includes rows emit was not offered.
	if !sink || w.emit == nil {
		if w.isRoot && sink {
			w.profile.Matches += int64(b.n)
		} else {
			w.profile.Intermediate += int64(b.n)
		}
	}
	w.cancelCountdown -= b.n
	if w.cancelCountdown <= 0 {
		w.pollCancel()
	}
	w.deliver(i, b)
}

// deliver runs stage i's pushBatch (the sink, for i <= sinkStage) on b
// under stage-time attribution: the open interval is charged to the
// producer's slot, the consumer runs under its own, and the producer's is
// restored on return. Nested deliveries (a stage filling downstream
// batches mid-push) stack naturally, so every slot accumulates self time
// only.
//
//gf:noalloc
func (w *worker) deliver(i int, b *tupleBatch) {
	prev := w.enterStage(max(i, sinkStage) + 2)
	switch {
	case i >= 0:
		w.bstages[i].pushBatch(w, b)
	case i < sinkStage && w.emit != nil:
		// The last stage of a router's ordering: emit sees the root's layout.
		w.sinkBatch(w.router.rootLayout(b, sinkStage-i))
	default:
		w.sinkBatch(b)
	}
	w.leaveStage(prev)
}

// sinkBatch is the end of the pipeline. A build pipeline's batch goes
// into the worker's hash-table fragment whole; the driver's rows are
// delivered to emit row-at-a-time (the emit contract is a flat tuple),
// and a false return unwinds via stopRun. With neither, the rows were
// already counted by dispatchBatch.
func (w *worker) sinkBatch(b *tupleBatch) {
	if w.build != nil {
		w.admitBuild(b.n).appendBatch(b)
		return
	}
	if w.emit == nil {
		return
	}
	width := len(b.cols)
	if cap(w.tuple) < width {
		w.tuple = make([]graph.VertexID, width) //gf:allowalloc one-time growth to the sink width, reused for every emitted row
	}
	t := w.tuple[:width]
	w.tuple = t
	root := w.isRoot
	for r := 0; r < b.n; r++ {
		if root {
			w.profile.Matches++
		} else {
			w.profile.Intermediate++
		}
		for c := 0; c < width; c++ {
			t[c] = b.cols[c][r]
		}
		if !w.emit(t) {
			panic(stopRun{})
		}
	}
}

// flushBatches drains every retained partial batch down the pipeline in
// stage order (upstream residue first, so downstream flushes see it).
// Called once per worker after its last morsel.
func (w *worker) flushBatches() {
	w.edges.flush(w)
	// By index: a flush can reach a router, which appends the stages of an
	// ordering it had not used yet — behind everything flushed so far.
	for i := 0; i < len(w.bstages); i++ {
		if o := w.bstages[i].output(); o != nil {
			o.flush(w)
		}
	}
}

// runBatchRange is the vectorized scan: it fills columnar edge batches
// directly from the adjacency runs of vertices [start, end) and drives
// each full batch through the stage chain. Hub-sized adjacency runs are
// split into morsels for sibling workers when a queue is attached.
//
//gf:noalloc
func (w *worker) runBatchRange(start, end int) {
	scan := w.pipe.scan
	srcLabel := scan.SrcLabel
	for v := start; v < end; v++ {
		if w.stopped.Load() {
			return
		}
		src := graph.VertexID(v)
		if w.g.VertexLabel(src) != srcLabel {
			continue
		}
		nbrs := w.scanReader.Read(w.g, src, graph.Forward, scan.EdgeLabel, scan.DstLabel)
		if len(nbrs) == 0 {
			continue
		}
		w.scanOut += int64(len(nbrs))
		if w.mq != nil && len(nbrs) >= hubSplitDegree {
			// Wildcard lookups live in the scan reader's buffer, which the
			// next Read clobbers; exact-label runs alias immutable storage
			// and can be shared across workers without a copy.
			needCopy := scan.EdgeLabel == graph.WildcardLabel || scan.DstLabel == graph.WildcardLabel
			w.mq.pushHubs(src, nbrs[hubChunkEdges:], needCopy)
			nbrs = nbrs[:hubChunkEdges]
		}
		w.fillEdges(src, nbrs)
	}
}

// fillEdges writes a (src, nbr) row for every nbr in nbrs.
func (w *worker) fillEdges(src graph.VertexID, nbrs []graph.VertexID) {
	w.edges.fixed[0] = src
	w.edges.write(w, nil, 0, nbrs, 1, len(nbrs))
}

// batchExtendState is the vectorized E/I operator: one intersection per
// distinct descriptor-key run (served through the shared extendState
// cache), then a bulk columnar fan-out of the extension set. The unit it
// works in is the prefix run — the consecutive rows of its input batch
// that share one operand (see extFor).
type batchExtendState struct {
	es   extendState
	out  fanOut
	vals []graph.VertexID
	// cur walks the input batch's carried runs (inheriting stages only).
	cur runCursor
	// inherit and out.publish are the spec's carried-set marks gated on
	// the run's intersection cache: carrying a set across stages is the
	// cache generalised, so DisableCache (Table 3's "Cache Off") turns it
	// off.
	inherit bool

	// run is the open prefix run.
	run prefixRun
}

// prefixRun is the unit a batchExtendState works in: the consecutive rows
// of its input batch that share one operand of their intersections, which
// is resolved and pinned in the stage's intersector once for all of them.
// What is left per row is what vary lists.
type prefixRun struct {
	// end is the run's exclusive end row in the input batch; 0 when no run
	// is open.
	end int
	// list is the shared operand — the carried set the stage inherits
	// (carried true) or one descriptor's adjacency list — and pos its
	// place among the operands in extendState.lists, where it stays for
	// the length of the run.
	list    []graph.VertexID
	pos     int
	carried bool
	// vary are the descriptors whose source vertex can change inside the
	// run: all but the shared one, or all the carried set does not cover.
	// key holds their source vertices in the row last asked for, loaded
	// from the input slots slots names: a row inside the run compares
	// only these.
	vary  []runDesc
	key   []graph.VertexID
	slots []int
}

// runDesc is one descriptor a prefix run's rows differ in: its index and
// the place of its list in extendState.lists.
type runDesc struct {
	desc, pos int
}

func (s *batchExtendState) output() *fanOut { return &s.out }

func (s *batchExtendState) reset(rc *runContext) {
	s.es.reset(rc)
	s.inherit = s.es.useCache && s.es.spec.covered != 0
	s.out.publish = s.es.useCache && s.es.spec.publishes
	s.run.end, s.run.list = 0, nil
	if s.out.batch != nil {
		s.out.batch.clear()
		s.out.batch.headMetered = 0
	}
}

// forget drops what the stage holds into the graph its run read — the
// served set, the gathered operands and run headers, the operand of a run
// left open — for a pooled worker. A run that unwound mid-batch (Limit,
// cancellation, budget, panic) left its operand pinned, in buffers nobody
// vouches for any more: the intersector's Reset clears the bitmap whole.
// (A carried set is always the stage's own buffer or a batch column.)
func (s *batchExtendState) forget() {
	es := &s.es
	es.it.Reset()
	es.cacheExt, es.cacheValid = nil, false
	clear(es.lists[:cap(es.lists)])
	for i := range es.readers {
		es.readers[i].Forget()
	}
	s.run.list = nil
}

// minRunRows is the shortest prefix run worth pinning an operand for:
// marking and clearing a list costs about what sweeping it once does, and
// a list and the run that shares it are about as long as each other (a
// scan vertex's edges share N(a), a carried set S is fanned out to |S|
// rows). BenchmarkIntersectAdjacency's comment records the measurements.
const minRunRows = 2

// endRun closes the open run, if any, and charges the budget for what its
// intersections grew. A batch's last run is closed with the batch: the
// pinned list may be one of its columns, or a set its producer is about
// to overwrite, so a run the batch cut short is found again, and pinned
// again, in the next one.
func (s *batchExtendState) endRun(w *worker) {
	if s.run.end != 0 {
		s.es.it.Unpin()
		s.run.end, s.run.list = 0, nil
		s.es.meter(w)
	}
}

// extFor returns the extension set of row r of in; a batch's rows are
// asked for in ascending order after cur.rewind, and endRun follows the
// last. The row's key is loaded first (loadKey; inside the open run only
// the columns that can change there): a row that repeats the key of the
// last set computed is a cache hit. The stage works a prefix run at a
// time. On a row that is neither a cache hit nor in the open run it looks
// ahead in the batch for the operand the next rows share — the carried
// set, whose run's end the cursor knows, else the lowest-numbered
// descriptor whose column repeats —
// and, when a run of minRunRows rows or more shares one, resolves that
// operand once and pins it. A row inside the run then costs what differs:
// one lookup per remaining descriptor, the same i-cost as ever (every
// operand's size, Equation 1), and one sweep of the shortest remaining
// list through the bitmap (graph.Intersector.ProbePinned) — or, past the
// cut-off towards hubs, the ordinary dispatch over the lists already
// gathered. A row in no run, and every row when the cache is off or a
// list may be a multiset, takes extensionSetFor's general path.
func (s *batchExtendState) extFor(w *worker, in *tupleBatch, r int) []graph.VertexID {
	es := &s.es
	if r < s.run.end {
		if loadKey(s.run.key, in, s.run.slots, r) == 0 {
			return es.hit(w)
		}
		return s.runSet(w)
	}
	s.endRun(w)
	changed := loadKey(es.cacheKey, in, es.spec.slots, r)
	var carried []graph.VertexID
	if s.inherit {
		carried = s.cur.at(in, r)
	}
	if changed == 0 && es.cacheValid {
		return es.hit(w)
	}
	if es.pins && s.openRun(w, in, r, carried) {
		return s.runSet(w)
	}
	es.gather(w, es.cacheKey, carried)
	return es.intersect(w, carried)
}

// gatherVals loads s.vals with the descriptors' source vertices in row r,
// for a factorized leaf that inherits from the leaf before it.
func (s *batchExtendState) gatherVals(in *tupleBatch, r int) {
	s.vals = s.vals[:0]
	for _, d := range s.es.spec.op.Descriptors {
		s.vals = append(s.vals, in.cols[d.TupleIdx][r])
	}
}

// openRun looks ahead from row r, whose key es.cacheKey now holds, and
// opens a prefix run there if one is worth it.
func (s *batchExtendState) openRun(w *worker, in *tupleBatch, r int, carried []graph.VertexID) bool {
	es := &s.es
	op := es.spec.op
	end, shared, list, covered := 0, -1, carried, uint32(0)
	if carried != nil {
		covered = es.spec.covered
		if bits.OnesCount32(covered) == len(op.Descriptors) {
			return false // nothing left to intersect the carried set with
		}
		end = s.cur.end
	} else if len(op.Descriptors) >= 2 && r+1 < in.n {
		for i := range op.Descriptors {
			col := in.cols[op.Descriptors[i].TupleIdx]
			if v := col[r]; col[r+1] == v {
				for end = r + 2; end < in.n && col[end] == v; end++ {
				}
				shared = i
				break
			}
		}
	}
	if end-r < minRunRows {
		return false
	}
	if shared >= 0 {
		d := &op.Descriptors[shared]
		list = es.readers[shared].Read(w.g, es.cacheKey[shared], d.Dir, d.EdgeLabel, op.TargetLabel)
	}
	// Lay the operands out as gather does, the shared one in place.
	run := &s.run
	run.end, run.list, run.carried = end, list, carried != nil
	run.vary, run.key, run.slots = run.vary[:0], run.key[:0], run.slots[:0]
	es.lists = es.lists[:0]
	if carried != nil {
		es.lists = append(es.lists, carried)
	}
	for i := range op.Descriptors {
		switch {
		case covered&(1<<uint(i)) != 0:
			continue
		case i == shared:
			run.pos = len(es.lists)
		default:
			run.vary = append(run.vary, runDesc{desc: i, pos: len(es.lists)})
			run.key = append(run.key, es.cacheKey[i])
			run.slots = append(run.slots, op.Descriptors[i].TupleIdx)
		}
		es.lists = append(es.lists, list)
	}
	es.it.Pin(list)
	return true
}

// runSet computes the extension set of es.cacheKey inside the open run:
// one lookup per descriptor that varies, the i-cost of every operand, one
// sweep.
func (s *batchExtendState) runSet(w *worker) []graph.VertexID {
	es, run := &s.es, &s.run
	op := es.spec.op
	cost := int64(len(run.list))
	for i := range run.vary {
		rd := &run.vary[i]
		v := run.key[i]
		es.cacheKey[rd.desc] = v
		d := &op.Descriptors[rd.desc]
		l := es.readers[rd.desc].Read(w.g, v, d.Dir, d.EdgeLabel, op.TargetLabel)
		es.lists[rd.pos] = l
		cost += int64(len(l))
	}
	es.charge(w, cost, run.carried)
	ext, scratch, ok := es.it.ProbePinned(es.lists, run.pos, es.cacheBuf[:0], es.scratch)
	if !ok {
		var carried []graph.VertexID
		if run.carried {
			carried = run.list
		}
		return es.intersect(w, carried)
	}
	es.serve(ext, scratch)
	return ext
}

//gf:noalloc
func (s *batchExtendState) pushBatch(w *worker, in *tupleBatch) {
	s.cur.rewind()
	for r := 0; r < in.n; r++ {
		ext := s.extFor(w, in, r)
		s.es.outTuples += int64(len(ext))
		s.out.write(w, in, r, ext, 1, len(ext))
	}
	s.endRun(w)
}

// batchProbeState is the vectorized hash-probe: a run of rows with one
// join key (sorted batches make key runs contiguous) shares one table
// lookup, and the matching build rows — one contiguous row-major run of
// the sealed table — are spliced in column by column, read in place.
type batchProbeState struct {
	ps  probeState
	out fanOut
	// run is the build-row run of ps.key.
	run []graph.VertexID
}

func (s *batchProbeState) output() *fanOut { return &s.out }

func (s *batchProbeState) reset(rc *runContext) {
	// The hash table is per-run state: re-fetch it from the new run's
	// materialised tables.
	s.ps.table = rc.tables[s.ps.spec.op]
	s.ps.outTuples, s.ps.probes = 0, 0
	clearKey(s.ps.key)
	s.run = nil
	s.out.batch.clear()
}

//gf:noalloc
func (s *batchProbeState) pushBatch(w *worker, in *tupleBatch) {
	ps := &s.ps
	bw := ps.table.rowWidth
	for r := 0; r < in.n; r++ {
		// probes stays a per-input-row counter, so Analyze's per-node
		// numbers are batch-size-independent; one lookup per key run is
		// purely an optimization.
		w.profile.ProbedTuples++
		ps.probes++
		if loadKey(ps.key, in, ps.spec.probeSlots, r) != 0 {
			s.run = ps.table.lookupKey(ps.key)
		}
		matches := len(s.run) / bw
		ps.outTuples += int64(matches)
		s.out.write(w, in, r, s.run, bw, matches)
	}
}

// hubMorsel is one stolen slice of a hub vertex's scan adjacency.
type hubMorsel struct {
	src  graph.VertexID
	nbrs []graph.VertexID
}

// morselQueue is the shared scan scheduler of one parallel pipeline run:
// an atomic cursor deals vertex-range morsels, and a mutex-guarded side
// queue holds split hub morsels (rare, hub vertices only). scanning
// tracks workers currently inside a vertex range — they may still
// enqueue hubs, so the queue is only exhausted when it is empty AND no
// range is being scanned.
type morselQueue struct {
	n      int
	cursor atomic.Int64

	mu   sync.Mutex
	hubs []hubMorsel

	scanning atomic.Int64
}

func newMorselQueue(n int) *morselQueue { return &morselQueue{n: n} }

// nextRange deals the next vertex-range morsel.
func (q *morselQueue) nextRange() (int, int, bool) {
	start := int(q.cursor.Add(morselVertices)) - morselVertices
	if start >= q.n {
		return 0, 0, false
	}
	end := start + morselVertices
	if end > q.n {
		end = q.n
	}
	return start, end, true
}

// pushHubs splits nbrs into hubChunkEdges-sized morsels and enqueues
// them. When needCopy is set the slices are copied out of the caller's
// reusable buffer; otherwise they alias immutable graph storage.
//
//gf:allowalloc hub splitting is the cold path (vertices over hubSplitDegree only) and hands memory across workers
func (q *morselQueue) pushHubs(src graph.VertexID, nbrs []graph.VertexID, needCopy bool) {
	if needCopy {
		nbrs = append([]graph.VertexID(nil), nbrs...)
	}
	q.mu.Lock()
	for off := 0; off < len(nbrs); off += hubChunkEdges {
		end := off + hubChunkEdges
		if end > len(nbrs) {
			end = len(nbrs)
		}
		q.hubs = append(q.hubs, hubMorsel{src: src, nbrs: nbrs[off:end]})
	}
	q.mu.Unlock()
}

// popHub steals one pending hub morsel.
func (q *morselQueue) popHub() (hubMorsel, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.hubs) == 0 {
		return hubMorsel{}, false
	}
	hm := q.hubs[len(q.hubs)-1]
	q.hubs = q.hubs[:len(q.hubs)-1]
	return hm, true
}

// drained reports whether no morsel of either kind remains and no
// scanning worker can still produce one.
func (q *morselQueue) drained() bool {
	if q.scanning.Load() != 0 {
		return false
	}
	q.mu.Lock()
	empty := len(q.hubs) == 0
	q.mu.Unlock()
	return empty
}

// runWorkerLoop is one parallel worker's schedule: steal split hub
// morsels first (they represent the skewed work), then deal vertex
// ranges from the cursor, and exit only when the queue is fully drained.
func (w *worker) runWorkerLoop(q *morselQueue) {
	for !w.stopped.Load() {
		if hm, ok := q.popHub(); ok {
			w.recovered(func() { w.fillEdges(hm.src, hm.nbrs) })
			continue
		}
		// scanning is raised BEFORE the cursor advances: a sibling whose
		// own nextRange came up empty can then only observe scanning == 0
		// if this worker had not yet claimed a range either — so it can
		// never conclude "drained" while a range that may still enqueue
		// hub morsels is in flight.
		q.scanning.Add(1)
		if start, end, ok := q.nextRange(); ok {
			w.runRecovered(start, end)
			q.scanning.Add(-1)
			continue
		}
		q.scanning.Add(-1)
		if q.drained() {
			break
		}
		// A sibling is still scanning and may enqueue hub morsels; yield
		// rather than spin hard.
		runtime.Gosched()
	}
	if !w.stopped.Load() {
		w.recovered(w.flushBatches)
	}
}
