package exec

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"graphflow/internal/graph"
)

// This file is the vectorized execution engine: tuples flow through the
// pipeline as columnar batches (struct-of-arrays, one column per bound
// query vertex) instead of one at a time, so the per-tuple costs of the
// oracle engine — an interface dispatch plus a next() closure per stage
// per tuple — are paid once per batch and the inner loops become plain
// column sweeps. The scan fills edge batches straight from adjacency
// runs, E/I stages intersect once per distinct prefix run within a batch
// (the intersection cache makes equal-key runs contiguous cache hits),
// hash probes group equal keys into one lookup, and the cancellation
// poll and match accounting move to batch granularity with exact row
// counts. The tuple-at-a-time path (worker.runRange/runStage) is kept as
// the differential-test oracle behind RunConfig.TupleAtATime.

// DefaultBatchSize is the row capacity of one columnar tuple batch when
// RunConfig.BatchSize is zero. 1024 rows keeps a 6-wide batch (the
// deepest common pipelines) within L2 while amortizing dispatch to
// nothing.
const DefaultBatchSize = 1024

// Morsel scheduling constants: the scan's vertex domain is handed to
// workers in small morsels through an atomic cursor (instead of the old
// fixed n/(workers*8) chunks), and a scan vertex whose adjacency run is
// hub-sized has its edges split into sub-morsels other workers can steal,
// so one hub no longer pins its whole extension subtree on one worker.
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
	// Extend counts output batches produced by E/I stages.
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

func newTupleBatch(width, capacity int) *tupleBatch {
	b := &tupleBatch{cols: make([][]graph.VertexID, width)}
	for i := range b.cols {
		b.cols[i] = make([]graph.VertexID, 0, capacity)
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

// appendFill appends k copies of v to dst.
func appendFill(dst []graph.VertexID, v graph.VertexID, k int) []graph.VertexID {
	for i := 0; i < k; i++ {
		dst = append(dst, v)
	}
	return dst
}

// batchStage is the per-run mutable state of one operator in the
// vectorized engine.
type batchStage interface {
	// pushBatch processes every row of in, dispatching full output
	// batches downstream as they fill; a partial output batch is retained
	// across calls (flush sends it).
	pushBatch(w *worker, in *tupleBatch)
	// flush dispatches the retained partial output batch downstream.
	flush(w *worker)
	// outWidth is the stage's output tuple width.
	outWidth() int
	// reset readies the stage for reuse by a pooled worker in a fresh
	// run: mutable per-run state (cache validity, counters, hash-table
	// pointers, retained batches) is cleared, allocated scratch is kept.
	reset(rc *runContext)
}

// dispatchBatch hands a produced batch to stage i (the sink, for
// i <= sinkStage). Every produced row at every stage flows through here —
// the batch-granular counterpart of countOutput: exact row accounting for
// the profile plus the amortized cancellation poll.
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
// and a false return unwinds via stopRun exactly like the oracle. With
// neither, the rows were already counted by dispatchBatch.
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
	if w.scanBatch != nil && w.scanBatch.n > 0 {
		w.profile.Batches.Scan++
		w.dispatchBatch(w.entry, w.scanBatch)
		w.scanBatch.clear()
	}
	// By index: a flush can reach a router, which appends the stages of an
	// ordering it had not used yet — behind everything flushed so far.
	for i := 0; i < len(w.bstages); i++ {
		w.bstages[i].flush(w)
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

// fillEdges appends (src, nbr) rows to the scan batch, dispatching the
// batch downstream every time it fills.
func (w *worker) fillEdges(src graph.VertexID, nbrs []graph.VertexID) {
	b := w.scanBatch
	off := 0
	for off < len(nbrs) {
		k := len(nbrs) - off
		if space := w.batchSize - b.n; k > space {
			k = space
		}
		b.cols[0] = appendFill(b.cols[0], src, k)
		b.cols[1] = append(b.cols[1], nbrs[off:off+k]...)
		b.n += k
		off += k
		if b.n >= w.batchSize {
			w.profile.Batches.Scan++
			w.dispatchBatch(w.entry, b)
			b.clear()
		}
	}
}

// batchExtendState is the vectorized E/I operator: one intersection per
// distinct descriptor-key run (served through the shared extendState
// cache), then a bulk columnar fan-out of the extension set. The unit it
// works in is the prefix run — the consecutive rows of its input batch
// that share one operand (see extFor).
type batchExtendState struct {
	es extendState
	// next is the index of the stage that consumes out (see sinkStage).
	next int
	out  *tupleBatch
	vals []graph.VertexID
	// cur walks the input batch's carried runs (inheriting stages only).
	cur runCursor
	// inherit and publish are the spec's carried-set marks gated on the
	// run's intersection cache: carrying a set across stages is the cache
	// generalised, so DisableCache (Table 3's "Cache Off") turns it off.
	inherit, publish bool

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
	vary []runDesc
}

// runDesc is one descriptor a prefix run's rows differ in: its index, the
// place of its list in extendState.lists, and the input column it reads
// its source vertex from.
type runDesc struct {
	desc, pos int
	col       []graph.VertexID
}

func (s *batchExtendState) outWidth() int { return len(s.out.cols) }

func (s *batchExtendState) reset(rc *runContext) {
	s.es.reset(rc)
	s.inherit = s.es.useCache && s.es.spec.covered != 0
	s.publish = s.es.useCache && s.es.spec.publishes
	s.run.end, s.run.list = 0, nil
	if s.out != nil {
		s.out.clear()
		s.out.headMetered = 0
	}
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
// last. The stage works a prefix run at a time. On a row that neither repeats the previous key (a
// cache hit) nor lies in the open run it looks ahead in the batch for the
// operand the next rows share — the carried set, whose run's end the
// cursor knows, else the lowest-numbered descriptor whose column repeats —
// and, when a run of minRunRows rows or more shares one, resolves that
// operand once and pins it. A row inside the run then costs what differs:
// one lookup per remaining descriptor, the same i-cost as ever (every
// operand's size, Equation 1), and one sweep of the shortest remaining
// list through the bitmap (graph.Intersector.ProbePinned) — or, past the
// cut-off towards hubs, the ordinary dispatch over the lists already
// gathered. A row in no run, and every row when the cache is off or a
// list may be a multiset, takes extensionSetFor's general path, as the
// tuple-at-a-time oracle does.
func (s *batchExtendState) extFor(w *worker, in *tupleBatch, r int) []graph.VertexID {
	es := &s.es
	if r < s.run.end {
		key, hit := es.cacheKey, true
		for i := range s.run.vary {
			rd := &s.run.vary[i]
			if v := rd.col[r]; v != key[rd.desc] {
				key[rd.desc], hit = v, false
			}
		}
		if hit {
			return es.hit(w)
		}
		return s.runSet(w)
	}
	s.endRun(w)
	var carried []graph.VertexID
	if s.inherit {
		carried = s.cur.at(in, r)
	}
	s.gatherVals(in, r)
	if es.cached(w, s.vals) {
		return es.cacheExt
	}
	if es.pins && s.openRun(w, in, r, carried) {
		return s.runSet(w)
	}
	es.gather(w, s.vals, carried)
	return es.intersect(w, s.vals, carried)
}

// gatherVals loads s.vals with the descriptors' source vertices in row r.
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
	run.vary = run.vary[:0]
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
			run.vary = append(run.vary, runDesc{desc: i, pos: len(es.lists), col: in.cols[op.Descriptors[i].TupleIdx]})
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
		d := &op.Descriptors[rd.desc]
		l := es.readers[rd.desc].Read(w.g, es.cacheKey[rd.desc], d.Dir, d.EdgeLabel, op.TargetLabel)
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
		return es.intersect(w, es.cacheKey, carried)
	}
	es.serve(ext, scratch)
	return ext
}

//gf:noalloc
func (s *batchExtendState) pushBatch(w *worker, in *tupleBatch) {
	width := len(in.cols)
	s.cur.rewind()
	if w.countFast && w.isRoot && s.next <= sinkStage {
		// Factorized counting (Section 10): the last extension's Cartesian
		// product is counted, not enumerated.
		//gf:nopoll bounded by one batch (<= w.batchSize rows); dispatchBatch polled before delivering it
		for r := 0; r < in.n; r++ {
			w.profile.Matches += int64(len(s.extFor(w, in, r)))
		}
		s.endRun(w)
		return
	}
	for r := 0; r < in.n; r++ {
		ext := s.extFor(w, in, r)
		s.es.outTuples += int64(len(ext))
		off := 0
		for off < len(ext) {
			k := len(ext) - off
			if space := w.batchSize - s.out.n; k > space {
				k = space
			}
			for c := 0; c < width; c++ {
				s.out.cols[c] = appendFill(s.out.cols[c], in.cols[c][r], k)
			}
			s.out.cols[width] = append(s.out.cols[width], ext[off:off+k]...)
			s.out.n += k
			off += k
			full := s.out.n >= w.batchSize
			if s.publish {
				s.out.closeRun(w, ext, off > k || off < len(ext), full)
			}
			if full {
				w.profile.Batches.Extend++
				w.dispatchBatch(s.next, s.out)
				s.out.clear()
			}
		}
	}
	s.endRun(w)
}

func (s *batchExtendState) flush(w *worker) {
	if s.out.n > 0 {
		w.profile.Batches.Extend++
		w.dispatchBatch(s.next, s.out)
		s.out.clear()
	}
}

// batchProbeState is the vectorized hash-probe: consecutive rows with
// equal join-key values share one table lookup (sorted batches make key
// runs contiguous), and the matching build rows — one contiguous
// row-major run of the sealed table — fan out column-wise.
type batchProbeState struct {
	ps   probeState
	next int
	out  *tupleBatch

	// run is the build-row run of ps.key, valid while keyValid.
	keyValid bool
	run      []graph.VertexID
}

func (s *batchProbeState) outWidth() int { return len(s.out.cols) }

func (s *batchProbeState) reset(rc *runContext) {
	// The hash table is per-run state: re-fetch it from the new run's
	// materialised tables.
	s.ps.table = rc.tables[s.ps.spec.op]
	s.ps.outTuples, s.ps.probes = 0, 0
	s.keyValid = false
	s.run = nil
	s.out.clear()
}

//gf:noalloc
func (s *batchProbeState) pushBatch(w *worker, in *tupleBatch) {
	slots := s.ps.spec.probeSlots
	appendIdx := s.ps.spec.appendIdx
	width := len(in.cols)
	bw := s.ps.table.rowWidth
	// A terminal probe of a pure count adds each probe row's match count
	// instead of fanning the joined rows out to be counted at the sink —
	// the hash-join counterpart of the E/I stage's factorized counting.
	countOnly := w.countFast && w.isRoot && s.next <= sinkStage
	for r := 0; r < in.n; r++ {
		// probes stays a per-input-row counter (like the oracle's), so
		// Analyze's per-node numbers are engine- and batch-size-
		// independent; the grouped lookup below is purely an optimization.
		w.profile.ProbedTuples++
		s.ps.probes++
		same := s.keyValid
		if same {
			for i, sl := range slots {
				if s.ps.key[i] != in.cols[sl][r] {
					same = false
					break
				}
			}
		}
		if !same {
			s.ps.key = s.ps.key[:0]
			for _, sl := range slots {
				s.ps.key = append(s.ps.key, in.cols[sl][r])
			}
			s.run = s.ps.table.lookupKey(s.ps.key)
			s.keyValid = true
		}
		if len(s.run) == 0 {
			continue
		}
		matches := len(s.run) / bw
		s.ps.outTuples += int64(matches)
		if countOnly {
			w.profile.Matches += int64(matches)
			continue
		}
		// Column-major fan-out: replicate the probe-side prefix with bulk
		// fills and splice each build column in with one strided pass over
		// the run, chunked at batch capacity.
		off := 0
		for off < matches {
			k := matches - off
			if space := w.batchSize - s.out.n; k > space {
				k = space
			}
			for c := 0; c < width; c++ {
				s.out.cols[c] = appendFill(s.out.cols[c], in.cols[c][r], k)
			}
			for j, bi := range appendIdx {
				col := s.out.cols[width+j]
				n := len(col)
				col = col[:n+k]
				src := s.run[off*bw+bi:]
				for t := range col[n:] {
					col[n+t] = src[t*bw]
				}
				s.out.cols[width+j] = col
			}
			s.out.n += k
			off += k
			if s.out.n >= w.batchSize {
				w.profile.Batches.Probe++
				w.dispatchBatch(s.next, s.out)
				s.out.clear()
			}
		}
	}
}

func (s *batchProbeState) flush(w *worker) {
	if s.out.n > 0 {
		w.profile.Batches.Probe++
		w.dispatchBatch(s.next, s.out)
		s.out.clear()
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
	if w.scanBatch != nil && !w.stopped.Load() {
		w.recovered(w.flushBatches)
	}
}
