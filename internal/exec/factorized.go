package exec

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"graphflow/internal/graph"
	"graphflow/internal/plan"
	"graphflow/internal/query"
)

// This file is the factorized execution tier (the Section 10
// factorization direction, following the grouped, per-separator
// representation of LogicBlox — Nguyen et al., "Join Processing for
// Graph Patterns: An Old Dog with New Tricks"). When the driver
// pipeline ends in a factorized tail (plan.TailOf), the matches above a
// prefix row are the product of the tail's components' matches, and a
// component's matches depend only on its separator's values. The
// componentTail stage therefore evaluates each component once per
// distinct separator key — a one-vertex component (a leaf) is one
// extension set, computed through the same run-grouped extendState
// machinery as the vectorized E/I operator; a larger one is enumerated
// operator by operator — and represents the rows as prefix × C₁ × … × Cₖ:
//
//   - A count multiplies the components' counts, each cached on its
//     separator key; identical components share one count, and a
//     component identical to the prefix's own part above the scan source
//     is counted by the run of prefix rows that share that source: the
//     run contributes (Σ products) × nᵏ, with no evaluation at all.
//   - A Limit charges each product (or each closed run) against a shared
//     atomic budget and stops the run the moment it is exhausted.
//   - RunCtx unfolds the product through the stage's fan-out writer in
//     chain order: the same rows, in the same order, as full enumeration.
//     A larger component's matches are cached per key for the unfold and
//     charged to the run's memory budget.
//
// The engine's join semantics are homomorphic (query vertices may bind
// the same data vertex), so the product is exact even when two
// components share a label; Distinct filtering is a caller-side concern,
// a post-filter on the rows the unfold emits.

// tailSpec is the compiled form of a pipeline's factorized tail.
type tailSpec struct {
	// cut is the index into the pipeline's stages where the tail begins;
	// the number of stages when the pipeline has none.
	cut   int
	comps []compSpec
	// ops holds what the tail's operators read, in chain order.
	ops []tailOp
	// twins is the number of PrefixTwin components: a counting run counts
	// them off the runs of prefix rows that share a scan source.
	twins int
	// leaves marks a tail of one-vertex components only.
	leaves bool
	// layout is the pipeline's output layout (slot -> query vertex), which
	// EXPLAIN ANALYZE names the components by.
	layout []int
}

// compSpec is one component of a tail.
type compSpec struct {
	// first and n place the component's operators in the tail (positions
	// first to first+n-1, chain order).
	first, n int
	// sep are the input slots of the component's separator, ascending: the
	// key its count and matches are cached on.
	sep []int
	// twin is the earlier component whose count this one shares (-1 none);
	// prefixTwin marks a plan.Component.PrefixTwin.
	twin       int
	prefixTwin bool
	// vertices and separator are the component's query vertices and its
	// separator's.
	vertices, separator query.Mask
}

// tailOp is what one tail operator reads.
type tailOp struct {
	// prefixOnly says the operator reads prefix slots only: it is the first
	// of its component, and a leaf's or a component's first set is computed
	// off the input batch like any E/I stage's.
	prefixOnly bool
	// pin is where, among the operator's operands (extendState.lists), the
	// list of its first uncovered descriptor on a prefix slot, pinDesc,
	// stands: a list every binding of one key's enumeration shares, pinned
	// once for the key — the prefix run's mechanism one level up. -1 for an
	// operator that reads prefix slots only, or has no other operand to
	// sweep through it.
	pin, pinDesc int
}

// newTailSpec compiles the tail of the pipeline ending at n, whose chain
// above its scan has stages operators.
func newTailSpec(q *query.Graph, n plan.Node, stages int, prefixTwins bool) *tailSpec {
	var t plan.Tail
	plan.TailOf(&t, q, n, prefixTwins)
	out := n.Out()
	base := len(out) - t.Len
	ts := &tailSpec{cut: stages - t.Len, leaves: t.Leaves(), layout: out,
		comps: make([]compSpec, 0, len(t.Components())), ops: make([]tailOp, t.Len)}
	for _, c := range t.Components() {
		cs := compSpec{first: c.First, n: c.Len, twin: c.Twin, prefixTwin: c.PrefixTwin, vertices: c.Vertices, separator: c.Separator}
		for slot := range base {
			if c.Separator&query.Bit(out[slot]) != 0 {
				cs.sep = append(cs.sep, slot)
			}
		}
		if c.PrefixTwin {
			ts.twins++
		}
		ts.comps = append(ts.comps, cs)
	}
	for p, node := t.Len-1, n; p >= 0; p-- {
		op := node.(*plan.Extend)
		ts.ops[p] = tailOpOf(op, base)
		node = op.Child
	}
	return ts
}

// tailOpOf finds what E/I operator op reads of a prefix of width slots.
func tailOpOf(op *plan.Extend, width int) tailOp {
	to := tailOp{prefixOnly: true, pin: -1, pinDesc: -1}
	covered := op.Inherited()
	operands := 0
	if covered != 0 {
		operands++ // the carried set
	}
	for i, d := range op.Descriptors {
		to.prefixOnly = to.prefixOnly && d.TupleIdx < width
		if covered&(1<<uint(i)) != 0 {
			continue
		}
		if d.TupleIdx < width && to.pin < 0 {
			to.pin, to.pinDesc = operands, i
		}
		operands++
	}
	if to.prefixOnly || operands < 2 {
		to.pin, to.pinDesc = -1, -1
	}
	return to
}

// name renders component i and its separator for EXPLAIN ANALYZE,
// "{a2,a4} on {a5}".
func (t *tailSpec) name(i int) string {
	cs := &t.comps[i]
	return vertexSet(t.layout, cs.vertices) + " on " + vertexSet(t.layout, cs.separator)
}

// vertexSet renders the query vertices of mask in layout order: {a2,a4}.
func vertexSet(out []int, mask query.Mask) string {
	var sb strings.Builder
	for _, v := range out {
		if mask&query.Bit(v) != 0 {
			if sb.Len() > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "a%d", v+1)
		}
	}
	return "{" + sb.String() + "}"
}

// componentTail evaluates a factorized tail as the final stage of the
// driver pipeline's batch chain.
type componentTail struct {
	spec *tailSpec
	// stages are the tail's operators in chain order: run-grouped extension
	// computers without writers (the tail owns the unfold's).
	stages []*batchExtendState
	comps  []tailComp
	// sets[p] is the extension set operator p computed last — for the row
	// being evaluated, or for the values bound above it while a component
	// is enumerated; entries alias stage storage.
	sets [][]graph.VertexID
	// vals[p] is the value bound at tail position p during an enumeration.
	vals []graph.VertexID
	// width is the tail's input width, the prefix's.
	width int
	// analyze says the run collects EXPLAIN ANALYZE counters: only then
	// are a leaf's keys and its operators' set sizes counted.
	analyze bool
	// run is the open run of prefix rows sharing a scan source (a count of a
	// tail with PrefixTwin components).
	run twinRun
	// odo is the odometer over the outer components during an unfold.
	odo []int
	// out writes the unfolded rows (emit mode only): the prefix row and the
	// outer components' matches replicated, the last component's spliced.
	out fanOut
}

// tailComp is one component's per-run state: its cache and counters.
type tailComp struct {
	// key is the separator key count and rows were computed for; valid says
	// they are.
	key   []graph.VertexID
	valid bool
	count int64
	// rows are a larger component's matches for key in emit mode, row-major
	// (n values a match); metered is their capacity already charged.
	rows    []graph.VertexID
	metered int
	// keys, cached and shared count the keys the component was evaluated
	// for, the rows served from its cache, and the rows whose count it took
	// from an identical component or from a prefix run (EXPLAIN ANALYZE).
	keys, cached, shared int64
}

// twinRun is the open run of prefix rows with one scan source: rows is
// its length, the count of every PrefixTwin component on it, and sum adds
// the product of the other components' counts over its rows.
type twinRun struct {
	open      bool
	src       graph.VertexID
	rows, sum int64
}

func newComponentTail(rc *runContext, spec *tailSpec, specs []stageSpec, next, inWidth, batch int) *componentTail {
	last := spec.comps[len(spec.comps)-1]
	t := &componentTail{
		spec:   spec,
		stages: make([]*batchExtendState, len(specs)),
		comps:  make([]tailComp, len(spec.comps)),
		sets:   make([][]graph.VertexID, len(specs)),
		vals:   make([]graph.VertexID, len(specs)),
		width:  inWidth,
		odo:    make([]int, len(spec.comps)),
		out:    newFanOut(inWidth+len(specs)-last.n, columns[:last.n], batch, next, extendBatches),
	}
	for p, spec := range specs {
		t.stages[p] = &batchExtendState{es: newExtendState(spec.(*extendSpec))}
	}
	keys := 0
	for _, cs := range spec.comps {
		keys += len(cs.sep)
	}
	buf := make([]graph.VertexID, keys)
	for i, cs := range spec.comps {
		t.comps[i].key, buf = buf[:len(cs.sep):len(cs.sep)], buf[len(cs.sep):]
	}
	t.reset(rc)
	return t
}

// columns splices the first n columns of a source whole: a component's
// matches, n values a match.
var columns = func() (c [query.MaxVertices]int) {
	for i := range c {
		c[i] = i
	}
	return c
}()

func (s *componentTail) output() *fanOut { return &s.out }

func (s *componentTail) reset(rc *runContext) {
	for _, st := range s.stages {
		st.reset(rc)
	}
	for i := range s.comps {
		c := &s.comps[i]
		clearKey(c.key)
		c.valid, c.metered = false, 0
		c.keys, c.cached, c.shared = 0, 0, 0
	}
	clear(s.sets)
	s.run.open = false
	s.analyze = rc.analyze != nil
	s.out.batch.clear()
}

// forget drops what the tail holds into the graph its run read.
func (s *componentTail) forget() {
	for _, st := range s.stages {
		st.forget()
	}
	clear(s.sets)
}

//gf:noalloc
func (s *componentTail) pushBatch(w *worker, in *tupleBatch) {
	counting := w.emit == nil
	twins := counting && s.spec.twins > 0
	//gf:nopoll bounded by the tail's operator count
	for _, st := range s.stages {
		st.cur.rewind()
	}
	for r := 0; r < in.n; r++ {
		w.profile.FactorizedPrefixes++
		product := s.product(w, in, r, counting)
		switch {
		case twins:
			s.extendRun(w, in.cols[0][r], product)
		case product == 0:
		case counting:
			s.charge(w, product)
		default:
			s.unfoldRow(w, in, r)
		}
	}
	//gf:nopoll bounded by the tail's operator count
	for _, st := range s.stages {
		st.endRun(w)
	}
}

// product evaluates every component on prefix row r in chain order and
// returns the product of their counts (saturating at MaxInt64; 0 as soon
// as one is empty — a later component is then never evaluated). A count
// skips PrefixTwin components (their count is the run's length) and
// takes an identical component's count from its twin.
func (s *componentTail) product(w *worker, in *tupleBatch, r int, counting bool) int64 {
	product := int64(1)
	for i := range s.comps {
		cs, c := &s.spec.comps[i], &s.comps[i]
		var n int64
		switch {
		case cs.n == 1 && !s.analyze:
			n = int64(len(s.setAt(w, in, r, cs.first)))
		case cs.n == 1:
			hits := s.stages[cs.first].es.hits
			n = int64(len(s.setAt(w, in, r, cs.first)))
			hit := s.stages[cs.first].es.hits - hits
			c.cached += hit
			c.keys += 1 - hit
		case !counting:
			n = s.evaluate(w, in, r, i, false)
		case cs.prefixTwin:
			continue
		case cs.twin >= 0:
			n = s.comps[cs.twin].count
			c.shared++
		default:
			n = s.evaluate(w, in, r, i, true)
		}
		c.count = n
		if n == 0 {
			return 0
		}
		product = satMul(product, n)
	}
	return product
}

// evaluate returns component i's count on prefix row r — from its cache
// when the row repeats the separator key it was last evaluated for —
// and, in emit mode, leaves its matches in its rows.
func (s *componentTail) evaluate(w *worker, in *tupleBatch, r, i int, counting bool) int64 {
	cs, c := &s.spec.comps[i], &s.comps[i]
	if loadKey(c.key, in, cs.sep, r) == 0 && c.valid {
		c.cached++
		return c.count
	}
	c.keys++
	c.valid = false
	end := cs.first + cs.n
	s.pinKey(w, in, r, cs.first+1, end, true)
	defer s.pinKey(w, in, r, cs.first+1, end, false)
	if counting {
		c.count = s.countFrom(w, in, r, cs.first, end, s.allowance(w))
	} else {
		c.rows = c.rows[:0]
		s.collect(w, in, r, cs.first, cs.first, end, c)
		c.count = int64(len(c.rows) / cs.n)
		if cp := cap(c.rows); cp > c.metered {
			w.rc.mem.Reserve(int64(cp-c.metered) * vertexIDBytes)
			c.metered = cp
		}
	}
	c.valid = true
	return c.count
}

// pinKey pins (or, with on false, unpins) the shared operand of every
// operator from p to end-1 that has one (see tailOp.pin), for the
// enumeration of the key of row r.
func (s *componentTail) pinKey(w *worker, in *tupleBatch, r, p, end int, on bool) {
	//gf:nopoll bounded by the component's operator count
	for ; p < end; p++ {
		st, to := s.stages[p], s.spec.ops[p]
		if to.pin < 0 || !st.es.pins {
			continue
		}
		es := &st.es
		if !on {
			es.it.Unpin()
			es.meter(w)
			continue
		}
		d := &es.spec.op.Descriptors[to.pinDesc]
		es.it.Pin(es.readers[to.pinDesc].Read(w.g, in.cols[d.TupleIdx][r], d.Dir, d.EdgeLabel, es.spec.op.TargetLabel))
	}
}

// setAt computes (or serves from the operator's intersection cache) the
// extension set of tail operator p on prefix row r, with the values
// bound above the prefix in vals. The first operator of a component reads
// prefix slots only and goes through extFor, which the tail asks for the
// rows of a batch in order, some of them skipped: its cache and prefix
// runs go by the key of the last set computed, and an inheriting tail
// operator 0 is seeded with the set the stage below the tail published
// for r's run. Any other inheriting operator is seeded with the set
// operator p-1 computed last: for the row, or for the values bound above
// it (an operator inherits only from one in its own component, or from a
// leaf).
func (s *componentTail) setAt(w *worker, in *tupleBatch, r, p int) []graph.VertexID {
	st := s.stages[p]
	var set []graph.VertexID
	if s.spec.ops[p].prefixOnly && (p == 0 || !st.inherit) {
		set = st.extFor(w, in, r)
	} else {
		st.vals = st.vals[:0]
		//gf:nopoll bounded by the operator's descriptor count
		for _, slot := range st.es.spec.slots {
			if slot < s.width {
				st.vals = append(st.vals, in.cols[slot][r])
			} else {
				st.vals = append(st.vals, s.vals[slot-s.width])
			}
		}
		var carried []graph.VertexID
		if st.inherit {
			carried = s.sets[p-1]
		}
		if pos := s.spec.ops[p].pin; pos >= 0 && st.es.pins {
			set = st.es.pinnedSetFor(w, st.vals, carried, pos)
		} else {
			set = st.es.extensionSetFor(w, st.vals, carried)
		}
	}
	if s.analyze {
		st.es.outTuples += int64(len(set))
	}
	s.sets[p] = set
	return set
}

// countFrom counts the matches of tail operators p to end-1 above row r
// and the values bound before p: the last operator's set sizes, summed
// over every binding of the ones before it — or any number from limit on,
// once the sum reaches it (see allowance).
func (s *componentTail) countFrom(w *worker, in *tupleBatch, r, p, end int, limit int64) int64 {
	set := s.setAt(w, in, r, p)
	if p == end-1 {
		return int64(len(set))
	}
	w.cancelCountdown -= len(set)
	if w.cancelCountdown <= 0 {
		w.pollCancel()
	}
	total := int64(0)
	for _, x := range set {
		s.vals[p] = x
		if total = satAdd(total, s.countFrom(w, in, r, p+1, end, limit-total)); total >= limit {
			break
		}
	}
	return total
}

// allowance is what is left of a Limit's budget, MaxInt64 without one. A
// component counted up to it, or a run whose count has reached it, makes
// the product the run is stopped on: evaluating further would not change
// the count a Limit reports.
func (s *componentTail) allowance(w *worker) int64 {
	if b := w.rc.countBudget; b != nil {
		return max(b.Load(), 1)
	}
	return math.MaxInt64
}

// collect appends the matches of tail operators p to end-1 above row r
// and the values bound before p to c.rows, in enumeration order, each
// with the values bound from the component's first operator on.
//
//gf:allowalloc a component's matches for one key, cached for the unfold and charged to the run's memory budget
func (s *componentTail) collect(w *worker, in *tupleBatch, r, first, p, end int, c *tailComp) {
	set := s.setAt(w, in, r, p)
	w.cancelCountdown -= len(set)
	if w.cancelCountdown <= 0 {
		w.pollCancel()
	}
	for _, x := range set {
		s.vals[p] = x
		if p < end-1 {
			s.collect(w, in, r, first, p+1, end, c)
		} else {
			c.rows = append(c.rows, s.vals[first:end]...)
		}
	}
}

// extendRun adds prefix row with scan source src, whose other components
// multiply to product, to the open run, closing the run before it when
// the source changed.
func (s *componentTail) extendRun(w *worker, src graph.VertexID, product int64) {
	run := &s.run
	if run.open && run.src != src {
		s.closeRun(w)
	}
	if !run.open {
		*run = twinRun{open: true, src: src}
	}
	run.rows++
	run.sum = satAdd(run.sum, product)
	if w.rc.countBudget != nil && satMul(run.sum, satPow(run.rows, s.spec.twins)) >= s.allowance(w) {
		// The run's count only grows with its rows: it has reached the
		// Limit already.
		s.closeRun(w)
	}
}

// closeRun counts the open run: sum × rowsᵏ for k PrefixTwin components.
// A run of a hub whose scan adjacency was split across workers
// (morselQueue.pushHubs) is one part of its source's rows: the parts are
// merged before the power is taken, each adding what it changes.
func (s *componentTail) closeRun(w *worker) {
	run := &s.run
	if !run.open {
		return
	}
	run.open = false
	for i := range s.comps {
		if s.spec.comps[i].prefixTwin {
			s.comps[i].keys++
			s.comps[i].shared += run.rows
		}
	}
	n, ok := w.mq.mergeSplit(run.src, run.sum, run.rows, s.spec.twins)
	if !ok {
		n = satMul(run.sum, satPow(run.rows, s.spec.twins))
	}
	if n > 0 {
		s.charge(w, n)
	}
}

// charge counts n matches accounted for without unfolding them: into
// Matches, and against a Limit's shared budget, stopping the run the
// moment it is exhausted (the cap is hit exactly).
func (s *componentTail) charge(w *worker, n int64) {
	take := n
	stop := false
	if budget := w.rc.countBudget; budget != nil {
		if rem := budget.Add(-n); rem <= 0 {
			if take += rem; take < 0 {
				take = 0
			}
			stop = true
		}
	}
	w.profile.Matches += take
	w.profile.FactorizedAvoided += take
	if stop {
		panic(stopRun{})
	}
}

// list returns component i's matches on the current row and their width.
func (s *componentTail) list(i int) ([]graph.VertexID, int) {
	cs := &s.spec.comps[i]
	if cs.n == 1 {
		return s.sets[cs.first], 1
	}
	return s.comps[i].rows, cs.n
}

// unfoldRow materializes prefix row r's product in full-enumeration
// order: the odometer steps the outer components (rightmost fastest)
// while each step writes the last component's matches whole — the nested
// loop order of the non-factorized chain, since a component's operators
// are consecutive in it.
func (s *componentTail) unfoldRow(w *worker, in *tupleBatch, r int) {
	k := len(s.comps)
	last, width := s.list(k - 1)
	odo := s.odo[:k-1]
	clear(odo)
	o := &s.out
	for {
		for i, j := range odo {
			list, n := s.list(i)
			at := s.width + s.spec.comps[i].first
			copy(o.fixed[at:at+n], list[j*n:(j+1)*n])
		}
		o.write(w, in, r, last, width, len(last)/width)
		i := k - 2
		for ; i >= 0; i-- {
			odo[i]++
			if list, n := s.list(i); odo[i]*n < len(list) {
				break
			}
			odo[i] = 0
		}
		if i < 0 {
			return
		}
	}
}

// satMul is a·b for non-negative a and b, saturating at MaxInt64: a
// product this size could never be enumerated anyway, and a Limit budget
// only needs "at least the remaining allowance".
func satMul(a, b int64) int64 {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi != 0 || lo > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(lo)
}

// satAdd is a+b for non-negative a and b, saturating at MaxInt64.
func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// satPow is aᵏ for non-negative a, saturating at MaxInt64.
func satPow(a int64, k int) int64 {
	p := int64(1)
	for range k {
		p = satMul(p, a)
	}
	return p
}
