package catalogue

import (
	"cmp"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"graphflow/internal/graph"
	"graphflow/internal/query"
)

// maxPatternsExpanded bounds the number of distinct labelled patterns the
// sampler expands, and maxWorkUnits bounds the work of all measurements
// together — instances times descriptors, 30.0 M on the cold-plan graph —
// for heavily labelled graphs whose pattern space explodes (the paper's
// Table 11 reports 11.9M entries at h=4; we bound construction time rather
// than memory — entries sampled before the budget runs out are
// unaffected). A unit is one descriptor list read by one measurement, not
// a lookup: a pattern's lists are fetched once, into its listTable, for
// all the measurements that read them (60 828 fetches on the cold-plan
// graph).
const (
	maxPatternsExpanded = 50000
	maxWorkUnits        = 30_000_000
)

// batchJobs is how many measurements the driver plans before the workers
// run them: enough that the last job of a batch is a small share of it,
// few enough that the result slots stay small beside the queue's
// instances.
const batchJobs = 4096

// builder drives the sampling construction of Section 5.1: a
// breadth-first walk over labelled patterns, carrying the sampled
// instances of each pattern, and measuring every one-vertex extension of
// every pattern with at most H vertices.
//
// The measurements run on every worker, and the catalogue is the same on
// any number of them, because the walk is split three ways:
//
//   - Plan, on the calling goroutine. expand pops the queue in FIFO order
//     and decides everything about what is measured: the reservoir draw,
//     every shuffle, visited, the pattern and work budgets. Each admitted
//     measurement becomes a job, linked to its parent job (below), and
//     each descriptor list column it is the first to read is fetched into
//     its pattern's listTable.
//   - Measure, on the workers. A job's list sums, extension count, key
//     and new instances go into the job's own slot, and the intersection
//     its children extend into its pattern's listTable.
//   - Merge, on the calling goroutine, in job order: the sums into the
//     entry table, so every float addition happens in the sequential
//     order and entries are numbered alike, and the extended patterns onto
//     the queue.
//
// A job with two or more extension edges has a parent: the job of the
// same pattern and target label whose edges and labels are its own less
// the last. Its intersection is the parent's, per instance, intersected
// with its last column, so it visits only the instances where the parent
// found something (the prefix extension of BiGJoin, PAPERS.md). expand
// enumerates edge subsets in ascending order, the last edge being the
// highest bit, and admission stops for good once the work budget is
// spent, so a parent is always admitted, and admitted first. flush
// measures a batch in rounds by edge count, so a parent is measured in
// an earlier batch or an earlier round than its children.
//
// A measurement changes nothing that planning reads, and its pattern
// joins the queue behind every pattern already there, so the driver may
// plan ahead of the merges: it runs a batch when batchJobs are planned or
// the queue is empty.
type builder struct {
	g        graph.View
	c        *Catalogue
	rng      *rand.Rand
	visited  map[query.Code]bool
	expanded int
	work     int64
	budget   int64 // no job is admitted once work passes it: maxWorkUnits, lower in tests
	queue    []queued

	// The planned batch: its jobs, their extension edges back to back and,
	// aligned with those, the columns they read and their summed list
	// sizes; the jobs of the round being measured. Then the extension
	// edges being enumerated, the ordinal of each edge subset's first job
	// in the pattern being expanded, the bytes of the last pattern code,
	// and one measurer per worker.
	jobs    []job
	edges   []query.Edge
	cols    []*column
	sums    []float64
	round   []int32
	cur     []query.Edge
	first   []int
	key     []byte
	workers []measurer

	// intersections counts the two-list intersections the measurements
	// made, summed over the workers after each batch.
	intersections int64
	// recompute, when set, computes a job's extensions in place of
	// measurer.intersect: FuzzBuild's reference intersects every job's
	// columns afresh and holds the parent results to it.
	recompute func(m *measurer, b *builder, j *job, cols []*column)
}

// queued is a pattern awaiting expansion, with its sampled instances.
type queued struct {
	pattern   *query.Graph
	instances []instance
}

type instance []graph.VertexID

// job is one admitted measurement — pattern extended by a vertex labelled
// tl through edges[lo:hi] of the batch, over instances, reading the lists
// in cols[lo:hi] — and its result, whose summed list sizes, in the
// entry's descriptor order, are sums[lo:hi]. ord numbers the job among
// its pattern's jobs, in table.results; parent is its parent's ordinal,
// or -1 when the parent has one edge and so its column, cols[lo], for a
// result. keep is set when a later job may extend it: it has two or more
// edges, and its last is not the pattern's last possible one. found
// reports whether any instance had a non-empty descriptor list; without
// one the job adds no entry and the other results are unset.
type job struct {
	pattern     *query.Graph
	instances   []instance
	table       *listTable
	lo, hi      int
	tl          graph.Label
	ord, parent int
	keep        bool

	found bool
	key   []byte // the entry's canonical code, in its measurer's keys
	ext   int    // extensions over all instances
	next  queued // the extended pattern and its new instances, if any
}

// measurer is one worker's scratch, reused across its jobs: the
// intersection of the current instance, the job's extension count, new
// instances row after row and result for its children, the extension
// assembled as one graph, and the keys of the batch's jobs it ran, back
// to back. intersections counts its two-list intersections.
type measurer struct {
	out           []graph.VertexID
	total         int
	rows, result  []graph.VertexID
	ext           query.Graph
	keys          []byte
	intersections int64
}

// A listTable holds the descriptor lists of one pattern's sampled
// instances, for every job that extends the pattern to read: a column per
// slot — a base vertex, a list direction, an edge label and a target
// label, numbered by listTable.slot — each holding its slot's list for
// every instance, in instance order. A column is fetched once, when the
// first job that reads it is planned. results holds, by job ordinal, the
// intersection of each measured job that a later job extends, packed
// instance by instance in instance order — the instance's index, the
// set's size, then the set — over the instances where it is not empty.
// The table, results included, goes when the pattern's last job has been
// merged.
type listTable struct {
	cols         []column
	results      [][]graph.VertexID
	numEL, numVL int
}

// nextSet splits a packed result into its first instance's index and set
// and the rest.
func nextSet(r []graph.VertexID) (n int, set, rest []graph.VertexID) {
	end := 2 + int(r[1])
	return int(r[0]), r[2:end], r[end:]
}

// column is one slot's lists, by instance, and their sizes summed in
// instance order: the slot's summed list size in any job that reads it.
// lists is nil until the column is fetched.
type column struct {
	lists [][]graph.VertexID
	sum   float64
}

func newListTable(k, numEL, numVL int) *listTable {
	return &listTable{cols: make([]column, 2*k*numEL*numVL), numEL: numEL, numVL: numVL}
}

// slot numbers the column of anchor's (dir, el, tl) lists.
func (t *listTable) slot(anchor int, dir graph.Direction, el, tl graph.Label) int {
	return ((anchor*2+int(dir))*t.numEL+int(el))*t.numVL + int(tl)
}

// fetch fills the column with anchor's (dir, el, tl) list of every
// instance.
func (c *column) fetch(g graph.View, instances []instance, anchor int, dir graph.Direction, el, tl graph.Label) {
	c.lists = make([][]graph.VertexID, len(instances))
	for i, inst := range instances {
		c.lists[i] = g.Neighbors(inst[anchor], dir, el, tl, nil)
		c.sum += float64(len(c.lists[i]))
	}
}

// build is Build measuring on the given number of workers; the catalogue
// comes out byte-identical on any number.
func build(g graph.View, cfg Config, workers int) *Catalogue {
	return newBuilder(g, cfg, workers).run()
}

func newBuilder(g graph.View, cfg Config, workers int) *builder {
	cfg = cfg.withDefaults()
	return &builder{
		g:       g,
		c:       newCatalogue(cfg, g.NumVertices()),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		visited: map[query.Code]bool{},
		budget:  maxWorkUnits,
		workers: make([]measurer, max(1, workers)),
	}
}

func (b *builder) run() *Catalogue {
	b.c.scanBaseStatistics(b.g)

	// Sample Z edges uniformly (reservoir), grouped by their labels.
	type groupKey struct{ el, sl, dl graph.Label }
	type sampledEdge struct {
		src, dst graph.VertexID
		key      groupKey
	}
	reservoir := make([]sampledEdge, 0, b.c.Cfg.Z)
	seen := 0
	b.g.Edges(func(src, dst graph.VertexID, el graph.Label) bool {
		se := sampledEdge{src, dst, groupKey{el, b.g.VertexLabel(src), b.g.VertexLabel(dst)}}
		if len(reservoir) < b.c.Cfg.Z {
			reservoir = append(reservoir, se)
		} else if j := b.rng.Intn(seen + 1); j < b.c.Cfg.Z {
			reservoir[j] = se
		}
		seen++
		return true
	})
	groups := map[groupKey][]instance{}
	var keys []groupKey
	for _, se := range reservoir {
		if groups[se.key] == nil {
			keys = append(keys, se.key)
		}
		groups[se.key] = append(groups[se.key], instance{se.src, se.dst})
	}
	// The queue starts with the largest label group, ties broken by the
	// labels: a fixed order, so the work budget cuts the same patterns on
	// every build and the catalogue is a function of (graph, config).
	slices.SortFunc(keys, func(a, b groupKey) int {
		return cmp.Or(
			cmp.Compare(len(groups[b]), len(groups[a])),
			cmp.Compare(a.el, b.el), cmp.Compare(a.sl, b.sl), cmp.Compare(a.dl, b.dl))
	})
	// Breadth-first over pattern sizes: all k-vertex patterns are measured
	// before any (k+1)-vertex pattern, so a larger H never degrades the
	// coverage of small patterns when the work budget runs out.
	for _, key := range keys {
		pattern := &query.Graph{
			Vertices: []query.Vertex{{Label: key.sl}, {Label: key.dl}},
			Edges:    []query.Edge{{From: 0, To: 1, Label: key.el}},
		}
		b.queue = append(b.queue, queued{pattern, groups[key]})
	}
	for len(b.queue) > 0 || len(b.jobs) > 0 {
		if len(b.queue) == 0 {
			b.flush()
			continue
		}
		next := b.queue[0]
		b.queue = b.queue[1:]
		b.expand(next.pattern, next.instances)
	}
	b.c.entries.average()
	b.c.entries.trim()
	return b.c
}

// expand plans the measurement of every one-vertex extension of pattern
// over its sampled instances; extended patterns are queued by the merge
// while they remain extensible (size+1 <= H).
func (b *builder) expand(pattern *query.Graph, instances []instance) {
	k := pattern.NumVertices()
	if k > b.c.Cfg.H || len(instances) == 0 || b.work > b.budget {
		return
	}
	b.key = pattern.AppendCanonicalCode(b.key[:0], query.AllMask(k), query.NoTarget, nil)
	if b.visited[query.Code(b.key)] {
		return
	}
	b.visited[query.Code(b.key)] = true
	b.expanded++
	if b.expanded > maxPatternsExpanded {
		return
	}
	if len(instances) > b.c.Cfg.MaxInstances {
		b.rng.Shuffle(len(instances), func(i, j int) { instances[i], instances[j] = instances[j], instances[i] })
		instances = instances[:b.c.Cfg.MaxInstances]
	}

	numEL := b.g.NumEdgeLabels()
	numVL := b.g.NumVertexLabels()
	table := newListTable(k, numEL, numVL)
	target := k
	subsets := 1 << uint(2*k)
	b.first = slices.Grow(b.first[:0], subsets)[:subsets]
	// Structural extensions: non-empty subsets of the 2k possible directed
	// edges between the new vertex and the base vertices. Bit 2*v is
	// v->target, bit 2*v+1 is target->v.
	for subset := 1; subset < subsets; subset++ {
		// The parent subset drops the highest bit, the last edge. Its jobs
		// are all admitted if any of this subset's is, numbered from
		// first[parent] in odometer order, so a job's parent is at
		// first[parent] + (its combo without the last label)*numVL + tl.
		parent := subset &^ (1 << uint(bits.Len(uint(subset))-1))
		keep := parent != 0 && subset < subsets/2
		b.first[subset] = len(table.results)
		b.cur = b.cur[:0]
		for v := 0; v < k; v++ {
			if subset&(1<<uint(2*v)) != 0 {
				b.cur = append(b.cur, query.Edge{From: v, To: target})
			}
			if subset&(1<<uint(2*v+1)) != 0 {
				b.cur = append(b.cur, query.Edge{From: target, To: v})
			}
		}
		// Label combos: every assignment of edge labels, counted like an
		// odometer whose last edge turns fastest, times every target label.
		for combo := 0; ; combo++ {
			for tl := 0; tl < numVL; tl++ {
				p := -1
				if len(b.cur) > 2 {
					p = b.first[parent] + combo/numEL*numVL + tl
				}
				b.admit(job{pattern: pattern, instances: instances, table: table, tl: graph.Label(tl), parent: p, keep: keep}, b.cur)
			}
			i := len(b.cur) - 1
			for ; i >= 0 && int(b.cur[i].Label)+1 == numEL; i-- {
				b.cur[i].Label = 0
			}
			if i < 0 {
				break
			}
			b.cur[i].Label++
		}
	}
}

// admit charges the measurement of one extension to the work budget and
// plans it as j, numbering it in its pattern's table and fetching each
// column of the table it reads that no job has read before, and runs the
// batch once it is full.
func (b *builder) admit(j job, edges []query.Edge) {
	if b.work > b.budget {
		return
	}
	instances, table := j.instances, j.table
	b.work += int64(len(instances)) * int64(len(edges))
	j.ord = len(table.results)
	table.results = append(table.results, nil)
	j.lo = len(b.edges)
	b.edges = append(b.edges, edges...)
	j.hi = len(b.edges)
	target := j.pattern.NumVertices()
	for _, e := range edges {
		// target -> e.To: candidates in e.To's backward list.
		anchor, dir := e.To, graph.Backward
		if e.To == target {
			anchor, dir = e.From, graph.Forward
		}
		c := &table.cols[table.slot(anchor, dir, e.Label, j.tl)]
		if c.lists == nil {
			c.fetch(b.g, instances, anchor, dir, e.Label, j.tl)
		}
		b.cols = append(b.cols, c)
	}
	b.jobs = append(b.jobs, j)
	if len(b.jobs) == batchJobs {
		b.flush()
	}
}

// flush measures the planned jobs on the workers, the calling goroutine
// being one of them, in rounds by edge count, and merges the results in
// job order.
func (b *builder) flush() {
	jobs := b.jobs
	b.sums = slices.Grow(b.sums[:0], len(b.edges))[:len(b.edges)]
	for i := range b.workers {
		b.workers[i].keys = b.workers[i].keys[:0]
	}
	for edges, left := 1, len(jobs); left > 0; edges++ {
		b.round = b.round[:0]
		for i := range jobs {
			if jobs[i].hi-jobs[i].lo == edges {
				b.round = append(b.round, int32(i))
			}
		}
		left -= len(b.round)
		b.measureRound()
	}
	for i := range b.workers {
		b.intersections += b.workers[i].intersections
		b.workers[i].intersections = 0
	}

	t := &b.c.entries
	for i := range jobs {
		j := &jobs[i]
		if !j.found {
			continue
		}
		e := t.add(j.key, j.hi-j.lo)
		sums := t.listsOf(e)
		for r, s := range b.sums[j.lo:j.hi] {
			sums[r] += s
		}
		t.mu[e] += float64(j.ext)
		t.samples[e] += uint32(len(j.instances))
		if j.next.pattern != nil {
			b.queue = append(b.queue, j.next)
		}
	}
	// Cleared, the slots hold no instances the queue has let go of, and
	// no table of a pattern whose jobs are all merged.
	clear(jobs)
	clear(b.cols)
	b.jobs, b.edges, b.cols = jobs[:0], b.edges[:0], b.cols[:0]
}

// measureRound measures the jobs of the round on the workers, job
// indices off an atomic counter.
func (b *builder) measureRound() {
	round := b.round
	var next atomic.Int64
	drain := func(m *measurer) {
		for i := int(next.Add(1) - 1); i < len(round); i = int(next.Add(1) - 1) {
			m.measure(b, &b.jobs[round[i]])
		}
	}
	var wg sync.WaitGroup
	for i := 1; i < min(len(b.workers), len(round)); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drain(&b.workers[i])
		}()
	}
	drain(&b.workers[0])
	wg.Wait()
}

// measure runs a job's extension over its instance sample, writing the
// result into the job, and the intersection its children extend into its
// table. Its lists are its columns' and its summed list sizes theirs, so
// each is added up over the instances in instance order, as reading the
// lists instance by instance would.
func (m *measurer) measure(b *builder, j *job) {
	pattern, edges, cols, tl := j.pattern, b.edges[j.lo:j.hi], b.cols[j.lo:j.hi], j.tl
	target := pattern.NumVertices()

	anyList := false
	for _, c := range cols {
		anyList = anyList || c.sum > 0
	}
	j.found = anyList
	if !anyList {
		// Combination absent from the data: leave the entry missing so the
		// estimator falls back to defaults, rather than flooding the
		// catalogue with all-zero rows.
		return
	}
	m.total, m.rows, m.result = 0, m.rows[:0], m.result[:0]
	if b.recompute != nil {
		b.recompute(m, b, j, cols)
	} else {
		m.intersect(b, j, cols)
	}
	if j.keep && len(m.result) > 0 {
		// Each job writes its own slot; a child reads it in a later round.
		j.table.results[j.ord] = slices.Clone(m.result)
	}
	// The extension as one graph: pattern, the target as its last vertex,
	// the extension edges after pattern's own.
	m.ext.Vertices = append(append(m.ext.Vertices[:0], pattern.Vertices...), query.Vertex{Label: tl})
	m.ext.Edges = append(append(m.ext.Edges[:0], pattern.Edges...), edges...)
	base := query.AllMask(target)
	var perm [query.MaxVertices]int
	at := len(m.keys)
	m.keys = extensionKey(m.keys, &m.ext, base, target, perm[:])
	// The slice stays valid when keys grows: append copies, never
	// rewrites, the array it leaves.
	j.key = m.keys[at:]
	sums := b.sums[j.lo:j.hi]
	for i, ed := range edges {
		sums[descriptorRank(&m.ext, base, target, &perm, ed)] = cols[i].sum
	}
	j.ext = m.total

	if len(m.rows) > 0 {
		// The new instances are rows of one slab. The merge queues them
		// rather than recursing: see the breadth-first note in run().
		width := target + 1
		slab := make([]graph.VertexID, len(m.rows))
		copy(slab, m.rows)
		next := make([]instance, len(slab)/width)
		for i := range next {
			next[i] = slab[i*width : (i+1)*width : (i+1)*width]
		}
		j.next = queued{m.ext.Clone(), next}
	}
}

// intersect computes the job's extensions instance by instance: a
// one-edge job's are its column's lists; any other job's are its
// parent's, on the instances where the parent found some, intersected
// with its last column. A job whose parent found none does no work.
func (m *measurer) intersect(b *builder, j *job, cols []*column) {
	last := cols[len(cols)-1].lists
	switch {
	case len(cols) == 1:
		for n, l := range last {
			if len(l) > 0 {
				m.add(b, j, n, l)
			}
		}
	case j.parent < 0:
		for n, l := range cols[0].lists {
			m.extend(b, j, n, l, last[n])
		}
	default:
		for r := j.table.results[j.parent]; len(r) > 0; {
			var n int
			var set []graph.VertexID
			n, set, r = nextSet(r)
			m.extend(b, j, n, set, last[n])
		}
	}
}

// extend adds instance n's extensions, the intersection of set, its
// parent's, with its list in the job's last column.
func (m *measurer) extend(b *builder, j *job, n int, set, list []graph.VertexID) {
	if len(set) == 0 || len(list) == 0 {
		return
	}
	m.out = graph.Intersect(set, list, m.out)
	m.intersections++
	if len(m.out) > 0 {
		m.add(b, j, n, m.out)
	}
}

// add records set, non-empty and sorted, as instance n's extensions: in
// the job's extension count, as new instances while the extended pattern
// can itself be extended and MaxInstances rows are not yet taken, and in
// its result if a later job extends it.
func (m *measurer) add(b *builder, j *job, n int, set []graph.VertexID) {
	m.total += len(set)
	inst := j.instances[n]
	if width := len(inst) + 1; width <= b.c.Cfg.H {
		for _, w := range set {
			if len(m.rows) == b.c.Cfg.MaxInstances*width {
				break
			}
			m.rows = append(append(m.rows, inst...), w)
		}
	}
	if j.keep {
		m.result = append(append(m.result, graph.VertexID(n), graph.VertexID(len(set))), set...)
	}
}
