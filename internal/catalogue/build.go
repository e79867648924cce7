package catalogue

import (
	"cmp"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"graphflow/internal/graph"
	"graphflow/internal/query"
)

// maxPatternsExpanded bounds the number of distinct labelled patterns the
// sampler expands, and maxWorkUnits bounds the descriptor-list lookups of
// all measurements together — instances times descriptors, 30.0 M on the
// cold-plan graph — for heavily labelled graphs whose pattern space
// explodes (the paper's Table 11 reports 11.9M entries at h=4; we bound
// construction time rather than memory — entries sampled before the
// budget runs out are unaffected).
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
//     measurement becomes a job.
//   - Measure, on the workers. A job's list sums, extension count, key and
//     new instances go into the job's own slot.
//   - Merge, on the calling goroutine, in job order: the sums into the
//     entry table, so every float addition happens in the sequential
//     order and entries are numbered alike, and the extended patterns onto
//     the queue.
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
	// aligned with those, their summed list sizes. Then the extension
	// edges being enumerated, the bytes of the last pattern code, and one
	// measurer per worker.
	jobs    []job
	edges   []query.Edge
	sums    []float64
	cur     []query.Edge
	key     []byte
	workers []measurer
}

// queued is a pattern awaiting expansion, with its sampled instances.
type queued struct {
	pattern   *query.Graph
	instances []instance
}

type instance []graph.VertexID

// job is one admitted measurement — pattern extended by a vertex labelled
// tl through edges[lo:hi] of the batch, over instances — and its result,
// whose summed list sizes, in the entry's descriptor order, are
// sums[lo:hi]. found reports whether any instance had a non-empty
// descriptor list; without one the job adds no entry and the other
// results are unset.
type job struct {
	pattern   *query.Graph
	instances []instance
	lo, hi    int
	tl        graph.Label

	found bool
	key   []byte // the entry's canonical code, in its measurer's keys
	ext   int    // extensions over all instances
	next  queued // the extended pattern and its new instances, if any
}

// measurer is one worker's scratch, reused across its jobs: the
// intersector with its operands and results, each descriptor's summed
// list size, the new instances row after row, the extension assembled as
// one graph, and the keys of the batch's jobs it ran, back to back.
type measurer struct {
	it           graph.Intersector
	lists        [][]graph.VertexID
	out, scratch []graph.VertexID
	listSums     []float64
	rows         []graph.VertexID
	ext          query.Graph
	keys         []byte
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
	target := k
	// Structural extensions: non-empty subsets of the 2k possible directed
	// edges between the new vertex and the base vertices. Bit 2*v is
	// v->target, bit 2*v+1 is target->v.
	for subset := 1; subset < (1 << uint(2*k)); subset++ {
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
		for {
			for tl := 0; tl < numVL; tl++ {
				b.admit(pattern, b.cur, graph.Label(tl), instances)
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
// plans it as a job, running the batch once it is full.
func (b *builder) admit(pattern *query.Graph, edges []query.Edge, tl graph.Label, instances []instance) {
	if b.work > b.budget {
		return
	}
	b.work += int64(len(instances)) * int64(len(edges))
	lo := len(b.edges)
	b.edges = append(b.edges, edges...)
	b.jobs = append(b.jobs, job{pattern: pattern, instances: instances, lo: lo, hi: len(b.edges), tl: tl})
	if len(b.jobs) == batchJobs {
		b.flush()
	}
}

// flush measures the planned jobs on the workers, the calling goroutine
// being one of them, and merges the results in job order.
func (b *builder) flush() {
	jobs := b.jobs
	b.sums = slices.Grow(b.sums[:0], len(b.edges))[:len(b.edges)]
	var next atomic.Int64
	drain := func(m *measurer) {
		m.keys = m.keys[:0]
		for i := int(next.Add(1) - 1); i < len(jobs); i = int(next.Add(1) - 1) {
			m.measure(b, &jobs[i])
		}
	}
	var wg sync.WaitGroup
	for i := 1; i < min(len(b.workers), len(jobs)); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drain(&b.workers[i])
		}()
	}
	drain(&b.workers[0])
	wg.Wait()

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
	// Cleared, the slots hold no instances the queue has let go of.
	clear(jobs)
	b.jobs, b.edges = jobs[:0], b.edges[:0]
}

// measure runs a job's extension over its instance sample, writing the
// result into the job.
func (m *measurer) measure(b *builder, j *job) {
	pattern, edges, tl, instances := j.pattern, b.edges[j.lo:j.hi], j.tl, j.instances
	target := pattern.NumVertices()

	if cap(m.lists) < len(edges) {
		m.lists, m.listSums = make([][]graph.VertexID, len(edges)), make([]float64, len(edges))
	}
	lists, listSums := m.lists[:len(edges)], m.listSums[:len(edges)]
	clear(listSums)
	totalExt := 0
	anyList := false
	width := target + 1
	m.rows = m.rows[:0]
	recurse := width <= b.c.Cfg.H
	for _, inst := range instances {
		empty := false
		for i, e := range edges {
			// target -> e.To: candidates in e.To's backward list.
			src, dir := e.To, graph.Backward
			if e.To == target {
				src, dir = e.From, graph.Forward
			}
			lists[i] = b.g.Neighbors(inst[src], dir, e.Label, tl, nil)
			listSums[i] += float64(len(lists[i]))
			if len(lists[i]) > 0 {
				anyList = true
			} else {
				empty = true
			}
		}
		if empty {
			// An empty operand empties the intersection: no extensions and
			// no rows. Every list still counts towards listSums above.
			continue
		}
		m.out, m.scratch = m.it.IntersectK(lists, nil, m.out, m.scratch)
		totalExt += len(m.out)
		if recurse {
			for _, w := range m.out {
				if len(m.rows) == b.c.Cfg.MaxInstances*width {
					break
				}
				m.rows = append(append(m.rows, inst...), w)
			}
		}
	}
	j.found = anyList
	if !anyList {
		// Combination absent from the data: leave the entry missing so the
		// estimator falls back to defaults, rather than flooding the
		// catalogue with all-zero rows.
		return
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
		sums[descriptorRank(&m.ext, base, target, &perm, ed)] = listSums[i]
	}
	j.ext = totalExt

	if len(m.rows) > 0 {
		// The new instances are rows of one slab. The merge queues them
		// rather than recursing: see the breadth-first note in run().
		slab := make([]graph.VertexID, len(m.rows))
		copy(slab, m.rows)
		next := make([]instance, len(slab)/width)
		for i := range next {
			next[i] = slab[i*width : (i+1)*width : (i+1)*width]
		}
		j.next = queued{m.ext.Clone(), next}
	}
}
