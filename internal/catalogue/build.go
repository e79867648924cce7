package catalogue

import (
	"cmp"
	"math/rand"
	"slices"

	"graphflow/internal/graph"
	"graphflow/internal/query"
)

// maxPatternsExpanded bounds the number of distinct labelled patterns the
// sampler expands, and maxWorkUnits bounds total instance measurements,
// for heavily labelled graphs whose pattern space explodes (the paper's
// Table 11 reports 11.9M entries at h=4; we bound construction time
// rather than memory — entries sampled before the budget runs out are
// unaffected).
const (
	maxPatternsExpanded = 50000
	maxWorkUnits        = 30_000_000
)

// builder drives the sampling construction of Section 5.1: a DFS over
// labelled patterns, carrying the sampled instances of each pattern, and
// measuring every one-vertex extension of every pattern with at most H
// vertices.
type builder struct {
	g        graph.View
	c        *Catalogue
	rng      *rand.Rand
	visited  map[query.Code]bool
	expanded int
	work     int64
	queue    []queued

	// Scratch reused across measure and expand calls: the extension edges
	// being measured, the extension assembled as one graph, the bytes of
	// the last key, the intersector with its operands and results, each
	// descriptor's summed list size, and the new instances, row after row.
	edges        []query.Edge
	ext          query.Graph
	key          []byte
	it           graph.Intersector
	lists        [][]graph.VertexID
	out, scratch []graph.VertexID
	listSums     []float64
	rows         []graph.VertexID
}

// queued is a pattern awaiting expansion, with its sampled instances.
type queued struct {
	pattern   *query.Graph
	instances []instance
}

type instance []graph.VertexID

func (b *builder) run() {
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
	for len(b.queue) > 0 {
		next := b.queue[0]
		b.queue = b.queue[1:]
		b.expand(next.pattern, next.instances)
	}
}

// expand measures every one-vertex extension of pattern over its sampled
// instances, recording entries, and recurses into extended patterns while
// they remain extensible (size+1 <= H).
func (b *builder) expand(pattern *query.Graph, instances []instance) {
	k := pattern.NumVertices()
	if k > b.c.Cfg.H || len(instances) == 0 || b.work > maxWorkUnits {
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
		b.edges = b.edges[:0]
		for v := 0; v < k; v++ {
			if subset&(1<<uint(2*v)) != 0 {
				b.edges = append(b.edges, query.Edge{From: v, To: target})
			}
			if subset&(1<<uint(2*v+1)) != 0 {
				b.edges = append(b.edges, query.Edge{From: target, To: v})
			}
		}
		// Label combos: every assignment of edge labels, counted like an
		// odometer whose last edge turns fastest, times every target label.
		for {
			for tl := 0; tl < numVL; tl++ {
				b.measure(pattern, b.edges, graph.Label(tl), instances)
			}
			i := len(b.edges) - 1
			for ; i >= 0 && int(b.edges[i].Label)+1 == numEL; i-- {
				b.edges[i].Label = 0
			}
			if i < 0 {
				break
			}
			b.edges[i].Label++
		}
	}
}

// measure runs the extension over the instance sample, adds it to its
// entry, and queues the extended pattern.
func (b *builder) measure(pattern *query.Graph, edges []query.Edge, tl graph.Label, instances []instance) {
	if b.work > maxWorkUnits {
		return
	}
	b.work += int64(len(instances)) * int64(len(edges))
	target := pattern.NumVertices()

	if cap(b.lists) < len(edges) {
		b.lists, b.listSums = make([][]graph.VertexID, len(edges)), make([]float64, len(edges))
	}
	lists, listSums := b.lists[:len(edges)], b.listSums[:len(edges)]
	clear(listSums)
	totalExt := 0
	anyList := false
	width := target + 1
	b.rows = b.rows[:0]
	recurse := width <= b.c.Cfg.H
	for _, inst := range instances {
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
			}
		}
		b.out, b.scratch = b.it.IntersectK(lists, nil, b.out, b.scratch)
		totalExt += len(b.out)
		if recurse {
			for _, w := range b.out {
				if len(b.rows) == b.c.Cfg.MaxInstances*width {
					break
				}
				b.rows = append(append(b.rows, inst...), w)
			}
		}
	}
	if !anyList {
		// Combination absent from the data: leave the entry missing so the
		// estimator falls back to defaults, rather than flooding the
		// catalogue with all-zero rows.
		return
	}
	// The extension as one graph: pattern, the target as its last vertex,
	// the extension edges after pattern's own.
	b.ext.Vertices = append(append(b.ext.Vertices[:0], pattern.Vertices...), query.Vertex{Label: tl})
	b.ext.Edges = append(append(b.ext.Edges[:0], pattern.Edges...), edges...)
	base := query.AllMask(target)
	var perm [query.MaxVertices]int
	b.key = extensionKey(b.key[:0], &b.ext, base, target, perm[:])
	t := &b.c.entries
	e := t.add(b.key, len(edges))
	sums := t.listsOf(e)
	for i, ed := range edges {
		sums[descriptorRank(&b.ext, base, target, &perm, ed)] += listSums[i]
	}
	t.mu[e] += float64(totalExt)
	t.samples[e] += uint32(len(instances))

	if len(b.rows) > 0 {
		// The new instances are rows of one slab. Enqueue rather than
		// recurse: see the breadth-first note in run().
		slab := make([]graph.VertexID, len(b.rows))
		copy(slab, b.rows)
		next := make([]instance, len(slab)/width)
		for i := range next {
			next[i] = slab[i*width : (i+1)*width : (i+1)*width]
		}
		b.queue = append(b.queue, queued{b.ext.Clone(), next})
	}
}
