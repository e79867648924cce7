package catalogue

import (
	"math/rand"

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
	acc      map[Key]*accum
	expanded int
	work     int64
	queue    []queued

	// Scratch reused across measure and expand calls: the extension under
	// measurement assembled as one graph, and the bytes of the last key.
	ext query.Graph
	key []byte
}

// queued is a pattern awaiting expansion, with its sampled instances.
type queued struct {
	pattern   *query.Graph
	instances []instance
}

type accum struct {
	listSums []float64
	muSum    float64
	samples  int
}

type instance []graph.VertexID

func (b *builder) run() {
	b.acc = map[Key]*accum{}
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
	for _, se := range reservoir {
		groups[se.key] = append(groups[se.key], instance{se.src, se.dst})
	}
	// Breadth-first over pattern sizes: all k-vertex patterns are measured
	// before any (k+1)-vertex pattern, so a larger H never degrades the
	// coverage of small patterns when the work budget runs out.
	for key, instances := range groups {
		pattern := &query.Graph{
			Vertices: []query.Vertex{{Label: key.sl}, {Label: key.dl}},
			Edges:    []query.Edge{{From: 0, To: 1, Label: key.el}},
		}
		b.queue = append(b.queue, queued{pattern, instances})
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
		var structEdges []query.Edge
		for v := 0; v < k; v++ {
			if subset&(1<<uint(2*v)) != 0 {
				structEdges = append(structEdges, query.Edge{From: v, To: target})
			}
			if subset&(1<<uint(2*v+1)) != 0 {
				structEdges = append(structEdges, query.Edge{From: target, To: v})
			}
		}
		// Label combos: edge labels per extension edge x target label.
		b.labelCombos(len(structEdges), numEL, numVL, func(elabels []graph.Label, tl graph.Label) {
			edges := make([]query.Edge, len(structEdges))
			for i, e := range structEdges {
				e.Label = elabels[i]
				edges[i] = e
			}
			b.measure(pattern, edges, tl, instances)
		})
	}
}

// labelCombos invokes fn for every assignment of nEdges edge labels and one
// target vertex label.
func (b *builder) labelCombos(nEdges, numEL, numVL int, fn func([]graph.Label, graph.Label)) {
	elabels := make([]graph.Label, nEdges)
	var rec func(i int)
	rec = func(i int) {
		if i == nEdges {
			for tl := 0; tl < numVL; tl++ {
				fn(elabels, graph.Label(tl))
			}
			return
		}
		for el := 0; el < numEL; el++ {
			elabels[i] = graph.Label(el)
			rec(i + 1)
		}
	}
	rec(0)
}

// measure runs the extension over the instance sample, records the entry,
// and recurses into the extended pattern.
func (b *builder) measure(pattern *query.Graph, edges []query.Edge, tl graph.Label, instances []instance) {
	if b.work > maxWorkUnits {
		return
	}
	b.work += int64(len(instances)) * int64(len(edges))
	target := pattern.NumVertices()

	listSums := make([]float64, len(edges))
	totalExt := 0
	anyList := false
	var newInstances []instance
	recurse := target+1 <= b.c.Cfg.H

	lists := make([][]graph.VertexID, len(edges))
	var it graph.Intersector
	var out, scratch []graph.VertexID
	for _, inst := range instances {
		for i, e := range edges {
			src, dir := e.To, graph.Forward
			if e.From == target {
				// target -> e.To: candidates in e.To's backward list.
				src, dir = e.To, graph.Backward
			} else {
				src, dir = e.From, graph.Forward
			}
			lists[i] = b.g.Neighbors(inst[src], dir, e.Label, tl, nil)
			listSums[i] += float64(len(lists[i]))
			if len(lists[i]) > 0 {
				anyList = true
			}
		}
		out, scratch = it.IntersectK(lists, nil, out, scratch)
		totalExt += len(out)
		if recurse && len(out) > 0 && len(newInstances) < b.c.Cfg.MaxInstances {
			for _, w := range out {
				ni := make(instance, len(inst)+1)
				copy(ni, inst)
				ni[len(inst)] = w
				newInstances = append(newInstances, ni)
				if len(newInstances) >= b.c.Cfg.MaxInstances {
					break
				}
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
	a := b.acc[Key(b.key)]
	if a == nil {
		a = &accum{listSums: make([]float64, len(edges))}
		b.acc[Key(b.key)] = a
	}
	for i, e := range edges {
		a.listSums[descriptorRank(&b.ext, base, target, &perm, e)] += listSums[i]
	}
	a.muSum += float64(totalExt)
	a.samples += len(instances)

	if recurse && len(newInstances) > 0 {
		// Enqueue rather than recurse: see the breadth-first note in run().
		b.queue = append(b.queue, queued{b.ext.Clone(), newInstances})
	}
}

// finalize converts accumulated sums into averaged entries.
func (b *builder) finalize() {
	for key, a := range b.acc {
		e := &Entry{ListSizes: make([]float64, len(a.listSums)), Samples: a.samples}
		if a.samples > 0 {
			for i, s := range a.listSums {
				e.ListSizes[i] = s / float64(a.samples)
			}
			e.Mu = a.muSum / float64(a.samples)
		}
		b.c.Entries[key] = e
	}
}
