package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"graphflow"
	"graphflow/internal/baseline"
	"graphflow/internal/bench"
	"graphflow/internal/datagen"
	"graphflow/internal/graph"
	"graphflow/internal/query"
)

type edgeOp = graphflow.EdgeOp

// opKind classifies an op for the per-type latency pools.
type opKind uint8

const (
	opRead      opKind = iota // /query or /execute on an unchanged epoch
	opFreshRead               // first read after a write: pays catalogue rebuild and re-plan
	opWrite                   // /ingest
)

// op is one request of a schedule: what is sent to the server, what the
// answer must be, and the same request in the form the decomposed replay of
// the traced run feeds to the layers directly.
type op struct {
	kind opKind
	path string
	body []byte

	// Reads. want is the count the response must carry; -1 on mutation
	// workloads, whose reads are checked at the end of the run instead.
	pattern  string
	prepared string // statement name for /execute, "" for /query
	limit    int64
	adaptive bool
	want     int64

	// Writes. The response must report exactly len(adds) added edges,
	// len(dels) deleted ones and wantEdges live edges.
	adds, dels []edgeOp
	wantEdges  int
}

// checkedPattern is a pattern with the count its answer must carry.
type checkedPattern struct {
	name, pattern string
	want          int64 // oracle count, filled before timing; -1 until then
}

// workload is everything a run needs, generated from the seed before any
// timer starts: the base graph as edge arrays, the store options, and the
// request schedule round by round.
type workload struct {
	name    string
	clients int
	durable bool

	numVertices  int
	vertexLabels []uint16 // nil on unlabelled graphs
	edges        []edgeOp
	opts         graphflow.Options

	// hot patterns are prepared at set-up; pool patterns (cold-plan) are
	// only ever sent ad hoc and carry their expected count from generation.
	hot  []checkedPattern
	pool []checkedPattern

	// checkPatterns are counted at the end of a mutation workload, on the
	// served store and on a from-scratch rebuild of the shadow edge set.
	checkPatterns []string
	shadow        map[uint64]struct{}

	// round returns the ops of round r, one slice per client. Rounds of a
	// mutation workload advance the shadow edge set, so they must be
	// generated once each and in order. Round 0 is the warm-up.
	round func(r int) [][]op
}

var workloadWhy = []struct{ name, why string }{
	{"hot-count", "5 prepared count patterns on a skewed 127k-edge graph, 2 clients: exec and graph kernels do all the work, planning and ingest none"},
	{"cold-plan", "3070 distinct 4-6 vertex patterns cycled through a 256-entry plan cache, limit 100: parse, canonicalise and optimise dominate, exec is small"},
	{"fresh-read", "1 ingest then 9 counts over 3 hot patterns, repeated: every write forces a catalogue rebuild and re-plan beside overlay reads"},
	{"ingest-heavy", "durable store, batches of 32 adds + 32 deletes at steady size, no timed reads: live overlay, WAL, compaction and checkpoints do the work"},
}

func workloadNames() []string {
	names := make([]string, len(workloadWhy))
	for i, w := range workloadWhy {
		names[i] = w.name
	}
	return names
}

// newWorkload generates the named workload's inputs from the seed. smoke
// shrinks graphs and schedules so one round of every workload fits in a unit
// test.
func newWorkload(name string, seed int64, smoke bool) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "hot-count":
		return hotCount(rng, smoke), nil
	case "cold-plan":
		return coldPlan(rng, smoke)
	case "fresh-read":
		return freshRead(rng, smoke), nil
	case "ingest-heavy":
		return ingestHeavy(rng, smoke), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
}

// benchOptions is the store configuration every workload shares: defaults
// throughout (spelled out where the replay has to mirror them), plus a
// process-wide memory ceiling far above what any op reserves so that the
// resource governor meters every query, as a production deployment would run
// it. The smoke path samples a shallower catalogue, which builds in
// milliseconds.
func benchOptions(smoke bool) graphflow.Options {
	opts := graphflow.Options{CatalogueH: 3, CatalogueZ: 1000, Seed: 1, MemGlobalBytes: 1 << 30}
	if smoke {
		opts.CatalogueH = 2
	}
	return opts
}

// smokeGraph is the few-thousand-edge social graph every workload's smoke
// path runs on.
func smokeGraph() *graph.Graph {
	return datagen.Social(datagen.SocialConfig{N: 600, MPerV: 5, Closure: 0.3, Reciprocal: 0.25, Seed: 1009})
}

func (w *workload) setGraph(g *graph.Graph) {
	w.numVertices = g.NumVertices()
	labelled := false
	labels := make([]uint16, w.numVertices)
	for v := range labels {
		labels[v] = uint16(g.VertexLabel(graph.VertexID(v)))
		labelled = labelled || labels[v] != 0
	}
	if labelled {
		w.vertexLabels = labels
	}
	w.edges = make([]edgeOp, 0, g.NumEdges())
	g.Edges(func(src, dst graph.VertexID, l graph.Label) bool {
		w.edges = append(w.edges, edgeOp{Src: uint32(src), Dst: uint32(dst), Label: uint16(l)})
		return true
	})
}

// respell renders q with vertex names and edge order shuffled by rng: an
// isomorphic spelling of the same pattern, as different clients would write it.
func respell(q *query.Graph, rng *rand.Rand) string {
	q = q.Clone()
	names := rng.Perm(len(q.Vertices))
	for i := range q.Vertices {
		q.Vertices[i].Name = fmt.Sprintf("v%d", names[i])
	}
	rng.Shuffle(len(q.Edges), func(i, j int) { q.Edges[i], q.Edges[j] = q.Edges[j], q.Edges[i] })
	return q.String()
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps are marshalled here
	}
	return b
}

// The five hot patterns, one per plan shape the engine has: a WCO triangle,
// a hybrid diamond with a chord, a triangle with two leaves (factorized
// tail), a 4-clique, and two triangles sharing a vertex (hybrid hash join).
var hotPatterns = []struct{ name, pattern string }{
	{"tri", "a->b, b->c, a->c"},
	{"diamondx", "a->b, a->c, b->c, b->d, c->d"},
	{"tri2leaf", "a->b, b->c, a->c, a->d, a->e"},
	{"clique4", "a->b, a->c, a->d, b->c, b->d, c->d"},
	{"bowtie", "a->b, b->c, a->c, a->d, d->e, a->e"},
}

// hotMix is one client's round on hot-count, by index into hotPatterns; the
// eleventh op is one of the two heavy hybrid patterns (diamondx, bowtie),
// alternating by round and opposite on the two clients. The shares put the
// median inside the clique4 cluster (36 % of ops are lighter, 9 % heavier)
// and the 95th percentile at the middle of the heavy cluster, not on a
// boundary between clusters and not in a tail.
var hotMix = []int{0, 0, 2, 2, 3, 3, 3, 3, 3, 3}

func hotCount(rng *rand.Rand, smoke bool) *workload {
	w := &workload{name: "hot-count", clients: 2, opts: benchOptions(smoke)}
	if smoke {
		w.setGraph(smokeGraph())
	} else {
		w.setGraph(datagen.LiveJournal(1))
	}
	for _, p := range hotPatterns {
		w.hot = append(w.hot, checkedPattern{name: p.name, pattern: respell(query.MustParse(p.pattern), rng), want: -1})
	}
	body := mustJSON(map[string]any{"workers": 1})
	heavy := [2]int{1, 4}
	w.round = func(r int) [][]op {
		clients := make([][]op, w.clients)
		for c := range clients {
			mix := append(append([]int(nil), hotMix...), heavy[(r+c)%2])
			rng.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
			for _, i := range mix {
				h := &w.hot[i]
				clients[c] = append(clients[c], op{
					kind: opRead, path: "/execute/" + h.name, body: body,
					pattern: h.pattern, prepared: h.name, want: h.want,
				})
			}
		}
		return clients
	}
	return w
}

// coldPlanSizes are the query-vertex counts of the pattern pool and
// coldPlanShare how many of every ten ops have each size. Planning cost
// grows steeply with size, so latencies form one cluster per size: with these
// shares the median is the median 5-vertex pattern and the 95th percentile
// the median 6-vertex pattern, neither on a boundary nor in a tail.
var (
	coldPlanSizes = []int{4, 5, 6}
	coldPlanShare = []int{1, 8, 1}
)

// coldPlanLimit caps every cold-plan count, so execution stays small beside
// planning however many matches a sampled pattern has.
const coldPlanLimit = 100

func coldPlan(rng *rand.Rand, smoke bool) (*workload, error) {
	w := &workload{name: "cold-plan", clients: 1, opts: benchOptions(smoke)}
	// The pool holds poolTens x 10 patterns and a round sends roundTens x 10
	// of them, each size cycled in a fixed order. 3070 canonically distinct
	// patterns are twelve times the 256-entry plan cache, and a pattern comes
	// round again only after the whole pool: an LRU cache never hits.
	poolTens, roundTens := 307, 33
	var g *graph.Graph
	if smoke {
		g = smokeGraph()
		poolTens, roundTens = 3, 1
	} else {
		// Labels are fixed with the graph; only the pattern pool follows the
		// seed. Two vertex labels by three edge labels make patterns
		// selective enough that executing one costs less than planning it;
		// the price is a catalogue build near 4 s, which lands in setup_s.
		g = datagen.Relabel(datagen.Epinions(2), 2, 3, 11)
	}
	w.setGraph(g)
	seen := map[string]bool{}
	bySize := make([][]checkedPattern, len(coldPlanSizes))
	for si, n := range coldPlanSizes {
		need := poolTens * coldPlanShare[si]
		for attempts := 0; len(bySize[si]) < need; attempts++ {
			if attempts > 200*need {
				return nil, fmt.Errorf("cold-plan: could not sample %d distinct %d-vertex patterns", need, n)
			}
			// Sampled from the graph by random walk, so every pattern has at
			// least one match.
			q := bench.RandomQueryFromGraph(g, n, false, rng)
			if q == nil {
				continue
			}
			canon, _ := q.Canonical()
			if key := canon.Key(); !seen[key] {
				seen[key] = true
				// The expected answer comes from the CFL-style baseline
				// evaluator, which shares neither optimizer nor executor
				// with the engine under test.
				bySize[si] = append(bySize[si], checkedPattern{
					pattern: respell(q, rng),
					want:    baseline.CFLCountUpTo(g, q, coldPlanLimit),
				})
			}
		}
	}
	for ten := 0; ten < poolTens; ten++ {
		for si, share := range coldPlanShare {
			w.pool = append(w.pool, bySize[si][ten*share:(ten+1)*share]...)
		}
	}
	perRound := 10 * roundTens
	w.round = func(r int) [][]op {
		ops := make([]op, perRound)
		for i := range ops {
			p := &w.pool[(r*perRound+i)%len(w.pool)]
			ops[i] = op{
				kind: opRead, path: "/query", pattern: p.pattern, limit: coldPlanLimit, want: p.want,
				body: mustJSON(map[string]any{"pattern": p.pattern, "limit": coldPlanLimit}),
			}
		}
		return [][]op{ops}
	}
	return w, nil
}

func edgeKey(e edgeOp) uint64 {
	return uint64(e.Src)<<32 | uint64(e.Dst)
}

func (w *workload) initShadow() {
	w.shadow = make(map[uint64]struct{}, len(w.edges))
	for _, e := range w.edges {
		w.shadow[edgeKey(e)] = struct{}{}
	}
}

// newEdges draws n edges that are not in the shadow set (so every add is
// applied, never dropped as a duplicate) and inserts them into it.
func (w *workload) newEdges(rng *rand.Rand, n int) []edgeOp {
	out := make([]edgeOp, 0, n)
	for len(out) < n {
		e := edgeOp{Src: uint32(rng.Intn(w.numVertices)), Dst: uint32(rng.Intn(w.numVertices))}
		if _, dup := w.shadow[edgeKey(e)]; dup || e.Src == e.Dst {
			continue
		}
		w.shadow[edgeKey(e)] = struct{}{}
		out = append(out, e)
	}
	return out
}

type ingestEdge struct {
	Src   uint32 `json:"src"`
	Dst   uint32 `json:"dst"`
	Label uint16 `json:"label"`
}

func ingestOp(adds, dels []edgeOp, liveEdges int) op {
	conv := func(es []edgeOp) []ingestEdge {
		out := make([]ingestEdge, len(es))
		for i, e := range es {
			out[i] = ingestEdge{e.Src, e.Dst, e.Label}
		}
		return out
	}
	req := map[string]any{"add_edges": conv(adds)}
	if len(dels) > 0 {
		req["delete_edges"] = conv(dels)
	}
	return op{kind: opWrite, path: "/ingest", body: mustJSON(req), adds: adds, dels: dels, wantEdges: liveEdges}
}

func freshRead(rng *rand.Rand, smoke bool) *workload {
	w := &workload{name: "fresh-read", clients: 1, opts: benchOptions(smoke)}
	cycles := 2 // per round
	if smoke {
		cycles = 1
		w.setGraph(smokeGraph())
	} else {
		w.setGraph(datagen.Epinions(1))
	}
	w.initShadow()
	// Order matters for where the percentiles land: per cycle of 10 ops the
	// sorted latencies are 1 write, 3 tri, 2 warm clique4, 3 diamondx and
	// 1 fresh clique4, so the median sits inside the clique4 cluster and the
	// 95th percentile inside the fresh one.
	for _, i := range []int{3, 0, 1} {
		p := hotPatterns[i]
		w.checkPatterns = append(w.checkPatterns, respell(query.MustParse(p.pattern), rng))
	}
	w.round = func(int) [][]op {
		var ops []op
		for c := 0; c < cycles; c++ {
			ops = append(ops, ingestOp(w.newEdges(rng, 16), nil, len(w.shadow)))
			for i := 0; i < 9; i++ {
				p := w.checkPatterns[i%3]
				kind := opRead
				if i == 0 {
					kind = opFreshRead
				}
				ops = append(ops, op{
					kind: kind, path: "/query", pattern: p, want: -1,
					body: mustJSON(map[string]any{"pattern": p}),
				})
			}
		}
		return [][]op{ops}
	}
	return w
}

func ingestHeavy(rng *rand.Rand, smoke bool) *workload {
	w := &workload{name: "ingest-heavy", clients: 1, durable: true, opts: benchOptions(smoke)}
	// "off" leaves flushing to the OS: a sandbox's fsync is not a device's,
	// and the same policy runs on both sides of every comparison.
	w.opts.Fsync = "off"
	perRound := 600
	if smoke {
		w.setGraph(smokeGraph())
		perRound = 200
		w.opts.CompactThreshold = 4096 // so the short run still compacts and checkpoints
	} else {
		w.setGraph(datagen.Amazon(8))
	}
	w.initShadow()
	for _, i := range []int{0, 1, 3} {
		w.checkPatterns = append(w.checkPatterns, hotPatterns[i].pattern)
	}
	// Each batch deletes what the batch 64 places earlier added, so the
	// store stays at its initial size however long the run lasts.
	const batchEdges, lag = 32, 64
	var history [][]edgeOp
	w.round = func(int) [][]op {
		ops := make([]op, perRound)
		for i := range ops {
			adds := w.newEdges(rng, batchEdges)
			history = append(history, adds)
			var dels []edgeOp
			if len(history) > lag {
				dels = history[0]
				history = history[1:]
				for _, e := range dels {
					delete(w.shadow, edgeKey(e))
				}
			}
			ops[i] = ingestOp(adds, dels, len(w.shadow))
		}
		return [][]op{ops}
	}
	return w
}
