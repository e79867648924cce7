package exec

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"graphflow/internal/plan"
)

// OpStats is the per-operator breakdown of one execution: the EXPLAIN
// ANALYZE view of a plan.
type OpStats struct {
	// Operator is the plan node's description.
	Operator string
	// OutTuples counts tuples the operator produced.
	OutTuples int64
	// ICost is the operator's accessed-adjacency-list total (E/I only).
	ICost int64
	// CacheHits counts intersection-cache hits (E/I only).
	CacheHits int64
	// CarriedSets counts intersections seeded with the upstream stage's
	// extension set (inheriting E/I operators only).
	CarriedSets int64
	// PinnedProbes counts intersections computed by sweeping a list through
	// the bitmap of an operand the stage had pinned for its run (E/I only).
	PinnedProbes int64
	// Probes counts probe lookups (HASH-JOIN only).
	Probes int64
	// BuildRows is the materialised build-side size (HASH-JOIN only).
	BuildRows int64
	// Nanos is the operator's attributed self wall time (batch-engine
	// stage slots; a pipeline's terminal operator also absorbs its sink —
	// result delivery or build-side insertion).
	Nanos int64
	// Components, on the plan root of a run that factorized its tail,
	// reports the tail's components (see ComponentStats).
	Components []ComponentStats
	// Children mirror the plan tree.
	Children []*OpStats
}

// ComponentStats is one component of a factorized tail in the EXPLAIN
// ANALYZE view. A tail operator's OutTuples are then the sizes of the
// extension sets it computed, and the root's the matches the tail counted
// or unfolded.
type ComponentStats struct {
	// Component names the component's vertices and its separator,
	// "{a2,a4} on {a5}".
	Component string
	// Keys counts the separator keys the component was evaluated for (for
	// a component counted off the prefix's runs, the runs), Cached the
	// prefix rows its cache served.
	Keys, Cached int64
	// Shared counts the prefix rows whose count the component took from
	// SharedWith: an identical component, or "prefix" for the run of
	// prefix rows with one scan source.
	Shared     int64
	SharedWith string
}

// Describe renders the analyzed tree, one operator per line.
func (s *OpStats) Describe() string {
	var sb strings.Builder
	var rec func(n *OpStats, depth int)
	rec = func(n *OpStats, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(n.Operator)
		fmt.Fprintf(&sb, "  [out=%d", n.OutTuples)
		if n.ICost > 0 || n.CacheHits > 0 {
			fmt.Fprintf(&sb, " icost=%d hits=%d", n.ICost, n.CacheHits)
		}
		if n.CarriedSets > 0 {
			fmt.Fprintf(&sb, " carried=%d", n.CarriedSets)
		}
		if n.PinnedProbes > 0 {
			fmt.Fprintf(&sb, " pinned=%d", n.PinnedProbes)
		}
		if n.Probes > 0 || n.BuildRows > 0 {
			fmt.Fprintf(&sb, " probes=%d build=%d", n.Probes, n.BuildRows)
		}
		if n.Nanos > 0 {
			fmt.Fprintf(&sb, " time=%s", formatNanos(n.Nanos))
		}
		sb.WriteString("]\n")
		for _, c := range n.Components {
			sb.WriteString(strings.Repeat("  ", depth+1))
			fmt.Fprintf(&sb, "COMPONENT %s  [keys=%d cached=%d", c.Component, c.Keys, c.Cached)
			if c.SharedWith != "" {
				fmt.Fprintf(&sb, " shared=%d with %s", c.Shared, c.SharedWith)
			}
			sb.WriteString("]\n")
		}
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	rec(s, 0)
	return sb.String()
}

// nodeCounters accumulates per-plan-node counters across workers, and
// the driver pipeline's tail components'.
type nodeCounters struct {
	mu   sync.Mutex
	m    map[plan.Node]*OpStats
	tail []ComponentStats
}

// addTail folds one worker's tail counters into the components' stats.
func (nc *nodeCounters) addTail(t *componentTail) {
	nc.mu.Lock()
	if nc.tail == nil {
		nc.tail = make([]ComponentStats, len(t.comps))
		for i := range t.comps {
			cs := &t.spec.comps[i]
			nc.tail[i].Component = t.spec.name(i)
			switch {
			case cs.prefixTwin:
				nc.tail[i].SharedWith = "prefix"
			case cs.twin >= 0:
				nc.tail[i].SharedWith = t.spec.name(cs.twin)
			}
		}
	}
	for i := range t.comps {
		c := &t.comps[i]
		st := &nc.tail[i]
		st.Keys += c.keys
		st.Cached += c.cached
		st.Shared += c.shared
		c.keys, c.cached, c.shared = 0, 0, 0
	}
	nc.mu.Unlock()
}

// add folds one worker's counters for plan node n (d's counter fields
// only) into the node's stats.
func (nc *nodeCounters) add(n plan.Node, d OpStats) {
	nc.mu.Lock()
	st := nc.m[n]
	if st == nil {
		st = &OpStats{}
		nc.m[n] = st
	}
	st.OutTuples += d.OutTuples
	st.ICost += d.ICost
	st.CacheHits += d.CacheHits
	st.CarriedSets += d.CarriedSets
	st.PinnedProbes += d.PinnedProbes
	st.Probes += d.Probes
	st.BuildRows += d.BuildRows
	nc.mu.Unlock()
}

// addNanos attributes wall time to a plan node's stats.
func (nc *nodeCounters) addNanos(n plan.Node, nanos int64) {
	if nanos == 0 {
		return
	}
	nc.mu.Lock()
	st := nc.m[n]
	if st == nil {
		st = &OpStats{}
		nc.m[n] = st
	}
	st.Nanos += nanos
	nc.mu.Unlock()
}

// formatNanos renders a duration compactly for the analyzed tree:
// sub-millisecond times keep microsecond precision, everything else is
// rounded to 10µs so the output stays diffable.
func formatNanos(n int64) string {
	d := time.Duration(n)
	switch {
	case d < time.Millisecond:
		return d.Round(time.Microsecond).String()
	case d < time.Second:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(time.Millisecond).String()
	}
}

// AnalyzeCtx runs the compiled plan sequentially, collecting per-operator
// counters, and returns the statistics tree along with the aggregate
// profile: the EXPLAIN ANALYZE view. cfg.Workers is ignored: analysis
// runs the count a Count runs, on one goroutine, so counters need no
// sharding. A factorized tail counts as it does there, and the root's
// stats list its components; every other operator writes its rows. The
// run honors ctx like any other query, so a server can bound it by its
// request timeout; a cancelled analysis returns the context's error.
func (cp *CompiledPlan) AnalyzeCtx(ctx context.Context, cfg RunConfig) (*OpStats, Profile, error) {
	cfg.Workers = 1
	nc := &nodeCounters{m: map[plan.Node]*OpStats{}}
	prof, err := cp.run(ctx, cfg, nc, nil, nil, 0)
	if err != nil {
		return nil, Profile{}, err
	}
	var build func(n plan.Node) *OpStats
	build = func(n plan.Node) *OpStats {
		st := nc.m[n]
		if st == nil {
			st = &OpStats{}
		}
		st.Operator = n.String()
		for _, c := range n.Children() {
			st.Children = append(st.Children, build(c))
		}
		return st
	}
	root := build(cp.root)
	if nc.tail != nil {
		root.OutTuples = prof.Matches
		root.Components = nc.tail
	}
	return root, prof, nil
}
