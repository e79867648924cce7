package exec

import (
	"math"

	"graphflow/internal/graph"
)

// This file is the factorized execution tier (the Section 10
// factorization direction, following the LogicBlox-style grouped
// representation): when the driver pipeline ends in a star-shaped suffix
// — trailing E/I stages whose target vertices are pairwise non-adjacent
// leaves hanging off the prefix (plan.StarSuffixLen) — the suffix's
// matches above one prefix tuple are exactly the cross-product of the
// leaves' extension sets. The factorizedTail stage therefore computes
// each leaf's set once per prefix tuple (through the same run-grouped
// extendState cache machinery as the vectorized E/I operator, so the
// degree-adaptive kernels and the run-level reuse carry over) and
// represents the result as prefix × set₁ × … × setₖ:
//
//   - CountCtx multiplies set cardinalities — no suffix tuple is ever built.
//   - CountUpToCtx charges each product against a shared atomic budget and
//     stops the run the moment it is exhausted, hitting the cap exactly
//     without unfolding.
//   - RunCtx lazily unfolds the product through the stage's fan-out
//     writer, producing identical tuples in identical order to full
//     enumeration.
//
// The engine's join semantics are homomorphic (query vertices may bind
// the same data vertex), so the product is exact even when two leaves
// share a label; Distinct filtering is a caller-side concern and the
// public layer falls back to full enumeration for it.

// factorizedTail evaluates a star-shaped suffix of leaves as the final
// stage of the driver pipeline's batch chain.
type factorizedTail struct {
	// leaves are run-grouped extension computers, one per suffix stage in
	// chain order; they have no writer (the tail owns the unfold's), only
	// the embedded extendState cache machinery runs.
	leaves []*batchExtendState
	// sets holds the current prefix row's extension set per leaf; entries
	// alias leaf cache storage and stay valid until that leaf's next
	// computation.
	sets [][]graph.VertexID
	// odo is the odometer over the outer leaves (all but the last) during
	// lazy unfolding.
	odo []int
	// out writes the unfolded rows (emit mode only): the prefix row and the
	// outer leaves' values replicated, the last leaf's set spliced.
	out fanOut
}

func newFactorizedTail(rc *runContext, specs []stageSpec, next, inWidth, batch int) *factorizedTail {
	t := &factorizedTail{
		sets: make([][]graph.VertexID, len(specs)),
		odo:  make([]int, len(specs)),
		out:  newFanOut(inWidth+len(specs)-1, oneColumn, batch, next, extendBatches),
	}
	for _, spec := range specs {
		leaf := &batchExtendState{es: newExtendState(spec.(*extendSpec))}
		leaf.reset(rc)
		t.leaves = append(t.leaves, leaf)
	}
	return t
}

func (s *factorizedTail) output() *fanOut { return &s.out }

func (s *factorizedTail) reset(rc *runContext) {
	for _, leaf := range s.leaves {
		leaf.reset(rc)
	}
	for i := range s.sets {
		s.sets[i] = nil
	}
	s.out.batch.clear()
}

// leafSet computes (or serves from the leaf's intersection cache) leaf
// i's extension set for prefix row r. A leaf sees the rows of the batch in
// order but not all of them (an earlier leaf came up empty), which extFor
// allows: its cache and its prefix runs go by the key of the last set
// computed, not by the previous row. An inheriting first leaf is seeded
// with the set the stage below the tail published for r's run (its cursor
// walks them; leaf 0 is computed for every row). A later inheriting leaf
// is seeded with the previous leaf's set, just computed for this row, and
// takes the general path: what it shares from row to row is a buffer the
// previous leaf rewrites.
func (s *factorizedTail) leafSet(w *worker, in *tupleBatch, r, i int) []graph.VertexID {
	leaf := s.leaves[i]
	var ext []graph.VertexID
	if i > 0 && leaf.inherit {
		leaf.gatherVals(in, r)
		ext = leaf.es.extensionSetFor(w, leaf.vals, s.sets[i-1])
	} else {
		ext = leaf.extFor(w, in, r)
	}
	s.sets[i] = ext
	return ext
}

//gf:noalloc
func (s *factorizedTail) pushBatch(w *worker, in *tupleBatch) {
	counting := w.emit == nil
	budget := w.rc.countBudget
	//gf:nopoll bounded by the leaf count
	for _, leaf := range s.leaves {
		leaf.cur.rewind()
	}
	for r := 0; r < in.n; r++ {
		w.profile.FactorizedPrefixes++
		product := int64(1)
		for i := range s.leaves {
			n := int64(len(s.leafSet(w, in, r, i)))
			if n == 0 {
				product = 0
				break
			}
			if product > math.MaxInt64/n {
				// Saturate instead of wrapping: a product this size could
				// never be enumerated anyway, and a Limit budget only needs
				// "at least the remaining allowance".
				product = math.MaxInt64
			} else {
				product *= n
			}
		}
		if product == 0 {
			continue
		}
		if !counting {
			s.unfoldRow(w, in, r)
			continue
		}
		take := product
		if budget != nil {
			rem := budget.Add(-product)
			if rem <= 0 {
				if take += rem; take < 0 {
					take = 0
				}
				w.profile.Matches += take
				w.profile.FactorizedAvoided += take
				panic(stopRun{})
			}
		}
		w.profile.Matches += take
		w.profile.FactorizedAvoided += take
	}
	//gf:nopoll bounded by the leaf count
	for _, leaf := range s.leaves {
		leaf.endRun(w)
	}
}

// unfoldRow lazily materializes prefix row r's cross-product in
// full-enumeration order: the odometer steps the outer leaves (rightmost
// fastest) while each step writes the last leaf's whole set, exactly the
// nested loop order of the non-factorized stage chain.
func (s *factorizedTail) unfoldRow(w *worker, in *tupleBatch, r int) {
	k := len(s.leaves)
	last := s.sets[k-1]
	odo := s.odo[:k-1]
	clear(odo)
	o, pw := &s.out, len(in.cols)
	for {
		for i, j := range odo {
			o.fixed[pw+i] = s.sets[i][j]
		}
		o.write(w, in, r, last, 1, len(last))
		i := k - 2
		for ; i >= 0; i-- {
			odo[i]++
			if odo[i] < len(s.sets[i]) {
				break
			}
			odo[i] = 0
		}
		if i < 0 {
			return
		}
	}
}
