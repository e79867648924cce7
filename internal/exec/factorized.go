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
// extendState cache machinery as the vectorized E/I operator, so PR-4's
// degree-adaptive kernels and PR-5's run-level reuse carry over) and
// represents the result as prefix × set₁ × … × setₖ:
//
//   - CountCtx multiplies set cardinalities — no suffix tuple is ever built.
//   - CountUpToCtx charges each product against a shared atomic budget and
//     stops the run the moment it is exhausted, hitting the cap exactly
//     without unfolding.
//   - RunCtx lazily unfolds the product column-major into the
//     ordinary batch emission path, producing identical tuples in
//     identical order to full enumeration.
//
// The engine's join semantics are homomorphic (query vertices may bind
// the same data vertex), so the product is exact even when two leaves
// share a label; Distinct filtering is a caller-side concern and the
// public layer falls back to full enumeration for it.

// factorizedTail evaluates a star-shaped suffix of leaves as the final
// stage of the driver pipeline's batch chain.
type factorizedTail struct {
	next        int
	prefixWidth int
	// leaves are run-grouped extension computers, one per suffix stage in
	// chain order; their out batches are unused (the tail owns the unfold
	// batch), only the embedded extendState cache machinery runs.
	leaves []*batchExtendState
	// sets holds the current prefix row's extension set per leaf; entries
	// alias leaf cache storage and stay valid until that leaf's next
	// computation.
	sets [][]graph.VertexID
	// odo is the odometer over the outer leaves (all but the last) during
	// lazy unfolding.
	odo []int
	// out is the lazily-unfolded output batch (emit mode only).
	out *tupleBatch
}

func newFactorizedTail(rc *runContext, specs []stageSpec, next, inWidth, batch int) *factorizedTail {
	t := &factorizedTail{
		next:        next,
		prefixWidth: inWidth,
		sets:        make([][]graph.VertexID, len(specs)),
		odo:         make([]int, len(specs)),
		out:         newTupleBatch(inWidth+len(specs), batch),
	}
	for _, spec := range specs {
		leaf := &batchExtendState{es: newExtendState(spec.(*extendSpec))}
		leaf.reset(rc)
		t.leaves = append(t.leaves, leaf)
	}
	return t
}

func (s *factorizedTail) outWidth() int { return s.prefixWidth + len(s.leaves) }

func (s *factorizedTail) reset(rc *runContext) {
	for _, leaf := range s.leaves {
		leaf.reset(rc)
	}
	for i := range s.sets {
		s.sets[i] = nil
	}
	s.out.clear()
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

// unfoldRow lazily materializes prefix row r's cross-product into the
// output batch, column-major and in full-enumeration order: the
// odometer steps the outer leaves (rightmost fastest) while the last
// leaf's whole set is spliced per step, exactly the nested loop order of
// the non-factorized stage chain.
func (s *factorizedTail) unfoldRow(w *worker, in *tupleBatch, r int) {
	k := len(s.leaves)
	last := s.sets[k-1]
	odo := s.odo[:k-1]
	for i := range odo {
		odo[i] = 0
	}
	for {
		s.fillRun(w, in, r, last)
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

// fillRun appends one odometer step's rows — prefix and outer-leaf
// values replicated, the last leaf's set spliced — chunked at batch
// capacity.
func (s *factorizedTail) fillRun(w *worker, in *tupleBatch, r int, last []graph.VertexID) {
	out, pw := s.out, s.prefixWidth
	lastCol := pw + len(s.leaves) - 1
	off := 0
	for off < len(last) {
		k := len(last) - off
		if space := w.batchSize - out.n; k > space {
			k = space
		}
		for c := 0; c < pw; c++ {
			out.cols[c] = appendFill(out.cols[c], in.cols[c][r], k)
		}
		for i := 0; i < len(s.leaves)-1; i++ {
			out.cols[pw+i] = appendFill(out.cols[pw+i], s.sets[i][s.odo[i]], k)
		}
		out.cols[lastCol] = append(out.cols[lastCol], last[off:off+k]...)
		out.n += k
		off += k
		if out.n >= w.batchSize {
			w.profile.Batches.Extend++
			w.dispatchBatch(s.next, out)
			out.clear()
		}
	}
}

func (s *factorizedTail) flush(w *worker) {
	if s.out.n > 0 {
		w.profile.Batches.Extend++
		w.dispatchBatch(s.next, s.out)
		s.out.clear()
	}
}
