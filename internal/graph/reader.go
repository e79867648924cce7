package graph

// NeighborReader is a reusable, allocation-free front end over
// View.Neighbors for hot loops that look up one adjacency run per tuple
// or per scan vertex (the vectorized scan and the E/I descriptor gather).
//
// Exact-label lookups return the View's internal run directly (no copy,
// no allocation). Wildcard lookups need a k-way merge into caller
// memory: the reader owns everything that takes — the headers of the
// matching partition runs (View.NeighborRuns fills them in), the merge
// cursors and the merge buffer, which is grown to the runs' total length
// before the merge so that it never reallocates mid-flight — and keeps it
// for subsequent lookups, unlike passing a fixed buf to Neighbors, where
// any growth happens in a fresh array the caller cannot safely adopt (the
// returned slice may alias immutable graph storage, which must never be
// written through).
//
// A NeighborReader is not safe for concurrent use; each worker (and each
// descriptor position within an E/I stage) owns its own. The zero value
// is ready.
type NeighborReader struct {
	buf  []VertexID
	runs [][]VertexID
	idx  []int
}

// Read returns the (eLabel, nLabel) neighbour run of v in direction dir,
// sorted by ID. The result is valid until the next Read on the same
// reader and must not be modified (it may alias graph storage).
//
//gf:noalloc
func (r *NeighborReader) Read(g View, v VertexID, dir Direction, eLabel, nLabel Label) []VertexID {
	if eLabel != WildcardLabel && nLabel != WildcardLabel {
		// Exact lookups never touch the scratch: the View returns its
		// internal sorted run.
		return g.Neighbors(v, dir, eLabel, nLabel, nil)
	}
	return r.merged(g, v, dir, eLabel, nLabel)
}

// Forget drops the run headers wildcard reads left behind, which point
// into the graph they read, and keeps the reader's own buffers: a reader
// that outlives the graph keeps none of it reachable.
func (r *NeighborReader) Forget() { clear(r.runs[:cap(r.runs)]) }

// merged is the wildcard read: the matching partition runs of v, merged
// into the reader's buffer unless there is at most one.
func (r *NeighborReader) merged(g View, v VertexID, dir Direction, eLabel, nLabel Label) []VertexID {
	r.runs = g.NeighborRuns(v, dir, eLabel, nLabel, r.runs[:0])
	switch len(r.runs) {
	case 0:
		return r.buf[:0]
	case 1:
		return r.runs[0]
	}
	need := 0
	for _, run := range r.runs {
		need += len(run)
	}
	if need > cap(r.buf) {
		r.buf = make([]VertexID, 0, need+need/2) //gf:allowalloc guarded warm-up growth, amortized across lookups (50% headroom)
	}
	if len(r.runs) > cap(r.idx) {
		r.idx = make([]int, len(r.runs)) //gf:allowalloc grows to the most partitions one lookup matched, then reused
	}
	r.buf = mergeSortedRuns(r.runs, r.buf, r.idx[:cap(r.idx)])
	return r.buf
}

// MergedNeighbors is View.Neighbors for a wildcard label, over the view's
// own NeighborRuns: what both views' Neighbors methods return when asked
// for one. It merges into buf (which may be nil) when more than one
// partition matches.
//
//gf:allowalloc the run headers and cursors are local to the call: loops that read wildcard adjacency per tuple keep a NeighborReader
func MergedNeighbors(g View, v VertexID, dir Direction, eLabel, nLabel Label, buf []VertexID) []VertexID {
	r := NeighborReader{buf: buf}
	return r.merged(g, v, dir, eLabel, nLabel)
}
