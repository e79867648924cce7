package graph

// NeighborReader is a reusable, allocation-free front end over
// View.Neighbors for hot loops that look up one adjacency run per tuple
// or per scan vertex (the vectorized scan and the E/I descriptor gather).
//
// Exact-label lookups return the View's internal run directly (no copy,
// no allocation). Wildcard lookups need a k-way merge into caller
// memory; the reader owns that buffer and pre-grows it from the vertex's
// degree before the merge, so the merge never reallocates mid-flight and
// the grown buffer is retained for subsequent lookups — unlike passing a
// fixed buf to Neighbors, where any growth happens in a fresh array the
// caller cannot safely adopt (the returned slice may alias immutable
// graph storage, which must never be written through).
//
// A NeighborReader is not safe for concurrent use; each worker (and each
// descriptor position within an E/I stage) owns its own. The zero value
// is ready.
type NeighborReader struct {
	buf []VertexID
}

// Read returns the (eLabel, nLabel) neighbour run of v in direction dir,
// sorted by ID. The result is valid until the next Read on the same
// reader and must not be modified (it may alias graph storage).
//
//gf:noalloc
func (r *NeighborReader) Read(g View, v VertexID, dir Direction, eLabel, nLabel Label) []VertexID {
	if eLabel != WildcardLabel && nLabel != WildcardLabel {
		// Exact lookups never touch buf: the View returns its internal
		// sorted run.
		return g.Neighbors(v, dir, eLabel, nLabel, nil)
	}
	if need := g.Degree(v, dir, eLabel, nLabel); need > cap(r.buf) {
		r.buf = make([]VertexID, 0, need+need/2) //gf:allowalloc guarded warm-up growth, amortized across lookups (25% headroom)
	}
	return g.Neighbors(v, dir, eLabel, nLabel, r.buf)
}

// AppendTo appends the (eLabel, nLabel) neighbour run of v to dst and
// returns the extended slice — the columnar fill primitive of the batch
// scan: the destination column is the buffer, so exact-label runs land
// with one copy and wildcard merges write through the reader's scratch
// first. dst never aliases graph storage afterwards.
//
//gf:noalloc
func (r *NeighborReader) AppendTo(g View, v VertexID, dir Direction, eLabel, nLabel Label, dst []VertexID) []VertexID {
	return append(dst, r.Read(g, v, dir, eLabel, nLabel)...) //gf:allowalloc appends into the caller-owned column, whose growth the caller amortizes by reuse
}
