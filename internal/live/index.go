package live

import (
	"unsafe"

	"graphflow/internal/graph"
)

// The overlay index maps a mutated vertex to its private adjacency. It is
// a path-copying radix trie over the vertex ID: forking it for the next
// epoch copies two words, and a batch copies only the nodes on the paths
// to the vertices it touches. Every node and every vadj carries the epoch
// that created it; a writer building epoch e may mutate a node stamped e
// in place and must copy any other first. A copied ancestor is stamped
// with its copier's epoch, so a node's stamp is never older than any
// stamp beneath it — which is what lets walk prune whole subtrees.
const (
	indexBits = 4 // fan-out 16: a 136-byte node, five levels to a million vertices
	indexFan  = 1 << indexBits
	indexMask = indexFan - 1
)

// node is one trie level. kids holds *node above the bottom level and
// *vadj at it; the level is implied by the depth of the walk, and only
// this file converts the pointers.
type node struct {
	stamp uint64
	kids  [indexFan]unsafe.Pointer
}

// index is one direction's trie. The zero value is the empty index. The
// root covers IDs below indexFan << shift.
type index struct {
	root  *node
	shift uint
}

// get returns v's overlay adjacency, or nil when v reads from the base.
//
//gf:noalloc
func (ix index) get(v graph.VertexID) *vadj {
	n := ix.root
	if n == nil || uint64(v)>>ix.shift >= indexFan {
		return nil
	}
	for s := ix.shift; s > 0; s -= indexBits {
		if n = (*node)(n.kids[(v>>s)&indexMask]); n == nil {
			return nil
		}
	}
	return (*vadj)(n.kids[v&indexMask])
}

// slot returns the address of v's entry in a trie private to epoch,
// growing the root and copying every node on the path that an older epoch
// still shares.
func (ix *index) slot(v graph.VertexID, epoch uint64) **vadj {
	if ix.root == nil {
		for ix.shift = 0; uint64(v)>>ix.shift >= indexFan; ix.shift += indexBits {
		}
		ix.root = &node{stamp: epoch}
	}
	for uint64(v)>>ix.shift >= indexFan { // an appended vertex outgrew the root
		r := &node{stamp: epoch}
		r.kids[0] = unsafe.Pointer(ix.root)
		ix.root, ix.shift = r, ix.shift+indexBits
	}
	if ix.root.stamp != epoch {
		c := *ix.root
		c.stamp = epoch
		ix.root = &c
	}
	n := ix.root
	for s := ix.shift; s > 0; s -= indexBits {
		p := &n.kids[(v>>s)&indexMask]
		c := (*node)(*p)
		if c == nil {
			c = &node{stamp: epoch}
			*p = unsafe.Pointer(c)
		} else if c.stamp != epoch {
			cc := *c
			cc.stamp = epoch
			c = &cc
			*p = unsafe.Pointer(c)
		}
		n = c
	}
	return (**vadj)(unsafe.Pointer(&n.kids[v&indexMask]))
}

// walk calls fn for every entry stamped after epoch, in vertex order;
// stamps start at 1, so walk(0, fn) visits them all.
func (ix index) walk(after uint64, fn func(graph.VertexID, *vadj)) {
	if ix.root != nil {
		ix.root.walk(ix.shift, 0, after, fn)
	}
}

func (n *node) walk(shift uint, prefix graph.VertexID, after uint64, fn func(graph.VertexID, *vadj)) {
	if n.stamp <= after {
		return
	}
	for i, k := range n.kids {
		v := prefix | graph.VertexID(i)<<shift
		switch {
		case k == nil:
		case shift > 0:
			(*node)(k).walk(shift-indexBits, v, after, fn)
		case (*vadj)(k).stamp > after:
			fn(v, (*vadj)(k))
		}
	}
}
