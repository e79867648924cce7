package graph

// SetMaxEntries lowers the limit on one direction's neighbour and
// directory entries for a test; the returned func restores it.
func SetMaxEntries(n uint64) (restore func()) {
	old := maxEntries
	maxEntries = n
	return func() { maxEntries = old }
}

// Stride returns how many directory slots each vertex owns in g's
// strided form in dir, or 0 when the direction is in the sparse form.
func Stride(g *Graph, dir Direction) int { return int(g.Adjacency(dir).k) }

// DirectoryBytes returns what g's directory in dir holds in the form it
// is in: positions and labels, and in the sparse form the first index.
func DirectoryBytes(g *Graph, dir Direction) int {
	a := g.Adjacency(dir)
	return 4 * (len(a.start) + len(a.keys) + len(a.first))
}
