package graph

// SetMaxEntries lowers the limit on one direction's neighbour and
// directory entries for a test; the returned func restores it.
func SetMaxEntries(n uint64) (restore func()) {
	old := maxEntries
	maxEntries = n
	return func() { maxEntries = old }
}

// OneEntryForm reports whether g's directory in dir holds exactly one
// entry per vertex (first is nil).
func OneEntryForm(g *Graph, dir Direction) bool { return g.adj(dir).first == nil }
