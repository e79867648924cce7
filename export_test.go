package graphflow

// SetRefreshHook installs f to run on the background statistics
// refresher's goroutine before it builds, letting external tests hold a
// refresh in flight (and with it the published generation).
func (db *DB) SetRefreshHook(f func()) { db.refreshHook = f }

// planUncached parses, canonicalizes, plans and compiles pattern without
// the plan cache: what a cache miss costs.
func (db *DB) planUncached(pattern string) error {
	_, err := db.prepare(pattern, false, true)
	return err
}
