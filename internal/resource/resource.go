// Package resource implements per-query memory budgets and the
// process-wide governor that apportions a global ceiling across
// in-flight queries.
//
// A Budget meters the real allocators of one query — hash-join build
// tables, factorized extension-set caches, batch checkouts from worker
// pools — via Reserve calls at the allocation sites.
// Reserve never blocks and never allocates: it adds to two atomic
// counters (the query's own and, when a Governor is attached, the
// process pool) and latches a sticky exceeded flag the engine's
// amortized //gf:pollpoint checks observe. The query then unwinds
// through its normal early-termination machinery and surfaces a
// structured *BudgetError wrapping ErrBudgetExceeded, instead of the
// process OOMing.
//
// Accounting is intentionally coarse (bytes of tuple storage, not
// malloc-exact): the point is a bounded blast radius per query under a
// shared ceiling, not an allocator shadow. Reservations are returned
// wholesale by Close when the query finishes — per-site releases would
// buy precision the abort check does not need at the cost of hot-path
// traffic on the shared pool.
package resource

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrBudgetExceeded is the sentinel wrapped by every budget abort.
// Callers classify with errors.Is(err, resource.ErrBudgetExceeded).
var ErrBudgetExceeded = errors.New("resource: query memory budget exceeded")

// BudgetError is the structured budget-abort error: which ceiling was
// hit and how much had been reserved when it was.
type BudgetError struct {
	// Limit is the per-query ceiling in bytes (0 when only the global
	// ceiling was hit).
	Limit int64
	// Reserved is the query's reserved bytes at abort time.
	Reserved int64
	// Global reports that the process-wide governor pool, not the
	// per-query limit, was exhausted.
	Global bool
}

func (e *BudgetError) Error() string {
	if e.Global {
		return fmt.Sprintf("resource: query memory budget exceeded: global ceiling exhausted with %d bytes reserved by this query", e.Reserved)
	}
	return fmt.Sprintf("resource: query memory budget exceeded: %d bytes reserved, limit %d", e.Reserved, e.Limit)
}

// Unwrap makes errors.Is(err, ErrBudgetExceeded) hold.
func (e *BudgetError) Unwrap() error { return ErrBudgetExceeded }

// Governor is the process-wide memory pool. Budgets attached to it
// reserve from the shared ceiling first-come-first-served; a query that
// cannot get its next reservation aborts (Global=true) even if its own
// per-query limit still has headroom.
type Governor struct {
	limit int64
	used  atomic.Int64
}

// NewGovernor returns a governor with the given global ceiling in
// bytes. limit <= 0 means unlimited (the governor only tracks usage).
func NewGovernor(limit int64) *Governor {
	return &Governor{limit: limit}
}

// Limit reports the global ceiling (0 = unlimited).
func (g *Governor) Limit() int64 {
	if g == nil {
		return 0
	}
	return g.limit
}

// InUse reports the bytes currently reserved across all live budgets.
func (g *Governor) InUse() int64 {
	if g == nil {
		return 0
	}
	return g.used.Load()
}

// reserve claims n bytes from the pool, reporting false (with the claim
// rolled back) when the ceiling would be crossed.
func (g *Governor) reserve(n int64) bool {
	if g == nil {
		return true
	}
	if used := g.used.Add(n); g.limit > 0 && used > g.limit {
		g.used.Add(-n)
		return false
	}
	return true
}

// release returns n bytes to the pool.
func (g *Governor) release(n int64) {
	if g != nil && n != 0 {
		g.used.Add(-n)
	}
}

// Budget is one query's memory allowance. The zero value is unusable;
// a nil *Budget is valid everywhere and means "unmetered". Reserve and
// Exceeded are safe for concurrent use by the query's workers.
type Budget struct {
	limit    int64
	gov      *Governor
	used     atomic.Int64
	exceeded atomic.Bool
	global   atomic.Bool // the abort was the governor's, not ours
	closed   atomic.Bool
}

// NewBudget returns a budget with the given per-query ceiling in bytes
// (<= 0 means no per-query limit) drawing on gov (nil means no global
// ceiling). A budget with neither limit still meters usage, which keeps
// the threading uniform; callers that want zero overhead pass a nil
// *Budget instead.
func NewBudget(limit int64, gov *Governor) *Budget {
	return &Budget{limit: limit, gov: gov}
}

// Reserve claims n more bytes for the query. It reports false — and
// latches the sticky exceeded state — when the per-query or global
// ceiling is crossed; the claim that crossed a ceiling is rolled back
// so accounting stays exact for the survivors. Reserving on an already
// exceeded budget reports false immediately. n <= 0 is a no-op.
func (b *Budget) Reserve(n int64) bool {
	if b == nil {
		return true
	}
	if n <= 0 {
		return !b.exceeded.Load()
	}
	if b.exceeded.Load() {
		return false
	}
	if used := b.used.Add(n); b.limit > 0 && used > b.limit {
		b.used.Add(-n)
		b.exceeded.Store(true)
		return false
	}
	if !b.gov.reserve(n) {
		b.used.Add(-n)
		b.global.Store(true)
		b.exceeded.Store(true)
		return false
	}
	return true
}

// Exceeded reports whether any Reserve has failed. It is the cheap
// (single atomic load) check the engine's pollpoints use.
func (b *Budget) Exceeded() bool {
	return b != nil && b.exceeded.Load()
}

// Used reports the bytes currently reserved by the query.
func (b *Budget) Used() int64 {
	if b == nil {
		return 0
	}
	return b.used.Load()
}

// Err returns the structured abort error when the budget has been
// exceeded, nil otherwise.
func (b *Budget) Err() error {
	if b == nil || !b.exceeded.Load() {
		return nil
	}
	return &BudgetError{Limit: b.limit, Reserved: b.used.Load(), Global: b.global.Load()}
}

// Close returns every reserved byte to the governor. Idempotent; the
// budget must not be reserved against afterwards. Nil-safe.
func (b *Budget) Close() {
	if b == nil || !b.closed.CompareAndSwap(false, true) {
		return
	}
	b.gov.release(b.used.Load())
}
