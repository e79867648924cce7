package graph

import (
	"strings"
	"testing"
)

// oneRun returns a one-vertex copy holding the run labelled (e, 0) of ids.
func oneRun(e Label, ids ...VertexID) *Adjacency {
	a := &Adjacency{}
	a.CopyVertex(NoRuns(), 0)
	for _, x := range ids {
		a.Insert(e, 0, x)
	}
	return a
}

func TestAssemblerRejectsBadInput(t *testing.T) {
	if _, err := NewAssembler([]Label{0, WildcardLabel}, 0).Finish(); err == nil {
		t.Error("wildcard vertex label accepted")
	}
	asm := NewAssembler([]Label{0, 0}, 1)
	asm.AppendRange(Forward, oneRun(WildcardLabel, 1), 0, 1, 0)
	asm.AppendRange(Backward, oneRun(WildcardLabel, 0), 0, 1, 1)
	if _, err := asm.Finish(); err == nil {
		t.Error("wildcard edge label accepted")
	}
	asm = NewAssembler([]Label{0, 0}, 1)
	asm.AppendRange(Forward, oneRun(0, 1), 0, 1, 0)
	if _, err := asm.Finish(); err == nil {
		t.Error("forward edge without its backward twin accepted")
	}
}

// TestStridedFits: the strided form is picked exactly when its n·k+1
// positions and k slot labels take no more bytes than the sparse form and
// its slots fit the entry limit, and the comparison holds at the extremes,
// where n·k overflows.
func TestStridedFits(t *testing.T) {
	const labels = 0xFFFF // the most a Label can count, the wildcard excluded
	for _, c := range []struct {
		n, k, entries uint64
		want          bool
	}{
		{0, 1, 0, true},  // the empty graph: 8 B either way
		{4, 3, 5, true},  // 4·13 + 4·3 B against 4·6 + 4·5 + 4·5: the tie goes to strided
		{4, 4, 5, false}, // 4·17 + 4·4 B
		{4, 1, 4, true},  // unlabelled: 4 B a vertex against 12
		{6, 0x4002, 10, false},
		{1<<32 - 1, labels * labels, 1<<32 - 1, false},
		{1<<32 - 1, 1, 1<<32 - 1, true},
		{2, 2_200_000_000, 1<<32 - 1, false}, // small enough, but past the entry limit
	} {
		if got := stridedFits(c.n, c.k, c.entries); got != c.want {
			t.Errorf("stridedFits(n=%d, k=%d, entries=%d) = %v, want %v", c.n, c.k, c.entries, got, c.want)
		}
	}
}

// TestEntryLimit: directory positions are uint32, so Build and Finish (and
// with Finish the live store's fold) refuse a direction holding more
// neighbour entries than that, naming the limit, rather than wrapping.
func TestEntryLimit(t *testing.T) {
	defer SetMaxEntries(4)()
	b := NewBuilder(4)
	for v := VertexID(0); v < 4; v++ {
		b.AddEdge(v, (v+1)%4, 0)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("4 edges at a limit of 4: %v", err)
	}
	b.AddEdge(0, 2, 0)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "limit of 4") {
		t.Fatalf("Build of 5 edges at a limit of 4: err = %v", err)
	}
	asm := NewAssembler(make([]Label, 4), 5)
	for _, dir := range []Direction{Forward, Backward} {
		asm.AppendRange(dir, g.Adjacency(dir), 0, 2, 0)
		asm.AppendRange(dir, oneRun(0, 3, 1, 0), 0, 1, 2)
	}
	if _, err := asm.Finish(); err == nil || !strings.Contains(err.Error(), "limit of 4") {
		t.Fatalf("Finish of 5 edges at a limit of 4: err = %v", err)
	}
}
