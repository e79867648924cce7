package main

import (
	"bytes"
	"testing"
)

// schedule flattens the first rounds of a workload into the bytes the server
// would receive.
func schedule(t *testing.T, name string, seed int64, rounds int) []byte {
	t.Helper()
	w, err := newWorkload(name, seed, true)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, h := range w.hot {
		buf.WriteString(h.name + " " + h.pattern + "\n")
	}
	for r := 0; r < rounds; r++ {
		for c, ops := range w.round(r) {
			for _, o := range ops {
				buf.WriteString(o.path)
				buf.WriteByte(byte('0' + c))
				buf.Write(o.body)
				buf.WriteByte('\n')
			}
		}
	}
	return buf.Bytes()
}

func TestSameSeedSameSchedule(t *testing.T) {
	for _, name := range workloadNames() {
		a, b := schedule(t, name, 7, 3), schedule(t, name, 7, 3)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two generations from seed 7 differ", name)
		}
		if c := schedule(t, name, 8, 3); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generate the same schedule", name)
		}
	}
}

func TestColdPlanPoolIsDistinctAndBalanced(t *testing.T) {
	w, err := newWorkload("cold-plan", 3, true)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, p := range w.pool {
		if seen[p.pattern] {
			t.Errorf("pattern %q sampled twice", p.pattern)
		}
		seen[p.pattern] = true
		if p.want < 1 || p.want > coldPlanLimit {
			t.Errorf("pattern %q expects %d matches; sampled patterns have 1..%d", p.pattern, p.want, coldPlanLimit)
		}
	}
	if len(w.pool)%10 != 0 {
		t.Errorf("pool of %d is not a whole number of ten-op mixes", len(w.pool))
	}
}

func TestIngestHeavyKeepsStoreSizeSteady(t *testing.T) {
	w, err := newWorkload("ingest-heavy", 5, true)
	if err != nil {
		t.Fatal(err)
	}
	base := len(w.edges)
	var last op
	for r := 0; r < 3; r++ {
		ops := w.round(r)[0]
		last = ops[len(ops)-1]
	}
	if len(last.dels) == 0 {
		t.Fatal("after three rounds batches still delete nothing")
	}
	if grown := last.wantEdges - base; grown != 64*32 {
		t.Errorf("store grew by %d edges, want the 64-batch lag of 32 edges each", grown)
	}
	if len(w.shadow) != last.wantEdges {
		t.Errorf("shadow holds %d edges, last batch expects %d", len(w.shadow), last.wantEdges)
	}
}
