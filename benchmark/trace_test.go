package main

import "testing"

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	// root [0,100]
	//   a [10,40]
	//     a1 [15,25]
	//   b [30,60]   overlaps a by 10
	//   c [90,120]  sticks out of the root by 20
	spans := []span{
		{ID: 0, Name: "server.read", Start: 0, End: 100, Parent: -1},
		{ID: 1, Name: "optimizer.optimize", Start: 10, End: 40, Parent: 0},
		{ID: 2, Name: "catalogue.build", Start: 15, End: 25, Parent: 1},
		{ID: 3, Name: "exec.run", Start: 30, End: 60, Parent: 0},
		{ID: 4, Name: "exec.compile", Start: 90, End: 120, Parent: 0},
	}
	self := selfTimes(spans)
	want := []int64{
		100 - (30 + 20 + 10), // a, the part of b after a, the part of c inside the root
		30 - 10,
		10,
		30,
		30,
	}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}

	byLayer, total := layerSelfTimes(spans, nil)
	if total != 100 {
		t.Errorf("total of root spans = %d, want 100", total)
	}
	if byLayer["exec"] != 60 || byLayer["optimizer"] != 20 || byLayer["catalogue"] != 10 || byLayer["server"] != 40 {
		t.Errorf("self time by layer = %v", byLayer)
	}

	none, _ := layerSelfTimes(spans, func(root span) bool { return root.Name != "server.read" })
	if len(none) != 0 {
		t.Errorf("filtered-out op still contributed: %v", none)
	}
}

func TestAdjustSpansScalesDurationsAndKeepsNesting(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "bench.setup", Start: 0, End: 50, Parent: -1},
		{ID: 1, Name: "server.read", Start: 1000, End: 2000, Parent: -1},
		{ID: 2, Name: "exec.run", Start: 1000, End: 1600, Parent: 1},
	}
	out := adjustSpans(spans, []spanScale{{0, 1, 2}, {1, 3, 0.5}})
	if d := out[0].End - out[0].Start; d != 100 {
		t.Errorf("set-up span lasts %d after doubling, want 100", d)
	}
	if d := out[2].End - out[2].Start; d != 300 {
		t.Errorf("child lasts %d after halving, want 300", d)
	}
	if out[2].Start < out[1].Start || out[2].End > out[1].End {
		t.Errorf("child %v left its parent %v", out[2], out[1])
	}
	if spans[1].Start != 1000 {
		t.Error("adjustSpans changed its input")
	}
}

func TestLayoutPlacesChildrenBackToBack(t *testing.T) {
	tr := newTracer()
	root := tr.add("server.read", 100, 500, -1, 0)
	l := &layout{tr: tr, parent: root, op: 0, cursor: 100}
	l.child("query.parse", 50)
	run := l.child("exec.run", 200)
	run.child("exec.stage_scan", 30)
	var nilLayout *layout
	if nilLayout.child("x", 1) != nil || len(tr.spans) != 4 {
		t.Fatalf("a nil layout must record nothing; have %d spans", len(tr.spans))
	}
	if s := tr.spans[2]; s.Start != 150 || s.End != 350 || s.Parent != root {
		t.Errorf("second child placed at %+v", s)
	}
	if s := tr.spans[3]; s.Start != 150 || s.End != 180 || s.Parent != tr.spans[2].ID {
		t.Errorf("grandchild placed at %+v", s)
	}
}
