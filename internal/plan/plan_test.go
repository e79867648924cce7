package plan

import (
	"strings"
	"testing"

	"graphflow/internal/graph"
	"graphflow/internal/query"
)

// wcoPlan builds the WCO chain for q following the vertex order given.
func wcoPlan(t *testing.T, q *query.Graph, order []int) *Plan {
	t.Helper()
	var e *query.Edge
	for i := range q.Edges {
		ed := q.Edges[i]
		if (ed.From == order[0] && ed.To == order[1]) || (ed.From == order[1] && ed.To == order[0]) {
			e = &ed
			break
		}
	}
	if e == nil {
		t.Fatalf("first two vertices not adjacent")
	}
	var node Node = NewScan(q, *e)
	for _, v := range order[2:] {
		ext, err := NewExtend(q, node, v)
		if err != nil {
			t.Fatalf("NewExtend(a%d): %v", v+1, err)
		}
		node = ext
	}
	return &Plan{Query: q, Root: node}
}

func TestWCOPlanStructure(t *testing.T) {
	q := query.Q1()
	p := wcoPlan(t, q, []int{0, 1, 2})
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !p.IsWCO() || p.Kind() != "wco" {
		t.Errorf("kind = %q, want wco", p.Kind())
	}
	ext := p.Root.(*Extend)
	if len(ext.Descriptors) != 2 {
		t.Fatalf("triangle close should intersect 2 lists, got %d", len(ext.Descriptors))
	}
	// a1->a3 gives forward list of slot 0; a2->a3 forward of slot 1.
	for _, d := range ext.Descriptors {
		if d.Dir != graph.Forward {
			t.Errorf("asymmetric triangle close should use forward lists, got %v", d)
		}
	}
}

func TestExtendDirections(t *testing.T) {
	// Query a1->a2, a3->a2: extending {a1,a2} by a3 uses a2's backward list.
	q := query.MustParse("a1->a2, a3->a2")
	p := wcoPlan(t, q, []int{0, 1, 2})
	ext := p.Root.(*Extend)
	if len(ext.Descriptors) != 1 || ext.Descriptors[0].Dir != graph.Backward {
		t.Errorf("descriptors = %v, want one backward", ext.Descriptors)
	}
	if ext.Descriptors[0].TupleIdx != 1 {
		t.Errorf("descriptor should read slot 1 (a2), got %d", ext.Descriptors[0].TupleIdx)
	}
}

func TestExtendErrors(t *testing.T) {
	q := query.Q1()
	scan := NewScan(q, q.Edges[0]) // a1->a2
	if _, err := NewExtend(q, scan, 0); err == nil {
		t.Error("extending by an already-matched vertex should fail")
	}
	q2 := query.Q11() // path a1..a5
	scan2 := NewScan(q2, q2.Edges[0])
	if _, err := NewExtend(q2, scan2, 4); err == nil {
		t.Error("extending by a non-adjacent vertex should fail")
	}
}

func TestHashJoinStructure(t *testing.T) {
	q := query.Q8()                             // two triangles sharing a3
	left := wcoPlan(t, q, []int{0, 1, 2}).Root  // a1,a2,a3 triangle
	right := wcoPlan(t, q, []int{2, 3, 4}).Root // a3,a4,a5 triangle
	hj, err := NewHashJoin(left, right)
	if err != nil {
		t.Fatalf("NewHashJoin: %v", err)
	}
	if len(hj.JoinVertices) != 1 || hj.JoinVertices[0] != 2 {
		t.Errorf("join vertices = %v, want [a3]", hj.JoinVertices)
	}
	p := &Plan{Query: q, Root: hj}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if p.Kind() != "hybrid" {
		t.Errorf("kind = %q, want hybrid (joins + intersections)", p.Kind())
	}
	if len(hj.Out()) != 5 {
		t.Errorf("output width = %d, want 5", len(hj.Out()))
	}
	// Output must contain each query vertex exactly once.
	seen := map[int]bool{}
	for _, v := range hj.Out() {
		if seen[v] {
			t.Errorf("vertex a%d duplicated in output", v+1)
		}
		seen[v] = true
	}
}

func TestHashJoinErrors(t *testing.T) {
	q := query.Q8()
	left := wcoPlan(t, q, []int{0, 1, 2}).Root
	if _, err := NewHashJoin(left, left); err == nil {
		t.Error("join of identical covers should fail")
	}
	sub := wcoPlan(t, q, []int{0, 1}).Root // a1,a2 edge: subset of left
	if _, err := NewHashJoin(left, sub); err == nil {
		t.Error("join where one side covers the other should fail")
	}
}

func TestValidateRejectsPartialRoot(t *testing.T) {
	q := query.Q1()
	scan := NewScan(q, q.Edges[0])
	p := &Plan{Query: q, Root: scan}
	if err := p.Validate(); err == nil {
		t.Error("root not covering query should fail validation")
	}
}

func TestDescribe(t *testing.T) {
	q := query.Q1()
	p := wcoPlan(t, q, []int{0, 1, 2})
	d := p.Describe()
	if !strings.Contains(d, "SCAN") || !strings.Contains(d, "EXTEND") {
		t.Errorf("Describe output missing operators:\n%s", d)
	}
}

func TestKindBJ(t *testing.T) {
	// Path a1->a2->a3->a4: bushy join of two edges is a BJ plan.
	q := query.MustParse("a1->a2, a2->a3, a3->a4")
	left := NewScan(q, q.Edges[0])
	right := NewScan(q, q.Edges[2])
	mid, err := NewExtend(q, left, 2) // a1,a2 extend to a3 (single list)
	if err != nil {
		t.Fatal(err)
	}
	hj, err := NewHashJoin(right, mid)
	if err != nil {
		t.Fatalf("NewHashJoin: %v", err)
	}
	p := &Plan{Query: q, Root: hj}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if p.Kind() != "bj" {
		t.Errorf("kind = %q, want bj", p.Kind())
	}
}

// TestExtendInherited pins the carried-set rule at the plan level: which
// descriptors the child's extension set covers, and the ↑ rendering.
func TestExtendInherited(t *testing.T) {
	clique := query.MustParse("a->b, a->c, b->c, a->d, b->d, c->d")
	top := wcoPlan(t, clique, []int{0, 1, 2, 3}).Root.(*Extend)
	covered := top.Inherited()
	if covered == 0 {
		t.Fatalf("4-clique's last extension does not inherit: %s", top)
	}
	for i, d := range top.Descriptors {
		if want := d.TupleIdx < 2; covered&(1<<uint(i)) != 0 != want {
			t.Errorf("descriptor %s covered = %v, want %v", d, !want, want)
		}
	}
	if got, want := top.String(), "EXTEND(a4 <- ↑∩(2,fwd))"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if mid := top.Child.(*Extend); mid.Inherited() != 0 || strings.Contains(mid.String(), "↑") {
		t.Errorf("extension above a scan inherits: %s", mid)
	}
	// The diamond-X's last extension reads {b, c}: it shares b with the
	// triangle close below it but does not contain it.
	diamond := wcoPlan(t, query.Q4(), []int{0, 1, 2, 3}).Root.(*Extend)
	if diamond.Inherited() != 0 {
		t.Errorf("diamond-X's last extension inherits: %s", diamond)
	}
}
