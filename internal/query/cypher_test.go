package query

import (
	"testing"
)

func TestParseCypherTriangle(t *testing.T) {
	q, err := ParseCypher("MATCH (a)-->(b), (b)-->(c), (a)-->(c) RETURN count(*)")
	if err != nil {
		t.Fatal(err)
	}
	if !isIsomorphic(q, Q1()) {
		t.Errorf("cypher triangle not isomorphic to Q1: %s", q)
	}
}

func TestParseCypherPathChain(t *testing.T) {
	// One path expression with chained relationships.
	q, err := ParseCypher("MATCH (a)-->(b)-->(c)-->(d)")
	if err != nil {
		t.Fatal(err)
	}
	if q.NumVertices() != 4 || len(q.Edges) != 3 {
		t.Fatalf("chain parsed to %d/%d", q.NumVertices(), len(q.Edges))
	}
}

func TestParseCypherLabelsAndDirections(t *testing.T) {
	q, err := ParseCypher("MATCH (a:1)-[:2]->(b), (b)<-[e:3]-(c)")
	if err != nil {
		t.Fatal(err)
	}
	if q.Vertices[q.VertexIndex("a")].Label != 1 {
		t.Errorf("vertex label lost")
	}
	var e1, e2 *Edge
	for i := range q.Edges {
		switch q.Edges[i].Label {
		case 2:
			e1 = &q.Edges[i]
		case 3:
			e2 = &q.Edges[i]
		}
	}
	if e1 == nil || e2 == nil {
		t.Fatalf("edge labels lost: %v", q.Edges)
	}
	// (b)<-[:3]-(c) means c->b.
	if e2.From != q.VertexIndex("c") || e2.To != q.VertexIndex("b") {
		t.Errorf("reversed relationship parsed wrong: %+v", e2)
	}
}

func TestParseCypherReversedArrowNoLabel(t *testing.T) {
	q, err := ParseCypher("MATCH (a)<--(b), (a)-->(c)")
	if err != nil {
		t.Fatal(err)
	}
	if q.Edges[0].From != q.VertexIndex("b") {
		t.Errorf("<-- should reverse: %+v", q.Edges[0])
	}
}

func TestParseCypherErrors(t *testing.T) {
	bad := []string{
		"(a)-->(b)",                  // missing MATCH
		"MATCH",                      // empty pattern
		"MATCH (a)-->(a)",            // self loop
		"MATCH ()-->(b)",             // anonymous node
		"MATCH (a)-->(b), (c)-->(d)", // disconnected
		"MATCH (a:x)-->(b)",          // non-numeric label
		"MATCH (a)--(b)",             // undirected unsupported
		"MATCH (a-->(b)",             // malformed
	}
	for _, s := range bad {
		if _, err := ParseCypher(s); err == nil {
			t.Errorf("ParseCypher(%q) succeeded, want error", s)
		}
	}
}

func TestParseAnyDispatch(t *testing.T) {
	q1, err := ParseAny("MATCH (a)-->(b), (b)-->(c), (a)-->(c)")
	if err != nil {
		t.Fatal(err)
	}
	q2, err := ParseAny("a->b, b->c, a->c")
	if err != nil {
		t.Fatal(err)
	}
	if !isIsomorphic(q1, q2) {
		t.Error("ParseAny dispatch produced different queries")
	}
	if _, err := ParseAny("  match (a)-->(b), (b)-->(a2), (a)-->(a2)"); err != nil {
		t.Errorf("lowercase match should dispatch to cypher: %v", err)
	}
}
