package graph

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// LoadEdgeList parses a whitespace-separated edge list:
//
//	# comment lines start with '#'
//	v <vertexID> <vertexLabel>      (optional vertex-label lines)
//	<src> <dst> [edgeLabel]
//
// Vertices are created implicitly up to the largest ID seen. The format is a
// superset of the SNAP edge-list format the paper's datasets ship in.
//
// Gzip-compressed input is detected by its magic bytes and decompressed
// transparently, so .txt.gz dataset dumps load without an external gunzip
// step.
func LoadEdgeList(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("graph: gzip input: %w", err)
		}
		defer zr.Close()
		return loadEdgeListPlain(zr)
	}
	return loadEdgeListPlain(br)
}

func loadEdgeListPlain(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	type edge struct {
		src, dst uint64
		label    Label
	}
	var edges []edge
	vlabels := map[uint64]Label{}
	var maxID uint64
	haveVertex := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "v" {
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: line %d: vertex line needs 'v id label'", lineNo)
			}
			id, err := strconv.ParseUint(fields[1], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
			}
			lab, err := strconv.ParseUint(fields[2], 10, 16)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
			}
			vlabels[id] = Label(lab)
			if id > maxID {
				maxID = id
			}
			haveVertex = true
			continue
		}
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("graph: line %d: edge line needs 'src dst [label]'", lineNo)
		}
		src, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		dst, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		var lab uint64
		if len(fields) == 3 {
			lab, err = strconv.ParseUint(fields[2], 10, 16)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
			}
		}
		edges = append(edges, edge{src, dst, Label(lab)})
		if src > maxID {
			maxID = src
		}
		if dst > maxID {
			maxID = dst
		}
		haveVertex = true
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !haveVertex {
		return NewBuilder(0).Build()
	}
	b := NewBuilder(int(maxID) + 1)
	for id, lab := range vlabels {
		b.SetVertexLabel(VertexID(id), lab)
	}
	for _, e := range edges {
		b.AddEdge(VertexID(e.src), VertexID(e.dst), e.label)
	}
	return b.Build()
}
