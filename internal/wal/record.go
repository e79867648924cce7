package wal

import (
	"encoding/binary"
	"fmt"

	"graphflow/internal/graph"
)

// EdgeOp names one directed labelled edge in a logged batch. The live
// store's EdgeOp is an alias of it (the wal package stays below
// internal/live in the import graph), so a batch is logged as it arrived.
type EdgeOp struct {
	Src, Dst graph.VertexID
	Label    graph.Label
}

// Record is one durable mutation batch plus the epoch its application
// produced. Replay filters on Epoch: records at or below a checkpoint's
// epoch are already folded into the checkpointed base and are skipped. A
// record with no mutations marks an epoch a compaction published: the
// edge set did not change, only the epoch number did.
type Record struct {
	Epoch       uint64
	AddVertices []graph.Label
	AddEdges    []EdgeOp
	DeleteEdges []EdgeOp
}

// Empty reports whether the record carries no mutation.
func (r Record) Empty() bool {
	return len(r.AddVertices) == 0 && len(r.AddEdges) == 0 && len(r.DeleteEdges) == 0
}

// encode appends the record's varint wire form to buf.
func (r Record) encode(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, r.Epoch)
	buf = binary.AppendUvarint(buf, uint64(len(r.AddVertices)))
	for _, l := range r.AddVertices {
		buf = binary.AppendUvarint(buf, uint64(l))
	}
	buf = appendOps(buf, r.AddEdges)
	buf = appendOps(buf, r.DeleteEdges)
	return buf
}

func appendOps(buf []byte, ops []EdgeOp) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ops)))
	for _, e := range ops {
		buf = binary.AppendUvarint(buf, uint64(e.Src))
		buf = binary.AppendUvarint(buf, uint64(e.Dst))
		buf = binary.AppendUvarint(buf, uint64(e.Label))
	}
	return buf
}

// decoder reads varints off a payload, latching the first error.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = fmt.Errorf("wal: short or invalid varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) label() graph.Label {
	v := d.uvarint()
	if d.err == nil && v > 0xFFFF {
		d.err = fmt.Errorf("wal: label %d out of range", v)
	}
	return graph.Label(v)
}

func (d *decoder) vertex() graph.VertexID {
	v := d.uvarint()
	if d.err == nil && v > 0xFFFFFFFF {
		d.err = fmt.Errorf("wal: vertex id %d out of range", v)
	}
	return graph.VertexID(v)
}

// maxDecodeCount bounds per-record slice allocations against corrupt
// counts that passed the CRC (practically impossible, cheap to guard).
const maxDecodeCount = 1 << 28

func (d *decoder) count() int {
	v := d.uvarint()
	if d.err == nil && v > maxDecodeCount {
		d.err = fmt.Errorf("wal: count %d out of range", v)
	}
	return int(v)
}

func (d *decoder) ops() []EdgeOp {
	n := d.count()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]EdgeOp, 0, n)
	for i := 0; i < n; i++ {
		src, dst := d.vertex(), d.vertex()
		lab := d.label()
		if d.err != nil {
			return nil
		}
		out = append(out, EdgeOp{Src: src, Dst: dst, Label: lab})
	}
	return out
}

// decodeRecord parses one CRC-validated payload.
func decodeRecord(payload []byte) (Record, error) {
	d := &decoder{b: payload}
	var rec Record
	rec.Epoch = d.uvarint()
	nv := d.count()
	for i := 0; i < nv && d.err == nil; i++ {
		rec.AddVertices = append(rec.AddVertices, d.label())
	}
	rec.AddEdges = d.ops()
	rec.DeleteEdges = d.ops()
	if d.err != nil {
		return Record{}, d.err
	}
	if len(d.b) != 0 {
		return Record{}, fmt.Errorf("wal: %d trailing bytes after record", len(d.b))
	}
	return rec, nil
}
