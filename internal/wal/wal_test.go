package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"graphflow/internal/graph"
)

func testRecords() []Record {
	return []Record{
		{Epoch: 1, AddVertices: []graph.Label{0, 1, 2}},
		{Epoch: 2, AddEdges: []EdgeOp{{0, 1, 0}, {1, 2, 1}}},
		{Epoch: 3, DeleteEdges: []EdgeOp{{0, 1, 0}}, AddEdges: []EdgeOp{{2, 0, 0}}},
		{Epoch: 7, AddVertices: []graph.Label{5}, AddEdges: []EdgeOp{{3, 0, 3}}},
	}
}

func openAppendClose(t *testing.T, dir string, recs []Record) {
	t.Helper()
	l, info, err := Open(dir, 0, Options{Policy: SyncOff}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 0 || info.TornTail {
		t.Fatalf("fresh open replayed %+v", info)
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func replayAll(t *testing.T, dir string) ([]Record, ReplayInfo) {
	t.Helper()
	var got []Record
	l, info, err := Open(dir, 0, Options{Policy: SyncOff}, func(r Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	return got, info
}

func TestRecordRoundTrip(t *testing.T) {
	for _, r := range testRecords() {
		dec, err := decodeRecord(r.encode(nil))
		if err != nil {
			t.Fatalf("decode(%+v): %v", r, err)
		}
		if !reflect.DeepEqual(r, dec) {
			t.Fatalf("round trip: wrote %+v, read %+v", r, dec)
		}
	}
}

func TestAppendReplay(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords()
	openAppendClose(t, dir, recs)
	got, info := replayAll(t, dir)
	if info.TornTail {
		t.Fatal("unexpected torn tail")
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("replayed %+v, want %+v", got, recs)
	}
}

// TestTornTailEveryOffset truncates the log at every byte offset and
// checks that replay recovers exactly the records whose frames are fully
// inside the prefix, flagging (and truncating) the torn remainder.
func TestTornTailEveryOffset(t *testing.T) {
	src := t.TempDir()
	recs := testRecords()
	openAppendClose(t, src, recs)
	path := filepath.Join(src, segmentName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Frame end offsets delimit how many records each prefix holds.
	ends := make([]int, 0, len(recs))
	off := 0
	for _, r := range recs {
		off += frameHeaderSize + len(r.encode(nil))
		ends = append(ends, off)
	}
	if off != len(data) {
		t.Fatalf("frame math: computed %d bytes, file has %d", off, len(data))
	}
	for cut := 0; cut <= len(data); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(0)), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		wantN := 0
		for _, e := range ends {
			if e <= cut {
				wantN++
			}
		}
		got, info := replayAll(t, dir)
		if len(got) != wantN {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, len(got), wantN)
		}
		if wantN > 0 && !reflect.DeepEqual(got, recs[:wantN]) {
			t.Fatalf("cut %d: wrong records", cut)
		}
		// A cut exactly at a frame boundary (or the empty file) is clean;
		// anything mid-frame is a torn tail.
		atBoundary := cut == 0
		for _, e := range ends {
			if cut == e {
				atBoundary = true
			}
		}
		if info.TornTail == atBoundary {
			t.Fatalf("cut %d: torn=%v but boundary=%v", cut, info.TornTail, atBoundary)
		}
		// After truncation the reopened log must be clean.
		got2, info2 := replayAll(t, dir)
		if info2.TornTail || len(got2) != wantN {
			t.Fatalf("cut %d: second replay torn=%v n=%d", cut, info2.TornTail, len(got2))
		}
	}
}

// TestCorruptMidSegmentFails flips a payload byte in the middle of the
// log: the CRC catches it, and because valid frames (in a newer segment)
// follow, recovery must fail loudly instead of dropping data.
func TestCorruptMidSegmentFails(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, 0, Options{Policy: SyncOff}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Epoch: 1, AddEdges: []EdgeOp{{0, 1, 0}}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Rotate(5); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Epoch: 6, AddEdges: []EdgeOp{{1, 2, 0}}}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Corrupt the first (older) segment's payload.
	p := filepath.Join(dir, segmentName(0))
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[frameHeaderSize] ^= 0xFF
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, 0, Options{Policy: SyncOff}, nil); err == nil {
		t.Fatal("corrupt non-final segment did not fail recovery")
	}
}

func TestRotateAndDrop(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, 0, Options{Policy: SyncOff}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Epoch: 1, AddEdges: []EdgeOp{{0, 1, 0}}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Rotate(1); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Epoch: 2, AddEdges: []EdgeOp{{1, 0, 0}}}); err != nil {
		t.Fatal(err)
	}
	if err := l.DropSegmentsBefore(1); err != nil {
		t.Fatal(err)
	}
	l.Close()
	got, info := replayAll(t, dir)
	if info.TornTail || len(got) != 1 || got[0].Epoch != 2 {
		t.Fatalf("after drop: replay %+v info %+v", got, info)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	b := graph.NewBuilder(5)
	b.SetVertexLabel(1, 2)
	b.SetVertexLabel(4, 1)
	b.AddEdge(0, 1, 0)
	b.AddEdge(1, 2, 1)
	b.AddEdge(3, 4, 0)
	b.AddEdge(4, 0, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteCheckpoint(dir, 42, g); err != nil {
		t.Fatal(err)
	}
	got, epoch, ok, err := LoadNewestCheckpoint(dir)
	if err != nil || !ok || epoch != 42 {
		t.Fatalf("load: ok=%v epoch=%d err=%v", ok, epoch, err)
	}
	if got.NumVertices() != g.NumVertices() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("checkpoint graph V=%d E=%d, want V=%d E=%d",
			got.NumVertices(), got.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	for v := 0; v < g.NumVertices(); v++ {
		if got.VertexLabel(graph.VertexID(v)) != g.VertexLabel(graph.VertexID(v)) {
			t.Fatalf("vertex %d label mismatch", v)
		}
	}
	g.Edges(func(src, dst graph.VertexID, l graph.Label) bool {
		if !got.HasEdge(src, dst, l) {
			t.Fatalf("edge %d->%d missing after round trip", src, dst)
		}
		return true
	})

	// Corrupt checkpoints must fail loudly, not fall back.
	path := filepath.Join(dir, checkpointName(42))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := LoadNewestCheckpoint(dir); err == nil {
		t.Fatal("corrupt checkpoint loaded without error")
	}
}

// TestCheckpointBytes pins the checkpoint layout byte for byte, across a
// chunk boundary too: the encoder works in chunks and the file must not
// show where they end.
func TestCheckpointBytes(t *testing.T) {
	const n = checkpointChunk/10 + 100 // the edge section alone spans two chunks
	b := graph.NewBuilder(n)
	b.SetVertexLabel(1, 2)
	for v := 0; v < n; v++ {
		b.AddEdge(graph.VertexID(v), graph.VertexID((v+1)%n), graph.Label(v%3))
	}
	g := b.MustBuild()
	dir := t.TempDir()
	if err := WriteCheckpoint(dir, 9, g); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, checkpointName(9)))
	if err != nil {
		t.Fatal(err)
	}
	want := []byte(checkpointMagic)
	want = binary.LittleEndian.AppendUint64(want, 9)
	want = binary.LittleEndian.AppendUint64(want, n)
	for v := 0; v < n; v++ {
		want = binary.LittleEndian.AppendUint16(want, uint16(g.VertexLabel(graph.VertexID(v))))
	}
	want = binary.LittleEndian.AppendUint64(want, uint64(g.NumEdges()))
	g.Edges(func(src, dst graph.VertexID, l graph.Label) bool {
		want = binary.LittleEndian.AppendUint32(want, uint32(src))
		want = binary.LittleEndian.AppendUint32(want, uint32(dst))
		want = binary.LittleEndian.AppendUint16(want, uint16(l))
		return true
	})
	want = binary.LittleEndian.AppendUint32(want, crc32.Checksum(want, crcTable))
	if !bytes.Equal(got, want) {
		t.Fatalf("checkpoint is %d bytes, want %d; first difference at %d", len(got), len(want), firstDiff(got, want))
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestSyncDoesNotBlockAppends: Sync waits for the device without the
// append lock, so appends, rotations, interval syncs and Close may all
// overlap it. Run under -race; every record must replay, in order.
func TestSyncDoesNotBlockAppends(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, 0, Options{Policy: SyncInterval, Interval: time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const records = 400
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if err := l.Sync(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Appends and rotations share a goroutine, as the live store's writer
	// lock makes them.
	for e := uint64(1); e <= records; e++ {
		if err := l.Append(Record{Epoch: e, AddEdges: []EdgeOp{{0, graph.VertexID(e), 0}}}); err != nil {
			t.Fatal(err)
		}
		if e%50 == 0 {
			if err := l.Rotate(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	got, info := replayAll(t, dir)
	if info.TornTail || len(got) != records {
		t.Fatalf("replayed %d records (torn tail %v), want %d", len(got), info.TornTail, records)
	}
	for i, r := range got {
		if r.Epoch != uint64(i+1) {
			t.Fatalf("record %d carries epoch %d", i, r.Epoch)
		}
	}
}
