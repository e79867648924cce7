package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"graphflow/internal/graph"
)

// Checkpoint files serialise one epoch's full logical graph — vertex
// labels plus the directed labelled edge set — so recovery loads the
// newest checkpoint and replays only the WAL records past its epoch.
// Files are named ckpt-<epoch>.snap and written atomically: the payload
// goes to a .tmp name, is fsynced, then renamed into place (and the
// directory fsynced), so a crash mid-write leaves only ignorable temp
// files and every *.snap on disk is complete. Corruption of a completed
// checkpoint is detected by a trailing CRC32 and fails recovery loudly
// rather than silently falling back to an older state.
//
// Layout (little-endian):
//
//	magic "GFWCKPT1" | epoch u64 | numVertices u64 | labels u16 each
//	| numEdges u64 | (src u32, dst u32, label u16) each | CRC32 of payload
const checkpointMagic = "GFWCKPT1"

// checkpointName returns the file name of the checkpoint at epoch.
func checkpointName(epoch uint64) string {
	return fmt.Sprintf("ckpt-%020d.snap", epoch)
}

func parseCheckpointName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "ckpt-") || !strings.HasSuffix(name, ".snap") {
		return 0, false
	}
	e, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "ckpt-"), ".snap"), 10, 64)
	if err != nil {
		return 0, false
	}
	return e, true
}

// CheckpointModTime reports when the checkpoint at epoch was written
// (its file mtime). ok is false when no such checkpoint exists — the
// caller's checkpoint-age gauge then has nothing to age against.
func CheckpointModTime(dir string, epoch uint64) (time.Time, bool) {
	fi, err := os.Stat(filepath.Join(dir, checkpointName(epoch)))
	if err != nil {
		return time.Time{}, false
	}
	return fi.ModTime(), true
}

// checkpointChunk is how much payload WriteCheckpoint encodes between
// writes: large enough that the checksum runs on its vectorised path and
// a checkpoint costs a few dozen write calls.
const checkpointChunk = 1 << 16

// checkpointEncoder appends little-endian fields to a chunk buffer and
// hands full chunks to the file, keeping a running CRC32 of all of them.
type checkpointEncoder struct {
	f   *os.File
	buf []byte
	crc uint32
	err error // the first write error; later writes are skipped
}

// flush checksums and writes what is buffered.
func (c *checkpointEncoder) flush() {
	if c.err == nil {
		c.crc = crc32.Update(c.crc, crcTable, c.buf)
		_, c.err = c.f.Write(c.buf)
	}
	c.buf = c.buf[:0]
}

// room makes space for n more bytes.
func (c *checkpointEncoder) room(n int) {
	if len(c.buf)+n > cap(c.buf) {
		c.flush()
	}
}

// WriteCheckpoint atomically serialises g as the checkpoint at epoch in
// dir. The caller is responsible for rotating and pruning WAL segments
// around it.
func WriteCheckpoint(dir string, epoch uint64, g *graph.Graph) error {
	tmp, err := os.CreateTemp(dir, "ckpt-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after the rename succeeds

	c := &checkpointEncoder{f: tmp, buf: make([]byte, 0, checkpointChunk)}
	c.buf = append(c.buf, checkpointMagic...)
	c.buf = binary.LittleEndian.AppendUint64(c.buf, epoch)
	n := g.NumVertices()
	c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(n))
	for v := 0; v < n; v++ {
		c.room(2)
		c.buf = binary.LittleEndian.AppendUint16(c.buf, uint16(g.VertexLabel(graph.VertexID(v))))
	}
	c.room(8)
	c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(g.NumEdges()))
	g.Edges(func(src, dst graph.VertexID, l graph.Label) bool {
		c.room(10)
		at := len(c.buf)
		c.buf = c.buf[:at+10]
		binary.LittleEndian.PutUint32(c.buf[at:], uint32(src))
		binary.LittleEndian.PutUint32(c.buf[at+4:], uint32(dst))
		binary.LittleEndian.PutUint16(c.buf[at+8:], uint16(l))
		return c.err == nil
	})
	c.flush()
	if c.err == nil {
		// The trailer is not part of the checksummed payload.
		_, c.err = tmp.Write(binary.LittleEndian.AppendUint32(nil, c.crc))
	}
	if c.err != nil {
		tmp.Close()
		return c.err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	final := filepath.Join(dir, checkpointName(epoch))
	if err := os.Rename(tmp.Name(), final); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs the directory so the rename is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// LoadNewestCheckpoint finds the highest-epoch checkpoint in dir,
// validates it, and rebuilds its graph through the ordinary Builder. ok
// is false when dir holds no
// checkpoints (recovery then starts from the caller's base graph at
// epoch 0). A present-but-corrupt checkpoint is an error: silently
// falling back to an older state would lose acknowledged writes.
func LoadNewestCheckpoint(dir string) (g *graph.Graph, epoch uint64, ok bool, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, false, err
	}
	var epochs []uint64
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		if e, ok := parseCheckpointName(ent.Name()); ok {
			epochs = append(epochs, e)
		}
	}
	if len(epochs) == 0 {
		return nil, 0, false, nil
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	newest := epochs[len(epochs)-1]
	g, err = loadCheckpoint(filepath.Join(dir, checkpointName(newest)), newest)
	if err != nil {
		return nil, 0, false, err
	}
	return g, newest, true, nil
}

// DropCheckpointsBefore removes checkpoints older than limit, once a
// newer one is durable.
func DropCheckpointsBefore(dir string, limit uint64) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		if e, ok := parseCheckpointName(ent.Name()); ok && e < limit {
			if err := os.Remove(filepath.Join(dir, ent.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

func loadCheckpoint(path string, wantEpoch uint64) (*graph.Graph, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	name := filepath.Base(path)
	if len(data) < len(checkpointMagic)+4 || string(data[:len(checkpointMagic)]) != checkpointMagic {
		return nil, fmt.Errorf("wal: checkpoint %s: bad magic", name)
	}
	payload, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("wal: checkpoint %s: CRC mismatch", name)
	}
	b := payload[len(checkpointMagic):]
	need := func(n int) error {
		if len(b) < n {
			return fmt.Errorf("wal: checkpoint %s: truncated payload", name)
		}
		return nil
	}
	if err := need(16); err != nil {
		return nil, err
	}
	epoch := binary.LittleEndian.Uint64(b[:8])
	if epoch != wantEpoch {
		return nil, fmt.Errorf("wal: checkpoint %s: header epoch %d does not match file name", name, epoch)
	}
	nv := binary.LittleEndian.Uint64(b[8:16])
	b = b[16:]
	if nv > maxDecodeCount {
		return nil, fmt.Errorf("wal: checkpoint %s: vertex count %d out of range", name, nv)
	}
	if err := need(int(nv) * 2); err != nil {
		return nil, err
	}
	gb := graph.NewBuilder(int(nv))
	for v := 0; v < int(nv); v++ {
		gb.SetVertexLabel(graph.VertexID(v), graph.Label(binary.LittleEndian.Uint16(b[v*2:])))
	}
	b = b[nv*2:]
	if err := need(8); err != nil {
		return nil, err
	}
	ne := binary.LittleEndian.Uint64(b[:8])
	b = b[8:]
	if ne > maxDecodeCount {
		return nil, fmt.Errorf("wal: checkpoint %s: edge count %d out of range", name, ne)
	}
	if err := need(int(ne) * 10); err != nil {
		return nil, err
	}
	for i := 0; i < int(ne); i++ {
		off := i * 10
		gb.AddEdge(
			graph.VertexID(binary.LittleEndian.Uint32(b[off:])),
			graph.VertexID(binary.LittleEndian.Uint32(b[off+4:])),
			graph.Label(binary.LittleEndian.Uint16(b[off+8:])),
		)
	}
	if len(b) != int(ne)*10 {
		return nil, fmt.Errorf("wal: checkpoint %s: %d trailing bytes", name, len(b)-int(ne)*10)
	}
	return gb.Build()
}

// RemoveStaleTemp deletes leftover checkpoint temp files from a crash
// mid-write; called once at store open.
func RemoveStaleTemp(dir string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, ent := range ents {
		name := ent.Name()
		if !ent.IsDir() && strings.HasPrefix(name, "ckpt-") && strings.HasSuffix(name, ".tmp") {
			_ = os.Remove(filepath.Join(dir, name))
		}
	}
}
