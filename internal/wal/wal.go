// Package wal is the durability layer of the live store: an append-only
// write-ahead log of mutation batches plus atomic full-graph checkpoints,
// both living in one data directory.
//
// The log is a sequence of segment files wal-<epoch>.log. Each record is
// framed as
//
//	uint32 payload length | uint32 CRC32 (IEEE) of payload | payload
//
// (little-endian) where the payload encodes one mutation batch and the
// epoch it produced. A segment named wal-<E>.log holds only records with
// epochs greater than E. The live store rotates at the epoch a compaction
// freezes, before it builds that epoch's checkpoint, so once the
// checkpoint is durable the records it covers live entirely in older
// segments and can be deleted without scanning.
//
// Appends are written with a single write(2) per record — no user-space
// buffering spans records — and made durable according to a SyncPolicy:
// fsync per append (the default), a background interval fsync, or none
// (the OS page cache decides). Replay validates every frame; a torn final
// record (short header, short payload, or CRC mismatch at the tail of the
// newest segment) is dropped silently and the segment truncated to its
// last valid frame, which is exactly the state a crash mid-append leaves
// behind. The same damage in a non-final segment is data loss and fails
// recovery loudly.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"graphflow/internal/metrics"
)

// SyncPolicy selects when appended records are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncBatch fsyncs after every appended batch, before the epoch is
	// published: an acknowledged mutation survives power loss.
	SyncBatch SyncPolicy = iota
	// SyncInterval fsyncs from a background goroutine on a fixed period;
	// a crash may lose the last interval's worth of acknowledged batches.
	SyncInterval
	// SyncOff never fsyncs explicitly: records still hit the file with one
	// write(2) per append (surviving a process kill), but power loss may
	// drop whatever the page cache held.
	SyncOff
)

// ParseSyncPolicy maps the textual flag values onto a SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "batch":
		return SyncBatch, nil
	case "interval":
		return SyncInterval, nil
	case "off":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want batch, interval or off)", s)
}

// DefaultSyncInterval is the period of the SyncInterval background fsync
// when Options.Interval is zero.
const DefaultSyncInterval = 100 * time.Millisecond

// Options tunes a Log.
type Options struct {
	Policy   SyncPolicy
	Interval time.Duration // SyncInterval period; 0 takes DefaultSyncInterval
}

// frameHeaderSize is the per-record framing overhead: payload length plus
// CRC32, both uint32.
const frameHeaderSize = 8

// maxRecordSize rejects absurd frame lengths during replay so a corrupt
// length field cannot drive a giant allocation.
const maxRecordSize = 1 << 30

var crcTable = crc32.MakeTable(crc32.IEEE)

// segmentName returns the file name of the segment that holds records
// with epochs greater than start.
func segmentName(start uint64) string {
	return fmt.Sprintf("wal-%020d.log", start)
}

// parseSegmentName extracts the start epoch from a segment file name.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	e, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 10, 64)
	if err != nil {
		return 0, false
	}
	return e, true
}

// listSegments returns the data directory's segment start epochs in
// ascending order.
func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var starts []uint64
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		if s, ok := parseSegmentName(ent.Name()); ok {
			starts = append(starts, s)
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	return starts, nil
}

// Log is the append end of the write-ahead log. All methods are safe for
// concurrent use, though the live store serialises appends under its own
// writer lock anyway.
type Log struct {
	dir  string
	opts Options

	// syncMu serialises Sync with Rotate and Close. It lets Sync wait for
	// the device without holding mu — appends carry on meanwhile — while a
	// segment is still never closed, nor a later one synced, before an
	// fsync of it has returned. Taken before mu.
	syncMu sync.Mutex

	mu       sync.Mutex
	f        *os.File // current segment, opened for append
	start    uint64   // current segment's start epoch
	size     int64    // bytes in the current segment
	total    int64    // bytes across all live segments
	appended int64    // records appended since open
	dirty    bool     // writes since the last fsync
	closed   bool

	// fsyncSeconds observes the latency of every durability fsync (the
	// SyncBatch per-append sync, the interval syncer's sync, and segment
	// rotation). The histogram lives here, not in a registry, so it
	// records from the moment the log opens; a metrics registry adopts
	// it later via FsyncHistogram.
	fsyncSeconds *metrics.Histogram

	stop chan struct{} // interval syncer shutdown
	done chan struct{}
}

// fsyncBuckets spans the realistic fsync range: tens of microseconds on
// battery-backed or lying storage up to hundreds of milliseconds on a
// busy spinning disk.
var fsyncBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1,
}

// FsyncHistogram exposes the log's fsync-latency histogram for
// registration in a metrics registry.
func (l *Log) FsyncHistogram() *metrics.Histogram { return l.fsyncSeconds }

// syncFile fsyncs a segment and observes the latency.
func (l *Log) syncFile(f *os.File) error {
	t0 := time.Now()
	err := f.Sync()
	l.fsyncSeconds.ObserveDuration(time.Since(t0))
	return err
}

// ReplayInfo reports what opening the log recovered.
type ReplayInfo struct {
	// Records is the number of valid records replayed.
	Records int
	// TornTail is true when the newest segment ended in a partial or
	// corrupt record that was dropped and truncated away.
	TornTail bool
	// Bytes is the total size of the valid log after truncation.
	Bytes int64
}

// Open replays every segment in dir (ascending start epoch), invoking fn
// for each valid record, truncates a torn tail off the newest segment,
// and returns a Log appending to that segment. When dir holds no
// segments, an empty one starting at startEpoch is created. fn may be nil
// when the caller only needs the append end.
func Open(dir string, startEpoch uint64, opts Options, fn func(Record) error) (*Log, ReplayInfo, error) {
	if opts.Interval <= 0 {
		opts.Interval = DefaultSyncInterval
	}
	starts, err := listSegments(dir)
	if err != nil {
		return nil, ReplayInfo{}, err
	}
	var info ReplayInfo
	var total int64
	for i, s := range starts {
		last := i == len(starts)-1
		path := filepath.Join(dir, segmentName(s))
		valid, n, torn, err := replaySegment(path, fn)
		if err != nil {
			return nil, ReplayInfo{}, err
		}
		info.Records += n
		if torn {
			if !last {
				return nil, ReplayInfo{}, fmt.Errorf("wal: segment %s is corrupt mid-log (valid prefix %d bytes) but newer segments exist", segmentName(s), valid)
			}
			info.TornTail = true
			if err := os.Truncate(path, valid); err != nil {
				return nil, ReplayInfo{}, fmt.Errorf("wal: truncating torn tail of %s: %w", segmentName(s), err)
			}
		}
		total += valid
	}
	l := &Log{
		dir: dir, opts: opts,
		fsyncSeconds: metrics.NewHistogram(fsyncBuckets),
		stop:         make(chan struct{}), done: make(chan struct{}),
	}
	cur := startEpoch
	if len(starts) > 0 {
		cur = starts[len(starts)-1]
	}
	if err := l.openSegment(cur); err != nil {
		return nil, ReplayInfo{}, err
	}
	// total already includes the (truncated) newest segment when one
	// existed; a freshly created segment is empty.
	l.total = total
	info.Bytes = l.total
	if opts.Policy == SyncInterval {
		go l.syncLoop()
	} else {
		close(l.done)
	}
	return l, info, nil
}

// openSegment opens (creating if needed) the segment starting at epoch
// for append, recording its current size. Caller holds l.mu or is the
// constructor.
func (l *Log) openSegment(start uint64) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segmentName(start)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	l.f, l.start, l.size = f, start, st.Size()
	return nil
}

// syncLoop is the SyncInterval background fsync goroutine.
func (l *Log) syncLoop() {
	defer close(l.done)
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = l.Sync()
		case <-l.stop:
			return
		}
	}
}

// Append frames and writes one record, making it durable per the sync
// policy before returning. The live store calls this before publishing
// the record's epoch, so an acknowledged batch is never newer than the
// log.
func (l *Log) Append(rec Record) error {
	payload := rec.encode(nil)
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	frame := append(hdr[:], payload...)

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: log is closed")
	}
	if _, err := l.f.Write(frame); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.size += int64(len(frame))
	l.total += int64(len(frame))
	l.appended++
	l.dirty = true
	if l.opts.Policy == SyncBatch {
		if err := l.syncFile(l.f); err != nil {
			return fmt.Errorf("wal: fsync: %w", err)
		}
		l.dirty = false
	}
	return nil
}

// Sync flushes pending writes to stable storage regardless of policy.
// Appends are not held up while the device works: they go on landing in
// the page cache and mark the log dirty again.
func (l *Log) Sync() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	if l.closed || !l.dirty {
		l.mu.Unlock()
		return nil
	}
	f := l.f
	l.dirty = false
	l.mu.Unlock()
	if err := l.syncFile(f); err != nil {
		l.mu.Lock()
		l.dirty = true
		l.mu.Unlock()
		return err
	}
	return nil
}

// Rotate syncs and closes the current segment and starts a fresh one
// whose records will all carry epochs greater than start; it is a no-op
// when the current segment already starts there (a compaction pass that
// failed after rotating is retried at the same epoch). The caller (the
// live store's compaction path) must serialise Rotate against Append
// through its own writer lock; Rotate additionally holds the log's lock
// so interval fsyncs stay safe.
func (l *Log) Rotate(start uint64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: log is closed")
	}
	if start == l.start {
		return nil
	}
	if start < l.start {
		return fmt.Errorf("wal: rotate to epoch %d before current segment %d", start, l.start)
	}
	if l.dirty {
		if err := l.syncFile(l.f); err != nil {
			return err
		}
		l.dirty = false
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	return l.openSegment(start)
}

// DropSegmentsBefore deletes segments whose start epoch is below limit —
// called after a checkpoint at epoch limit is durable, when every record
// those segments hold is covered by the checkpoint. The current segment
// is never dropped.
func (l *Log) DropSegmentsBefore(limit uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	starts, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	for _, s := range starts {
		if s >= limit || s == l.start {
			continue
		}
		path := filepath.Join(l.dir, segmentName(s))
		st, err := os.Stat(path)
		if err == nil {
			l.total -= st.Size()
		}
		if err := os.Remove(path); err != nil {
			return err
		}
	}
	return nil
}

// Size returns the total bytes across live segments.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Appended returns how many records this process appended since Open.
func (l *Log) Appended() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appended
}

// Close syncs and closes the log; further appends fail.
func (l *Log) Close() error {
	l.syncMu.Lock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		l.syncMu.Unlock()
		return nil
	}
	l.closed = true
	var err error
	if l.dirty {
		err = l.syncFile(l.f)
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.mu.Unlock()
	l.syncMu.Unlock() // before waiting for the interval syncer, which may be about to take it
	close(l.stop)
	<-l.done
	return err
}

// replaySegment reads one segment, invoking fn per valid record. It
// returns the byte length of the valid prefix, the record count, and
// whether the segment ended in a torn (partial or corrupt) record.
func replaySegment(path string, fn func(Record) error) (valid int64, n int, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, false, err
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return 0, 0, false, err
	}
	off := 0
	for {
		if off == len(data) {
			return int64(off), n, false, nil
		}
		if len(data)-off < frameHeaderSize {
			return int64(off), n, true, nil
		}
		ln := binary.LittleEndian.Uint32(data[off : off+4])
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if ln > maxRecordSize || len(data)-off-frameHeaderSize < int(ln) {
			return int64(off), n, true, nil
		}
		payload := data[off+frameHeaderSize : off+frameHeaderSize+int(ln)]
		if crc32.Checksum(payload, crcTable) != crc {
			return int64(off), n, true, nil
		}
		rec, derr := decodeRecord(payload)
		if derr != nil {
			// The frame checksummed correctly but the payload is not a
			// record we understand — not a torn tail, a real corruption or
			// version problem.
			return int64(off), n, false, fmt.Errorf("wal: %s at offset %d: %w", filepath.Base(path), off, derr)
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return int64(off), n, false, err
			}
		}
		off += frameHeaderSize + int(ln)
		n++
	}
}
