package live

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"graphflow/internal/graph"
	"graphflow/internal/wal"
)

// reopen closes db and opens a fresh store over the same dir and base.
func reopen(t *testing.T, db *DB, base *graph.Graph, cfg Config) *DB {
	t.Helper()
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	nd, err := Open(base, cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return nd
}

func TestDurableRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base := randomBase(rng, 20)
	cfg := Config{CompactThreshold: -1, Dir: t.TempDir()}
	db, err := Open(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := db.Apply(randomBatch(rng, db.Snapshot())); err != nil {
			t.Fatal(err)
		}
	}
	wantEdges := collectEdges(db.Snapshot())
	wantEpoch := db.Epoch()
	wantV := db.Snapshot().NumVertices()

	db = reopen(t, db, base, cfg)
	defer db.Close()
	s := db.Snapshot()
	if s.Epoch() != wantEpoch {
		t.Fatalf("recovered epoch %d, want %d", s.Epoch(), wantEpoch)
	}
	if s.NumVertices() != wantV {
		t.Fatalf("recovered %d vertices, want %d", s.NumVertices(), wantV)
	}
	if !reflect.DeepEqual(collectEdges(s), wantEdges) {
		t.Fatal("recovered edge set differs")
	}
	ws := db.WALStats()
	if !ws.Enabled || ws.Replayed != 8 || ws.TornTailDropped {
		t.Fatalf("WALStats after recovery: %+v", ws)
	}
	// The recovered store must keep accepting and logging batches.
	if _, err := db.Apply(randomBatch(rng, db.Snapshot())); err != nil {
		t.Fatal(err)
	}
	if db.WALStats().Appended != 1 {
		t.Fatalf("appended %d batches after recovery, want 1", db.WALStats().Appended)
	}
}

func TestCheckpointAtCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	base := randomBase(rng, 25)
	cfg := Config{CompactThreshold: -1, Dir: t.TempDir()}
	db, err := Open(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := db.Apply(randomBatch(rng, db.Snapshot())); err != nil {
			t.Fatal(err)
		}
	}
	frozen := db.Epoch()
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	// The checkpoint carries the epoch it froze; the epoch the compaction
	// published is one empty record in the fresh segment, and the
	// pre-checkpoint segments are pruned.
	ws := db.WALStats()
	if ws.Checkpoints != 1 || ws.CheckpointEpoch != frozen || db.Epoch() != frozen+1 {
		t.Fatalf("after compaction: %+v, epoch %d, frozen at %d", ws, db.Epoch(), frozen)
	}
	if ws.Bytes == 0 || ws.Bytes > 32 {
		t.Fatalf("WAL holds %d bytes after checkpoint, want one empty record", ws.Bytes)
	}
	// Post-compaction batches land in the new segment and survive too.
	if _, err := db.Apply(randomBatch(rng, db.Snapshot())); err != nil {
		t.Fatal(err)
	}
	wantEdges2 := collectEdges(db.Snapshot())
	wantEpoch := db.Epoch()

	// The checkpoint, not the caller's base, is the recovery root now:
	// reopen with a deliberately empty base to prove it is ignored.
	db = reopen(t, db, graph.NewBuilder(0).MustBuild(), cfg)
	defer db.Close()
	if db.Epoch() != wantEpoch {
		t.Fatalf("recovered epoch %d, want %d", db.Epoch(), wantEpoch)
	}
	if !reflect.DeepEqual(collectEdges(db.Snapshot()), wantEdges2) {
		t.Fatal("recovered edge set differs after checkpoint + tail replay")
	}
	if ws := db.WALStats(); ws.Replayed != 1 {
		t.Fatalf("replayed %d batches, want 1 (the post-checkpoint batch): %+v", ws.Replayed, ws)
	}
}

func TestTornTailDroppedOnRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := randomBase(rng, 15)
	dir := t.TempDir()
	cfg := Config{CompactThreshold: -1, Dir: dir}
	db, err := Open(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := db.Apply(randomBatch(rng, db.Snapshot())); err != nil {
			t.Fatal(err)
		}
	}
	afterTwo := uint64(2)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the final record: chop a few bytes off the single segment.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var seg string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".log") {
			seg = filepath.Join(dir, e.Name())
		}
	}
	if seg == "" {
		t.Fatal("no WAL segment found")
	}
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	ws := db2.WALStats()
	if !ws.TornTailDropped || ws.Replayed != 2 {
		t.Fatalf("torn-tail recovery stats: %+v", ws)
	}
	if db2.Epoch() != afterTwo {
		t.Fatalf("recovered epoch %d, want %d", db2.Epoch(), afterTwo)
	}
}

func TestApplyAfterCloseFails(t *testing.T) {
	db, err := Open(graph.NewBuilder(2).MustBuild(), Config{CompactThreshold: -1, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddVertex(0); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Apply(Batch{AddVertices: []graph.Label{0}}); err == nil {
		t.Fatal("Apply succeeded on a closed store")
	}
	// Reads still work.
	if db.Snapshot().NumVertices() != 3 {
		t.Fatalf("snapshot lost after close: %d vertices", db.Snapshot().NumVertices())
	}
}

// TestRecoversPreviousLayout lays a data directory out the way stores
// wrote it before compactions were logged — the compaction published an
// epoch without a record, rotated the WAL at that epoch and stamped the
// checkpoint with it — and recovers it: with the checkpoint in place, and
// as a crash between the rotation and the checkpoint left it.
func TestRecoversPreviousLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	base := randomBase(rng, 20)
	for _, checkpointed := range []bool{true, false} {
		dir := t.TempDir()
		// A shadow store supplies the batches, the epochs and the graph
		// the old compaction would have checkpointed.
		shadow := mustOpen(t, base, Config{CompactThreshold: -1})
		log, _, err := wal.Open(dir, 0, wal.Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		epoch := uint64(0)
		logBatches := func(n int) {
			for i := 0; i < n; i++ {
				b := randomBatch(rng, shadow.Snapshot())
				b.AddVertices = append(b.AddVertices, 1) // never a no-op
				if _, err := shadow.Apply(b); err != nil {
					t.Fatal(err)
				}
				epoch++
				if err := log.Append(wal.Record{Epoch: epoch, AddVertices: b.AddVertices, AddEdges: b.AddEdges, DeleteEdges: b.DeleteEdges}); err != nil {
					t.Fatal(err)
				}
			}
		}
		logBatches(4)
		epoch++ // the old compaction's unlogged epoch
		if err := log.Rotate(epoch); err != nil {
			t.Fatal(err)
		}
		if checkpointed {
			g, err := Rebuild(shadow.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			if err := wal.WriteCheckpoint(dir, epoch, g); err != nil {
				t.Fatal(err)
			}
			if err := log.DropSegmentsBefore(epoch); err != nil {
				t.Fatal(err)
			}
		}
		logBatches(3)
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}

		db, err := Open(base, Config{CompactThreshold: -1, Dir: dir})
		if err != nil {
			t.Fatalf("checkpointed=%v: %v", checkpointed, err)
		}
		if db.Epoch() != epoch {
			t.Fatalf("checkpointed=%v: recovered epoch %d, want %d", checkpointed, db.Epoch(), epoch)
		}
		if !reflect.DeepEqual(collectEdges(db.Snapshot()), collectEdges(shadow.Snapshot())) {
			t.Fatalf("checkpointed=%v: recovered edge set differs", checkpointed)
		}
		// The recovered store compacts and reopens under the new ordering.
		if _, err := db.Apply(Batch{AddVertices: []graph.Label{2}}); err != nil {
			t.Fatal(err)
		}
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
		want, wantEpoch := collectEdges(db.Snapshot()), db.Epoch()
		db = reopen(t, db, base, Config{CompactThreshold: -1, Dir: dir})
		if db.Epoch() != wantEpoch || !reflect.DeepEqual(collectEdges(db.Snapshot()), want) {
			t.Fatalf("checkpointed=%v: reopened at epoch %d, want %d", checkpointed, db.Epoch(), wantEpoch)
		}
		db.Close()
	}
}
