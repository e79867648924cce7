package difftest

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"graphflow"
	"graphflow/internal/graph"
	"graphflow/internal/live"
)

// This file is the crash-injection half of the differential harness: it
// drives random mutation batches into a durable live store, then
// simulates a crash at EVERY byte offset of the write-ahead log — each
// record boundary and every position inside a record — reopens the
// store from the damaged directory, and checks the recovered vertex
// labels, edge set and epoch against the shadow state as of the last
// record that survived intact. A cut inside a record must be reported
// (and repaired) as a torn tail; a cut at a boundary must recover
// cleanly. With a compaction in the middle of the trial — one that races
// a writer — the same sweep exercises checkpoint-plus-tail-replay
// recovery, and the data directory is also copied at every stage of the
// compaction pass (after the freeze-time rotation, mid-checkpoint, after
// the checkpoint but before the rebase, after the rebase's compaction
// record) and recovered from each copy.

// liveBatch converts the public batch shape onto the live store's.
func liveBatch(b graphflow.Batch) live.Batch {
	var lb live.Batch
	for _, l := range b.AddVertices {
		lb.AddVertices = append(lb.AddVertices, graph.Label(l))
	}
	for _, e := range b.AddEdges {
		lb.AddEdges = append(lb.AddEdges, live.EdgeOp{
			Src: graph.VertexID(e.Src), Dst: graph.VertexID(e.Dst), Label: graph.Label(e.Label),
		})
	}
	for _, e := range b.DeleteEdges {
		lb.DeleteEdges = append(lb.DeleteEdges, live.EdgeOp{
			Src: graph.VertexID(e.Src), Dst: graph.VertexID(e.Dst), Label: graph.Label(e.Label),
		})
	}
	return lb
}

// crashState is the expected recovered state after k surviving records.
type crashState struct {
	epoch   uint64
	vlabels []graph.Label
	edges   map[ShadowEdge]bool
}

func captureState(epoch uint64, sh *Shadow) crashState {
	st := crashState{epoch: epoch, vlabels: append([]graph.Label(nil), sh.VLabels...), edges: map[ShadowEdge]bool{}}
	for e := range sh.Edges {
		st.edges[e] = true
	}
	return st
}

// newestSegment returns the path and name of the highest-numbered WAL
// segment in dir (zero-padded names make lexical order numeric).
func newestSegment(dir string) (string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	var names []string
	for _, ent := range ents {
		if !ent.IsDir() && strings.HasSuffix(ent.Name(), ".log") {
			names = append(names, ent.Name())
		}
	}
	if len(names) == 0 {
		return "", fmt.Errorf("no WAL segment in %s", dir)
	}
	sort.Strings(names)
	return names[len(names)-1], nil
}

// cloneDirTruncated copies src into a fresh directory, truncating the
// named segment to cut bytes — the on-disk picture a crash at that
// offset would leave behind.
func cloneDirTruncated(src, dst, segment string, cut int) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if ent.Name() == segment {
			data = data[:cut]
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// checkRecovered compares a recovered snapshot against the expected
// shadow state.
func checkRecovered(db *live.DB, want crashState) error {
	s := db.Snapshot()
	if s.Epoch() != want.epoch {
		return fmt.Errorf("epoch %d, want %d", s.Epoch(), want.epoch)
	}
	if s.NumVertices() != len(want.vlabels) {
		return fmt.Errorf("%d vertices, want %d", s.NumVertices(), len(want.vlabels))
	}
	for v, l := range want.vlabels {
		if got := s.VertexLabel(graph.VertexID(v)); got != l {
			return fmt.Errorf("vertex %d label %d, want %d", v, got, l)
		}
	}
	if s.NumEdges() != len(want.edges) {
		return fmt.Errorf("%d edges, want %d", s.NumEdges(), len(want.edges))
	}
	var stray *ShadowEdge
	s.Edges(func(src, dst graph.VertexID, l graph.Label) bool {
		if !want.edges[ShadowEdge{src, dst, l}] {
			stray = &ShadowEdge{src, dst, l}
			return false
		}
		return true
	})
	if stray != nil {
		return fmt.Errorf("recovered edge %d->%d(%d) not in shadow", stray.Src, stray.Dst, stray.Label)
	}
	return nil
}

// killPoint is a copy of the data directory taken at one stage of a
// compaction pass, with the state a recovery from it must reach.
type killPoint struct {
	name, dir string
	want      crashState
}

// recoverAndCheck opens a store over dir, compares it with want, proves
// it still accepts a batch and closes it, returning its WAL statistics.
func recoverAndCheck(base *graph.Graph, dir string, want crashState) (live.WALStats, error) {
	rdb, err := live.Open(base, live.Config{CompactThreshold: -1, Dir: dir})
	if err != nil {
		return live.WALStats{}, fmt.Errorf("recovery open: %w", err)
	}
	ws := rdb.WALStats()
	if err := checkRecovered(rdb, want); err != nil {
		rdb.Close()
		return ws, err
	}
	// The store must stay writable after recovery: one more batch proves
	// the repaired log accepts appends.
	if _, err := rdb.Apply(live.Batch{AddVertices: []graph.Label{0}}); err != nil {
		rdb.Close()
		return ws, fmt.Errorf("post-recovery apply: %w", err)
	}
	return ws, rdb.Close()
}

// RunCrashTrial drives `batches` random mutation batches into a durable
// live store rooted at a scratch directory under tmpDir, then for every
// byte offset of the final WAL segment simulates a crash at that offset
// and verifies recovery. compactAt >= 0 forces a compaction after that
// many batches, with two more batches applied while it folds, so the
// sweep covers checkpoint-plus-tail recovery (the tail holding the racing
// batches and the compaction's own record); every stage of that pass is
// a kill point of its own, and the store is closed and reopened right
// after it. Negative keeps the whole history in the log.
func RunCrashTrial(tmpDir string, seed int64, batches, compactAt int) error {
	rng := rand.New(rand.NewSource(seed))
	base := GenGraph(seed)
	dir := filepath.Join(tmpDir, fmt.Sprintf("crash-%d", seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cfg := live.Config{CompactThreshold: -1, Dir: dir}
	db, err := live.Open(base, cfg)
	if err != nil {
		return fmt.Errorf("seed %d: open durable store: %w", seed, err)
	}
	sh := NewShadow(base)

	// states[k] is the expected recovery outcome when exactly k records
	// of the final segment survive, replayed[k] how many of those are
	// mutation batches (a compaction's record is not one), and
	// boundaries[k-1] that segment's size after the k-th record.
	states := []crashState{captureState(0, sh)}
	replayed := []int{0}
	var boundaries []int
	record := func(isBatch bool) error {
		name, err := newestSegment(dir)
		if err != nil {
			return err
		}
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		n := replayed[len(replayed)-1]
		if isBatch {
			n++
		}
		boundaries = append(boundaries, int(fi.Size()))
		states = append(states, captureState(db.Epoch(), sh))
		replayed = append(replayed, n)
		return nil
	}
	apply := func(what string) error {
		b := GenBatch(rng, sh)
		before := db.WALStats().Appended
		if _, err := db.Apply(liveBatch(b)); err != nil {
			return fmt.Errorf("seed %d %s: apply: %w", seed, what, err)
		}
		sh.Apply(b)
		if db.WALStats().Appended > before {
			return record(true)
		}
		return nil
	}

	var kills []killPoint
	var hookErr error
	kill := func(name string) string {
		kdir := filepath.Join(tmpDir, fmt.Sprintf("kill-%d-%s", seed, name))
		if hookErr == nil {
			hookErr = os.MkdirAll(kdir, 0o755)
		}
		if hookErr == nil {
			hookErr = cloneDirTruncated(dir, kdir, "", 0)
		}
		kills = append(kills, killPoint{name, kdir, captureState(db.Epoch(), sh)})
		return kdir
	}
	db.SetCompactionHook(func(st live.CompactStage) {
		switch st {
		case live.StageFrozen:
			// The log was just rotated at the frozen epoch: the sweep
			// restarts on the new (empty) segment with that epoch as the
			// zero-record state. Two batches then race the fold.
			kill("rotated")
			states, replayed, boundaries = []crashState{captureState(db.Epoch(), sh)}, []int{0}, nil
			for i := 0; i < 2 && hookErr == nil; i++ {
				hookErr = apply("racing the fold")
			}
		case live.StageCheckpointed:
			kdir := kill("checkpointed")
			if hookErr == nil {
				hookErr = tearCheckpoint(kdir, kill("mid-checkpoint"))
			}
		case live.StageRebased:
			if hookErr == nil {
				hookErr = record(false)
			}
			kill("rebased")
		}
	})

	for i := 0; i < batches; i++ {
		if err := apply(fmt.Sprintf("batch %d", i)); err != nil {
			return err
		}
		if i == compactAt {
			frozen := db.Epoch()
			if err := db.Compact(); err != nil {
				return fmt.Errorf("seed %d batch %d: compact: %w", seed, i, err)
			}
			if hookErr != nil {
				return fmt.Errorf("seed %d: during compaction: %w", seed, hookErr)
			}
			// The checkpoint covers the epoch the pass froze; the racing
			// batches and the compaction's record follow it in the log.
			ws := db.WALStats()
			published := frozen + uint64(replayed[len(replayed)-1]) + 1
			if ws.Checkpoints != 1 || ws.CheckpointEpoch != frozen || db.Epoch() != published || len(kills) != 4 {
				return fmt.Errorf("seed %d: compaction frozen at %d left epoch %d, %d kill points, %+v", seed, frozen, db.Epoch(), len(kills), ws)
			}
			// Closed right after a compaction that raced a writer, the
			// store must reopen at the epoch and edge set it closed with.
			if err := db.Close(); err != nil {
				return fmt.Errorf("seed %d: close after compaction: %w", seed, err)
			}
			if db, err = live.Open(base, cfg); err != nil {
				return fmt.Errorf("seed %d: reopen after compaction: %w", seed, err)
			}
			if err := checkRecovered(db, states[len(states)-1]); err != nil {
				return fmt.Errorf("seed %d: reopened after compaction: %w", seed, err)
			}
		}
	}
	if err := db.Close(); err != nil {
		return fmt.Errorf("seed %d: close: %w", seed, err)
	}
	for _, k := range kills {
		if _, err := recoverAndCheck(base, k.dir, k.want); err != nil {
			return fmt.Errorf("seed %d killed at %q: %w", seed, k.name, err)
		}
	}

	segment, err := newestSegment(dir)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(filepath.Join(dir, segment))
	if err != nil {
		return err
	}
	if len(boundaries) == 0 || boundaries[len(boundaries)-1] != len(data) {
		return fmt.Errorf("seed %d: boundary math: %v vs segment of %d bytes", seed, boundaries, len(data))
	}

	for cut := 0; cut <= len(data); cut++ {
		cdir := filepath.Join(tmpDir, fmt.Sprintf("cut-%d-%d", seed, cut))
		if err := os.MkdirAll(cdir, 0o755); err != nil {
			return err
		}
		if err := cloneDirTruncated(dir, cdir, segment, cut); err != nil {
			return err
		}
		k := 0
		atBoundary := cut == 0
		for _, bnd := range boundaries {
			if bnd <= cut {
				k++
			}
			if bnd == cut {
				atBoundary = true
			}
		}
		ws, err := recoverAndCheck(base, cdir, states[k])
		if err != nil {
			return fmt.Errorf("seed %d cut %d (k=%d): %w", seed, cut, k, err)
		}
		if ws.Replayed != replayed[k] {
			return fmt.Errorf("seed %d cut %d: replayed %d batches, want %d", seed, cut, ws.Replayed, replayed[k])
		}
		if ws.TornTailDropped == atBoundary {
			return fmt.Errorf("seed %d cut %d: torn=%v but boundary=%v", seed, cut, ws.TornTailDropped, atBoundary)
		}
		if err := os.RemoveAll(cdir); err != nil {
			return err
		}
	}
	return nil
}

// tearCheckpoint turns the copy of a data directory taken just after a
// checkpoint landed (from) into the one a crash half-way through writing
// it leaves (to, already a copy of from): the finished checkpoint becomes
// a truncated temporary file.
func tearCheckpoint(from, to string) error {
	ents, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if !strings.HasSuffix(ent.Name(), ".snap") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(from, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.Remove(filepath.Join(to, ent.Name())); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(to, "ckpt-torn.tmp"), data[:len(data)/2], 0o644)
	}
	return fmt.Errorf("no checkpoint in %s", from)
}
