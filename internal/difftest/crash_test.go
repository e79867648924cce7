package difftest

import "testing"

// TestDifferentialCrashRecovery kills the WAL at every byte offset —
// each record boundary and every position inside a record — and
// verifies the recovered store against the shadow edge set. The name
// keeps it inside the CI differential step's -run filter, so it runs
// under -race there.
func TestDifferentialCrashRecovery(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		if err := RunCrashTrial(t.TempDir(), seed, 6, -1); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDifferentialCrashRecoveryWithCheckpoint interleaves a compaction
// that races a writer (rotation, checkpoint, rebase record, WAL prune)
// into the trial, so every kill offset exercises
// checkpoint-load-plus-tail-replay recovery instead of pure log replay,
// and kills the store at every stage of the compaction pass as well.
func TestDifferentialCrashRecoveryWithCheckpoint(t *testing.T) {
	seeds := []int64{4, 5}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		if err := RunCrashTrial(t.TempDir(), seed, 6, 2); err != nil {
			t.Fatal(err)
		}
	}
}
