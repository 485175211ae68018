package serve_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/qos"
	"repro/internal/serve"
)

// TestServerWarmRestart: a server started on a previous instance's CacheDir
// restores the compiled forms at New, serves a repeated request as a cache
// hit, and produces a bit-identical allocation — the warm restart changes
// latency, never answers.
func TestServerWarmRestart(t *testing.T) {
	dir := t.TempDir()
	req := serve.Request{ID: 1, Class: qos.ClassEMBB, Problem: testProblem(t, 8), Seed: 8}

	s1 := serve.New(serve.Config{Workers: 2, CacheDir: dir, Budgets: evalBudgets()})
	cold := s1.Do(req)
	if cold.Outcome != serve.OutcomeServed && cold.Outcome != serve.OutcomeDegraded {
		t.Fatalf("cold outcome %v (err %v)", cold.Outcome, cold.Err)
	}
	s1.Close()
	st1 := s1.Stats()
	if st1.CacheSnapshots < 1 {
		t.Fatalf("Close wrote no snapshot: %+v", st1)
	}
	if st1.CachePersistErrors != 0 {
		t.Fatalf("persistence errors on a healthy run: %+v", st1)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "shard-*.rcr")); len(files) == 0 {
		t.Fatal("snapshot left no shard files")
	}

	s2 := serve.New(serve.Config{Workers: 2, CacheDir: dir, Budgets: evalBudgets()})
	defer s2.Close()
	st2 := s2.Stats()
	if st2.CacheLoaded < 1 {
		t.Fatalf("restart loaded nothing: %+v", st2)
	}
	if st2.CacheCorrupt != 0 {
		t.Fatalf("clean snapshot loaded corrupt entries: %+v", st2)
	}
	warm := s2.Do(req)
	if warm.Outcome != cold.Outcome {
		t.Fatalf("warm outcome %v, cold %v", warm.Outcome, cold.Outcome)
	}
	if !reflect.DeepEqual(warm.Alloc, cold.Alloc) || !reflect.DeepEqual(warm.Report, cold.Report) {
		t.Fatal("warm-restarted allocation diverges from the cold one")
	}
	if st := s2.Stats(); st.CacheHits < 1 {
		t.Fatalf("restored forms served no cache hit: %+v", st)
	}
}

// TestServerPeriodicSnapshot: with a one-tick cadence the server snapshots
// in the background while serving, and Close adds its final snapshot
// exactly once even when called twice.
func TestServerPeriodicSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := serve.New(serve.Config{Workers: 1, CacheDir: dir, SnapshotEvery: 1, Budgets: evalBudgets()})
	for i := 0; i < 3; i++ {
		resp := s.Do(serve.Request{ID: uint64(i), Class: qos.ClassEMBB, Problem: testProblem(t, 8), Seed: 8})
		if resp.Outcome != serve.OutcomeServed && resp.Outcome != serve.OutcomeDegraded {
			t.Fatalf("request %d: outcome %v (err %v)", i, resp.Outcome, resp.Err)
		}
	}
	s.Close()
	st := s.Stats()
	if st.CacheSnapshots < 2 {
		t.Fatalf("want at least one periodic plus the final snapshot, got %+v", st)
	}
	if st.CachePersistErrors != 0 {
		t.Fatalf("persistence errors: %+v", st)
	}
	s.Close() // idempotent: the final snapshot must not repeat
	if again := s.Stats(); again.CacheSnapshots != st.CacheSnapshots {
		t.Fatalf("second Close re-snapshotted: %d -> %d", st.CacheSnapshots, again.CacheSnapshots)
	}
}

// TestServerSnapshotEveryDisabled: a negative cadence leaves only the
// shutdown snapshot.
func TestServerSnapshotEveryDisabled(t *testing.T) {
	dir := t.TempDir()
	s := serve.New(serve.Config{Workers: 1, CacheDir: dir, SnapshotEvery: -1, Budgets: evalBudgets()})
	resp := s.Do(serve.Request{ID: 1, Class: qos.ClassEMBB, Problem: testProblem(t, 8), Seed: 8})
	if resp.Outcome != serve.OutcomeServed && resp.Outcome != serve.OutcomeDegraded {
		t.Fatalf("outcome %v (err %v)", resp.Outcome, resp.Err)
	}
	s.Close()
	if st := s.Stats(); st.CacheSnapshots != 1 {
		t.Fatalf("want exactly the final snapshot, got %+v", st)
	}
}
