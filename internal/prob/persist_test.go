package prob_test

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/guard"
	"repro/internal/par"
	"repro/internal/prob"
	"repro/internal/wire"
)

// solveAll solves every problem through one cache and asserts convergence.
func solveAll(t *testing.T, c *prob.Cache, ps []*prob.Problem) []*prob.Result {
	t.Helper()
	out := make([]*prob.Result, len(ps))
	for i, p := range ps {
		res, err := prob.Solve(p, prob.Options{Cache: c})
		if err != nil {
			t.Fatalf("problem %d: %v", i, err)
		}
		if res.Status != guard.StatusConverged {
			t.Fatalf("problem %d status %v", i, res.Status)
		}
		out[i] = res
	}
	return out
}

func TestCacheSnapshotLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	workload := []*prob.Problem{wireMILP(1, 0.25), wireMILP(2, 0.25), wireMILP(3, 0.25)}

	warm := prob.NewCache()
	solveAll(t, warm, workload)
	snap, err := warm.Snapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Entries != 1 {
		// All three instances share one shape fingerprint; the cache keys
		// by shape, so the snapshot carries the latest entry.
		t.Fatalf("snapshot wrote %d entries, want 1 (single shape)", snap.Entries)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("atomic rename left temp files: %v", tmps)
	}

	restored := prob.NewCache()
	st, err := restored.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := prob.LoadStats{Files: 16, Entries: 1}
	if st != want {
		t.Fatalf("LoadStats = %+v, want %+v", st, want)
	}

	// A content-identical re-solve through the restored cache is a cache
	// hit; the results match the warm cache's bit for bit.
	last := workload[len(workload)-1]
	fromDisk, err := prob.Solve(last, prob.Options{Cache: restored})
	if err != nil {
		t.Fatal(err)
	}
	if !fromDisk.CacheHit {
		t.Fatal("restored cache did not serve a content-identical hit")
	}
	inMem, err := prob.Solve(last, prob.Options{Cache: warm})
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, "restored vs in-memory", fromDisk, inMem)
}

// TestLoadedWarmStartBitIdentical is the acceptance pin for restored
// caches: a same-shape, new-content solve through a disk-loaded cache is
// bit-identical to one through the in-memory cache it was saved from, and
// to an uncached solve, at RCR_WORKERS=1 and 8.
func TestLoadedWarmStartBitIdentical(t *testing.T) {
	for _, workers := range []string{"1", "8"} {
		t.Run("workers="+workers, func(t *testing.T) {
			t.Setenv(par.EnvWorkers, workers)
			dir := t.TempDir()

			inMem := prob.NewCache()
			solveAll(t, inMem, []*prob.Problem{wireMILP(21, 0.25)})
			if _, err := inMem.Snapshot(dir); err != nil {
				t.Fatal(err)
			}
			fromDisk := prob.NewCache()
			st, err := fromDisk.Load(dir)
			if err != nil {
				t.Fatal(err)
			}
			if st.Entries != 1 {
				t.Fatalf("LoadStats = %+v, want 1 entry", st)
			}

			// Same shape, different content: a miss in both caches.
			a, err := prob.Solve(wireMILP(22, 0.5), prob.Options{Cache: fromDisk})
			if err != nil {
				t.Fatal(err)
			}
			b, err := prob.Solve(wireMILP(22, 0.5), prob.Options{Cache: inMem})
			if err != nil {
				t.Fatal(err)
			}
			want, err := prob.Solve(wireMILP(22, 0.5), prob.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if a.CacheHit || b.CacheHit {
				t.Fatalf("new content hit the cache: disk %v, mem %v", a.CacheHit, b.CacheHit)
			}
			sameAnswer(t, "disk vs mem", a, b)
			sameAnswer(t, "disk vs uncached", a, want)
		})
	}
}

// TestLoadDropsLegacyIncumbents: wire Version 1 entry frames keep two
// incumbent slots, which snapshots used to fill with the solution that
// produced the entry. Such a file must still load — as a form, with the
// incumbent read and dropped — and a solve through it must equal an
// uncached one, even when the stored incumbent is garbage.
func TestLoadDropsLegacyIncumbents(t *testing.T) {
	p := wireMILP(5, 0.25)
	dir := t.TempDir()
	c := prob.NewCache()
	solveAll(t, c, []*prob.Problem{p})
	if _, err := c.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "shard-*.rcr"))
	if err != nil {
		t.Fatal(err)
	}
	rewritten := 0
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		preLen, err := wire.FrameLen(data)
		if err != nil {
			t.Fatal(err)
		}
		if preLen == len(data) {
			continue // empty shard
		}
		h, payload, err := wire.OpenFrame(data[preLen:])
		if err != nil {
			t.Fatal(err)
		}
		probLen, err := wire.FrameLen(payload)
		if err != nil {
			t.Fatal(err)
		}
		// Re-emit the entry with a filled incumbent vector slot. NaNs make
		// it a point no certifier would accept: it must never be used.
		w := wire.GetWriter()
		w.Extend(preLen)
		copy(w.Bytes(), data[:preLen])
		start := w.BeginFrame(h)
		copy(w.Extend(probLen), payload[:probLen])
		x := make([]float64, p.NumVars)
		for i := range x {
			x[i] = math.NaN()
		}
		w.F64s(x)
		w.U8(0) // empty matrix slot
		w.EndFrame(start)
		if err := os.WriteFile(f, w.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		wire.PutWriter(w)
		rewritten++
	}
	if rewritten != 1 {
		t.Fatalf("rewrote %d shard files, want 1", rewritten)
	}

	restored := prob.NewCache()
	st, err := restored.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 1 || st.Corrupt != 0 {
		t.Fatalf("LoadStats = %+v, want 1 entry, 0 corrupt", st)
	}
	res, err := prob.Solve(wireMILP(5, 0.25), prob.Options{Cache: restored})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("legacy entry did not load as a compiled form")
	}
	want, err := prob.Solve(wireMILP(5, 0.25), prob.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, "legacy snapshot", res, want)
}

func TestLoadMissingDirIsEmpty(t *testing.T) {
	c := prob.NewCache()
	st, err := c.Load(filepath.Join(t.TempDir(), "never-written"))
	if err != nil {
		t.Fatal(err)
	}
	if st != (prob.LoadStats{}) {
		t.Fatalf("missing dir LoadStats = %+v, want zero", st)
	}
}

func TestLoadLiveEntryWins(t *testing.T) {
	dir := t.TempDir()
	old := prob.NewCache()
	solveAll(t, old, []*prob.Problem{wireMILP(6, 0.25)})
	if _, err := old.Snapshot(dir); err != nil {
		t.Fatal(err)
	}

	// The live cache has already solved a same-shape, different-content
	// instance; Load must not clobber it with the stale snapshot.
	live := prob.NewCache()
	solveAll(t, live, []*prob.Problem{wireMILP(7, 0.5)})
	if _, err := live.Load(dir); err != nil {
		t.Fatal(err)
	}
	res, err := prob.Solve(wireMILP(7, 0.5), prob.Options{Cache: live})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("live entry was clobbered by Load: content-identical solve missed")
	}
}

func TestLoadSkipsCorruptShardTail(t *testing.T) {
	dir := t.TempDir()
	warm := prob.NewCache()
	solveAll(t, warm, []*prob.Problem{wireMILP(8, 0.25)})
	if _, err := warm.Snapshot(dir); err != nil {
		t.Fatal(err)
	}

	// Truncate every non-empty shard file mid-entry: the preamble survives,
	// the entry does not, and Load must skip-and-count rather than error.
	files, err := filepath.Glob(filepath.Join(dir, "shard-*.rcr"))
	if err != nil {
		t.Fatal(err)
	}
	mangled := 0
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		const preamble = 32 + 4 + 8 // header + count payload + checksum
		if len(data) <= preamble {
			continue
		}
		if err := os.WriteFile(f, data[:preamble+10], 0o644); err != nil {
			t.Fatal(err)
		}
		mangled++
	}
	if mangled == 0 {
		t.Fatal("no shard file carried an entry to truncate")
	}

	c := prob.NewCache()
	st, err := c.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Corrupt != mangled || st.Entries != 0 {
		t.Fatalf("LoadStats = %+v, want %d corrupt and 0 loaded", st, mangled)
	}
}
