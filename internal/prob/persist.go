// Persistent mode for the fingerprint cache (DESIGN.md §15): Snapshot dumps
// every shard to a directory of self-describing wire frames with atomic
// rename writes; Load restores them with a layered trust boundary. Lowered
// forms hold recovery closures and cannot travel, so an entry snapshots the
// original Problem instead and Load re-lowers it deterministically — the
// compiled form is a pure function of the problem, so a loaded form is
// bit-identical to the in-memory one it was saved from.
//
// Nothing loaded from disk is trusted until it proves itself, in three
// layers: the frame checksum (integrity), typed structural decode
// (structure), and the re-fingerprint of the decoded problem against both
// the problem frame and the entry header (identity). A corrupt entry is
// skipped and counted without aborting the rest of its shard.
//
// Wire Version 1 entry frames carry two incumbent slots after the problem
// (a vector and a matrix). Snapshot writes them empty; Load reads and drops
// whatever they hold, so snapshots that still carry incumbents load as
// forms.

package prob

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/wire"
)

// SnapshotStats reports what one Snapshot wrote.
type SnapshotStats struct {
	// Entries counts cache entries written across all shard files.
	Entries int
}

// LoadStats reports what one Load restored and what it refused.
type LoadStats struct {
	// Files counts shard files found in the directory.
	Files int
	// Entries counts entries that decoded cleanly and were inserted.
	Entries int
	// Corrupt counts entries skipped entirely: checksum mismatch, version
	// skew, structural decode failure, or fingerprint drift.
	Corrupt int
}

// snapshotFile names the file holding one shard's entries.
func snapshotFile(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%02d.rcr", shard))
}

// Snapshot writes the cache's full state to dir, one file per shard,
// creating dir if needed. Each file is written to a temporary name and
// atomically renamed into place, so a crash mid-snapshot leaves the
// previous snapshot intact. Nil-safe.
func (c *Cache) Snapshot(dir string) (SnapshotStats, error) {
	var st SnapshotStats
	if c == nil {
		return st, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return st, err
	}
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	for i := range c.shards {
		s := &c.shards[i]
		type kv struct {
			shape uint64
			ent   *cacheEntry
		}
		var items []kv
		s.mu.Lock()
		//lint:ignore nondet the map range only collects; snapshot bytes are made iteration-order invariant by the sort below
		for shape, ent := range s.entries {
			if ent.orig != nil {
				items = append(items, kv{shape, ent})
			}
		}
		s.mu.Unlock()
		sort.Slice(items, func(a, b int) bool { return items[a].shape < items[b].shape })

		w.Reset()
		pre := w.BeginFrame(wire.Header{Kind: wire.KindSnapshot, Shape: uint64(i)})
		w.U32(uint32(len(items)))
		w.EndFrame(pre)
		for _, it := range items {
			start := w.BeginFrame(wire.Header{Kind: wire.KindCacheEntry, Shape: it.shape, Content: it.ent.content})
			it.ent.orig.EncodeWire(w)
			w.F64s(nil)             // incumbent vector slot, always empty
			writeWireMatrix(w, nil) // incumbent matrix slot, always empty
			w.EndFrame(start)
			st.Entries++
		}

		path := snapshotFile(dir, i)
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, w.Bytes(), 0o644); err != nil {
			return st, err
		}
		if err := os.Rename(tmp, path); err != nil {
			return st, err
		}
	}
	return st, nil
}

// Load restores a Snapshot from dir into the cache. A missing directory is
// an empty snapshot, not an error. Already-cached shapes are never
// overwritten (live state wins over disk). Nil-safe.
func (c *Cache) Load(dir string) (LoadStats, error) {
	var st LoadStats
	if c == nil {
		return st, nil
	}
	for i := range c.shards {
		data, err := os.ReadFile(snapshotFile(dir, i))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return st, err
		}
		st.Files++
		c.loadShardFile(i, data, &st)
	}
	return st, nil
}

// loadShardFile restores one shard file, counting entries it refuses. The
// file is a snapshot preamble frame followed by its entry frames; once
// framing is lost (a corrupted length or magic), the remaining entries are
// unrecoverable and counted corrupt.
func (c *Cache) loadShardFile(shard int, data []byte, st *LoadStats) {
	preLen, err := wire.FrameLen(data)
	if err != nil {
		return // no countable entries: the preamble never decoded
	}
	h, payload, err := wire.OpenFrame(data)
	if err != nil || h.Kind != wire.KindSnapshot || uint64(shard) != h.Shape {
		return
	}
	r := wire.NewReader(payload)
	count := int(r.U32())
	if r.Err() != nil {
		return
	}
	off := preLen
	for i := 0; i < count; i++ {
		n, err := wire.FrameLen(data[off:])
		if err != nil {
			// Framing lost: everything from here on is unrecoverable.
			st.Corrupt += count - i
			return
		}
		frame := data[off : off+n]
		off += n
		if !c.loadEntry(frame, st) {
			st.Corrupt++
		}
	}
}

// loadEntry decodes, verifies, re-lowers, and (if trusted) inserts one
// entry frame, reporting whether the entry was structurally sound.
func (c *Cache) loadEntry(frame []byte, st *LoadStats) bool {
	h, payload, err := wire.OpenFrame(frame)
	if err != nil || h.Kind != wire.KindCacheEntry {
		return false
	}
	r := wire.NewReader(payload)
	probBytes := r.FrameBytes()
	if probBytes == nil {
		return false
	}
	orig, err := DecodeProblem(probBytes, nil)
	if err != nil {
		return false
	}
	// The incumbent slots are decoded for framing only and dropped.
	r.F64s(nil)
	readWireMatrix(&r, nil)
	if r.Err() != nil || r.Remaining() != 0 {
		return false
	}
	// The entry header must agree with the problem it carries: a stitched
	// or cross-copied entry would poison same-shape lookups.
	fp := orig.Fingerprint()
	if fp.Shape != h.Shape || fp.Content != h.Content {
		return false
	}
	low, err := lowerForBackend(orig)
	if err != nil {
		return false
	}
	st.Entries++
	s := c.shard(h.Shape)
	s.mu.Lock()
	if _, live := s.entries[h.Shape]; !live {
		s.entries[h.Shape] = &cacheEntry{content: h.Content, low: low, orig: orig}
	}
	s.mu.Unlock()
	return true
}
