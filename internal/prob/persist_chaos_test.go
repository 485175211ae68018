//go:build faultinject

package prob_test

// Chaos soak for the persistent cache's on-disk trust boundary (build tag:
// faultinject; ci.sh runs it with the chaos stage). Snapshot directories
// are corrupted with seeded faults at three depths:
//
//	bitflip  — one seeded bit anywhere in a shard file; every byte of a
//	           file sits inside a checksummed frame, so exactly one frame
//	           must detect it (entry skipped-and-counted, or whole file
//	           refused when the preamble is hit)
//	truncate — the file is cut to a seeded strictly-shorter prefix,
//	           severing framing mid-stream; the tail is counted corrupt
//	forge    — the high-impact case: a problem coefficient inside an entry
//	           is changed (mantissa bit 51, faultinject's CorruptBitFlip
//	           convention), the problem frame is re-encoded whole (valid
//	           checksum and fingerprint) and the entry checksum is
//	           recomputed, so only the identity check of the entry header
//	           against the problem it carries can refuse the entry
//
// The pinned contract: 100% of corruptions are detected and counted, every
// solve through a corrupted-then-loaded cache is bit-identical to an
// uncached solve, and the whole outcome matrix is identical at
// RCR_WORKERS=1 and 8.

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cert"
	"repro/internal/faultinject"
	"repro/internal/guard"
	"repro/internal/par"
	"repro/internal/prob"
	"repro/internal/rng"
	"repro/internal/wire"
)

// chaosMILP builds a seeded qos column MILP with nRB resource blocks, so
// different nRB values give distinct shape fingerprints (distinct cache
// entries spread across shards).
func chaosMILP(seed uint64, nRB int) *prob.Problem {
	r := rng.New(seed)
	const nU, nL = 2, 2
	n := nU * nRB * nL
	levels := []float64{0.1, 0.2}
	p := &prob.Problem{NumVars: n, Hi: make([]float64, n)}
	p.Obj.Maximize = true
	p.Obj.Lin = make([]float64, n)
	for i := 0; i < n; i++ {
		p.Obj.Lin[i] = (1 + levels[i%nL]) * (1 + 0.25*r.Float64())
		p.Hi[i] = 1
		p.Integer = append(p.Integer, i)
	}
	for b := 0; b < nRB; b++ {
		row := prob.LinCon{Coeffs: make([]float64, n), Sense: prob.LE, RHS: 1}
		for u := 0; u < nU; u++ {
			for l := 0; l < nL; l++ {
				row.Coeffs[(u*nRB+b)*nL+l] = 1
			}
		}
		p.Lin = append(p.Lin, row)
	}
	for u := 0; u < nU; u++ {
		pow := prob.LinCon{Coeffs: make([]float64, n), Sense: prob.LE, RHS: 0.5}
		rate := prob.LinCon{Coeffs: make([]float64, n), Sense: prob.GE, RHS: 0.5}
		for b := 0; b < nRB; b++ {
			for l := 0; l < nL; l++ {
				i := (u*nRB+b)*nL + l
				pow.Coeffs[i] = levels[l]
				rate.Coeffs[i] = 1 + levels[l]
			}
		}
		p.Lin = append(p.Lin, pow, rate)
	}
	return p
}

func chaosWorkload() []*prob.Problem {
	out := make([]*prob.Problem, 0, 4)
	for i, nRB := range []int{3, 4, 5, 6} {
		out = append(out, chaosMILP(uint64(100+i), nRB))
	}
	return out
}

// persistOutcome is one comparable record of a corrupted-load run.
type persistOutcome struct {
	Mode    string
	File    string
	Loaded  int
	Corrupt int
	// Solves records, per workload problem, the bitwise answer, status,
	// cache path, and cert verdict of a re-solve through the loaded cache.
	Solves []persistSolve
}

type persistSolve struct {
	ObjBits  uint64
	XBits    []uint64
	Nodes    int
	Status   guard.Status
	Verdict  cert.Verdict
	CacheHit bool
}

// writeSnapshot solves the workload through a fresh cache and snapshots it.
func writeSnapshot(t *testing.T, dir string, workload []*prob.Problem) {
	t.Helper()
	c := prob.NewCache()
	for i, p := range workload {
		res, err := prob.Solve(p, prob.Options{Cache: c})
		if err != nil {
			t.Fatalf("workload %d: %v", i, err)
		}
		if res.Status != guard.StatusConverged {
			t.Fatalf("workload %d status %v", i, res.Status)
		}
	}
	st, err := c.Snapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != len(workload) {
		t.Fatalf("snapshot = %+v, want %d entries", st, len(workload))
	}
}

// copySnapshot clones a snapshot directory so each case corrupts its own.
func copySnapshot(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(src, "shard-*.rcr"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, filepath.Base(f)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// nonEmptyShardFiles lists snapshot files that carry at least one entry.
func nonEmptyShardFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "shard-*.rcr"))
	if err != nil {
		t.Fatal(err)
	}
	const preamble = wire.HeaderSize + 4 + wire.ChecksumSize
	var out []string
	for _, f := range files {
		info, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() > preamble {
			out = append(out, filepath.Base(f))
		}
	}
	if len(out) == 0 {
		t.Fatal("snapshot carries no entries to corrupt")
	}
	return out
}

// forgeEntries changes one objective coefficient of the problem inside
// every entry of a shard file and re-encodes that problem frame whole, so
// its own checksum and fingerprint are valid, then repairs the entry
// checksum. The entry header still names the original problem: only the
// identity check can refuse it. Returns the number of entries forged.
func forgeEntries(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	preLen, err := wire.FrameLen(data)
	if err != nil {
		t.Fatal(err)
	}
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	copy(w.Extend(preLen), data[:preLen])
	forged := 0
	for off := preLen; off < len(data); {
		n, err := wire.FrameLen(data[off:])
		if err != nil {
			t.Fatalf("clean snapshot has broken framing at %d: %v", off, err)
		}
		h, payload, err := wire.OpenFrame(data[off : off+n])
		if err != nil {
			t.Fatal(err)
		}
		off += n
		probLen, err := wire.FrameLen(payload)
		if err != nil {
			t.Fatal(err)
		}
		p, err := prob.DecodeProblem(payload[:probLen], nil)
		if err != nil {
			t.Fatal(err)
		}
		// Mantissa bit 51 of the first nonzero coefficient (bit 51 of a
		// zero is a subnormal, indistinguishable from zero).
		hit := false
		for k, v := range p.Obj.Lin {
			if v != 0 {
				p.Obj.Lin[k] = math.Float64frombits(math.Float64bits(v) ^ 1<<51)
				hit = true
				break
			}
		}
		if !hit {
			t.Fatal("objective is all zeros; nothing to forge")
		}
		start := w.BeginFrame(h)
		p.EncodeWire(w)
		copy(w.Extend(len(payload)-probLen), payload[probLen:])
		w.EndFrame(start)
		forged++
	}
	if err := os.WriteFile(path, w.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return forged
}

// runPersistChaos executes the full corruption matrix against one pristine
// snapshot and returns comparable outcomes. Everything is keyed off seeds
// and file contents, never call order or clocks.
func runPersistChaos(t *testing.T) []persistOutcome {
	t.Helper()
	workload := chaosWorkload()
	pristine := t.TempDir()
	writeSnapshot(t, pristine, workload)
	shardFiles := nonEmptyShardFiles(t, pristine)

	// Reference: uncached solves. Loading the pristine snapshot restores
	// every entry, and re-solves through it are cache hits that equal the
	// reference.
	uncached := solveThrough(t, nil, workload)
	clean := prob.NewCache()
	cleanSt, err := clean.Load(pristine)
	if err != nil {
		t.Fatal(err)
	}
	if cleanSt.Entries != len(workload) || cleanSt.Corrupt != 0 {
		t.Fatalf("pristine LoadStats = %+v", cleanSt)
	}
	for i, s := range solveThrough(t, clean, workload) {
		if !s.CacheHit || s.Status != guard.StatusConverged {
			t.Fatalf("clean reference solve %d: %+v", i, s)
		}
		s.CacheHit = false
		if !reflect.DeepEqual(s, uncached[i]) {
			t.Fatalf("clean cached solve %d differs from uncached:\n cached:   %+v\n uncached: %+v", i, s, uncached[i])
		}
	}

	var outcomes []persistOutcome
	for _, mode := range []string{"bitflip", "truncate", "forge"} {
		for fi, name := range shardFiles {
			dir := t.TempDir()
			copySnapshot(t, pristine, dir)
			path := filepath.Join(dir, name)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			seed := uint64(0xc4a05<<8) + uint64(fi)
			wantForged := 0
			switch mode {
			case "bitflip":
				faultinject.BitflipBytes(seed, data)
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			case "truncate":
				if err := os.WriteFile(path, faultinject.TruncateBytes(seed, data), 0o644); err != nil {
					t.Fatal(err)
				}
			case "forge":
				wantForged = forgeEntries(t, path)
			}

			c := prob.NewCache()
			st, err := c.Load(dir)
			if err != nil {
				t.Fatalf("%s/%s: Load errored instead of skipping: %v", mode, name, err)
			}

			// Detection is mandatory: a corrupted file must lose entries
			// or count corrupt frames — never load as if nothing happened.
			detected := st.Entries < cleanSt.Entries || st.Corrupt > 0
			if !detected {
				t.Errorf("%s/%s: corruption loaded silently: %+v", mode, name, st)
			}
			if mode == "forge" {
				// Forged frames pass both checksums and the problem's own
				// fingerprint by construction; the entry-header identity
				// check must refuse every one of them.
				if st.Corrupt != wantForged || st.Entries != cleanSt.Entries-wantForged {
					t.Errorf("forge/%s: LoadStats = %+v, want %d corrupt of %d entries",
						name, st, wantForged, cleanSt.Entries)
				}
			}

			// Zero silently-wrong: every solve through the damaged cache
			// must equal the uncached solve bit for bit.
			solves := solveThrough(t, c, workload)
			for i := range solves {
				got := solves[i]
				got.CacheHit = false
				if !reflect.DeepEqual(got, uncached[i]) {
					t.Errorf("%s/%s: solve %d diverged from the uncached solve:\n corrupt:  %+v\n uncached: %+v",
						mode, name, i, solves[i], uncached[i])
				}
			}

			outcomes = append(outcomes, persistOutcome{
				Mode: mode, File: name,
				Loaded: st.Entries, Corrupt: st.Corrupt,
				Solves: solves,
			})
		}
	}
	return outcomes
}

func solveThrough(t *testing.T, c *prob.Cache, workload []*prob.Problem) []persistSolve {
	t.Helper()
	out := make([]persistSolve, len(workload))
	for i, p := range workload {
		res, err := prob.Solve(p, prob.Options{Cache: c})
		if err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
		verdict := cert.VerdictNone
		if res.Cert != nil {
			verdict = res.Cert.Verdict
		}
		s := persistSolve{
			ObjBits:  math.Float64bits(res.Objective),
			Status:   res.Status,
			Verdict:  verdict,
			CacheHit: res.CacheHit,
		}
		for _, x := range res.X {
			s.XBits = append(s.XBits, math.Float64bits(x))
		}
		if res.MILP != nil {
			s.Nodes = res.MILP.Nodes
		}
		out[i] = s
	}
	return out
}

// TestPersistChaos runs the on-disk corruption matrix at RCR_WORKERS=1 and
// 8 and requires bit-identical outcomes end to end.
func TestPersistChaos(t *testing.T) {
	t.Setenv(par.EnvWorkers, "1")
	serial := runPersistChaos(t)
	t.Setenv(par.EnvWorkers, "8")
	wide := runPersistChaos(t)
	if !reflect.DeepEqual(serial, wide) {
		for i := range serial {
			if i < len(wide) && !reflect.DeepEqual(serial[i], wide[i]) {
				t.Errorf("workers 1 vs 8 diverge at %s/%s:\n  1: %+v\n  8: %+v",
					serial[i].Mode, serial[i].File, serial[i], wide[i])
			}
		}
		t.Fatal("persist chaos outcomes are not worker-count invariant")
	}
}
