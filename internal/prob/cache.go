package prob

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/mat"
)

// This file implements the structural-fingerprint cache: repeated solves of
// a content-identical problem — qosd's repeat traffic — reuse the
// lowered/compiled form instead of lowering again.

// Fingerprint identifies a Problem at two precisions. Shape hashes only the
// structure — dimensions, sparsity bookkeeping (row lengths, senses, bound
// finiteness patterns, integrality marks), and the problem kind — so two
// instances of the same model with different coefficients share a Shape.
// Content additionally hashes every coefficient bit pattern, so equal
// Content (with equal Shape) means the problems are numerically identical
// and the compiled backend form can be reused verbatim.
type Fingerprint struct {
	Shape   uint64
	Content uint64
}

// FNV-1a parameters.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// digest feeds one stream of words into both hashes (structure) or the
// content hash alone (values).
type digest struct {
	shape, content uint64
}

func newDigest() *digest { return &digest{shape: fnvOffset, content: fnvOffset} }

func mix(h uint64, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// structural mixes words into both the shape and content hashes.
func (d *digest) structural(vs ...uint64) {
	for _, v := range vs {
		d.shape = mix(d.shape, v)
		d.content = mix(d.content, v)
	}
}

// value mixes a float's bit pattern into the content hash only.
func (d *digest) value(f float64) {
	d.content = mix(d.content, math.Float64bits(f))
}

func (d *digest) values(fs []float64) {
	d.structural(uint64(len(fs)))
	for _, f := range fs {
		d.value(f)
	}
}

func (d *digest) matrix(m *mat.Matrix) {
	if m == nil {
		d.structural(0, 0)
		return
	}
	d.structural(uint64(m.Rows), uint64(m.Cols))
	for _, f := range m.Data {
		d.value(f)
	}
}

// boundKind classifies a variable's box structurally, matching the cases the
// lp backend's standard-form conversion branches on (both-finite, lower-only,
// upper-only, free).
func boundKind(lo, hi float64) uint64 {
	k := uint64(0)
	if !math.IsInf(lo, -1) {
		k |= 1
	}
	if !math.IsInf(hi, 1) {
		k |= 2
	}
	return k
}

// Fingerprint hashes the problem. See the Fingerprint type for the
// shape/content contract.
func (p *Problem) Fingerprint() Fingerprint {
	d := newDigest()
	if p.Matrix != nil {
		m := p.Matrix
		d.structural(1, uint64(m.Dim), uint64(m.Obj), boolWord(m.PSD), uint64(len(m.A)))
		d.matrix(m.C)
		for _, a := range m.A {
			d.matrix(a)
		}
		d.values(m.B)
		return Fingerprint{Shape: d.shape, Content: d.content}
	}
	d.structural(2, uint64(p.NumVars), boolWord(p.Obj.Maximize), uint64(len(p.Obj.Lin)))
	d.values(p.Obj.Lin)
	d.matrix(p.Obj.Quad)
	d.value(p.Obj.Const)
	d.structural(boolWord(p.Lo != nil), boolWord(p.Hi != nil))
	for j := 0; j < p.NumVars; j++ {
		lo, hi := p.Bound(j)
		d.structural(boundKind(lo, hi))
		d.value(lo)
		d.value(hi)
	}
	d.structural(uint64(len(p.Integer)))
	for _, j := range p.Integer {
		d.structural(uint64(j))
	}
	d.structural(uint64(len(p.Lin)))
	for _, c := range p.Lin {
		d.structural(uint64(c.Sense))
		d.values(c.Coeffs)
		d.value(c.RHS)
	}
	d.structural(uint64(len(p.Quad)))
	for _, c := range p.Quad {
		d.structural(uint64(c.Sense))
		d.matrix(c.P)
		d.values(c.Q)
		d.value(c.R)
	}
	d.structural(uint64(len(p.Bilin)))
	for _, b := range p.Bilin {
		d.structural(uint64(b.W), uint64(b.X), uint64(b.Y))
	}
	return Fingerprint{Shape: d.shape, Content: d.content}
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Cache memoizes lowered/compiled forms keyed by structural fingerprint: one
// in-memory map behind one lock, safe for concurrent use, whose entries are
// immutable once stored.
//
// The lock is never a bottleneck (one lookup and at most one store per rung
// solve of milliseconds). It is an RWMutex rather than a Mutex for code
// layout only: a Mutex puts lp.pivot at 32 mod 64 in the perfbench binary,
// costing verify-exact about 20% of its throughput (ci.sh prints the offset).
//
// The contract, enforced by Solve: equal Shape and equal Content → the
// compiled backend problem is reused verbatim (Result.CacheHit), skipping
// lowering and compilation. Nothing else is shared: the cache holds no
// solutions, so no solve is ever seeded by another solve's answer, and a
// cached solve is bit-identical to an uncached one whatever ran through the
// cache before it. The compiled form is a pure function of the problem, so a
// bad solve cannot poison it.
//
// One entry per Shape bounds memory by the number of distinct shapes; same-
// shape instances with different coefficients evict each other, so hit
// counts depend on solve order. Answers never do.
type Cache struct {
	mu           sync.RWMutex
	entries      map[uint64]*cacheEntry
	hits, misses atomic.Int64 // outside the lock: record() never contends
}

type cacheEntry struct {
	content uint64
	low     *loweredForm
}

// CacheStats reports cache effectiveness counters.
type CacheStats struct {
	// Hits counts solves that reused a compiled backend form verbatim.
	Hits int
	// Misses counts solves that lowered and compiled from scratch.
	Misses int
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[uint64]*cacheEntry)}
}

// DisableWarmStarts is a no-op kept for source compatibility: the cache
// stores compiled forms only, so there are no warm starts to disable.
// Returns c.
//
// Deprecated: the cache never warm-starts; drop the call.
func (c *Cache) DisableWarmStarts() *Cache { return c }

// Stats returns a snapshot of the counters. Nil-safe.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{Hits: int(c.hits.Load()), Misses: int(c.misses.Load())}
}

// lookup returns the entry for a shape, or nil. Nil-safe.
func (c *Cache) lookup(shape uint64) *cacheEntry {
	if c == nil {
		return nil
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.entries[shape]
}

// store records the lowered form for a shape, replacing (never mutating)
// any previous entry. low must share no memory with the caller's problem
// (Solve lowers a private clone). Nil-safe.
func (c *Cache) store(fp Fingerprint, low *loweredForm) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[fp.Shape] = &cacheEntry{content: fp.Content, low: low}
}

// record updates the effectiveness counters for one solve. Nil-safe.
func (c *Cache) record(hit bool) {
	if c == nil {
		return
	}
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
}
