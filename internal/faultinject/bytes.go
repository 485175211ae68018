package faultinject

// Seeded byte-level corruption of wire frames: the transport faults
// (transport.go) use these to truncate and bit-flip frames in flight, so
// the dist chaos suite can prove every damaged frame is detected. Like the
// rest of the package this is pure plumbing — always compiled, driven only
// by explicit calls, inert unless a test invokes it. Both helpers key the
// corruption site off the content being corrupted (plus the caller's seed),
// so a given frame is damaged the same way on every run regardless of
// arrival order.

// hashBytes is hashPoint's byte-slice sibling: FNV-1a over the raw bytes
// xor the seed, with the same splitmix64 finalizer.
func hashBytes(seed uint64, b []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset) ^ seed
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// BitflipBytes flips one seeded bit of b in place and returns the bit
// index it flipped, or -1 for an empty slice. The bit is chosen by hashing
// (seed, contents), so the same input is always damaged identically.
func BitflipBytes(seed uint64, b []byte) int {
	if len(b) == 0 {
		return -1
	}
	bit := int(hashBytes(seed, b) % uint64(len(b)*8))
	b[bit/8] ^= 1 << (bit % 8)
	return bit
}

// TruncateBytes returns b cut to a seeded, strictly shorter prefix
// (possibly empty). The input slice is not modified; the result aliases it.
func TruncateBytes(seed uint64, b []byte) []byte {
	if len(b) == 0 {
		return b
	}
	return b[:int(hashBytes(seed^0x7de1c0de, b)%uint64(len(b)))]
}
