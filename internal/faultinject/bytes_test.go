package faultinject

import (
	"bytes"
	"testing"
)

func TestBitflipBytesDeterministicSingleBit(t *testing.T) {
	orig := []byte("versioned wire frame payload")
	a := append([]byte(nil), orig...)
	b := append([]byte(nil), orig...)
	bitA := BitflipBytes(42, a)
	bitB := BitflipBytes(42, b)
	if bitA != bitB || !bytes.Equal(a, b) {
		t.Fatalf("same seed+input flipped different bits: %d vs %d", bitA, bitB)
	}
	diff := 0
	for i := range orig {
		for bit := 0; bit < 8; bit++ {
			if (orig[i]^a[i])&(1<<bit) != 0 {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Fatalf("flipped %d bits, want exactly 1", diff)
	}
	c := append([]byte(nil), orig...)
	if bitC := BitflipBytes(43, c); bitC == bitA && bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical corruption (suspicious)")
	}
	if BitflipBytes(1, nil) != -1 {
		t.Fatal("empty input must report -1")
	}
}

func TestTruncateBytesDeterministicAndShorter(t *testing.T) {
	orig := []byte("dist subproblem frame bytes")
	a := TruncateBytes(7, orig)
	b := TruncateBytes(7, orig)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed+input truncated differently")
	}
	if len(a) >= len(orig) {
		t.Fatalf("truncation kept %d of %d bytes, want strictly fewer", len(a), len(orig))
	}
	if !bytes.Equal(a, orig[:len(a)]) {
		t.Fatal("truncation is not a prefix")
	}
	if got := TruncateBytes(7, nil); len(got) != 0 {
		t.Fatal("empty input must stay empty")
	}
}
