package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"
)

func TestScalarRoundTrip(t *testing.T) {
	w := GetWriter()
	defer PutWriter(w)
	w.U8(0xab)
	w.U16(0xbeef)
	w.U32(0xdeadbeef)
	w.U64(0x0123456789abcdef)
	w.I64(-42)
	w.F64(math.Pi)
	w.F64(math.Copysign(0, -1))
	w.F64(math.Float64frombits(0x7ff8000000000bad)) // NaN with payload
	w.Bool(true)
	w.Bool(false)
	w.String("trail: ToSDP")
	w.F64s([]float64{1.5, -2.25, 0})
	w.F64s(nil)
	w.F64s([]float64{})
	w.Ints([]int{3, -1, 1 << 40})

	r := NewReader(w.Bytes())
	if got := r.U8(); got != 0xab {
		t.Errorf("U8 = %#x", got)
	}
	if got := r.U16(); got != 0xbeef {
		t.Errorf("U16 = %#x", got)
	}
	if got := r.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.U64(); got != 0x0123456789abcdef {
		t.Errorf("U64 = %#x", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := r.F64(); math.Float64bits(got) != math.Float64bits(math.Copysign(0, -1)) {
		t.Errorf("-0 did not round-trip bitwise: %#x", math.Float64bits(got))
	}
	if got := r.F64(); math.Float64bits(got) != 0x7ff8000000000bad {
		t.Errorf("NaN payload did not round-trip: %#x", math.Float64bits(got))
	}
	if !r.Bool() || r.Bool() {
		t.Error("bools did not round-trip")
	}
	if got := r.String(); got != "trail: ToSDP" {
		t.Errorf("String = %q", got)
	}
	if got := r.F64s(nil); !reflect.DeepEqual(got, []float64{1.5, -2.25, 0}) {
		t.Errorf("F64s = %v", got)
	}
	if got := r.F64s(nil); got != nil {
		t.Errorf("nil F64s decoded as %v", got)
	}
	if got := r.F64s(nil); got == nil || len(got) != 0 {
		t.Errorf("empty F64s decoded as %v (nil=%v)", got, got == nil)
	}
	if got := r.Ints(nil); !reflect.DeepEqual(got, []int{3, -1, 1 << 40}) {
		t.Errorf("Ints = %v", got)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("clean stream errored: %v", err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bytes left over", r.Remaining())
	}
}

func TestReaderReuseIsAllocationFree(t *testing.T) {
	w := GetWriter()
	defer PutWriter(w)
	w.F64s([]float64{1, 2, 3, 4})
	data := append([]byte(nil), w.Bytes()...)
	dst := make([]float64, 0, 8)
	allocs := testing.AllocsPerRun(100, func() {
		r := NewReader(data)
		dst = r.F64s(dst)
		if r.Err() != nil {
			t.Fatal(r.Err())
		}
	})
	if allocs != 0 {
		t.Fatalf("reused F64s decode allocates %v/op", allocs)
	}
}

func TestStickyError(t *testing.T) {
	r := NewReader([]byte{1, 2})
	_ = r.U64() // truncated
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", r.Err())
	}
	first := r.Err()
	_ = r.U8() // would succeed on a fresh reader; must stay failed
	if r.Err() != first {
		t.Fatalf("sticky error replaced: %v", r.Err())
	}
}

func TestHostileLengthPrefixDoesNotAllocate(t *testing.T) {
	// A claimed 1<<31-element slice backed by 4 bytes must fail with
	// ErrTruncated before allocating.
	w := GetWriter()
	defer PutWriter(w)
	w.U8(1)
	w.U32(1 << 31)
	w.U32(0) // 4 bytes of "data"
	r := NewReader(w.Bytes())
	if got := r.F64s(nil); got != nil {
		t.Fatalf("hostile decode returned %v", got)
	}
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", r.Err())
	}
}

func TestFrameRoundTrip(t *testing.T) {
	w := GetWriter()
	defer PutWriter(w)
	h := Header{Kind: KindProblem, Shape: 0x1111, Content: 0x2222}
	start := w.BeginFrame(h)
	w.F64(2.5)
	w.String("payload")
	w.EndFrame(start)

	got, payload, err := OpenFrame(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	h.Version = Version
	if got != h {
		t.Fatalf("header = %+v, want %+v", got, h)
	}
	r := NewReader(payload)
	if v := r.F64(); v != 2.5 {
		t.Errorf("payload F64 = %v", v)
	}
	if s := r.String(); s != "payload" {
		t.Errorf("payload String = %q", s)
	}
	if n, err := FrameLen(w.Bytes()); err != nil || n != w.Len() {
		t.Fatalf("FrameLen = %d, %v; want %d", n, err, w.Len())
	}
}

func TestNestedFrames(t *testing.T) {
	w := GetWriter()
	defer PutWriter(w)
	outer := w.BeginFrame(Header{Kind: KindSubproblem})
	w.U32(2)
	for i := uint64(0); i < 2; i++ {
		inner := w.BeginFrame(Header{Kind: KindProblem, Shape: i})
		w.U64(100 + i)
		w.EndFrame(inner)
	}
	w.EndFrame(outer)

	_, payload, err := OpenFrame(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(payload)
	if n := r.U32(); n != 2 {
		t.Fatalf("count = %d", n)
	}
	for i := uint64(0); i < 2; i++ {
		fb := r.FrameBytes()
		if fb == nil {
			t.Fatalf("entry %d: %v", i, r.Err())
		}
		h, body, err := OpenFrame(fb)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if h.Kind != KindProblem || h.Shape != i {
			t.Fatalf("entry %d header = %+v", i, h)
		}
		br := NewReader(body)
		if v := br.U64(); v != 100+i {
			t.Fatalf("entry %d body = %d", i, v)
		}
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenFrameErrors(t *testing.T) {
	w := GetWriter()
	defer PutWriter(w)
	start := w.BeginFrame(Header{Kind: KindProblem, Shape: 7})
	w.F64s([]float64{1, 2, 3})
	w.EndFrame(start)
	good := append([]byte(nil), w.Bytes()...)

	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 3, HeaderSize - 1, len(good) - 1} {
			if _, _, err := OpenFrame(good[:n]); !errors.Is(err, ErrTruncated) {
				t.Errorf("len %d: err = %v, want ErrTruncated", n, err)
			}
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] ^= 0xff
		if _, _, err := OpenFrame(bad); !errors.Is(err, ErrBadMagic) {
			t.Errorf("err = %v, want ErrBadMagic", err)
		}
	})
	t.Run("version checked before checksum", func(t *testing.T) {
		// Bump the version bytes WITHOUT fixing the checksum: the decoder
		// must say ErrVersion, not ErrChecksum, because a future version
		// may use a different trailer algorithm entirely.
		bad := append([]byte(nil), good...)
		binary.LittleEndian.PutUint16(bad[4:6], Version+1)
		if _, _, err := OpenFrame(bad); !errors.Is(err, ErrVersion) {
			t.Errorf("err = %v, want ErrVersion", err)
		}
	})
	t.Run("checksum", func(t *testing.T) {
		for _, bit := range []int{HeaderSize*8 + 3, len(good)*8 - 1, 6 * 8} {
			bad := append([]byte(nil), good...)
			bad[bit/8] ^= 1 << (bit % 8)
			_, _, err := OpenFrame(bad)
			if err == nil {
				t.Errorf("bitflip at %d not detected", bit)
			}
		}
	})
	t.Run("trailing bytes ignored", func(t *testing.T) {
		padded := append(append([]byte(nil), good...), 0xde, 0xad)
		if _, _, err := OpenFrame(padded); err != nil {
			t.Errorf("trailing bytes broke OpenFrame: %v", err)
		}
	})
}

func TestExtend(t *testing.T) {
	w := GetWriter()
	defer PutWriter(w)
	w.U8(7)
	region := w.Extend(16)
	if len(region) != 16 {
		t.Fatalf("Extend returned %d bytes", len(region))
	}
	for i, b := range region {
		if b != 0 {
			t.Fatalf("Extend region not zeroed at %d", i)
		}
	}
	copy(region, []byte("hello"))
	if string(w.Bytes()[1:6]) != "hello" {
		t.Fatal("Extend region does not alias the buffer")
	}
}

func TestChecksumMatchesFingerprintConstants(t *testing.T) {
	// FNV-1a with the offset basis/prime shared with prob's digest.
	if got := Checksum(nil); got != 14695981039346656037 {
		t.Fatalf("empty checksum = %d", got)
	}
	want := uint64(14695981039346656037) ^ 'a'
	want *= 1099511628211
	if got := Checksum([]byte("a")); got != want {
		t.Fatalf("Checksum(a) = %d, want %d", got, want)
	}
}
