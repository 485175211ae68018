package prob_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/prob"
	"repro/internal/wire"
)

var updateWire = flag.Bool("update-wire", false, "rewrite the golden wire fixtures from current encoder output")

// goldenDir is where the pinned wire-format fixtures live: next to the codec
// primitives in internal/wire, since the bytes pin the frame layout itself,
// not just the prob payload walk.
const goldenDir = "../wire/testdata"

// goldenWireFixtures are the three pinned lowered problems from ISSUE 9:
// an SDP relaxation, its trace-minimization surrogate, and the qos MILP.
func goldenWireFixtures(t *testing.T) map[string]*prob.Problem {
	t.Helper()
	all := wireFixtureProblems(t)
	return map[string]*prob.Problem{
		"tracemin": all["tracemin"],
		"sdp":      all["sdp"],
		"qos_milp": all["qos_milp"],
	}
}

// TestGoldenWireFixtures pins the frame byte layout: any codec change that
// alters the bytes of an already-released frame must bump wire.Version and
// regenerate these files deliberately (-update-wire), never silently.
func TestGoldenWireFixtures(t *testing.T) {
	for name, p := range goldenWireFixtures(t) {
		t.Run(name, func(t *testing.T) {
			w := wire.GetWriter()
			defer wire.PutWriter(w)
			p.EncodeWire(w)
			got := w.Bytes()

			path := filepath.Join(goldenDir, name+".bin")
			if *updateWire {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update-wire to generate): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("encoded bytes drifted from golden %s: got %d bytes, want %d — if intentional, bump wire.Version and regenerate", path, len(got), len(want))
			}

			// The pinned bytes still decode to the original problem.
			dec, err := prob.DecodeProblem(want, nil)
			if err != nil {
				t.Fatalf("golden fixture no longer decodes: %v", err)
			}
			if !reflect.DeepEqual(dec, p) {
				t.Fatal("golden fixture decodes to a different problem")
			}
		})
	}
}

// TestGoldenWireVersionSkewRejected proves the cross-version contract: a
// frame stamped with a future format version is refused with ErrVersion
// before anything else is believed — even its checksum, which a future
// writer might compute differently.
func TestGoldenWireVersionSkewRejected(t *testing.T) {
	for name := range goldenWireFixtures(t) {
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join(goldenDir, name+".bin"))
			if err != nil {
				t.Fatalf("read golden (run with -update-wire to generate): %v", err)
			}
			bumped := append([]byte(nil), data...)
			binary.LittleEndian.PutUint16(bumped[4:6], wire.Version+1)
			if _, err := prob.DecodeProblem(bumped, nil); !errors.Is(err, wire.ErrVersion) {
				t.Fatalf("bumped-version decode error = %v, want wire.ErrVersion", err)
			}
		})
	}
}
