package checkpoint

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"permcell/internal/vec"
)

// FuzzCheckpointDecode drives Decode with arbitrary bytes: it must never
// panic and never over-allocate, and anything it accepts must be
// re-encodable to a stream that decodes to the same shape (the parser is a
// faithful inverse of the writer on its accepted language), always as the
// current version. The corpus seeds are the deterministic corruption tests'
// cases, in both formats the reader accepts: valid streams of 0/1/2 frames,
// truncations, bit flips, bad magic and a future version, plus a version-2
// frame whose particle count exceeds its payload.
func FuzzCheckpointDecode(f *testing.F) {
	f.Add(overcountedV2(f))
	var streams [][]byte
	for _, frames := range [][]Frame{nil, testFrames(1), testFrames(2)} {
		streams = append(streams, encodeNow(f, testMeta(7), frames), encodeOld(f, 1, testMeta(7), frames))
	}
	for _, full := range streams {
		f.Add(append([]byte(nil), full...))
		for _, n := range []int{0, 4, 8, 15, 16, len(full) / 2, len(full) - 1} {
			if n < len(full) {
				f.Add(append([]byte(nil), full[:n]...))
			}
		}
		for _, i := range []int{0, 8, 12, 16, 20, len(full) - 1} {
			mut := append([]byte(nil), full...)
			mut[i] ^= 0x10
			f.Add(mut)
		}
		f.Add(append(append([]byte(nil), full...), 0xAB))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		meta, frames, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted input: the decoded state must round-trip.
		var buf bytes.Buffer
		if err := Encode(&buf, meta, frames); err != nil {
			t.Fatalf("re-encoding accepted input: %v", err)
		}
		meta2, frames2, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding re-encoded input: %v", err)
		}
		if meta2.Step != meta.Step || meta2.Kind != meta.Kind || len(frames2) != len(frames) || meta2.Version != FormatVersion {
			t.Fatalf("round trip changed shape: step %d->%d kind %q->%q frames %d->%d version %d->%d",
				meta.Step, meta2.Step, meta.Kind, meta2.Kind, len(frames), len(frames2), meta.Version, meta2.Version)
		}
	})
}

func TestCheckFinite(t *testing.T) {
	frames := testFrames(2)
	if err := CheckFinite(frames); err != nil {
		t.Fatalf("clean frames rejected: %v", err)
	}
	bad := testFrames(2)
	bad[1].Vel[2] = vec.New(0, math.NaN(), 0)
	err := CheckFinite(bad)
	if err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("NaN velocity not rejected: %v", err)
	}
	bad = testFrames(1)
	bad[0].Pos[0] = vec.New(math.Inf(1), 0, 0)
	if CheckFinite(bad) == nil {
		t.Fatal("Inf position not rejected")
	}
	ragged := testFrames(1)
	ragged[0].Vel = ragged[0].Vel[:1]
	if CheckFinite(ragged) == nil {
		t.Fatal("ragged frame not rejected")
	}
}

// TestHugeLengthFieldDoesNotOverallocate corrupts a section length into the
// multi-chunk range of readPayload on a short file: the decode must fail on
// truncation without committing the full claimed allocation.
func TestHugeLengthFieldDoesNotOverallocate(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, testMeta(1), testFrames(1)); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	full := buf.Bytes()
	// Meta section length field sits right after magic(8)+header(8).
	full[16], full[17], full[18], full[19] = 0xFF, 0xFF, 0xFF, 0x1F // ~512 MiB
	if _, _, err := Decode(bytes.NewReader(full)); err == nil {
		t.Fatal("huge-length decode succeeded")
	}
}
