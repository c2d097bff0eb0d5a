package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"permcell/internal/vec"
)

// flatMeta is the header as versions 1 and 2 wrote it: the identity fields
// beside Step, where version 3 nests them in Meta's embedded Spec.
type flatMeta struct {
	Version             int
	Kind                string
	Step                int
	M, P, NC, Shape     int
	Rho                 float64
	DLB                 bool
	Wells               int
	WellK, Hysteresis   float64
	Seed                uint64
	Dt                  float64
	StatsEvery, Shards  int
	Balancer            string
	CommMsgs, CommBytes int64
}

// encodeOld is the writer this package no longer has: a version-1 or -2
// stream, its header flat, its frame sections gob structs (version 1) or
// the fixed layout (version 2). Tests build old files with it instead of
// reaching into testdata.
func encodeOld(tb testing.TB, version uint32, meta *Meta, frames []Frame) []byte {
	tb.Helper()
	out := append([]byte(nil), magic[:]...)
	out = le.AppendUint32(out, version)
	out = le.AppendUint32(out, uint32(len(frames)))
	add := func(payload []byte) {
		out = le.AppendUint32(out, uint32(len(payload)))
		out = le.AppendUint32(out, crc32.ChecksumIEEE(payload))
		out = append(out, payload...)
	}
	section := func(v any) {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			tb.Fatalf("gob: %v", err)
		}
		add(buf.Bytes())
	}
	m := meta
	section(&flatMeta{
		Version: int(version), Kind: m.Kind, Step: m.Step,
		M: m.M, P: m.P, NC: m.NC, Shape: int(m.Shape), Rho: m.Rho,
		DLB: m.DLB, Wells: m.Wells, WellK: m.WellK, Hysteresis: m.Hysteresis,
		Seed: m.Seed, Dt: m.Dt, StatsEvery: m.StatsEvery, Shards: m.Shards,
		Balancer: m.Balancer, CommMsgs: m.CommMsgs, CommBytes: m.CommBytes,
	})
	for i := range frames {
		if version == 1 {
			section(frameV1(frames[i]))
			continue
		}
		b, err := frames[i].MarshalBinary()
		if err != nil {
			tb.Fatalf("frame %d: %v", i, err)
		}
		add(b)
	}
	return out
}

func encodeNow(tb testing.TB, meta *Meta, frames []Frame) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, meta, frames); err != nil {
		tb.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

// oddFrames holds the values a lossy codec would normalise: quiet and
// signalling NaNs with payloads, both infinities, negative zero, a
// denormal, negative IDs and columns.
func oddFrames() []Frame {
	odd := []float64{
		math.Float64frombits(0x7ff8_0000_dead_beef), math.Float64frombits(0xfff0_0000_0000_0001),
		math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.SmallestNonzeroFloat64,
	}
	f := Frame{Rank: 1, Cols: []int{-3, 0, math.MaxInt}}
	for i, x := range odd {
		f.ID = append(f.ID, int64(-1-i))
		f.Pos = append(f.Pos, vec.New(x, odd[(i+1)%len(odd)], 1.5))
		f.Vel = append(f.Vel, vec.New(-2.5, x, odd[(i+2)%len(odd)]))
	}
	return []Frame{{Rank: 0}, f}
}

// words flattens a frame to its 8-byte words, so NaNs compare by bits.
func words(f *Frame) []uint64 {
	w := []uint64{uint64(f.Rank), uint64(len(f.ID)), uint64(len(f.Pos)), uint64(len(f.Vel)), uint64(len(f.Cols))}
	for _, id := range f.ID {
		w = append(w, uint64(id))
	}
	for _, vs := range [][]vec.V{f.Pos, f.Vel} {
		for _, v := range vs {
			w = append(w, math.Float64bits(v.X), math.Float64bits(v.Y), math.Float64bits(v.Z))
		}
	}
	for _, c := range f.Cols {
		w = append(w, uint64(c))
	}
	return w
}

func sameFrames(t *testing.T, what string, got, want []Frame) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d frames, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(words(&got[i]), words(&want[i])) {
			t.Errorf("%s: frame %d differs bit for bit:\n got %+v\nwant %+v", what, i, got[i], want[i])
		}
	}
}

func TestFileRoundTripPreservesBits(t *testing.T) {
	want := oddFrames()
	_, got, err := Decode(bytes.NewReader(encodeNow(t, testMeta(3), want)))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	sameFrames(t, "v2 file", got, want)
	if CheckFinite(got) == nil {
		t.Error("CheckFinite passed frames holding NaN and Inf")
	}
}

func TestFrameBinaryLayout(t *testing.T) {
	f := testFrames(3)[2]
	b, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if want := frameHeaderBytes + particleBytes*len(f.ID) + 8*len(f.Cols); len(b) != want {
		t.Fatalf("%d bytes for %d particles and %d columns, want %d", len(b), len(f.ID), len(f.Cols), want)
	}
	pre := []byte("prefix")
	ab, err := f.AppendBinary(pre)
	if err != nil || !bytes.Equal(ab[:len(pre)], pre) || !bytes.Equal(ab[len(pre):], b) {
		t.Fatalf("AppendBinary disagrees with MarshalBinary (err %v)", err)
	}
	var got Frame
	if err := got.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, f) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, f)
	}
	// Every miscounted payload is refused: a short header, a count that
	// overruns the bytes present, and bytes left over after the counts.
	over := slices.Clone(b)
	le.PutUint64(over[8:], uint64(len(f.ID)+1))
	huge := slices.Clone(b)
	le.PutUint64(huge[8:], math.MaxUint64/particleBytes+2) // n*particleBytes wraps
	for name, bad := range map[string][]byte{
		"short header": b[:frameHeaderBytes-1], "truncated": b[:len(b)-8], "overrun": over,
		"wrapping count": huge, "trailing word": append(slices.Clone(b), make([]byte, 8)...),
		"trailing byte": append(slices.Clone(b), 0),
	} {
		if err := new(Frame).UnmarshalBinary(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestRaggedFrameRefusesToEncode(t *testing.T) {
	frames := testFrames(4)
	frames[3].Vel = frames[3].Vel[:2]
	err := Encode(new(bytes.Buffer), testMeta(1), frames)
	if err == nil || !strings.Contains(err.Error(), "rank 3") || !strings.Contains(err.Error(), "ragged") {
		t.Fatalf("ragged rank-3 frame: Encode returned %v", err)
	}
	if _, err := frames[3].MarshalBinary(); err == nil {
		t.Fatal("MarshalBinary accepted a ragged frame")
	}
}

// TestV1StreamsStillDecode pins the reader's half of the version policy: a
// version-1 or version-2 stream, its header flat, decodes to the header
// and frames the current round trip gives, and saving what it decoded moves
// the file to the current version.
func TestV1StreamsStillDecode(t *testing.T) {
	// gob omits a zero-valued field and -0 counted as one, so version 1
	// never held a -0 (it restored as +0); everything else odd it kept.
	odd := oddFrames()
	for _, vs := range [][]vec.V{odd[1].Pos, odd[1].Vel} {
		for i := range vs {
			vs[i] = vec.New(vs[i].X+0, vs[i].Y+0, vs[i].Z+0) // -0 + 0 = +0
		}
	}
	for name, frames := range map[string][]Frame{"plain": testFrames(4), "odd": odd, "none": nil} {
		meta := testMeta(9)
		meta.Shape = 2 // a field per kind of value: a flat header holds them all
		m2, f2, err := Decode(bytes.NewReader(encodeNow(t, meta, frames)))
		if err != nil {
			t.Fatalf("%s: Decode: %v", name, err)
		}
		for _, v := range []uint32{1, 2} {
			label := fmt.Sprintf("%s v%d", name, v)
			m1, f1, err := Decode(bytes.NewReader(encodeOld(t, v, meta, frames)))
			if err != nil {
				t.Fatalf("%s: Decode: %v", label, err)
			}
			if m1.Version != int(v) || m2.Version != FormatVersion {
				t.Fatalf("%s: versions %d and %d, want %d and %d", label, m1.Version, m2.Version, v, FormatVersion)
			}
			sameFrames(t, label+" against current", f1, f2)
			if name == "plain" && !reflect.DeepEqual(f1, f2) {
				t.Errorf("%s: old and current decodes differ in shape (nil against empty?)", label)
			}
			// Encode stamps the version it writes, whatever the header says.
			m3, f3, err := Decode(bytes.NewReader(encodeNow(t, m1, f1)))
			if err != nil {
				t.Fatalf("%s: re-encoded: %v", label, err)
			}
			sameFrames(t, label+" re-encoded", f3, f2)
			m1.Version = FormatVersion
			if !reflect.DeepEqual(m1, m2) || !reflect.DeepEqual(m3, m2) {
				t.Errorf("%s: headers differ beyond the version:\n old %+v\n re-encoded %+v\n current %+v", label, m1, m3, m2)
			}
		}
	}
	// A ragged version-1 frame was representable; it is refused on the way in.
	ragged := testFrames(2)
	ragged[1].Pos = ragged[1].Pos[:1]
	if _, _, err := Decode(bytes.NewReader(encodeOld(t, 1, testMeta(1), ragged))); err == nil || !strings.Contains(err.Error(), "ragged") {
		t.Fatalf("ragged v1 frame: Decode returned %v", err)
	}
}

// overcountedV2 is a version-2 stream whose frame section is intact by CRC
// but claims more particles than its payload holds.
func overcountedV2(tb testing.TB) []byte {
	raw := encodeNow(tb, testMeta(1), testFrames(1))
	metaLen := int(le.Uint32(raw[fileHeaderBytes:]))
	sec := fileHeaderBytes + sectionHeaderBytes + metaLen
	payload := raw[sec+sectionHeaderBytes:]
	le.PutUint64(payload[8:], 1<<40)
	le.PutUint32(raw[sec+4:], crc32.ChecksumIEEE(payload))
	return raw
}

func TestOvercountedFrameIsRefused(t *testing.T) {
	_, _, err := Decode(bytes.NewReader(overcountedV2(t)))
	if err == nil || !strings.Contains(err.Error(), "claims") {
		t.Fatalf("Decode returned %v", err)
	}
}

// TestHugeFrameCountDoesNotOverallocate corrupts the header's frame count
// to the largest value Decode lets through on a one-frame file: the decode
// must fail on truncation having allocated for the sections that arrived,
// not for the count (1<<20 Frames would be ~109 MB).
func TestHugeFrameCountDoesNotOverallocate(t *testing.T) {
	raw := encodeNow(t, testMeta(1), testFrames(1))
	le.PutUint32(raw[12:], maxFrames)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := Decode(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("huge-count decode succeeded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("decode of a %d-byte file allocated %d bytes", len(raw), got)
	}
	le.PutUint32(raw[12:], maxFrames+1)
	if _, _, err := Decode(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "implausible") {
		t.Fatalf("frame count over the limit: %v", err)
	}
}

// benchFrames builds p frames of n particles each, the shape of a
// benchmark workload's checkpoint.
func benchFrames(p, n int) []Frame {
	frames := make([]Frame, p)
	for r := range frames {
		f := &frames[r]
		f.Rank = r
		f.ID, f.Pos, f.Vel = make([]int64, n), make([]vec.V, n), make([]vec.V, n)
		for i := range f.ID {
			x := float64(r*n + i)
			f.ID[i], f.Pos[i], f.Vel[i] = int64(r*n+i), vec.New(x, 0.5*x, 0.25*x), vec.New(-x, 1/(1+x), 3)
		}
		if p > 1 {
			f.Cols = []int{r, r + p, r + 2*p}
		}
	}
	return frames
}

// benchShapes are the checkpoints of the two benchmark workloads that live
// on this path: serial_50k (one frame of 55 296) and resilience (4 x 4 096).
var benchShapes = []struct {
	name string
	p, n int
}{{"serial_50k", 1, 55296}, {"resilience", 4, 4096}}

func BenchmarkCheckpointEncode(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			meta, frames := testMeta(1), benchFrames(s.p, s.n)
			var buf bytes.Buffer
			if err := Encode(&buf, meta, frames); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(buf.Len()))
			b.ReportAllocs()
			for b.Loop() {
				buf.Reset()
				if err := Encode(&buf, meta, frames); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCheckpointDecode(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			raw := encodeNow(b, testMeta(1), benchFrames(s.p, s.n))
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := Decode(bytes.NewReader(raw)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckpointSave times what a cadence checkpoint pays in this
// package: encode into the Saver's kept buffer, write the temporary file
// and rotate, into a directory that already holds latest and previous.
func BenchmarkCheckpointSave(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			dir, meta, frames := b.TempDir(), testMeta(1), benchFrames(s.p, s.n)
			var sv Saver
			for range 2 {
				if _, err := sv.Save(dir, meta, frames); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(sv.buf)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := sv.Save(dir, meta, frames); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestEncodeAllocatesConstantTimes is the benchmarks' hard half: a
// steady-state Encode into a presized buffer allocates the same number of
// times whatever the frame count and size — the header's gob encoder and
// the one output buffer — not once per section or per buffer doubling.
func TestEncodeAllocatesConstantTimes(t *testing.T) {
	allocs := func(p, n int) float64 {
		meta, frames := testMeta(1), benchFrames(p, n)
		var buf bytes.Buffer
		return testing.AllocsPerRun(5, func() {
			buf.Reset()
			if err := Encode(&buf, meta, frames); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := allocs(1, 8)
	for _, s := range benchShapes {
		if got := allocs(s.p, s.n); got != base {
			t.Errorf("%s: %v allocations per Encode, %v for one 8-particle frame", s.name, got, base)
		}
	}
	if got := allocs(64, 512); got != base {
		t.Errorf("64 frames: %v allocations per Encode, %v for one", got, base)
	}
	if base > 64 {
		t.Errorf("%v allocations per Encode: the header's gob encoder alone should cost a few dozen", base)
	}
	t.Logf("%v allocations per Encode", base)
}

// pinnedEncodings are the SHA-256 sums of Encode's output on fixed inputs:
// the two benchShapes and the odd values (−0, NaN payloads, ±Inf) of
// oddFrames, whose math.MaxInt column is swapped for one every GOARCH
// holds alike. Any change to how a checkpoint is encoded into bytes — buffer
// handling included — must leave these as they are; a layout change is a
// new FormatVersion and new sums.
var pinnedEncodings = map[string]string{
	"serial_50k": "6aa9558eb203e0f3a002835bddd228505e0983d7bfe6c2dc273fc11115724e8d",
	"resilience": "7d823264d9543eccf4b480cf30dd079a5d6e2f5db9ac61409bb050b9885dd212",
	"odd":        "11dfad306a57845c1f7e2cc325bdaaa9d73180c218975d6a698d094e3801bb90",
}

func TestEncodeBytesPinned(t *testing.T) {
	odd := oddFrames()
	odd[1].Cols[2] = math.MaxInt32
	inputs := map[string][]Frame{"odd": odd}
	for _, s := range benchShapes {
		inputs[s.name] = benchFrames(s.p, s.n)
	}
	for name, frames := range inputs {
		sum := sha256.Sum256(encodeNow(t, testMeta(1), frames))
		if got := hex.EncodeToString(sum[:]); got != pinnedEncodings[name] {
			t.Errorf("%s: Encode output hashes to %s, pinned %s", name, got, pinnedEncodings[name])
		}
	}
}
