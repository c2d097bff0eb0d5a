package transport_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	_ "permcell/internal/core" // registers the protocol's struct payloads (ids 16..22)
	"permcell/internal/transport"
)

// wire builds payloads by hand from the layout table in
// internal/core/wire.go, so the seeds below pin the documented format
// independently of the encoders.
type wire []byte

func (w wire) u8(v byte) wire           { return append(w, v) }
func (w wire) u32(v uint32) wire        { return binary.LittleEndian.AppendUint32(w, v) }
func (w wire) i64(v int64) wire         { return binary.LittleEndian.AppendUint64(w, uint64(v)) }
func (w wire) f64(v float64) wire       { return binary.LittleEndian.AppendUint64(w, math.Float64bits(v)) }
func (w wire) vec(x, y, z float64) wire { return w.f64(x).f64(y).f64(z) }
func (w wire) one(id int64) wire        { return w.i64(id).vec(1, 2, 3).vec(-1, -2, -3) }

// payloadSeeds is one well-formed payload of every registered type.
func payloadSeeds() map[string][]byte {
	peRecord := wire{21}
	for i := 0; i < 32; i++ { // 11 scalars + 3 x 7 phase entries, 8 bytes each
		peRecord = peRecord.i64(int64(i))
	}
	census := wire{20}.f64(12.5).u32(2).i64(3).i64(4).u32(2).i64(40).i64(0)
	return map[string][]byte{
		"float64":        wire{1}.f64(math.NaN()),
		"int64":          wire{2}.i64(-6912),
		"[]int":          wire{3}.u32(3).i64(1).i64(-2).i64(3),
		"[]int empty":    wire{3}.u32(0),
		"[]any floats":   wire{5}.u32(2).u8(1).f64(math.Inf(-1)).u8(1).f64(math.Copysign(0, -1)),
		"[]any":          append(append(wire{5}.u32(3), peRecord...), append(census, wire{3}.u32(1).i64(9)...)...),
		"[]any nested":   wire{5}.u32(1).u8(5).u32(1).u8(1).f64(1),
		"[]dlb.Decision": wire{16}.u32(2).i64(3).i64(7).i64(-1).i64(0),
		"[]particle.One": wire{17}.u32(2).one(1).one(1 << 40),
		"[]cellBlock":    wire{18}.u32(3).u32(3).i64(4).u32(2).i64(5).u32(0).i64(6).u32(1).vec(1, 2, 3).vec(4, 5, 6).vec(7, 8, 9),
		"colTransfer":    wire{19}.u32(2).u32(2).one(1).one(2).vec(1, 1, 1).vec(2, 2, 2),
		"loadCensus":     census,
		"peRecord":       peRecord,
		"forceReturn":    wire{22}.f64(1.5e6).u32(2).u32(2).i64(4).u32(2).i64(5).u32(0).vec(1, 2, 3).vec(-4, -5, -6),
	}
}

// TestPayloadSeedsDecode holds the hand-built seeds to the codecs: each is
// accepted and re-encodes to itself, so the layout table, the encoders and
// the decoders agree.
func TestPayloadSeedsDecode(t *testing.T) {
	for name, b := range payloadSeeds() {
		v, err := transport.DecodePayload(b)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if again, err := transport.EncodePayload(v); err != nil || !bytes.Equal(again, b) {
			t.Errorf("%s: decodes to %#v, which re-encodes as % x (err %v), want % x", name, v, again, err, b)
		}
	}
}

// FuzzPayloadDecode hammers the payload codec with arbitrary bytes.
// Contract: DecodePayload never panics; it rejects unknown type ids,
// counts the bytes present cannot back and trailing bytes with
// ErrMalformedPayload and no value; and anything it accepts re-encodes
// byte for byte — which also bounds what an accepted payload can make the
// decoder allocate, since every element decoded is at least a byte encoded
// (TestPayloadLyingCountAllocatesNothing covers the rejected side).
func FuzzPayloadDecode(f *testing.F) {
	for _, seed := range payloadSeeds() {
		f.Add(seed)
		for cut := 0; cut < len(seed); cut += 5 {
			f.Add(seed[:cut])
		}
		f.Add(append(append([]byte(nil), seed...), 0)) // a trailing byte
		if len(seed) >= 5 {
			lying := append([]byte(nil), seed...)
			binary.LittleEndian.PutUint32(lying[1:], 0xFFFFFFFF) // where the counted types keep their count
			f.Add(lying)
		}
	}
	f.Add([]byte{0})
	f.Add([]byte{99, 1, 2, 3})
	f.Add(bytes.Repeat([]byte{5, 1, 0, 0, 0}, 40)) // lists all the way down
	// A cell-block header whose block lengths disagree with its position count.
	f.Add([]byte(wire{18}.u32(1).u32(1).i64(4).u32(2).vec(1, 2, 3)))
	f.Add([]byte(wire{22}.f64(0).u32(1).u32(1).i64(4).u32(2).vec(1, 2, 3))) // the same behind a force return's load

	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := transport.DecodePayload(data)
		if err != nil {
			if v != nil {
				t.Fatalf("rejected payload still yielded %#v", v)
			}
			if !errors.Is(err, transport.ErrMalformedPayload) {
				t.Fatalf("rejection is not ErrMalformedPayload: %v", err)
			}
			return
		}
		again, err := transport.EncodePayload(v)
		if err != nil {
			t.Fatalf("accepted payload decodes to %#v, which does not encode: %v", v, err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted % x re-encodes as % x", data, again)
		}
	})
}
