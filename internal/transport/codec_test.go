package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// testPoint is a struct payload registered by this test binary only, under
// an id no package of the program uses: it stands in for the protocol's
// struct payloads, which internal/core registers and tests.
type testPoint struct {
	ID   int
	X, Y float64
}

func init() {
	RegisterPayload(200,
		func(b []byte, p testPoint) []byte {
			return AppendFloat64(AppendFloat64(AppendInt(b, p.ID), p.X), p.Y)
		},
		func(r *Reader) testPoint { return testPoint{ID: r.Int(), X: r.Float64(), Y: r.Float64()} })
}

func TestPayloadRoundTrip(t *testing.T) {
	nan := math.Float64frombits(0x7FF8_0000_DEAD_BEEF)
	for _, v := range []any{
		3.14, math.Inf(-1), math.Copysign(0, -1),
		int64(math.MinInt64), int64(42),
		[]int{-1, 0, math.MaxInt}, []int(nil),
		testPoint{ID: -7, X: 1, Y: -2},
		[]any{1.0, int64(2), []int{3}, testPoint{ID: 4}, []any{5.0, math.Inf(1)}},
		[]any(nil),
	} {
		b, err := EncodePayload(v)
		if err != nil {
			t.Fatalf("encode %#v: %v", v, err)
		}
		got, err := DecodePayload(b)
		if err != nil {
			t.Fatalf("decode %#v: %v", v, err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Errorf("round trip of %#v yields %#v", v, got)
		}
		again, err := AppendPayload([]byte("prefix"), got)
		if err != nil || !bytes.Equal(again, append([]byte("prefix"), b...)) {
			t.Errorf("%#v: AppendPayload behind a prefix differs from EncodePayload (err %v)", v, err)
		}
	}
	// reflect.DeepEqual calls no NaN equal to itself: compare the bits.
	b, _ := EncodePayload([]any{nan, -nan})
	got, err := DecodePayload(b)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{nan, -nan} {
		if g := got.([]any)[i].(float64); math.Float64bits(g) != math.Float64bits(want) {
			t.Errorf("NaN %d: bits %#x, want %#x", i, math.Float64bits(g), math.Float64bits(want))
		}
	}
	// An empty slice and a nil one are the same message.
	empty, _ := EncodePayload([]int{})
	null, _ := EncodePayload([]int(nil))
	if !bytes.Equal(empty, null) {
		t.Errorf("empty and nil []int encode differently: %x vs %x", empty, null)
	}
}

// TestPayloadLayout pins the documented wire form: type byte, then
// little-endian fixed-width fields.
func TestPayloadLayout(t *testing.T) {
	b, err := EncodePayload([]int{1, -2})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{idInts, 2, 0, 0, 0,
		1, 0, 0, 0, 0, 0, 0, 0,
		0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	if !bytes.Equal(b, want) {
		t.Fatalf("[]int{1,-2} encodes as % x, want % x", b, want)
	}
	b, _ = EncodePayload(1.0)
	if want := append([]byte{idFloat64}, binary.LittleEndian.AppendUint64(nil, math.Float64bits(1))...); !bytes.Equal(b, want) {
		t.Fatalf("1.0 encodes as % x, want % x", b, want)
	}
}

// TestPayloadUnregistered: a type without a codec is an error that names
// it — at the top level and nested in a list — and never a fallback.
func TestPayloadUnregistered(t *testing.T) {
	type stranger struct{ A int }
	for _, v := range []any{stranger{1}, []any{1.0, stranger{2}}, nil, 7, "text", []any{nil}} {
		b, err := AppendPayload([]byte("keep"), v)
		if err == nil {
			t.Fatalf("%#v encoded to % x", v, b)
		}
		if string(b) != "keep" {
			t.Errorf("%#v: failed append returned %q, want the input slice", v, b)
		}
	}
	_, err := EncodePayload([]any{stranger{2}})
	if err == nil || !strings.Contains(err.Error(), "transport.stranger") {
		t.Fatalf("error %v does not name the unregistered type", err)
	}
}

func TestPayloadDecodeRejects(t *testing.T) {
	valid, _ := EncodePayload([]any{[]int{1, 2, 3}, 2.5})
	cases := map[string][]byte{
		"empty":           nil,
		"unknown id":      {99, 0, 0, 0, 0},
		"id zero":         {0},
		"trailing byte":   append(append([]byte(nil), valid...), 0),
		"short scalar":    {idFloat64, 1, 2, 3},
		"lying count":     {idInts, 0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3},
		"count over body": {idInts, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"nested unknown":  {idAnys, 1, 0, 0, 0, 77},
		"nested too deep": bytes.Repeat([]byte{idAnys, 1, 0, 0, 0}, maxNesting+1),
	}
	for cut := 1; cut < len(valid); cut++ {
		cases[fmt.Sprintf("truncated at %d", cut)] = valid[:cut]
	}
	for name, b := range cases {
		v, err := DecodePayload(b)
		if !errors.Is(err, ErrMalformedPayload) {
			t.Errorf("%s: want ErrMalformedPayload, got value %#v, error %v", name, v, err)
		}
		if v != nil {
			t.Errorf("%s: a rejected payload still returned %#v", name, v)
		}
	}
}

// TestPayloadLyingCountAllocatesNothing: a count is checked against the
// bytes present before anything is made from it, so the most a hostile
// four-byte count can cost is its own error message. TotalAlloc counts what
// every goroutine of the test binary allocates, so each payload is decoded
// in many windows of one call each and judged by the smallest growth: a
// stray allocation elsewhere lands in some windows, never in all of them,
// while a decode that allocates shows in every one.
func TestPayloadLyingCountAllocatesNothing(t *testing.T) {
	const windows = 32
	for id := 0; id < 256; id++ {
		if codecByID[id] == nil {
			continue
		}
		b := append([]byte{byte(id)}, bytes.Repeat([]byte{0xFF}, 64)...)
		least := uint64(math.MaxUint64)
		for range windows {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := DecodePayload(b)
			runtime.ReadMemStats(&after)
			// Scalars and testPoint read 0xFF.. as a value and then find
			// bytes left over; everything counted sees 4 billion elements
			// in 60 B.
			if err == nil {
				t.Fatalf("id %d: 0xFF.. payload accepted", id)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > 4<<10 {
			t.Errorf("id %d: rejecting a 65-byte payload allocated %d bytes (the least of %d calls)", id, least, windows)
		}
	}
}

func TestRegisterPayloadRejectsDuplicates(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	type fresh struct{}
	enc := func(b []byte, _ fresh) []byte { return b }
	dec := func(*Reader) fresh { return fresh{} }
	mustPanic("id 0", func() { RegisterPayload(0, enc, dec) })
	mustPanic("taken id", func() { RegisterPayload(idInts, enc, dec) })
	mustPanic("taken type", func() { RegisterPayload(201, AppendFloat64, (*Reader).Float64) })
	if codecByID[201] != nil || codecByType[reflect.TypeFor[fresh]()] != nil {
		t.Error("a rejected registration left an entry behind")
	}
}
