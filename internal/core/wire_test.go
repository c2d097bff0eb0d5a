package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"permcell/internal/balance"
	"permcell/internal/dlb"
	"permcell/internal/metrics"
	"permcell/internal/particle"
	"permcell/internal/space"
	"permcell/internal/transport"
	"permcell/internal/vec"
)

// The data plane used to cross the tcp transport inside a gob envelope.
// The table below holds the typed codec to what that envelope yielded, so
// the reference lives on here, in the test.
type gobEnvelope struct{ V any }

func init() {
	gob.Register([]int(nil))
	gob.Register([]any(nil))
	gob.Register([]float64(nil))
	gob.Register([]dlb.Decision(nil))
	gob.Register([]particle.One(nil))
	gob.Register(colTransfer{})
	gob.Register([]cellBlock(nil))
	gob.Register(loadCensus{})
	gob.Register(peRecord{})
	gob.Register(forceReturn{})
}

func viaGob(t *testing.T, v any) any {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&gobEnvelope{V: v}); err != nil {
		t.Fatalf("gob encode %T: %v", v, err)
	}
	var env gobEnvelope
	if err := gob.NewDecoder(&buf).Decode(&env); err != nil {
		t.Fatalf("gob decode %T: %v", v, err)
	}
	return env.V
}

func viaCodec(t *testing.T, v any) any {
	t.Helper()
	b, err := transport.EncodePayload(v)
	if err != nil {
		t.Fatalf("encode %T: %v", v, err)
	}
	got, err := transport.DecodePayload(b)
	if err != nil {
		t.Fatalf("decode %T: %v", v, err)
	}
	again, err := transport.EncodePayload(got)
	if err != nil || !bytes.Equal(again, b) {
		t.Fatalf("%T: the decoded value re-encodes differently (err %v)", v, err)
	}
	return got
}

// sameBits reports whether a and b are one payload as far as pe code can
// tell: the same type, the same lengths, every int equal and every float
// the same bit pattern. A nil slice and an empty one are one value — pe
// code only ranges over payload slices and takes their len.
func sameBits(a, b reflect.Value) bool {
	if a.IsValid() != b.IsValid() || (a.IsValid() && a.Type() != b.Type()) {
		return false
	}
	switch a.Kind() {
	case reflect.Invalid:
		return true
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Int, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Interface:
		return sameBits(a.Elem(), b.Elem())
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	panic("sameBits: payloads have no " + a.Kind().String())
}

func same(a, b any) bool { return sameBits(reflect.ValueOf(a), reflect.ValueOf(b)) }

// TestPayloadInventory is the full table of what pe.send and the
// collectives put on the wire, edge cases included. The typed codec must
// hand back the value bit for bit, and — wherever the gob envelope did the
// same — the same thing the envelope handed back.
func TestPayloadInventory(t *testing.T) {
	var (
		nan     = math.Float64frombits(0x7FF8_0000_0BAD_F00D)
		negZero = math.Copysign(0, -1)
		inf     = math.Inf(1)
		v1      = vec.New(1.25, -2.5, 1e-300)
		vOdd    = vec.New(nan, -inf, negZero)
		one     = particle.One{ID: 1 << 40, Pos: v1, Vel: vec.New(-0.1, 0.2, 0.3)}
		oneOdd  = particle.One{ID: -1, Pos: vOdd, Vel: vOdd}
		rec     = peRecord{
			Work: 1234, Wall: 0.001, Step: 0.002, Cells: 27, Empty: 3, Moved: 1, MovedBytes: 720,
			Ghosts: 98, PotE: -512.5, KinE: 333.25, N: 432,
			Phases: metrics.Sample{
				Secs:  [metrics.NumPhases]float64{1e-3, 2e-3, 3e-3, 4e-3, 5e-3, 6e-3, 7e-3},
				Msgs:  [metrics.NumPhases]int64{8, 8, 1, 8, 16, 0, 2},
				Bytes: [metrics.NumPhases]int64{0, 0, 720, 96, 4096, 0, 0},
			},
		}
		recOdd = peRecord{Work: nan, Wall: inf, Step: negZero, Cells: -1, MovedBytes: math.MinInt64, PotE: -inf, KinE: negZero, N: math.MaxInt}
	)
	// gobLosesSign marks the entries where the envelope was the unfaithful
	// one: gob omits struct fields that compare equal to zero, so a -0
	// inside a struct came back as +0 on tcp while the in-process transport
	// passed it through. The typed codec keeps the sign, like chan does.
	cases := []struct {
		name         string
		v            any
		gobLosesSign bool
	}{
		{name: "float64", v: 0.722},
		{name: "float64 nan payload", v: nan},
		{name: "float64 -inf", v: -inf},
		{name: "float64 -0", v: negZero},
		{name: "int64", v: int64(6912)},
		{name: "int64 min", v: int64(math.MinInt64)},
		{name: "[]int", v: []int{0, 5, 17, -1, math.MaxInt}},
		{name: "[]int nil", v: []int(nil)},
		{name: "[]int empty", v: []int{}},
		{name: "[]dlb.Decision", v: []dlb.Decision{{Col: 3, Dest: 7}, {Col: -1}}},
		{name: "[]dlb.Decision nil", v: []dlb.Decision(nil)},
		{name: "[]dlb.Decision empty", v: []dlb.Decision{}},
		{name: "[]particle.One", v: []particle.One{one, {ID: 2}}},
		{name: "[]particle.One odd floats", v: []particle.One{oneOdd}, gobLosesSign: true},
		{name: "[]particle.One nil", v: []particle.One(nil)},
		{name: "[]particle.One empty", v: []particle.One{}},
		{name: "[]cellBlock", v: []cellBlock{{Cell: 4, Pos: []vec.V{v1, v1}}, {Cell: 5, Pos: []vec.V{v1}}}},
		{name: "[]cellBlock empty Pos", v: []cellBlock{{Cell: 9}, {Cell: 10, Pos: []vec.V{}}, {Cell: 11, Pos: []vec.V{v1}}, {Cell: 12}}},
		{name: "[]cellBlock odd floats", v: []cellBlock{{Cell: -1, Pos: []vec.V{vOdd}}}, gobLosesSign: true},
		{name: "[]cellBlock nil", v: []cellBlock(nil)},
		{name: "[]cellBlock empty", v: []cellBlock{}},
		{name: "colTransfer", v: colTransfer{Ps: []particle.One{one, one}, Frc: []vec.V{v1, v1}}},
		{name: "colTransfer odd floats", v: colTransfer{Ps: []particle.One{oneOdd}, Frc: []vec.V{vOdd}}, gobLosesSign: true},
		{name: "colTransfer empty column", v: colTransfer{}},
		{name: "colTransfer empty slices", v: colTransfer{Ps: []particle.One{}, Frc: []vec.V{}}},
		{name: "colTransfer uneven", v: colTransfer{Ps: []particle.One{one}}},
		{name: "loadCensus", v: loadCensus{Load: 1e6, Cols: []int{0, 1, 2}, Pop: []int{40, 0, 7}}},
		{name: "loadCensus no columns", v: loadCensus{Load: nan}},
		{name: "forceReturn", v: forceReturn{Load: 123456, Cells: []cellBlock{{Cell: 4, Pos: []vec.V{v1, v1}}, {Cell: 5}, {Cell: 6, Pos: []vec.V{v1}}}}},
		{name: "forceReturn odd floats", v: forceReturn{Load: nan, Cells: []cellBlock{{Cell: -1, Pos: []vec.V{vOdd}}}}, gobLosesSign: true},
		{name: "forceReturn no cells", v: forceReturn{Load: negZero}, gobLosesSign: true},
		{name: "forceReturn empty cells", v: forceReturn{Cells: []cellBlock{}}},
		{name: "peRecord", v: rec},
		{name: "peRecord zero", v: peRecord{}},
		{name: "peRecord odd floats", v: recOdd, gobLosesSign: true},
		{name: "[]any of peRecord", v: []any{rec, peRecord{}, rec}},
		{name: "[]any of loadCensus", v: []any{loadCensus{Load: 1, Cols: []int{1}, Pop: []int{2}}, loadCensus{}}},
		{name: "[]any of []int", v: []any{[]int{1, 2}, []int(nil), []int{}}},
		{name: "[]any of []particle.One", v: []any{[]particle.One{one}, []particle.One(nil)}},
		{name: "[]any of float64", v: []any{1.5, nan, inf, negZero}},
		{name: "[]any nested", v: []any{[]any{rec}, []any(nil)}},
		{name: "[]any nil", v: []any(nil)},
		{name: "[]any empty", v: []any{}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := viaCodec(t, c.v)
			if !same(got, c.v) {
				t.Errorf("typed round trip yields %#v, want %#v", got, c.v)
			}
			old := viaGob(t, c.v)
			if c.gobLosesSign {
				if same(old, c.v) {
					t.Error("the gob envelope kept this value whole: drop the gobLosesSign mark")
				}
				return
			}
			if !same(got, old) {
				t.Errorf("typed round trip yields %#v, the gob envelope yielded %#v", got, old)
			}
		})
	}
}

// TestCellBlockArena: one message's positions land in one allocation, and
// a block cannot reach its neighbour's through its own capacity.
func TestCellBlockArena(t *testing.T) {
	v := vec.New(1, 2, 3)
	blocks := viaCodec(t, []cellBlock{{Cell: 1, Pos: []vec.V{v, v}}, {Cell: 2}, {Cell: 3, Pos: []vec.V{v}}}).([]cellBlock)
	if unsafe.Add(unsafe.Pointer(&blocks[0].Pos[0]), 2*unsafe.Sizeof(v)) != unsafe.Pointer(&blocks[2].Pos[0]) {
		t.Error("the blocks' positions are not contiguous in one arena")
	}
	if cap(blocks[0].Pos) != 2 || cap(blocks[2].Pos) != 1 {
		t.Errorf("block capacities %d, %d leak into the arena", cap(blocks[0].Pos), cap(blocks[2].Pos))
	}
	if blocks[1].Pos != nil {
		t.Errorf("an empty block decoded to %#v", blocks[1].Pos)
	}
}

// TestCellBlockCountsMustAgree: the position count in the header is what
// sizes the arena, so block lengths that overrun or undershoot it are a
// malformed payload, not a short read into someone else's cell.
func TestCellBlockCountsMustAgree(t *testing.T) {
	v := vec.New(1, 2, 3)
	good, err := transport.EncodePayload([]cellBlock{{Cell: 1, Pos: []vec.V{v}}, {Cell: 2, Pos: []vec.V{v, v}}})
	if err != nil {
		t.Fatal(err)
	}
	const firstLen = 1 + 4 + 4 + 8 // type byte, nb, np, first block's Cell
	for name, n := range map[string]byte{"overrun": 2, "undershoot": 0} {
		bad := append([]byte(nil), good...)
		bad[firstLen] = n
		if _, err := transport.DecodePayload(bad); err == nil || !strings.Contains(err.Error(), "cell blocks") {
			t.Errorf("%s: got %v", name, err)
		}
	}
}

// TestPayloadCodecCoversProtocol runs the engine split across two blocks
// whose only link is the payload codec (memRemote), under a neighbour-scope
// and a global-scope balancer with the per-step verification on, through
// Finish. A payload type without a codec fails its send and so the run; and
// what crossed must be the whole inventory of wire.go, so a payload added to
// the protocol without a row in that table shows up here.
func TestPayloadCodecCoversProtocol(t *testing.T) {
	nc := 9
	l := float64(nc) * 2.5
	n := int(math.Round(0.3 * l * l * l))
	sys, err := blobGas(n, float64(n)/(l*l*l), 0.722, 0.7, 4.0, 31)
	if err != nil {
		t.Fatal(err)
	}
	g, err := space.NewGridWithDims(sys.Box, nc, nc, nc)
	if err != nil {
		t.Fatal(err)
	}
	sent := make(map[reflect.Type]bool)
	for _, b := range []balance.Balancer{balance.PermanentCell{}, balance.SFC{}} {
		in := instantiation{p: 9, split: 4}
		cfg := in.config(t, g)
		cfg.Balancer = b
		cfg.Verify = true
		cfg.RescaleEvery = 20 // inside the run: the float64 allreduce crosses too
		r := in.start(t, cfg, sys)
		if err := r.Step(40); err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		res, err := r.Finish()
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		if res.Final.Len() != sys.Set.Len() {
			t.Fatalf("%s: %d particles of %d arrived", b.Name(), res.Final.Len(), sys.Set.Len())
		}
		for _, rm := range r.remotes {
			for typ := range rm.sent {
				sent[typ] = true
			}
		}
	}
	want := []any{
		float64(0), int64(0), []int(nil), []any(nil), []dlb.Decision(nil), []particle.One(nil),
		[]cellBlock(nil), colTransfer{}, loadCensus{}, peRecord{}, forceReturn{},
	}
	for _, v := range want {
		if typ := reflect.TypeOf(v); !sent[typ] {
			t.Errorf("no %v crossed the block boundary: the run does not exercise it", typ)
		} else {
			delete(sent, typ)
		}
	}
	for typ := range sent {
		t.Errorf("%v crossed the block boundary but is missing from the inventory in wire.go", typ)
	}
}
