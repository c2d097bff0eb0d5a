package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
)

// Payload codecs. A KindData payload is one type byte followed by that
// type's fixed little-endian layout: every int and int64 is 8 bytes,
// every float64 its IEEE-754 bit pattern (so NaN payloads, infinities and
// -0 cross the wire bit for bit), every slice a uint32 element count
// followed by the elements. There is no self-description and no fallback:
// a value whose type has no registered codec does not encode, and an id
// nobody registered does not decode.
//
// Ids 1..15 belong to this package (the scalar and slice types the comm
// collectives send on their own); the packages that own the protocol's
// struct payloads register theirs from 16 up (internal/core/wire.go holds
// the table).
const (
	idFloat64 byte = 1 // 8 B
	idInt64   byte = 2 // 8 B
	idInts    byte = 3 // uint32 n, n x 8 B
	idAnys    byte = 5 // uint32 n, n x (type byte + body), nested (4 is retired)
)

// maxNesting bounds how deep []any may nest inside []any. The protocol
// nests once (Allgather broadcasts a []any of per-rank values); the bound
// keeps a hostile payload of nothing but list headers from recursing the
// decoder off its stack.
const maxNesting = 4

// ErrMalformedPayload marks a KindData payload the codec refuses: unknown
// type id, a count larger than the bytes present, a body cut short, bytes
// left over. Wrapped — use errors.Is.
var ErrMalformedPayload = errors.New("transport: malformed payload")

type codec struct {
	id  byte
	typ reflect.Type
	enc func(b []byte, v any) ([]byte, error)
	dec func(r *Reader) any
}

// The registration tables are filled from init functions only and read
// without a lock afterwards.
var (
	codecByID   [256]*codec
	codecByType = map[reflect.Type]*codec{}
)

// RegisterPayload installs the codec of payload type T under a type id.
// enc appends v's body (the type byte is already written) and dec reads it
// back; dec reports a short or inconsistent body through the Reader and
// may return anything once it has. Call it from an init function; a
// duplicate id or type is a programming error and panics.
func RegisterPayload[T any](id byte, enc func(b []byte, v T) []byte, dec func(r *Reader) T) {
	register(&codec{
		id:  id,
		typ: reflect.TypeFor[T](),
		enc: func(b []byte, v any) ([]byte, error) { return enc(b, v.(T)), nil },
		dec: func(r *Reader) any { return dec(r) },
	})
}

func register(c *codec) {
	if c.id == 0 {
		panic("transport: payload type id 0 is reserved")
	}
	if old := codecByID[c.id]; old != nil {
		panic(fmt.Sprintf("transport: payload type id %d registered for both %v and %v", c.id, old.typ, c.typ))
	}
	if old := codecByType[c.typ]; old != nil {
		panic(fmt.Sprintf("transport: payload type %v registered under both id %d and %d", c.typ, old.id, c.id))
	}
	codecByID[c.id] = c
	codecByType[c.typ] = c
}

// AppendPayload appends v's encoding — type byte, then the registered
// layout — to b and returns the extended slice. A value of a type without
// a codec is an error naming the type, and b comes back unextended.
func AppendPayload(b []byte, v any) ([]byte, error) {
	var c *codec
	if v != nil {
		c = codecByType[reflect.TypeOf(v)]
	}
	if c == nil {
		return b, fmt.Errorf("transport: encode payload: no codec registered for type %T", v)
	}
	out, err := c.enc(append(b, c.id), v)
	if err != nil {
		return b, err
	}
	return out, nil
}

// EncodePayload returns v's encoding in a fresh slice, ready to be a
// KindData frame's Payload.
func EncodePayload(v any) ([]byte, error) { return AppendPayload(nil, v) }

// DecodePayload reverses EncodePayload. It copies everything it returns
// out of b, allocates nothing a count merely claims, and rejects an
// unknown type id and any byte left over after the value.
func DecodePayload(b []byte) (any, error) {
	r := Reader{b: b}
	v := r.value()
	if r.err == nil && len(r.b) != 0 {
		r.Fail(fmt.Sprintf("%d trailing bytes", len(r.b)))
	}
	if r.err != nil {
		return nil, r.err
	}
	return v, nil
}

// Reader is the decoding cursor handed to a registered codec. Errors are
// sticky: after the first short read every accessor returns zero, so a
// codec reads its whole layout and leaves the check to DecodePayload.
type Reader struct {
	b     []byte
	err   error
	depth int
}

// Fail marks the payload malformed; the first reason sticks. Codecs call
// it for a consistency rule only they know (two counts that must agree).
func (r *Reader) Fail(why string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrMalformedPayload, why)
	}
}

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Bytes consumes the next n bytes and returns them as a window into the
// payload (copy out of it before returning), or nil when fewer remain.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.Fail(fmt.Sprintf("body needs %d bytes, %d present", n, len(r.b)))
		return nil
	}
	w := r.b[:n:n]
	r.b = r.b[n:]
	return w
}

// Uint64 consumes eight bytes.
func (r *Reader) Uint64() uint64 {
	if w := r.Bytes(8); w != nil {
		return binary.LittleEndian.Uint64(w)
	}
	return 0
}

// Int consumes an int (eight bytes on the wire).
func (r *Reader) Int() int { return int(int64(r.Uint64())) }

// Int64 consumes an int64.
func (r *Reader) Int64() int64 { return int64(r.Uint64()) }

// Float64 consumes a float64, bit pattern preserved.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// Count consumes a uint32 element count and checks it against the bytes
// still present: n elements of at least elemSize encoded bytes each must
// fit, so a make sized by the result never exceeds what the payload
// really carries. A lying count fails the Reader and returns 0.
func (r *Reader) Count(elemSize int) int {
	w := r.Bytes(4)
	if w == nil {
		return 0
	}
	n := uint64(binary.LittleEndian.Uint32(w))
	if n*uint64(elemSize) > uint64(len(r.b)) {
		r.Fail(fmt.Sprintf("count %d x %d bytes exceeds the %d present", n, elemSize, len(r.b)))
		return 0
	}
	return int(n)
}

// value decodes one type byte plus body.
func (r *Reader) value() any {
	w := r.Bytes(1)
	if w == nil {
		return nil
	}
	c := codecByID[w[0]]
	if c == nil {
		r.Fail(fmt.Sprintf("unknown type id %d", w[0]))
		return nil
	}
	return c.dec(r)
}

// AppendCount appends a slice length.
func AppendCount(b []byte, n int) []byte {
	return binary.LittleEndian.AppendUint32(b, uint32(n))
}

// AppendInt appends an int as eight bytes.
func AppendInt(b []byte, v int) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(int64(v)))
}

// AppendInt64 appends an int64.
func AppendInt64(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

// AppendFloat64 appends a float64's bit pattern.
func AppendFloat64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendInts appends a count and the ints; Reader.Ints reverses it. Exported
// for struct codecs that carry an []int field.
func AppendInts(b []byte, v []int) []byte {
	b = AppendCount(slices.Grow(b, 4+8*len(v)), len(v))
	for _, x := range v {
		b = AppendInt(b, x)
	}
	return b
}

// Ints consumes a counted []int; a zero count yields nil.
func (r *Reader) Ints() []int {
	n := r.Count(8)
	w := r.Bytes(n * 8)
	if len(w) == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(int64(binary.LittleEndian.Uint64(w[i*8:])))
	}
	return out
}

func init() {
	RegisterPayload(idFloat64, AppendFloat64, (*Reader).Float64)
	RegisterPayload(idInt64, AppendInt64, (*Reader).Int64)
	RegisterPayload(idInts, AppendInts, (*Reader).Ints)
	// []any nests the other codecs, so its encoder can fail (an element of
	// an unregistered type) and takes the internal signature.
	register(&codec{
		id:  idAnys,
		typ: reflect.TypeFor[[]any](),
		enc: func(b []byte, v any) ([]byte, error) {
			list := v.([]any)
			b = AppendCount(b, len(list))
			for i, e := range list {
				var err error
				if b, err = AppendPayload(b, e); err != nil {
					return nil, fmt.Errorf("element %d: %w", i, err)
				}
			}
			return b, nil
		},
		dec: func(r *Reader) any {
			if r.depth++; r.depth > maxNesting {
				r.Fail(fmt.Sprintf("lists nested deeper than %d", maxNesting))
			}
			defer func() { r.depth-- }()
			n := r.Count(1) // an element is a type byte at the very least
			if n == 0 {
				return []any(nil)
			}
			out := make([]any, n)
			for i := range out {
				if out[i] = r.value(); r.err != nil {
					return []any(nil)
				}
			}
			return out
		},
	})
}
