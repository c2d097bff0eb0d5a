package checkpoint

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"permcell/internal/vec"
)

// Frame layout — the one serialised form of a Frame: the payload of a
// version-2 file section, and (because gob honours BinaryMarshaler) the
// bytes a frame crosses the tcp control plane as, inside SnapAck and
// WireSpec. Every field is an 8-byte little-endian word:
//
//	rank int64 | n uint64 | ncols uint64 |
//	ID [n]int64 | Pos [n][3]float64 | Vel [n][3]float64 | Cols [ncols]int64
//
// One particle count serves ID, Pos and Vel, so ragged arrays cannot be
// written down. Floats travel as their IEEE-754 bit patterns: NaN payloads,
// infinities and -0 survive, which is what lets CheckFinite see on the
// loaded side exactly what the engine held.
const (
	frameHeaderBytes = 24
	particleBytes    = 8 + 24 + 24
)

var le = binary.LittleEndian

// rectangular reports a frame whose particle arrays disagree in length.
func (f *Frame) rectangular() error {
	if len(f.ID) != len(f.Pos) || len(f.Pos) != len(f.Vel) {
		return fmt.Errorf("checkpoint: rank %d frame has ragged arrays id=%d pos=%d vel=%d",
			f.Rank, len(f.ID), len(f.Pos), len(f.Vel))
	}
	return nil
}

// binarySize is the encoded length of f; it fails on a ragged frame.
func (f *Frame) binarySize() (int, error) {
	if err := f.rectangular(); err != nil {
		return 0, err
	}
	return frameHeaderBytes + particleBytes*len(f.ID) + 8*len(f.Cols), nil
}

// AppendBinary appends f's fixed layout to b (encoding.BinaryAppender).
func (f *Frame) AppendBinary(b []byte) ([]byte, error) {
	size, err := f.binarySize()
	if err != nil {
		return nil, err
	}
	off := len(b)
	b = slices.Grow(b, size)[:off+size]
	w := b[off:]
	le.PutUint64(w[0:], uint64(f.Rank))
	le.PutUint64(w[8:], uint64(len(f.ID)))
	le.PutUint64(w[16:], uint64(len(f.Cols)))
	w = w[frameHeaderBytes:]
	for i, id := range f.ID {
		le.PutUint64(w[8*i:], uint64(id))
	}
	w = putVecs(w[8*len(f.ID):], f.Pos)
	w = putVecs(w, f.Vel)
	for i, c := range f.Cols {
		le.PutUint64(w[8*i:], uint64(c))
	}
	return b, nil
}

// MarshalBinary returns f's fixed layout (encoding.BinaryMarshaler).
func (f *Frame) MarshalBinary() ([]byte, error) { return f.AppendBinary(nil) }

// UnmarshalBinary decodes the fixed layout (encoding.BinaryUnmarshaler),
// checking both counts against the bytes actually present before any array
// is allocated and sizing each array exactly. A zero count decodes to a nil
// slice, as gob did. data is not retained.
func (f *Frame) UnmarshalBinary(data []byte) error {
	if len(data) < frameHeaderBytes {
		return fmt.Errorf("checkpoint: frame of %d bytes is shorter than its %d-byte header", len(data), frameHeaderBytes)
	}
	rank := int(int64(le.Uint64(data[0:])))
	n, ncols := le.Uint64(data[8:]), le.Uint64(data[16:])
	body := uint64(len(data) - frameHeaderBytes)
	if n > body/particleBytes || ncols != (body-n*particleBytes)/8 || (body-n*particleBytes)%8 != 0 {
		return fmt.Errorf("checkpoint: rank %d frame claims %d particles and %d columns in %d payload bytes",
			rank, n, ncols, body)
	}
	*f = Frame{Rank: rank}
	r := data[frameHeaderBytes:]
	if n > 0 {
		f.ID = make([]int64, n)
		for i := range f.ID {
			f.ID[i] = int64(le.Uint64(r[8*i:]))
		}
		r = r[8*n:]
		f.Pos, r = getVecs(r, int(n))
		f.Vel, r = getVecs(r, int(n))
	}
	if ncols > 0 {
		f.Cols = make([]int, ncols)
		for i := range f.Cols {
			f.Cols[i] = int(int64(le.Uint64(r[8*i:])))
		}
	}
	return nil
}

// putVecs writes vs at the front of w and returns the rest of w.
func putVecs(w []byte, vs []vec.V) []byte {
	for i, v := range vs {
		o := w[24*i : 24*i+24]
		le.PutUint64(o[0:], math.Float64bits(v.X))
		le.PutUint64(o[8:], math.Float64bits(v.Y))
		le.PutUint64(o[16:], math.Float64bits(v.Z))
	}
	return w[24*len(vs):]
}

// getVecs reads n vectors from the front of r and returns the rest of r.
func getVecs(r []byte, n int) ([]vec.V, []byte) {
	vs := make([]vec.V, n)
	for i := range vs {
		o := r[24*i : 24*i+24]
		vs[i] = vec.V{
			X: math.Float64frombits(le.Uint64(o[0:])),
			Y: math.Float64frombits(le.Uint64(o[8:])),
			Z: math.Float64frombits(le.Uint64(o[16:])),
		}
	}
	return vs, r[24*n:]
}
