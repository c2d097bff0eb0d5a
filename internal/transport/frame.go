// Package transport implements the wire layer for multi-process runs:
// a length-prefixed binary frame codec, the typed payload codecs of the
// per-step data plane, and a connection wrapper used by the TCP backend
// (coordinator hub + mdrank workers).
//
// The wrapper, Peer, combines writes: data frames are appended to the
// link's write buffer and leave together when the sender flushes, which it
// does before anything it does next can block on the far end. Read and
// write deadlines are armed once per syscall, under the buffers, so the
// liveness window bounds exactly the reads and writes that can block.
//
// Frame layout (header integers big-endian):
//
//	uint32  length   // bytes after this field: 13 + len(payload)
//	byte    kind     // one of the Kind* constants
//	int32   src      // source rank (data frames) or proc id (control)
//	int32   dst      // destination rank, -1 for control frames
//	int32   tag      // protocol tag; negative tags are collectives
//	[]byte  payload  // may be empty
//
// The payload of a KindData frame is a typed value: one type byte, then
// that type's fixed little-endian layout (codec.go; the table of ids is in
// internal/core/wire.go and DESIGN.md). Control frames carry whatever
// their protocol puts there — internal/distrib sends its spec and acks
// down one gob stream per link direction — and this package never looks
// inside them.
//
// Both codecs are deliberately paranoid on the read side: a lying length
// prefix or element count can never allocate more than the bytes actually
// present, unknown kinds, unknown type ids and undersized lengths are
// errors, and no input can panic a decoder (fuzzed by FuzzFrameDecode and
// FuzzPayloadDecode).
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Frame kinds. The zero value is invalid on purpose: an all-zero header
// (e.g. from a half-open connection) must not decode as a valid frame.
const (
	KindHello     byte = 1 // worker -> coordinator: first frame after dial
	KindSpec      byte = 2 // coordinator -> worker: run configuration
	KindData      byte = 3 // rank-to-rank message, routed through the hub
	KindStep      byte = 4 // coordinator -> worker: advance N steps
	KindStepAck   byte = 5 // worker -> coordinator: batch done + stats
	KindSnapshot  byte = 6 // coordinator -> worker: capture local frames
	KindSnapAck   byte = 7 // worker -> coordinator: local checkpoint frames
	KindFinish    byte = 8 // coordinator -> worker: finalize the run
	KindResultAck byte = 9 // worker -> coordinator: final result share
	// KindHeartbeat keeps an otherwise-idle link inside its read deadline.
	// Payload-free, carries no protocol state, and both sides discard it on
	// receipt; its only job is to prove the peer's event loop is alive.
	KindHeartbeat byte = 10
	maxKind            = KindHeartbeat
)

// MaxPayload bounds a single frame's payload. The largest legitimate
// frames are checkpoint snapshots of a whole rank; 64 MiB is far above
// any configuration this engine accepts while still rejecting absurd
// length prefixes before any allocation happens.
const MaxPayload = 64 << 20

// headerLen is the fixed part after the length prefix: kind + src + dst + tag.
const headerLen = 1 + 4 + 4 + 4

// Frame is one unit on the wire.
type Frame struct {
	Kind    byte
	Src     int32
	Dst     int32
	Tag     int32
	Payload []byte
}

// ErrFrameTooLarge is returned when a length prefix exceeds MaxPayload.
var ErrFrameTooLarge = errors.New("transport: frame exceeds max payload")

// ErrMalformedFrame marks structurally illegal frames (length below the
// header size, unknown kind). Wrapped — use errors.Is. A reader hitting it
// must treat the stream as unsynchronized: framing cannot be recovered
// past a corrupt header.
var ErrMalformedFrame = errors.New("transport: malformed frame")

// frameOverhead is what a frame costs on the wire beyond its payload.
const frameOverhead = 4 + headerLen

// appendHeader appends f's length prefix and header to b.
func appendHeader(b []byte, f Frame) ([]byte, error) {
	if f.Kind == 0 || f.Kind > maxKind {
		return b, fmt.Errorf("transport: encode: invalid frame kind %d", f.Kind)
	}
	if len(f.Payload) > MaxPayload {
		return b, ErrFrameTooLarge
	}
	b = binary.BigEndian.AppendUint32(b, uint32(headerLen+len(f.Payload)))
	b = append(b, f.Kind)
	b = binary.BigEndian.AppendUint32(b, uint32(f.Src))
	b = binary.BigEndian.AppendUint32(b, uint32(f.Dst))
	return binary.BigEndian.AppendUint32(b, uint32(f.Tag)), nil
}

// EncodeFrame writes f to w in wire format.
func EncodeFrame(w io.Writer, f Frame) error {
	hdr, err := appendHeader(make([]byte, 0, frameOverhead), f)
	if err != nil {
		return err
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(f.Payload) > 0 {
		if _, err := w.Write(f.Payload); err != nil {
			return err
		}
	}
	return nil
}

// DecodeFrame reads one frame from r. It returns io.EOF only when the
// stream ends cleanly at a frame boundary; a frame cut mid-way yields
// io.ErrUnexpectedEOF. A length prefix larger than MaxPayload is
// rejected before any payload allocation, and a truncated stream never
// allocates more than twice the bytes it actually carries (plus one
// readChunk). The returned payload is the caller's.
func DecodeFrame(r io.Reader) (Frame, error) {
	var hdr [frameOverhead]byte
	f, n, err := readHeader(r, &hdr)
	if err != nil || n == 0 {
		return f, err
	}
	if f.Payload, err = readPayload(r, n); err != nil {
		return Frame{}, err
	}
	return f, nil
}

// readHeader reads the length prefix and the fixed header through hdr (the
// caller's scratch: a local escapes through the io.Reader), validates them,
// and returns the frame without its payload plus the payload's length.
func readHeader(r io.Reader, hdr *[frameOverhead]byte) (Frame, int, error) {
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return Frame{}, 0, err // io.EOF at a clean boundary
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < headerLen {
		return Frame{}, 0, fmt.Errorf("%w: length %d below header size", ErrMalformedFrame, n)
	}
	if n > headerLen+MaxPayload {
		return Frame{}, 0, ErrFrameTooLarge
	}
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return Frame{}, 0, unexpectedEOF(err)
	}
	f := Frame{
		Kind: hdr[4],
		Src:  int32(binary.BigEndian.Uint32(hdr[5:9])),
		Dst:  int32(binary.BigEndian.Uint32(hdr[9:13])),
		Tag:  int32(binary.BigEndian.Uint32(hdr[13:17])),
	}
	if f.Kind == 0 || f.Kind > maxKind {
		return Frame{}, 0, fmt.Errorf("%w: unknown kind %d", ErrMalformedFrame, f.Kind)
	}
	return f, int(n - headerLen), nil
}

// readChunk is the most readPayload allocates on the length prefix's word
// alone; beyond it the buffer only grows by as much as has really arrived.
const readChunk = 64 << 10

// readPayload reads an n-byte payload into a slice of its own: one exact
// allocation for the common small frame, doubling behind the bytes
// actually read for a large one, so a lying length prefix on a short
// stream cannot force a large allocation.
func readPayload(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, min(n, readChunk))
	for got := 0; ; {
		if _, err := io.ReadFull(r, buf[got:]); err != nil {
			return nil, unexpectedEOF(err)
		}
		if got = len(buf); got == n {
			return buf, nil
		}
		buf = append(buf, make([]byte, min(got, n-got))...)
	}
}

func unexpectedEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}
