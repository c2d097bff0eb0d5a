package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Kind: KindHello},
		{Kind: KindData, Src: 3, Dst: 1, Tag: 5, Payload: []byte("hello")},
		{Kind: KindData, Src: 0, Dst: 15, Tag: -7, Payload: bytes.Repeat([]byte{0xAB}, 1<<15)},
		{Kind: KindStep, Src: -1, Dst: -1, Tag: 0, Payload: []byte{0}},
		{Kind: KindResultAck, Src: 2, Dst: -1, Tag: -2147483648},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := EncodeFrame(&buf, f); err != nil {
			t.Fatalf("encode %+v: %v", f, err)
		}
	}
	for i, want := range frames {
		got, err := DecodeFrame(&buf)
		if err != nil {
			t.Fatalf("decode frame %d: %v", i, err)
		}
		if got.Kind != want.Kind || got.Src != want.Src || got.Dst != want.Dst || got.Tag != want.Tag {
			t.Fatalf("frame %d header mismatch: got %+v want %+v", i, got, want)
		}
		if !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d payload mismatch", i)
		}
	}
	if _, err := DecodeFrame(&buf); err != io.EOF {
		t.Fatalf("want clean io.EOF at stream end, got %v", err)
	}
}

func TestFrameDecodeRejectsGarbage(t *testing.T) {
	valid := func() []byte {
		var b bytes.Buffer
		if err := EncodeFrame(&b, Frame{Kind: KindData, Src: 1, Dst: 2, Tag: 3, Payload: []byte("payload")}); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}()

	t.Run("unknown kind", func(t *testing.T) {
		b := append([]byte(nil), valid...)
		b[4] = 0xFF
		if _, err := DecodeFrame(bytes.NewReader(b)); err == nil {
			t.Fatal("unknown kind must error")
		}
	})
	t.Run("zero kind", func(t *testing.T) {
		b := append([]byte(nil), valid...)
		b[4] = 0
		if _, err := DecodeFrame(bytes.NewReader(b)); err == nil {
			t.Fatal("zero kind must error")
		}
	})
	t.Run("truncated header", func(t *testing.T) {
		for cut := 1; cut < len(valid)-7; cut++ {
			if _, err := DecodeFrame(bytes.NewReader(valid[:cut])); err == nil {
				t.Fatalf("truncation at %d must error", cut)
			}
		}
	})
	t.Run("undersized length", func(t *testing.T) {
		b := append([]byte(nil), valid...)
		binary.BigEndian.PutUint32(b[0:4], headerLen-1)
		if _, err := DecodeFrame(bytes.NewReader(b)); err == nil {
			t.Fatal("undersized length must error")
		}
	})
	t.Run("oversized length", func(t *testing.T) {
		b := append([]byte(nil), valid...)
		binary.BigEndian.PutUint32(b[0:4], headerLen+MaxPayload+1)
		if _, err := DecodeFrame(bytes.NewReader(b)); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("oversized length: want ErrFrameTooLarge, got %v", err)
		}
	})
	t.Run("lying length on short stream", func(t *testing.T) {
		// Claims 1 MiB of payload, delivers 7 bytes: must error with
		// ErrUnexpectedEOF, not block or allocate the claimed size.
		b := append([]byte(nil), valid...)
		binary.BigEndian.PutUint32(b[0:4], headerLen+1<<20)
		if _, err := DecodeFrame(bytes.NewReader(b)); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("want ErrUnexpectedEOF, got %v", err)
		}
	})
}

func TestEncodeFrameRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeFrame(&buf, Frame{Kind: 0}); err == nil {
		t.Fatal("encoding kind 0 must error")
	}
	if err := EncodeFrame(&buf, Frame{Kind: maxKind + 1}); err == nil {
		t.Fatal("encoding unknown kind must error")
	}
}

func TestPeerOverPipe(t *testing.T) {
	a, b := net.Pipe()
	pa, pb := NewPeer(a), NewPeer(b)
	defer pa.Close()
	defer pb.Close()

	want := Frame{Kind: KindData, Src: 2, Dst: 0, Tag: 4, Payload: []byte("across the pipe")}
	errc := make(chan error, 1)
	go func() { errc <- pa.Send(want) }()
	got, err := pb.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if serr := <-errc; serr != nil {
		t.Fatalf("send: %v", serr)
	}
	if got.Kind != want.Kind || got.Src != want.Src || !bytes.Equal(got.Payload, want.Payload) {
		t.Fatalf("frame mismatch: got %+v", got)
	}
}
