package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestHeartbeatFrameRoundTrip pins the liveness frame's shape: header
// only, legal at the codec boundary (maxKind tracks it).
func TestHeartbeatFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := Frame{Kind: KindHeartbeat, Src: 3, Dst: -1}
	if err := EncodeFrame(&buf, want); err != nil {
		t.Fatalf("encode heartbeat: %v", err)
	}
	got, err := DecodeFrame(&buf)
	if err != nil {
		t.Fatalf("decode heartbeat: %v", err)
	}
	if got.Kind != KindHeartbeat || got.Src != 3 || got.Dst != -1 || len(got.Payload) != 0 {
		t.Fatalf("heartbeat mismatch: %+v", got)
	}
}

// TestMalformedFrameSentinel checks that the codec's rejection paths all
// carry ErrMalformedFrame (or ErrFrameTooLarge), so the coordinator can
// classify stream corruption as a frame-decode failure by errors.Is
// instead of string matching.
func TestMalformedFrameSentinel(t *testing.T) {
	valid := func() []byte {
		var b bytes.Buffer
		if err := EncodeFrame(&b, Frame{Kind: KindData, Src: 1, Dst: 2, Tag: 3, Payload: []byte("p")}); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}()

	t.Run("short length", func(t *testing.T) {
		b := append([]byte(nil), valid...)
		binary.BigEndian.PutUint32(b[0:4], headerLen-1)
		if _, err := DecodeFrame(bytes.NewReader(b)); !errors.Is(err, ErrMalformedFrame) {
			t.Fatalf("want ErrMalformedFrame, got %v", err)
		}
	})
	t.Run("unknown kind", func(t *testing.T) {
		b := append([]byte(nil), valid...)
		b[4] = maxKind + 1
		if _, err := DecodeFrame(bytes.NewReader(b)); !errors.Is(err, ErrMalformedFrame) {
			t.Fatalf("want ErrMalformedFrame, got %v", err)
		}
	})
	t.Run("oversized length", func(t *testing.T) {
		b := append([]byte(nil), valid...)
		binary.BigEndian.PutUint32(b[0:4], headerLen+MaxPayload+1)
		if _, err := DecodeFrame(bytes.NewReader(b)); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("want ErrFrameTooLarge, got %v", err)
		}
	})
}

// TestPeerCloseIdempotent checks Close can be called from multiple
// teardown paths (router exit, engine shutdown, defer) without error,
// and that Closed() reports the state.
func TestPeerCloseIdempotent(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	p := NewPeer(a)
	if p.Closed() {
		t.Fatal("fresh peer reports closed")
	}
	if err := p.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if !p.Closed() {
		t.Fatal("Closed() false after Close")
	}
	for i := 0; i < 3; i++ {
		if err := p.Close(); err != nil {
			t.Fatalf("repeat Close %d: %v", i, err)
		}
	}
}

// TestPeerSendAfterClose checks the typed write-after-close error: a
// router racing engine teardown must be able to tell "we closed this"
// (ErrPeerClosed, silent) from a genuine peer failure (typed loudly).
func TestPeerSendAfterClose(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	p := NewPeer(a)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	err := p.Send(Frame{Kind: KindHeartbeat})
	if !errors.Is(err, ErrPeerClosed) {
		t.Fatalf("send after close: want ErrPeerClosed, got %v", err)
	}
	if _, err := p.Recv(); !errors.Is(err, ErrPeerClosed) {
		t.Fatalf("recv after close: want ErrPeerClosed, got %v", err)
	}
}

// TestPeerReadDeadline checks SetTimeouts arms a real read window: a
// silent peer trips a timeout (net.Error with Timeout() true — the
// signal the coordinator classifies as heartbeat loss) within the
// configured bound rather than blocking forever.
func TestPeerReadDeadline(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	p := NewPeer(a)
	p.SetTimeouts(50*time.Millisecond, 0)

	start := time.Now()
	_, err := p.Recv()
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("recv on a silent link returned without error")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("want a net.Error timeout, got %v", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("deadline took %v to fire with a 50ms window", elapsed)
	}
}

// countingConn is a connection that only counts: the writes that reach it,
// their bytes, and the deadlines armed on it.
type countingConn struct {
	writes, wrote, writeDeadlines, readDeadlines int
}

func (c *countingConn) Read([]byte) (int, error) { return 0, io.EOF }
func (c *countingConn) Write(b []byte) (int, error) {
	c.writes++
	c.wrote += len(b)
	return len(b), nil
}
func (c *countingConn) Close() error                     { return nil }
func (c *countingConn) SetReadDeadline(time.Time) error  { c.readDeadlines++; return nil }
func (c *countingConn) SetWriteDeadline(time.Time) error { c.writeDeadlines++; return nil }

// TestPeerCombinesWrites pins the write-combining contract: data frames
// queue without touching the connection, one Flush carries all of them in
// a single write under a single deadline, and a Flush with nothing queued
// neither writes nor arms a deadline.
func TestPeerCombinesWrites(t *testing.T) {
	c := &countingConn{}
	p := NewPeer(c)
	p.SetTimeouts(time.Second, time.Second)
	const k = 24
	wire := 0
	for i := range k {
		n, err := p.SendData(1, 2, i, []int{i, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		wire += n
	}
	if c.writes != 0 || c.writeDeadlines != 0 {
		t.Fatalf("%d queued frames reached the connection before Flush: %d writes, %d deadlines", k, c.writes, c.writeDeadlines)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if c.writes != 1 || c.wrote != wire || c.writeDeadlines != 1 {
		t.Fatalf("%d frames + Flush: %d writes of %d bytes under %d deadlines; want 1 write of %d bytes under 1", k, c.writes, c.wrote, c.writeDeadlines, wire)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if c.writes != 1 || c.writeDeadlines != 1 {
		t.Fatalf("an empty Flush wrote or armed a deadline: %d writes, %d deadlines", c.writes, c.writeDeadlines)
	}
	// Send is the same queue and the same flush.
	if err := p.Send(Frame{Kind: KindHeartbeat, Dst: -1}); err != nil {
		t.Fatal(err)
	}
	if c.writes != 2 || c.wrote != wire+frameOverhead || c.readDeadlines != 0 {
		t.Fatalf("Send: %d writes of %d bytes, %d read deadlines", c.writes, c.wrote, c.readDeadlines)
	}
}

// TestPeerDeadlinesPerSyscall: the read window is armed by the read that
// goes to the connection, not by the Recv — a Recv served from the buffer
// long after the last read still succeeds, and the next one, which must
// read, trips within the window of a far end gone silent. A far end that
// stops reading trips Flush within the write window.
func TestPeerDeadlinesPerSyscall(t *testing.T) {
	const window = 100 * time.Millisecond
	timedOut := func(err error) bool {
		var ne net.Error
		return errors.As(err, &ne) && ne.Timeout()
	}

	t.Run("read", func(t *testing.T) {
		a, b := net.Pipe()
		pa, pb := NewPeer(a), NewPeer(b)
		defer pa.Close()
		defer pb.Close()
		pb.SetTimeouts(window, 0)
		errc := make(chan error, 1)
		go func() {
			// Two frames in one write, then silence.
			if err := pa.Queue(Frame{Kind: KindData, Src: 1, Payload: []byte("one")}); err != nil {
				errc <- err
				return
			}
			errc <- pa.Send(Frame{Kind: KindData, Src: 2, Payload: []byte("two")})
		}()
		if f, err := pb.Recv(); err != nil || f.Src != 1 {
			t.Fatalf("first frame: %+v, %v", f, err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		time.Sleep(3 * window) // past the deadline the first read armed
		if pb.Buffered() == 0 {
			t.Fatal("the second frame did not arrive with the first")
		}
		if f, err := pb.Recv(); err != nil || f.Src != 2 {
			t.Fatalf("buffered frame after the window: %+v, %v", f, err)
		}
		start := time.Now()
		_, err := pb.Recv()
		if !timedOut(err) {
			t.Fatalf("recv on a silent link: want a timeout, got %v", err)
		}
		if took := time.Since(start); took < window/2 || took > 2*time.Second {
			t.Fatalf("silent link tripped after %v with a %v window", took, window)
		}
	})

	t.Run("write", func(t *testing.T) {
		a, b := net.Pipe() // b is never read
		pa := NewPeer(a)
		defer pa.Close()
		defer b.Close()
		pa.SetTimeouts(0, window)
		if _, err := pa.SendData(0, 1, 2, []int{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if err := pa.Flush(); !timedOut(err) {
			t.Fatalf("flush to a far end that stopped reading: want a timeout, got %v", err)
		}
		if took := time.Since(start); took > 2*time.Second {
			t.Fatalf("write deadline took %v to fire with a %v window", took, window)
		}
	})
}

// TestPeerSendData checks the typed send: the frame on the far end carries
// the value's payload encoding under the given header, and the size
// SendData reports is the frame's whole footprint on the wire.
func TestPeerSendData(t *testing.T) {
	a, b := net.Pipe()
	pa, pb := NewPeer(a), NewPeer(b)
	defer pa.Close()
	defer pb.Close()

	vals := []any{2.5, []int{7, 8, 9}, []any{int64(1), []any{2.0}}}
	type sent struct {
		wire int
		err  error
	}
	done := make(chan sent, len(vals))
	go func() {
		for i, v := range vals {
			n, err := pa.SendData(3, 11, -i, v)
			if err == nil {
				err = pa.Flush()
			}
			done <- sent{n, err}
		}
	}()
	for i, v := range vals {
		f, err := pb.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		s := <-done
		if s.err != nil {
			t.Fatalf("send %d: %v", i, s.err)
		}
		want, _ := EncodePayload(v)
		if f.Kind != KindData || f.Src != 3 || f.Dst != 11 || f.Tag != int32(-i) || !bytes.Equal(f.Payload, want) {
			t.Fatalf("frame %d: %+v, want payload % x", i, f, want)
		}
		if s.wire != frameOverhead+len(want) {
			t.Fatalf("frame %d: SendData reports %d wire bytes, want %d", i, s.wire, frameOverhead+len(want))
		}
	}

	// An unregistered type writes nothing and names itself.
	if _, err := pa.SendData(0, 1, 2, struct{ X int }{1}); err == nil || !strings.Contains(err.Error(), "struct { X int }") {
		t.Fatalf("unregistered type: %v", err)
	}
	if n := pa.bw.Buffered(); n != 0 {
		t.Fatalf("a failed SendData queued %d bytes", n)
	}
}

// TestPeerRecvLendsDataPayload pins Recv's ownership rule: a data frame's
// payload is a window into the read buffer that the next Recv reclaims,
// while control frames — and data frames larger than the buffer — own
// theirs and survive being queued.
func TestPeerRecvLendsDataPayload(t *testing.T) {
	a, b := net.Pipe()
	pa, pb := NewPeer(a), NewPeer(b)
	defer pa.Close()
	defer pb.Close()

	big := bytes.Repeat([]byte{0xC3}, pb.br.Size()+1)
	frames := []Frame{
		{Kind: KindStepAck, Payload: []byte("control one")},
		{Kind: KindData, Src: 1, Dst: 2, Tag: 3, Payload: []byte("data one")},
		{Kind: KindData, Src: 1, Dst: 2, Tag: 3, Payload: big},
		{Kind: KindData, Src: 1, Dst: 2, Tag: 4, Payload: []byte("data two")},
		{Kind: KindData, Src: 1, Dst: 2, Tag: 5},
		{Kind: KindSnapAck, Payload: []byte("control two")},
	}
	errc := make(chan error, 1)
	go func() {
		for _, f := range frames {
			if err := pa.Send(f); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	got := make([]Frame, len(frames))
	for i, want := range frames {
		f, err := pb.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if f.Kind != want.Kind || f.Tag != want.Tag || !bytes.Equal(f.Payload, want.Payload) {
			t.Fatalf("frame %d arrived as kind %d tag %d with %d payload bytes", i, f.Kind, f.Tag, len(f.Payload))
		}
		onLoan := 0
		if want.Kind == KindData && len(want.Payload) <= pb.br.Size() {
			onLoan = len(want.Payload)
		}
		if pb.lent != onLoan {
			t.Errorf("frame %d: %d bytes on loan, want %d", i, pb.lent, onLoan)
		}
		got[i] = f
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2, 5} {
		if !bytes.Equal(got[i].Payload, frames[i].Payload) {
			t.Errorf("frame %d owns its payload but later Recvs changed it", i)
		}
	}
}

// TestDecodeFrameLargePayload drives the chunked read: a payload of several
// chunks arrives whole, and a length prefix that promises more than the
// stream holds fails without allocating what it promised.
func TestDecodeFrameLargePayload(t *testing.T) {
	payload := make([]byte, 5*readChunk+123)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var wire bytes.Buffer
	if err := EncodeFrame(&wire, Frame{Kind: KindSnapAck, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), wire.Bytes()...)
	f, err := DecodeFrame(&wire)
	if err != nil || !bytes.Equal(f.Payload, payload) {
		t.Fatalf("large frame: err %v, %d payload bytes", err, len(f.Payload))
	}

	binary.BigEndian.PutUint32(raw[0:4], headerLen+MaxPayload)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = DecodeFrame(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("lying length: want ErrUnexpectedEOF, got %v", err)
	}
	// Doubling behind the bytes read: every buffer it went through sums to
	// a small multiple of the stream, nowhere near the 64 MiB claimed.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(8*len(raw)) {
		t.Fatalf("a %d-byte stream claiming %d allocated %d bytes", len(raw), MaxPayload, grew)
	}
}
