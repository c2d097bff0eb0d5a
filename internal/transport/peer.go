package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// ErrPeerClosed is returned by Send (and Recv) after Close: the shutdown
// path and the recovery path can both tear a peer down, so a send racing
// the teardown must surface as this typed, expected error rather than as a
// raw "use of closed network connection" that would be mistaken for a
// worker failure.
var ErrPeerClosed = errors.New("transport: peer closed")

// deadliner is the optional per-direction deadline surface of the wrapped
// connection (net.Conn and net.Pipe implement it; plain pipes in tests may
// not, in which case timeouts silently stay disarmed).
type deadliner interface {
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

// Peer wraps one connection with buffered, mutex-serialized frame writes
// and sent-traffic counters. Sends may come from many goroutines (every
// local PE plus the control loop); the mutex serializes them without
// reordering any single goroutine's send sequence, which is all the
// per-(src,tag) FIFO delivery contract needs.
//
// Recv is NOT locked: the protocol dedicates exactly one reader
// goroutine per connection.
type Peer struct {
	c   io.ReadWriteCloser
	br  *bufio.Reader
	hdr [frameOverhead]byte // Recv's header scratch
	// lent is the length of the data payload the previous Recv handed out
	// as a window into br; the next Recv consumes it first.
	lent int

	mu sync.Mutex
	bw *bufio.Writer

	closed atomic.Bool

	// Per-operation timeouts (0 = unbounded). Armed as absolute deadlines
	// before each Recv/Send when the connection supports deadlines.
	readTimeout  atomic.Int64 // time.Duration
	writeTimeout atomic.Int64

	sentFrames atomic.Int64
	sentBytes  atomic.Int64
}

// NewPeer wraps c. The caller owns c's lifetime via Close.
func NewPeer(c io.ReadWriteCloser) *Peer {
	return &Peer{
		c:  c,
		br: bufio.NewReaderSize(c, 1<<16),
		bw: bufio.NewWriterSize(c, 1<<16),
	}
}

// SetTimeouts arms per-operation deadlines: every subsequent Recv must
// complete within read and every Send within write (0 leaves the
// direction unbounded). On a heartbeat-carrying link the read timeout is
// the liveness window — a healthy peer's heartbeats keep each Recv well
// inside it, so a tripped deadline means the peer is dead or wedged, not
// merely idle. No-op directions on connections without deadline support.
func (p *Peer) SetTimeouts(read, write time.Duration) {
	p.readTimeout.Store(int64(read))
	p.writeTimeout.Store(int64(write))
}

// Send writes one frame and flushes it to the connection.
func (p *Peer) Send(f Frame) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	hdr, err := appendHeader(p.bw.AvailableBuffer(), f)
	if err != nil {
		return err
	}
	_, err = p.write(f.Kind, hdr, f.Payload)
	return err
}

// SendData encodes v with its registered payload codec (AppendPayload)
// straight into the write buffer, sends it as one KindData frame and
// returns the frame's size on the wire, length prefix and header included.
func (p *Peer) SendData(src, dst, tag int, v any) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	// The header goes first with an empty payload's length; the real one
	// is patched in once the payload has been appended behind it.
	buf, _ := appendHeader(p.bw.AvailableBuffer(), Frame{Kind: KindData, Src: int32(src), Dst: int32(dst), Tag: int32(tag)})
	buf, err := AppendPayload(buf, v)
	if err != nil {
		return 0, err
	}
	if len(buf)-frameOverhead > MaxPayload {
		return 0, ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(buf, uint32(len(buf)-4))
	return p.write(KindData, buf, nil)
}

// write is the one path onto the connection: head (a frame's header, built
// in the buffered writer's own spare room, with or without its payload
// behind it) and then tail go through the buffered writer and leave in a
// single flush. Callers hold mu.
func (p *Peer) write(kind byte, head, tail []byte) (int, error) {
	if p.closed.Load() {
		return 0, fmt.Errorf("transport: send frame kind %d: %w", kind, ErrPeerClosed)
	}
	if d := time.Duration(p.writeTimeout.Load()); d > 0 {
		if dl, ok := p.c.(deadliner); ok {
			dl.SetWriteDeadline(time.Now().Add(d))
		}
	}
	if _, err := p.bw.Write(head); err != nil {
		return 0, p.sendErr(err)
	}
	if len(tail) > 0 {
		if _, err := p.bw.Write(tail); err != nil {
			return 0, p.sendErr(err)
		}
	}
	if err := p.bw.Flush(); err != nil {
		return 0, p.sendErr(err)
	}
	wire := len(head) + len(tail)
	p.sentFrames.Add(1)
	p.sentBytes.Add(int64(wire))
	return wire, nil
}

// sendErr maps a write error on a concurrently-closed peer to the typed
// ErrPeerClosed: Close may land between the entry check and the write.
func (p *Peer) sendErr(err error) error {
	if p.closed.Load() {
		return fmt.Errorf("%v: %w", err, ErrPeerClosed)
	}
	return err
}

// Recv reads the next frame. Single-reader only.
//
// The Payload of a KindData frame is lent, not given: it is a window into
// the peer's read buffer and stays valid only until the next Recv, which
// is all a reader needs that decodes or forwards each data frame before it
// reads on. Frames of every other kind (and data frames too large for the
// buffer) own their payload, so control frames can be queued.
func (p *Peer) Recv() (Frame, error) {
	if d := time.Duration(p.readTimeout.Load()); d > 0 {
		if dl, ok := p.c.(deadliner); ok {
			dl.SetReadDeadline(time.Now().Add(d))
		}
	}
	f, err := p.recv()
	if err != nil && p.closed.Load() {
		return f, fmt.Errorf("%v: %w", err, ErrPeerClosed)
	}
	return f, err
}

func (p *Peer) recv() (Frame, error) {
	if p.lent > 0 {
		p.br.Discard(p.lent) // buffered by the Peek that lent it: cannot fail
		p.lent = 0
	}
	f, n, err := readHeader(p.br, &p.hdr)
	if err != nil || n == 0 {
		return f, err
	}
	if f.Kind == KindData && n <= p.br.Size() {
		// Peek blocks until all n bytes are buffered and allocates
		// nothing, so a lying length prefix costs no memory here either.
		if f.Payload, err = p.br.Peek(n); err != nil {
			return Frame{}, unexpectedEOF(err)
		}
		p.lent = n
		return f, nil
	}
	if f.Payload, err = readPayload(p.br, n); err != nil {
		return Frame{}, err
	}
	return f, nil
}

// Close closes the underlying connection. Idempotent: the shutdown path
// and the recovery path may both reach it; only the first call touches the
// connection, the rest return nil.
func (p *Peer) Close() error {
	if !p.closed.CompareAndSwap(false, true) {
		return nil
	}
	return p.c.Close()
}

// Closed reports whether Close has been called. A reader seeing an error
// from Recv can use it to distinguish a local teardown from a genuine
// connection fault.
func (p *Peer) Closed() bool { return p.closed.Load() }

// Sent returns the cumulative frames and wire bytes written so far.
func (p *Peer) Sent() (frames, bytes int64) {
	return p.sentFrames.Load(), p.sentBytes.Load()
}
