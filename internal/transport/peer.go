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

// Peer wraps one connection with a write-combining buffer and sent-traffic
// counters. Sends may come from many goroutines (every local PE plus the
// control loop); a mutex serializes them without reordering any single
// goroutine's send sequence, which is all the per-(src,tag) FIFO delivery
// contract needs.
//
// A link pays per burst, not per frame: SendData and Queue only append a
// frame to the write buffer, and the buffer reaches the connection when
// Flush is called (or when it fills). Send is Queue then Flush. Whoever
// queues must flush before waiting on anything the far end could only send
// in reply to what is queued.
//
// Timeouts are armed by a thin layer under the buffers: each read or write
// that really goes to the connection arms its direction's deadline first,
// so the window bounds exactly the syscalls that can block, once each, and
// a frame served from the read buffer or appended to the write buffer
// touches no deadline.
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

	// Per-syscall timeouts (0 = unbounded), armed by armedConn.
	readTimeout  atomic.Int64 // time.Duration
	writeTimeout atomic.Int64
}

// NewPeer wraps c. The caller owns c's lifetime via Close.
func NewPeer(c io.ReadWriteCloser) *Peer {
	p := &Peer{c: c}
	a := &armedConn{c: c, p: p}
	a.dl, _ = c.(deadliner)
	p.br = bufio.NewReaderSize(a, 1<<16)
	p.bw = bufio.NewWriterSize(a, 1<<16)
	return p
}

// armedConn sits between a Peer's buffers and its connection and arms the
// direction's deadline before every read or write it passes down.
type armedConn struct {
	c  io.ReadWriter
	dl deadliner // nil: the connection has no deadlines
	p  *Peer
}

func (a *armedConn) Read(b []byte) (int, error) {
	if d := time.Duration(a.p.readTimeout.Load()); d > 0 && a.dl != nil {
		a.dl.SetReadDeadline(time.Now().Add(d))
	}
	return a.c.Read(b)
}

func (a *armedConn) Write(b []byte) (int, error) {
	if d := time.Duration(a.p.writeTimeout.Load()); d > 0 && a.dl != nil {
		a.dl.SetWriteDeadline(time.Now().Add(d))
	}
	return a.c.Write(b)
}

// SetTimeouts arms per-syscall deadlines: every subsequent read from the
// connection must complete within read and every write within write (0
// leaves the direction unbounded). On a heartbeat-carrying link the read
// timeout is the liveness window — a healthy peer's heartbeats keep each
// blocking read well inside it, so a tripped deadline means the peer is
// dead or wedged, not merely idle. No-op directions on connections without
// deadline support.
func (p *Peer) SetTimeouts(read, write time.Duration) {
	p.readTimeout.Store(int64(read))
	p.writeTimeout.Store(int64(write))
}

// Send queues one frame and flushes the link: everything queued before it
// leaves in the same write.
func (p *Peer) Send(f Frame) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.queue(f); err != nil {
		return err
	}
	return p.flush()
}

// Queue appends one frame to the write buffer without flushing it.
func (p *Peer) Queue(f Frame) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queue(f)
}

func (p *Peer) queue(f Frame) error {
	hdr, err := appendHeader(p.bw.AvailableBuffer(), f)
	if err != nil {
		return err
	}
	_, err = p.write(f.Kind, hdr, f.Payload)
	return err
}

// SendData encodes v with its registered payload codec (AppendPayload)
// straight into the write buffer, queues it as one KindData frame and
// returns the frame's size on the wire, length prefix and header included.
// Like Queue, it does not flush.
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

// write is the one path into the write buffer: head (a frame's header,
// built in the buffer's own spare room, with or without its payload behind
// it) and then tail. It reaches the connection only if the buffer fills.
// Callers hold mu.
func (p *Peer) write(kind byte, head, tail []byte) (int, error) {
	if p.closed.Load() {
		return 0, fmt.Errorf("transport: send frame kind %d: %w", kind, ErrPeerClosed)
	}
	if _, err := p.bw.Write(head); err != nil {
		return 0, p.sendErr(err)
	}
	if len(tail) > 0 {
		if _, err := p.bw.Write(tail); err != nil {
			return 0, p.sendErr(err)
		}
	}
	return len(head) + len(tail), nil
}

// Flush writes every queued frame to the connection in one write. With
// nothing queued it touches neither the connection nor a deadline.
func (p *Peer) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.flush()
}

func (p *Peer) flush() error {
	if p.bw.Buffered() == 0 {
		return nil
	}
	if p.closed.Load() {
		return fmt.Errorf("transport: flush: %w", ErrPeerClosed)
	}
	if err := p.bw.Flush(); err != nil {
		return p.sendErr(err)
	}
	return nil
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

// Buffered returns how many bytes the next Recv can read without going to
// the connection: zero means the next Recv may block. Like Recv, it is for
// the reader goroutine only.
func (p *Peer) Buffered() int { return p.br.Buffered() - p.lent }

// Close closes the underlying connection. Idempotent: the shutdown path
// and the recovery path may both reach it; only the first call touches the
// connection, the rest return nil. Frames still queued are dropped.
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
