package distrib

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
	"time"

	"permcell/internal/transport"
)

// FailureKind classifies how a worker link failed. The taxonomy mirrors
// the in-process supervisor's failure classes: each kind is detectable
// within a bounded window and recoverable by checkpoint rollback plus
// respawn or rescale.
type FailureKind string

const (
	// FailExited: the connection ended (EOF, reset) or the worker process
	// was reaped — the peer is gone. Detected immediately by the router or
	// the process-exit watcher.
	FailExited FailureKind = "exited"
	// FailHeartbeat: no frame (not even a heartbeat) arrived within the
	// liveness window — the peer process is stalled (SIGSTOP, livelock) or
	// the network path is wedged. Detected within interval x miss budget.
	FailHeartbeat FailureKind = "heartbeat-timeout"
	// FailFrameDecode: the peer sent bytes that do not decode as a legal
	// frame (lying length prefix, unknown kind, truncated or malformed
	// payload) — the stream is unsynchronized and cannot be trusted.
	FailFrameDecode FailureKind = "frame-decode"
	// FailProtocol: frames decoded fine but violated the stepwise protocol
	// (wrong ack kind, unexpected payload type, data frame for an
	// out-of-range rank).
	FailProtocol FailureKind = "protocol-violation"
)

// WorkerFailure is the typed error for a failed coordinator<->worker link:
// the distributed analogue of supervise.RankFailure. The supervised engine
// recognizes it via errors.As and heals by rolling back to the newest
// valid checkpoint and respawning (or rescaling away) the dead proc.
type WorkerFailure struct {
	// Proc is the failed worker process index, or -1 when the failure
	// could not be attributed to a specific proc (e.g. a process-exit
	// watcher racing accept-order identity assignment).
	Proc int
	// Ranks is the block of ranks the proc hosted (nil when Proc is -1).
	Ranks []int
	// Kind classifies the failure.
	Kind FailureKind
	// Err is the underlying transport or protocol error.
	Err error
	// Forensics describes the last frame seen from the proc before the
	// failure — the distributed mirror of the comm watchdog's per-rank
	// dumps, answering "how far did it get" without attaching a debugger.
	Forensics string
}

func (f *WorkerFailure) Error() string {
	msg := fmt.Sprintf("distrib: worker %d (ranks %v) failed [%s]: %v", f.Proc, f.Ranks, f.Kind, f.Err)
	if f.Forensics != "" {
		msg += "; " + f.Forensics
	}
	return msg
}

func (f *WorkerFailure) Unwrap() error { return f.Err }

// frameLog records the last frame seen from one proc, for failure
// forensics. One writer (the proc's router goroutine); failure paths on
// other goroutines read it, hence the mutex.
type frameLog struct {
	mu    sync.Mutex
	count int64
	kind  byte
	src   int32
	dst   int32
	tag   int32
	when  time.Time
}

func (l *frameLog) note(f transport.Frame) {
	l.mu.Lock()
	l.count++
	l.kind, l.src, l.dst, l.tag = f.Kind, f.Src, f.Dst, f.Tag
	l.when = time.Now()
	l.mu.Unlock()
}

func (l *frameLog) describe() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.count == 0 {
		return "no frames received from this proc"
	}
	return fmt.Sprintf("last frame: kind=%d src=%d dst=%d tag=%d, %s ago (%d frames total)",
		l.kind, l.src, l.dst, l.tag, time.Since(l.when).Round(time.Millisecond), l.count)
}

// classifyLinkError maps a Recv/forward error to its failure kind.
func classifyLinkError(err error) FailureKind {
	var ne net.Error
	switch {
	case errors.As(err, &ne) && ne.Timeout():
		return FailHeartbeat
	case errors.Is(err, transport.ErrFrameTooLarge),
		errors.Is(err, transport.ErrMalformedFrame):
		return FailFrameDecode
	case errors.Is(err, io.EOF),
		errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, syscall.ECONNRESET),
		errors.Is(err, syscall.EPIPE):
		return FailExited
	default:
		return FailExited
	}
}
