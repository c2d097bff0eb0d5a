package distrib

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"syscall"
	"testing"

	"permcell/internal/transport"
)

// TestRanksOf pins the contiguous-block rank dealing, including the
// degenerate shapes: one worker owns everything, P == W deals singletons,
// and an uneven split biases the remainder to the trailing blocks
// (i*p/w arithmetic), never skipping or duplicating a rank.
func TestRanksOf(t *testing.T) {
	cases := []struct {
		p, w, i int
		want    []int
	}{
		{4, 1, 0, []int{0, 1, 2, 3}}, // W=1: one proc hosts the world
		{4, 4, 0, []int{0}},          // P=W: singleton blocks
		{4, 4, 3, []int{3}},
		{7, 3, 0, []int{0, 1}}, // uneven: 2,2,3
		{7, 3, 1, []int{2, 3}},
		{7, 3, 2, []int{4, 5, 6}},
		{1, 1, 0, []int{0}},
	}
	for _, c := range cases {
		if got := RanksOf(c.p, c.w, c.i); !reflect.DeepEqual(got, c.want) {
			t.Errorf("RanksOf(%d, %d, %d) = %v, want %v", c.p, c.w, c.i, got, c.want)
		}
	}
}

// TestRanksOfPartition checks the partition property over a sweep: for
// every legal (p, w) the blocks are non-empty, contiguous, ordered, and
// cover [0, p) exactly once.
func TestRanksOfPartition(t *testing.T) {
	for p := 1; p <= 12; p++ {
		for w := 1; w <= p; w++ {
			next := 0
			for i := 0; i < w; i++ {
				block := RanksOf(p, w, i)
				if len(block) == 0 {
					t.Fatalf("p=%d w=%d: block %d empty", p, w, i)
				}
				for _, r := range block {
					if r != next {
						t.Fatalf("p=%d w=%d block %d: rank %d, want %d", p, w, i, r, next)
					}
					next++
				}
			}
			if next != p {
				t.Fatalf("p=%d w=%d: blocks cover %d ranks", p, w, next)
			}
		}
	}
}

// timeoutErr mimics a net.Error deadline expiry (what a read deadline
// returns through the buffered reader).
type timeoutErr struct{}

func (timeoutErr) Error() string   { return "i/o timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

// TestClassifyLinkError pins the error->kind taxonomy: deadline expiries
// are liveness failures, codec errors are frame corruption, and endpoint
// teardown (EOF, reset, broken pipe, anything else) is an exit.
func TestClassifyLinkError(t *testing.T) {
	cases := []struct {
		err  error
		want FailureKind
	}{
		{timeoutErr{}, FailHeartbeat},
		{fmt.Errorf("recv: %w", timeoutErr{}), FailHeartbeat},
		{transport.ErrFrameTooLarge, FailFrameDecode},
		{fmt.Errorf("%w: unknown kind 99", transport.ErrMalformedFrame), FailFrameDecode},
		{io.EOF, FailExited},
		{io.ErrUnexpectedEOF, FailExited},
		{syscall.ECONNRESET, FailExited},
		{syscall.EPIPE, FailExited},
		{errors.New("anything else"), FailExited},
	}
	for _, c := range cases {
		if got := classifyLinkError(c.err); got != c.want {
			t.Errorf("classifyLinkError(%v) = %s, want %s", c.err, got, c.want)
		}
	}
}

// TestWorkerFailureError checks the typed error's message, unwrapping,
// and errors.As matching — the contract the supervisor's classifier and
// the facade's callers rely on.
func TestWorkerFailureError(t *testing.T) {
	inner := errors.New("connection reset")
	wf := &WorkerFailure{
		Proc: 2, Ranks: []int{4, 5}, Kind: FailExited,
		Err: inner, Forensics: "last frame: kind=5",
	}
	var err error = fmt.Errorf("step: %w", wf)
	var got *WorkerFailure
	if !errors.As(err, &got) || got.Proc != 2 || got.Kind != FailExited {
		t.Fatalf("errors.As failed to recover the WorkerFailure from %v", err)
	}
	if !errors.Is(err, inner) {
		t.Error("WorkerFailure does not unwrap to its cause")
	}
	for _, want := range []string{"worker 2", "[exited]", "connection reset", "last frame"} {
		if msg := wf.Error(); !containsStr(msg, want) {
			t.Errorf("Error() = %q, missing %q", msg, want)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestFrameLogForensics checks the per-proc forensics line: empty before
// any frame, and carrying the last header plus a count after traffic.
func TestFrameLogForensics(t *testing.T) {
	var l frameLog
	if got := l.describe(); !containsStr(got, "no frames") {
		t.Errorf("empty log describes as %q", got)
	}
	l.note(transport.Frame{Kind: transport.KindData, Src: 1, Dst: 2, Tag: 3})
	l.note(transport.Frame{Kind: transport.KindStepAck, Src: 4, Dst: 0, Tag: 0})
	got := l.describe()
	for _, want := range []string{"kind=5", "src=4", "2 frames total"} {
		if !containsStr(got, want) {
			t.Errorf("describe() = %q, missing %q", got, want)
		}
	}
}
