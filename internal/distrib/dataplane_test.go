package distrib

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"permcell/internal/checkpoint"
	"permcell/internal/comm"
	"permcell/internal/core"
	"permcell/internal/supervise"
	"permcell/internal/transport"
	"permcell/internal/vec"
)

// The data-plane tests run the hub, the worker and the remote over
// net.Pipe: real Peers and the real protocol, no sockets, no processes.

// pipeHub stands up a coordinator's routers over in-memory links, rank i
// on proc i, and returns the workers' ends.
func pipeHub(t *testing.T, procs int) (*Engine, []*transport.Peer) {
	t.Helper()
	e := &Engine{
		peers:  make([]*transport.Peer, procs),
		acks:   make([]*controlIn, procs),
		procOf: make([]int, procs),
		ranks:  make([][]int, procs),
		last:   make([]frameLog, procs),
		ctrl:   make(chan ctrlFrame, 4*procs),
		fatal:  make(chan error, procs),
		hbStop: make(chan struct{}),
	}
	far := make([]*transport.Peer, procs)
	for i := range far {
		hubEnd, workerEnd := net.Pipe()
		e.peers[i], far[i] = transport.NewPeer(hubEnd), transport.NewPeer(workerEnd)
		e.acks[i] = newControlIn()
		e.procOf[i], e.ranks[i] = i, []int{i}
	}
	for i := range far {
		go e.route(i)
	}
	t.Cleanup(func() {
		e.shutdown()
		for _, p := range far {
			p.Close()
		}
	})
	return e, far
}

// TestHubForwardsDataFramesOpaque: the coordinator routes a data frame by
// its header and forwards header and payload byte for byte — a payload no
// codec would accept crosses as well as a typed one, so nothing decoded it
// — keeps each source's frames in the order they were sent, and hands
// control frames to the collector instead of forwarding them.
func TestHubForwardsDataFramesOpaque(t *testing.T) {
	e, far := pipeHub(t, 3)
	const perSource = 150
	payload := func(src, seq int) []byte {
		switch seq % 5 {
		case 0:
			b, err := transport.EncodePayload([]int{src, seq})
			if err != nil {
				t.Error(err)
			}
			return b
		case 1:
			return nil
		case 2: // larger than a Peer's read buffer: the owned-payload path
			return bytes.Repeat([]byte{byte(src), byte(seq)}, 40<<10)
		default: // no type id a codec knows, lying counts and all
			return append([]byte{0xEE, 0xFF, 0xFF, 0xFF, 0xFF}, fmt.Sprintf("opaque %d/%d", src, seq)...)
		}
	}
	sendErr := make(chan error, 2)
	for _, src := range []int{0, 2} {
		go func() {
			for seq := 0; seq < perSource; seq++ {
				f := transport.Frame{Kind: transport.KindData, Src: int32(src), Dst: 1, Tag: int32(seq), Payload: payload(src, seq)}
				if err := far[src].Send(f); err != nil {
					sendErr <- err
					return
				}
			}
			sendErr <- far[src].Send(transport.Frame{Kind: transport.KindStepAck, Src: int32(src), Dst: -1, Payload: []byte("ack")})
		}()
	}
	next := map[int32]int{0: 0, 2: 0}
	for i := 0; i < 2*perSource; i++ {
		f, err := far[1].Recv()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		seq, ok := next[f.Src]
		if !ok || f.Kind != transport.KindData || f.Dst != 1 {
			t.Fatalf("frame %d: unexpected header %+v", i, f)
		}
		if int(f.Tag) != seq {
			t.Fatalf("source %d: frame %d arrived where %d was due", f.Src, f.Tag, seq)
		}
		if want := payload(int(f.Src), seq); !bytes.Equal(f.Payload, want) {
			t.Fatalf("source %d frame %d: payload changed in transit (%d bytes, want %d)", f.Src, seq, len(f.Payload), len(want))
		}
		next[f.Src]++
	}
	for range 2 {
		if err := <-sendErr; err != nil {
			t.Fatal(err)
		}
		select {
		case cf := <-e.ctrl:
			if cf.frame.Kind != transport.KindStepAck || string(cf.frame.Payload) != "ack" || int(cf.frame.Src) != cf.proc {
				t.Fatalf("collector got %+v from proc %d", cf.frame, cf.proc)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a control frame never reached the collector")
		}
	}
	select {
	case err := <-e.fatal:
		t.Fatalf("routing opaque payloads failed a link: %v", err)
	default:
	}

	// A destination outside the world is a protocol failure of the sender.
	if err := far[0].Send(transport.Frame{Kind: transport.KindData, Src: 0, Dst: 7}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-e.fatal:
		var wf *WorkerFailure
		if !errors.As(err, &wf) || wf.Kind != FailProtocol || wf.Proc != 0 {
			t.Fatalf("out-of-range destination: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("out-of-range destination went unnoticed")
	}
}

// TestWorkerCorruptPayloadPoisons: a worker whose ranks are blocked in a
// step on data that will never come, fed a data frame no codec accepts,
// poisons its world — the ranks unwind, the step is acked as failed — and
// RunWorker returns the decode error instead of hanging.
func TestWorkerCorruptPayloadPoisons(t *testing.T) {
	coordEnd, workerEnd := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- RunWorker(workerEnd) }()

	coord := transport.NewPeer(coordEnd)
	defer coord.Close()
	if f, err := coord.Recv(); err != nil || f.Kind != transport.KindHello {
		t.Fatalf("hello: %+v, %v", f, err)
	}
	// Ranks 0 and 1 of 4 live in the worker; 2 and 3 are this test, which
	// never answers, so the worker's ranks block in their first halo.
	spec, err := newControlOut().encode(WireSpec{
		Meta:  checkpoint.Meta{Spec: checkpoint.Spec{Kind: checkpoint.KindDLB, M: 2, P: 4, Rho: 0.256, Seed: 1, StatsEvery: 1}, DLB: true},
		Ranks: []int{0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Send(transport.Frame{Kind: transport.KindSpec, Payload: spec}); err != nil {
		t.Fatal(err)
	}
	// Drain what the worker writes (net.Pipe has no buffer): its ranks'
	// data frames for ranks 2 and 3, the ready ack, then the failed step's.
	acks := make(chan StepAck, 2)
	go func() {
		in := newControlIn()
		for {
			f, err := coord.Recv()
			if err != nil {
				close(acks)
				return
			}
			if f.Kind == transport.KindStepAck {
				var ack StepAck
				if err := in.decode(f.Payload, &ack); err == nil {
					acks <- ack
				}
			}
		}
	}()
	awaitAck := func(what string) StepAck {
		t.Helper()
		select {
		case ack, ok := <-acks:
			if !ok {
				t.Fatalf("%s: link closed first", what)
			}
			return ack
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: timed out", what)
		}
		panic("unreachable")
	}
	if ack := awaitAck("ready ack"); ack.Err != nil {
		t.Fatalf("worker failed to build its engine: %s", ack.Err)
	}
	if err := coord.Send(transport.Frame{Kind: transport.KindStep, Tag: 1}); err != nil {
		t.Fatal(err)
	}
	// A []int whose count promises four billion elements.
	corrupt := []byte{3, 0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3}
	if err := coord.Send(transport.Frame{Kind: transport.KindData, Src: 2, Dst: 0, Tag: 5, Payload: corrupt}); err != nil {
		t.Fatal(err)
	}
	if ack := awaitAck("failed step's ack"); ack.Err == nil {
		t.Error("the step the corrupt frame interrupted was acked as a success")
	}
	select {
	case err := <-done:
		if !errors.Is(err, transport.ErrMalformedPayload) {
			t.Fatalf("RunWorker returned %v, want the payload decode error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunWorker still running: the corrupt frame left its ranks blocked")
	}
}

// TestRemoteStatsCountWireBytes holds comm.Remote's "wire bytes" to the
// wire: Stats equals the bytes the far end reads for the data frames —
// length prefix and header included — while heartbeats and control frames
// on the same link stay out of the count.
func TestRemoteStatsCountWireBytes(t *testing.T) {
	near, far := net.Pipe()
	peer := transport.NewPeer(near)
	r := &peerRemote{peer: peer}

	read := make(chan int64, 1)
	go func() {
		n, _ := io.Copy(io.Discard, far)
		read <- n
	}()

	control := []byte("some control payload")
	vals := []any{1.5, int64(7), []int{1, 2, 3}, []int(nil), []any{2.5, []int{4}}}
	var want int64
	for i, v := range vals {
		if err := r.Deliver(0, 5, i, v, 999); err != nil {
			t.Fatalf("deliver %T: %v", v, err)
		}
		b, _ := transport.EncodePayload(v)
		want += 17 + int64(len(b))
		if i == 2 {
			if err := peer.Send(transport.Frame{Kind: transport.KindHeartbeat, Dst: -1}); err != nil {
				t.Fatal(err)
			}
			if err := peer.Send(transport.Frame{Kind: transport.KindStepAck, Payload: control}); err != nil {
				t.Fatal(err)
			}
		}
	}
	err := r.Deliver(0, 5, 1, struct{ Secret string }{"x"}, 0)
	if err == nil || !strings.Contains(err.Error(), "struct { Secret string }") {
		t.Fatalf("unregistered payload type: error %v does not name it", err)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	peer.Close()

	frames, wire := r.Stats()
	if frames != int64(len(vals)) || wire != want {
		t.Fatalf("Stats() = %d frames, %d bytes; want %d, %d", frames, wire, len(vals), want)
	}
	if got, other := <-read, int64(17+17+len(control)); got != wire+other {
		t.Fatalf("far end read %d bytes; Stats says %d of data frames, plus %d of heartbeat and control", got, wire, other)
	}
}

// roundTrip sends v down one control stream and returns what the far end
// decodes.
func roundTrip[T any](t *testing.T, out *controlOut, in *controlIn, v T) T {
	t.Helper()
	b, err := out.encode(v)
	if err != nil {
		t.Fatal(err)
	}
	var got T
	if err := in.decode(b, &got); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestControlPlaneStaysGob: specs and acks round-trip through a link's gob
// stream, and the data plane's codec wants nothing to do with them.
func TestControlPlaneStaysGob(t *testing.T) {
	ack := StepAck{Proc: 3, Msgs: 10, Bytes: 20, Err: &supervise.RankFailure{Rank: 2, Value: "boom"}}
	out, in := newControlOut(), newControlIn()
	b, err := out.encode(ack)
	if err != nil {
		t.Fatal(err)
	}
	b = bytes.Clone(b)
	var got StepAck
	var rf *supervise.RankFailure
	if err := in.decode(b, &got); err != nil || got.Proc != 3 || !errors.As(got.Err, &rf) || rf.Value != "boom" {
		t.Fatalf("control round trip: %#v, %v", got, err)
	}
	if err := newControlIn().decode([]byte("not gob"), &got); err == nil {
		t.Error("garbage control payload decoded")
	}
	if _, err := transport.EncodePayload(ack); err == nil {
		t.Error("the data-plane codec encoded a control type")
	}
	if _, err := transport.DecodePayload(b); !errors.Is(err, transport.ErrMalformedPayload) {
		t.Errorf("the data-plane codec took a gob payload: %v", err)
	}
}

// TestTypedFailuresCrossControlPlane: a worker-side failure of a supervised
// class reaches the coordinator's errors.As as itself, every exported field
// intact — a deadlock's per-rank states included — and any other error as
// its message.
func TestTypedFailuresCrossControlPlane(t *testing.T) {
	out, in := newControlOut(), newControlIn()
	cross := func(err error) error {
		t.Helper()
		return roundTrip(t, out, in, StepAck{Proc: 1, Err: wireErr(1, fmt.Errorf("rank block: %w", err))}).Err
	}
	gv := &supervise.GuardViolation{Rank: 3, Step: 17, Check: "finite", Detail: "v[2] is NaN"}
	var gotGV *supervise.GuardViolation
	if err := cross(gv); !errors.As(err, &gotGV) || !reflect.DeepEqual(gotGV, gv) {
		t.Errorf("guard violation crossed as %#v", err)
	}
	rf := &supervise.RankFailure{Rank: 2, Value: "boom", Stack: "goroutine 7 [running]:"}
	var gotRF *supervise.RankFailure
	if err := cross(rf); !errors.As(err, &gotRF) || !reflect.DeepEqual(gotRF, rf) {
		t.Errorf("rank failure crossed as %#v", err)
	}
	de := &comm.DeadlockError{
		Timeout: 30 * time.Millisecond,
		Ranks: []comm.RankState{
			{Rank: 0, LastOp: "recv", Detail: "tag 5 from 1", Ops: 12, Pending: []string{"src=2 tag=3"}, Blocked: true, For: time.Second},
			{Rank: 1, LastOp: "done", Ops: 9, Held: []string{"dst=0 held=1"}},
		},
		Stacks: "goroutine 1 [chan receive]:",
	}
	var gotDE *comm.DeadlockError
	if err := cross(de); !errors.As(err, &gotDE) || !reflect.DeepEqual(gotDE, de) || len(gotDE.Ranks) != 2 {
		t.Errorf("deadlock crossed as %#v", err)
	}
	plain := fmt.Errorf("core: negative step count %d", -1)
	var we *workerError
	if err := roundTrip(t, out, in, StepAck{Err: wireErr(4, plain)}).Err; !errors.As(err, &we) || we.Msg != plain.Error() ||
		err.Error() != "distrib: worker 4: "+plain.Error() {
		t.Errorf("plain error crossed as %#v", err)
	}
	if ack := roundTrip(t, out, in, StepAck{Proc: 5, Err: wireErr(5, nil)}); ack.Err != nil || ack.Proc != 5 {
		t.Errorf("clean ack crossed as %#v", ack)
	}
}

// TestControlStreamSendsDescriptorsOnce: the first ack on a link carries
// its types' descriptors, the second the value alone — shorter by at least
// every type and field name the descriptors spell out, and without any of
// the type names — and both decode, in order, to what was sent.
func TestControlStreamSendsDescriptorsOnce(t *testing.T) {
	ack := StepAck{
		Proc:      1,
		Stats:     []core.StepStats{{Step: 7, WorkMax: 2.5, Balancer: "permcell"}},
		Transport: comm.TransportStats{Frames: 3, Bytes: 51},
		Msgs:      4,
	}
	out, in := newControlOut(), newControlIn()
	first, err := out.encode(ack)
	if err != nil {
		t.Fatal(err)
	}
	first = bytes.Clone(first)
	second, err := out.encode(ack)
	if err != nil {
		t.Fatal(err)
	}
	names := 0
	for _, typ := range []reflect.Type{reflect.TypeOf(ack), reflect.TypeOf(ack.Stats[0]), reflect.TypeOf(ack.Transport)} {
		names += len(typ.Name())
		for i := range typ.NumField() {
			if typ.Field(i).IsExported() {
				names += len(typ.Field(i).Name)
			}
		}
		if !bytes.Contains(first, []byte(typ.Name())) || bytes.Contains(second, []byte(typ.Name())) {
			t.Errorf("type name %s: in the first ack %v, in the second %v; want only the first", typ.Name(),
				bytes.Contains(first, []byte(typ.Name())), bytes.Contains(second, []byte(typ.Name())))
		}
	}
	if len(first)-len(second) < names {
		t.Errorf("first ack %d bytes, second %d: the second saves less than the %d bytes of names in the descriptors", len(first), len(second), names)
	}
	for i, b := range [][]byte{first, second} {
		var got StepAck
		if err := in.decode(b, &got); err != nil || !reflect.DeepEqual(got, ack) {
			t.Fatalf("ack %d decoded to %#v, %v", i, got, err)
		}
	}
}

// TestCorruptAckMidStreamFailsFrameDecode: after a clean round on both
// links, an ack whose payload the stream cannot decode fails the batch as
// a frame-decode failure of the proc that sent it.
func TestCorruptAckMidStreamFailsFrameDecode(t *testing.T) {
	e, far := pipeHub(t, 2)
	outs := []*controlOut{newControlOut(), newControlOut()}
	ack := func(proc int, corrupt bool) {
		b, err := outs[proc].encode(StepAck{Proc: proc, Msgs: 1})
		if err != nil {
			t.Error(err)
			return
		}
		if corrupt {
			b = b[:len(b)-1] // the value message cut short
		}
		if err := far[proc].Send(transport.Frame{Kind: transport.KindStepAck, Src: int32(proc), Dst: -1, Payload: b}); err != nil {
			t.Error(err)
		}
	}
	fold := func(a *StepAck) error { return a.Err }
	go func() { ack(0, false); ack(1, false) }()
	if err := collect(e, transport.KindStepAck, fold); err != nil {
		t.Fatalf("clean round: %v", err)
	}
	go func() { ack(0, false); ack(1, true) }()
	err := collect(e, transport.KindStepAck, fold)
	var wf *WorkerFailure
	if !errors.As(err, &wf) || wf.Kind != FailFrameDecode || wf.Proc != 1 {
		t.Fatalf("corrupt ack from proc 1: %v, want a frame-decode failure of proc 1", err)
	}
}

// TestHubFlushesWhenSourceDrains pins the hub's flush rule: a forwarded
// data frame leaves once its source link has nothing more buffered, checked
// before every read that could block — not only after data frames. A data
// frame that arrives in one write with a heartbeat, or with an ack, behind
// it reaches its destination with no later frame on the source link.
func TestHubFlushesWhenSourceDrains(t *testing.T) {
	for _, trailer := range []transport.Frame{
		{Kind: transport.KindHeartbeat, Src: 0, Dst: -1},
		{Kind: transport.KindStepAck, Src: 0, Dst: -1, Payload: []byte("ack")},
	} {
		t.Run(fmt.Sprintf("kind %d", trailer.Kind), func(t *testing.T) {
			_, far := pipeHub(t, 2)
			data := transport.Frame{Kind: transport.KindData, Src: 0, Dst: 1, Tag: 9, Payload: []byte("halo")}
			if err := far[0].Queue(data); err != nil {
				t.Fatal(err)
			}
			sent := make(chan error, 1)
			go func() { sent <- far[0].Send(trailer) }() // one write: data, then the trailer
			far[1].SetTimeouts(5*time.Second, 0)
			f, err := far[1].Recv()
			if err != nil {
				t.Fatalf("forwarded data frame never arrived: %v", err)
			}
			if f.Kind != data.Kind || f.Tag != data.Tag || !bytes.Equal(f.Payload, data.Payload) {
				t.Fatalf("destination got %+v", f)
			}
			if err := <-sent; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSnapshotFramesCrossControlPlaneBitForBit: checkpoint frames ride the
// control stream as their own fixed layout (gob defers to Frame's
// MarshalBinary), in both directions — gathered in a SnapAck, dealt in a
// WireSpec's Restore — so the values gob's own float and zero-field
// handling would touch (NaN payloads, infinities, -0, negative IDs) arrive
// as the bits they left as.
func TestSnapshotFramesCrossControlPlaneBitForBit(t *testing.T) {
	nan, snan := math.Float64frombits(0x7ff8_0000_dead_beef), math.Float64frombits(0xfff0_0000_0000_0001)
	negZero := math.Copysign(0, -1)
	want := []checkpoint.Frame{
		{Rank: 0},
		{
			Rank: 1, ID: []int64{-7, 0, math.MinInt64}, Cols: []int{5, -1},
			Pos: []vec.V{vec.New(nan, math.Inf(1), negZero), vec.New(0, 1, 2), vec.New(snan, math.Inf(-1), 5e-324)},
			Vel: []vec.V{vec.New(negZero, negZero, negZero), vec.New(snan, nan, -1), vec.New(0, 0, 0)},
		},
	}
	same := func(what string, got []checkpoint.Frame) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d frames, want %d", what, len(got), len(want))
		}
		for i := range want {
			wb, err := want[i].MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if gb, err := got[i].MarshalBinary(); err != nil || !bytes.Equal(gb, wb) {
				t.Errorf("%s: frame %d changed in transit (err %v):\n got %+v\nwant %+v", what, i, err, got[i], want[i])
			}
		}
	}
	out, in := newControlOut(), newControlIn()
	ack := roundTrip(t, out, in, SnapAck{Proc: 1, Frames: want, Msgs: 3})
	if ack.Proc != 1 || ack.Msgs != 3 {
		t.Fatalf("SnapAck round trip: %#v", ack)
	}
	same("SnapAck", ack.Frames)
	spec := roundTrip(t, out, in, WireSpec{Proc: 2, Restore: &checkpoint.EngineState{Step: 9, Frames: want, CommMsgs: 4}})
	if spec.Restore == nil || spec.Restore.Step != 9 || spec.Restore.CommMsgs != 4 {
		t.Fatalf("WireSpec round trip: %#v", spec)
	}
	same("WireSpec.Restore", spec.Restore.Frames)

	// A ragged frame cannot be put on the wire at all, and refusing it
	// leaves the stream usable — also when it was the stream's first value,
	// whose type descriptors gob wrote before the frame failed.
	ragged := SnapAck{Frames: []checkpoint.Frame{{Rank: 2, ID: []int64{1}}}}
	fresh, freshIn := newControlOut(), newControlIn()
	for _, s := range []struct {
		out *controlOut
		in  *controlIn
	}{{out, in}, {fresh, freshIn}} {
		if _, err := s.out.encode(ragged); err == nil || !strings.Contains(err.Error(), "rank 2") {
			t.Fatalf("ragged frame in a SnapAck: %v", err)
		}
		same("SnapAck after a refused one", roundTrip(t, s.out, s.in, SnapAck{Proc: 5, Frames: want}).Frames)
	}
}
