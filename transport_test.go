package permcell_test

import (
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"permcell"
)

// The cross-transport determinism contract: the in-process channel
// transport and the TCP multi-process transport run the identical PE
// code over the identical delivery contract, so a given seed must
// produce bit-identical step traces and final states on either — and
// across a checkpointed rescale to a different worker-process count.
// The tests below host the TCP workers as goroutines (Transport.Worker
// empty): real loopback sockets and real frames, but in one test
// process, so the race detector covers the whole stack.

// detStep strips the fields that legitimately differ between transports
// (wall-clock timings, phase breakdowns, wire-traffic counters), leaving
// the deterministic trace the contract covers.
func detStep(st permcell.StepStats) permcell.StepStats {
	var zero permcell.StepStats
	st.WallMax, st.WallAve, st.WallMin = 0, 0, 0
	st.StepWallMax, st.StepWallAve = 0, 0
	st.Phases = zero.Phases
	st.SentFrames, st.SentBytes = 0, 0
	return st
}

func sameTrace(t *testing.T, label string, want, got []permcell.StepStats) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d records, want %d", label, len(got), len(want))
	}
	for i := range want {
		w, g := detStep(want[i]), detStep(got[i])
		if !reflect.DeepEqual(w, g) {
			t.Errorf("%s: record %d diverges:\n want %+v\n  got %+v", label, i, w, g)
		}
	}
}

func sameFinal(t *testing.T, label string, want, got *permcell.Result) {
	t.Helper()
	if want.Final == nil || got.Final == nil {
		t.Fatalf("%s: missing final state (want %v, got %v)", label, want.Final != nil, got.Final != nil)
	}
	if !reflect.DeepEqual(want.Final.ID, got.Final.ID) ||
		!reflect.DeepEqual(want.Final.Pos, got.Final.Pos) ||
		!reflect.DeepEqual(want.Final.Vel, got.Final.Vel) {
		t.Errorf("%s: final particle states diverge", label)
	}
	if want.CommMsgs != got.CommMsgs || want.CommBytes != got.CommBytes {
		t.Errorf("%s: comm counters: got %d msgs / %d bytes, want %d / %d",
			label, got.CommMsgs, got.CommBytes, want.CommMsgs, want.CommBytes)
	}
}

// runTransport runs the standard small DLB workload for steps and
// returns its outcome.
func runTransport(t *testing.T, steps int, opts ...permcell.Option) *permcell.Result {
	t.Helper()
	base := []permcell.Option{
		permcell.WithSeed(7),
		permcell.WithBalancer(permcell.PermanentCell(permcell.PermanentCellConfig{})),
		permcell.WithWells(2, 1.5),
		permcell.WithWatchdog(time.Minute),
	}
	eng, err := permcell.New(2, 4, 0.3, append(base, opts...)...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := eng.Step(steps); err != nil {
		eng.Result()
		t.Fatalf("Step: %v", err)
	}
	res, err := eng.Result()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	return res
}

func tcp(procs int) permcell.Option {
	return permcell.WithTransport(permcell.Transport{Kind: permcell.TransportTCP, Procs: procs})
}

// TestCrossTransportGolden is the acceptance gate: the same seed on the
// in-process transport and on TCP at several process counts produces
// bit-identical traces, final states and comm counters.
func TestCrossTransportGolden(t *testing.T) {
	const steps = 24
	ref := runTransport(t, steps)
	for _, procs := range []int{1, 2, 4} {
		got := runTransport(t, steps, tcp(procs))
		label := map[int]string{1: "tcp/1proc", 2: "tcp/2procs", 4: "tcp/4procs"}[procs]
		sameTrace(t, label, ref.Stats, got.Stats)
		sameFinal(t, label, ref, got)
		// TCP traffic must actually have flowed when ranks span processes.
		if procs > 1 {
			last := got.Stats[len(got.Stats)-1]
			if last.SentFrames == 0 || last.SentBytes == 0 {
				t.Errorf("%s: no wire traffic counted (frames=%d bytes=%d)",
					label, last.SentFrames, last.SentBytes)
			}
		}
	}
}

// TestTCPRescale checkpoints a 4-process TCP run halfway and resumes it
// at 2 processes (and in-process): elastic rescaling must splice into
// the uninterrupted golden trace bit for bit on every path.
func TestTCPRescale(t *testing.T) {
	const half, steps = 12, 24
	golden := runTransport(t, steps)

	dir := t.TempDir()
	first := runTransport(t, half, tcp(4), permcell.WithCheckpoint(half, dir))
	sameTrace(t, "tcp/4procs first half", golden.Stats[:len(first.Stats)], first.Stats)

	resume := func(label string, opts ...permcell.Option) *permcell.Result {
		eng, err := permcell.Restore(dir, opts...)
		if err != nil {
			t.Fatalf("%s: Restore: %v", label, err)
		}
		if err := eng.Step(steps - half); err != nil {
			eng.Result()
			t.Fatalf("%s: Step: %v", label, err)
		}
		res, err := eng.Result()
		if err != nil {
			t.Fatalf("%s: Result: %v", label, err)
		}
		sameTrace(t, label, golden.Stats[len(first.Stats):], res.Stats)
		if !reflect.DeepEqual(golden.Final.Pos, res.Final.Pos) {
			t.Errorf("%s: final positions diverge from the uninterrupted run", label)
		}
		return res
	}
	down := resume("rescale tcp 4->2", tcp(2), permcell.WithWatchdog(time.Minute))
	chan2 := resume("rescale tcp 4->chan", permcell.WithWatchdog(time.Minute))
	// The cumulative comm counters legitimately exceed the uninterrupted
	// run's (restore re-exchanges halos to rebuild forces), but the two
	// resume paths must agree with each other exactly.
	if down.CommMsgs != chan2.CommMsgs || down.CommBytes != chan2.CommBytes {
		t.Errorf("resume comm counters: tcp %d msgs / %d bytes, chan %d / %d",
			down.CommMsgs, down.CommBytes, chan2.CommMsgs, chan2.CommBytes)
	}
}

// TestTCPFaultReplay runs a seeded chaos plan — jitter, reordering, a
// scripted stall — on both transports. The fault
// layer heals everything it injects and draws from placement-independent
// per-link streams, so the healed traces must match bit for bit and the
// injected-fault counters must agree.
func TestTCPFaultReplay(t *testing.T) {
	const steps = 16
	plan := permcell.FaultPlan{
		Seed:        99,
		DelayProb:   0.2,
		MaxDelay:    100 * time.Microsecond,
		ReorderProb: 0.3,
		Stalls:      []permcell.Stall{{Rank: 1, AfterOps: 40, Duration: 2 * time.Millisecond}},
	}
	ref := runTransport(t, steps, permcell.WithFaultPlan(plan))
	got := runTransport(t, steps, permcell.WithFaultPlan(plan), tcp(2))
	sameTrace(t, "tcp/2procs chaos", ref.Stats, got.Stats)
	sameFinal(t, "tcp/2procs chaos", ref, got)
	if ref.Faults != got.Faults {
		t.Errorf("fault counters diverge: chan %+v, tcp %+v", ref.Faults, got.Faults)
	}
	if got.Faults.Delays == 0 || got.Faults.Reorders == 0 {
		t.Errorf("chaos plan injected nothing: %+v", got.Faults)
	}
}

// TestTransportRejections pins the unsupported combinations to loud
// construction-time errors.
func TestTransportRejections(t *testing.T) {
	if _, err := permcell.New(2, 4, 0.3, permcell.WithTransport(permcell.Transport{Kind: "carrier-pigeon"})); err == nil {
		t.Error("unknown transport kind accepted")
	}
	if _, err := permcell.NewSerial(4, 0.3, tcp(2)); err == nil {
		t.Error("serial engine accepted the tcp transport")
	}
	if _, err := permcell.NewStatic(permcell.ShapeCube, 4, 8, 0.3, tcp(2)); err == nil {
		t.Error("static engine accepted the tcp transport")
	}
	if _, err := permcell.New(2, 4, 0.3, tcp(5)); err == nil {
		t.Error("more processes than ranks accepted")
	}
	// Restore learns the engine kind from the file, so the same rejections
	// must fire there instead of the run silently coming up in-process.
	for _, name := range []string{"static", "serial"} {
		eng, err := permcell.Restore(filepath.Join("testdata", "ckpt", name+".ckpt"), tcp(2))
		if err == nil {
			eng.Result()
			t.Errorf("restored %s checkpoint accepted the tcp transport", name)
		}
	}
}
