package distrib

import (
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"permcell/internal/checkpoint"
	"permcell/internal/core"
	"permcell/internal/supervise"
	"permcell/internal/transport"
)

// TestProcessFaultLandsBeforeItsBatch drives RunWorker over an in-memory
// pipe — this test is the coordinator, no processes — with each
// process-level sabotage armed at step 5, and pins where its wire effect
// lands: the batches of steps 1-2 and 3-4 are acked clean with their
// records, and the command for steps 5-6 is answered by the fault instead of
// stepping — EOF for worker-exit, the lying 0xFFFFFFFF length prefix for
// worker-garbage, and for worker-stall heartbeat silence for the length of
// the stall, after which the batch runs and is acked.
func TestProcessFaultLandsBeforeItsBatch(t *testing.T) {
	const stall = 300 * time.Millisecond
	for _, kind := range []string{supervise.SabotageWorkerExit, supervise.SabotageWorkerStall, supervise.SabotageWorkerGarbage} {
		t.Run(kind, func(t *testing.T) {
			coordEnd, workerEnd := net.Pipe()
			done := make(chan error, 1)
			go func() { done <- RunWorker(workerEnd) }()
			coord := transport.NewPeer(coordEnd)
			defer coord.Close()

			// recv returns the worker's next frame that is not a heartbeat,
			// counting the heartbeats that arrive before quiet ends.
			var quiet time.Time
			beats := 0
			recv := func() (transport.Frame, error) {
				for {
					f, err := coord.Recv()
					if err != nil || f.Kind != transport.KindHeartbeat {
						return f, err
					}
					if time.Now().Before(quiet) {
						beats++
					}
				}
			}
			acks := newControlIn()
			stepAck := func(what string) StepAck {
				t.Helper()
				f, err := recv()
				if err != nil || f.Kind != transport.KindStepAck {
					t.Fatalf("%s: frame kind %d, %v", what, f.Kind, err)
				}
				var ack StepAck
				if err := acks.decode(f.Payload, &ack); err != nil || ack.Err != nil {
					t.Fatalf("%s: %#v, %v", what, ack, err)
				}
				return ack
			}

			if f, err := recv(); err != nil || f.Kind != transport.KindHello {
				t.Fatalf("hello: %+v, %v", f, err)
			}
			sab := &supervise.Sabotage{Kind: kind, Step: 5, Rank: 2}
			if kind == supervise.SabotageWorkerStall {
				sab.Stall = stall
			}
			// Every rank lives in the worker: no data frames to answer.
			// The worker beats every 10ms; its own read window is wide
			// because this coordinator never beats back.
			spec, err := newControlOut().encode(WireSpec{
				Meta:           checkpoint.Meta{Spec: checkpoint.Spec{Kind: checkpoint.KindDLB, M: 2, P: 4, Rho: 0.256, Seed: 1, StatsEvery: 1}},
				Ranks:          []int{0, 1, 2, 3},
				HeartbeatEvery: 10 * time.Millisecond, HeartbeatMisses: 3000,
				Runtime: core.Runtime{Sabotage: sab},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := coord.Send(transport.Frame{Kind: transport.KindSpec, Payload: spec}); err != nil {
				t.Fatal(err)
			}
			stepAck("ready ack")
			for _, first := range []int{1, 3} {
				if err := coord.Send(transport.Frame{Kind: transport.KindStep, Tag: 2}); err != nil {
					t.Fatal(err)
				}
				if ack := stepAck("clean batch"); len(ack.Stats) != 2 || ack.Stats[0].Step != first {
					t.Fatalf("batch of steps %d-%d acked %d records from step %d", first, first+1, len(ack.Stats), ack.Stats[0].Step)
				}
			}
			if sab.Fired() {
				t.Error("the coordinator-side script was spent by shipping it")
			}

			sent := time.Now()
			quiet = sent.Add(stall)
			if err := coord.Send(transport.Frame{Kind: transport.KindStep, Tag: 2}); err != nil {
				t.Fatal(err)
			}
			switch kind {
			case supervise.SabotageWorkerStall:
				ack := stepAck("stalled batch")
				if waited := time.Since(sent); waited < stall {
					t.Errorf("the stalled batch was acked after %v, before the %v stall ended", waited, stall)
				}
				// One beat may already have been on its way when the stall began.
				if beats > 1 {
					t.Errorf("%d heartbeats during a %v stall of a worker beating every 10ms", beats, stall)
				}
				if len(ack.Stats) != 2 || ack.Stats[0].Step != 5 {
					t.Errorf("after the stall the batch acked %d records from step %d, want steps 5-6", len(ack.Stats), ack.Stats[0].Step)
				}
				return
			case supervise.SabotageWorkerExit:
				if _, err := recv(); !errors.Is(err, io.EOF) {
					t.Fatalf("batch containing the step: %v, want EOF", err)
				}
			case supervise.SabotageWorkerGarbage:
				if _, err := recv(); !errors.Is(err, transport.ErrFrameTooLarge) {
					t.Fatalf("batch containing the step: %v, want the oversized-frame error of a 0xFFFFFFFF prefix", err)
				}
			}
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), kind) {
					t.Errorf("RunWorker returned %v, want the %s error", err, kind)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the worker outlived its own fault")
			}
		})
	}
}
