package comm

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"permcell/internal/trace"
)

// exchangeProgram is a deterministic SPMD workload: every rank sends rounds
// of tagged, numbered messages to every other rank and receives them all
// back, returning the payload log in program order.
func exchangeProgram(rounds, tags int) func(c *Comm) []string {
	return func(c *Comm) []string {
		var log []string
		p := c.Size()
		for round := 0; round < rounds; round++ {
			for dst := 0; dst < p; dst++ {
				if dst == c.Rank() {
					continue
				}
				for tag := 0; tag < tags; tag++ {
					c.Send(dst, tag, fmt.Sprintf("r%d t%d from %d", round, tag, c.Rank()))
				}
			}
			for src := 0; src < p; src++ {
				if src == c.Rank() {
					continue
				}
				for tag := 0; tag < tags; tag++ {
					log = append(log, c.Recv(src, tag).(string))
				}
			}
		}
		return log
	}
}

func runExchange(t *testing.T, w *World, rounds, tags int) [][]string {
	t.Helper()
	logs := make([][]string, w.Size())
	prog := exchangeProgram(rounds, tags)
	w.Run(func(c *Comm) { logs[c.Rank()] = prog(c) })
	return logs
}

// chaosPlan is the reference plan used by the determinism tests: all fault
// kinds on at once.
func chaosPlan(seed uint64) FaultPlan {
	return FaultPlan{
		Seed:         seed,
		DelayProb:    0.1,
		MaxDelay:     200 * time.Microsecond,
		ReorderProb:  0.3,
		ReorderDepth: 3,
		Stalls:       []Stall{{Rank: 1, AfterOps: 20, Duration: time.Millisecond}},
		Record:       true,
		MaxEvents:    1 << 16,
	}
}

// TestFaultFreePlanIdentical asserts the satellite property: a plan with
// zero probabilities and no stalls is byte-identical to the plain path —
// same deliveries, same message statistics.
func TestFaultFreePlanIdentical(t *testing.T) {
	plain, _ := NewWorld(4)
	faultfree, _ := NewWorld(4, WithFaults(FaultPlan{Seed: 99}))

	logsA := runExchange(t, plain, 5, 3)
	logsB := runExchange(t, faultfree, 5, 3)
	for r := range logsA {
		if strings.Join(logsA[r], "|") != strings.Join(logsB[r], "|") {
			t.Fatalf("rank %d deliveries differ between plain and fault-free plan", r)
		}
	}
	am, ab := plain.Stats()
	bm, bb := faultfree.Stats()
	if am != bm || ab != bb {
		t.Errorf("stats differ: plain (%d,%d) vs fault-free plan (%d,%d)", am, ab, bm, bb)
	}
	if fs := faultfree.FaultStats(); fs != (FaultStats{}) {
		t.Errorf("fault-free plan injected faults: %+v", fs)
	}
}

// eventKey flattens a fault event for order-insensitive comparison (the
// global event slice interleaves ranks nondeterministically; each rank's
// subsequence is the deterministic part).
func sortedEventKeys(evs []trace.FaultEvent) []string {
	keys := make([]string, len(evs))
	for i, e := range evs {
		keys[i] = fmt.Sprintf("rank=%d seq=%d kind=%s peer=%d tag=%d dur=%g", e.Rank, e.Seq, e.Kind, e.Peer, e.Tag, e.Dur)
	}
	sort.Strings(keys)
	return keys
}

// TestSameSeedSameFaults asserts the replay property: the same seed yields
// the identical injected-fault sequence (per rank, with identical drawn
// durations) and identical deliveries.
func TestSameSeedSameFaults(t *testing.T) {
	var prevLogs [][]string
	var prevEvents []string
	var prevStats FaultStats
	for run := 0; run < 2; run++ {
		w, _ := NewWorld(4, WithFaults(chaosPlan(7)))
		logs := runExchange(t, w, 10, 3)
		events := sortedEventKeys(w.FaultEvents())
		stats := w.FaultStats()
		if stats.Delays == 0 || stats.Reorders == 0 || stats.Stalls == 0 {
			t.Fatalf("plan injected nothing: %+v", stats)
		}
		if run == 0 {
			prevLogs, prevEvents, prevStats = logs, events, stats
			continue
		}
		if stats != prevStats {
			t.Errorf("fault stats differ across replays: %+v vs %+v", prevStats, stats)
		}
		if len(events) != len(prevEvents) {
			t.Fatalf("event count differs: %d vs %d", len(prevEvents), len(events))
		}
		for i := range events {
			if events[i] != prevEvents[i] {
				t.Fatalf("event %d differs:\n  %s\n  %s", i, prevEvents[i], events[i])
			}
		}
		for r := range logs {
			if strings.Join(logs[r], "|") != strings.Join(prevLogs[r], "|") {
				t.Fatalf("rank %d deliveries differ across replays", r)
			}
		}
	}
}

// TestReorderPreservesPerPairFIFO floods one link with interleaved tags
// under aggressive reordering and asserts the matching contract survives:
// every (src, tag) stream arrives in send order.
func TestReorderPreservesPerPairFIFO(t *testing.T) {
	w, _ := NewWorld(2, WithFaults(FaultPlan{Seed: 3, ReorderProb: 0.8, ReorderDepth: 4}))
	const perTag, tags = 50, 4
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			// Interleave tags so consecutive sends on the link carry
			// different tags — the reorderable case.
			for i := 0; i < perTag; i++ {
				for tag := 0; tag < tags; tag++ {
					c.Send(1, tag, i)
				}
			}
		} else {
			for tag := 0; tag < tags; tag++ {
				for i := 0; i < perTag; i++ {
					if got := c.Recv(0, tag).(int); got != i {
						t.Errorf("tag %d: message %d arrived as %d (per-pair FIFO broken)", tag, i, got)
						return
					}
				}
			}
		}
	})
	if w.FaultStats().Reorders == 0 {
		t.Error("no reorders injected despite ReorderProb=0.8")
	}
}

func TestStallFiresOnce(t *testing.T) {
	const d = 20 * time.Millisecond
	w, _ := NewWorld(2, WithFaults(FaultPlan{
		Seed:   1,
		Stalls: []Stall{{Rank: 0, AfterOps: 2, Duration: d}},
		Record: true,
	}))
	var elapsed time.Duration
	w.Run(func(c *Comm) {
		t0 := time.Now()
		for i := 0; i < 5; i++ {
			if c.Rank() == 0 {
				c.Send(1, 1, i)
			} else {
				c.Recv(0, 1)
			}
		}
		if c.Rank() == 0 {
			elapsed = time.Since(t0)
		}
	})
	if got := w.FaultStats().Stalls; got != 1 {
		t.Errorf("stalls fired = %d, want 1", got)
	}
	if elapsed < d {
		t.Errorf("rank 0 finished in %v, stall of %v did not bite", elapsed, d)
	}
	found := false
	for _, e := range w.FaultEvents() {
		if e.Kind == "stall" && e.Rank == 0 {
			found = true
		}
	}
	if !found {
		t.Error("no stall event recorded")
	}
}

func TestWriteFaultCSV(t *testing.T) {
	w, _ := NewWorld(2, WithFaults(chaosPlan(11)))
	runExchange(t, w, 5, 3)
	events := w.FaultEvents()
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	var b strings.Builder
	if err := trace.WriteFaultCSV(&b, events); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "rank,peer,tag,kind,seq,dur\n") {
		t.Errorf("missing header: %q", out[:40])
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != len(events)+1 {
		t.Error("row count mismatch")
	}
}

// TestChaosCollectivesCorrect runs the full collective suite under heavy
// chaos: whatever the injected faults do to timing and interleaving, the
// results must be exact.
func TestChaosCollectivesCorrect(t *testing.T) {
	w, _ := NewWorld(9, WithFaults(chaosPlan(13)))
	w.Run(func(c *Comm) {
		for round := 0; round < 20; round++ {
			if got := c.AllreduceFloat64(float64(c.Rank()), Sum); got != 36 {
				t.Errorf("round %d: allreduce sum = %v", round, got)
				return
			}
			all := c.Allgather(c.Rank() * 10)
			for r, v := range all {
				if v.(int) != r*10 {
					t.Errorf("round %d: allgather[%d] = %v", round, r, v)
					return
				}
			}
			if got := c.AllreduceInt64(int64(round), SumI); got != int64(9*round) {
				t.Errorf("round %d: int allreduce sum = %v", round, got)
				return
			}
			c.AllreduceInt64(0, SumI)
		}
	})
}

// TestFaultPlanValidate: a probability outside [0, 1] (NaN included), a
// negative MaxDelay, ReorderDepth or stall Duration, and a stall on a rank
// outside [0, p) are refused, each named in the error; the reference plan,
// the zero plan and the boundary values pass.
func TestFaultPlanValidate(t *testing.T) {
	const p = 4
	ok := []FaultPlan{
		{},
		chaosPlan(1),
		{DelayProb: 1, ReorderProb: 1, ReorderDepth: 0, Stalls: []Stall{{Rank: 0}, {Rank: p - 1}}},
	}
	for i, plan := range ok {
		if err := plan.Validate(p); err != nil {
			t.Errorf("plan %d: %v", i, err)
		}
	}
	bad := []struct {
		plan FaultPlan
		want string
	}{
		{FaultPlan{DelayProb: 1.5}, "DelayProb"},
		{FaultPlan{DelayProb: -0.1}, "DelayProb"},
		{FaultPlan{DelayProb: math.NaN()}, "DelayProb"},
		{FaultPlan{ReorderProb: 2}, "ReorderProb"},
		{FaultPlan{ReorderProb: math.NaN()}, "ReorderProb"},
		{FaultPlan{MaxDelay: -time.Millisecond}, "MaxDelay"},
		{FaultPlan{ReorderDepth: -2}, "ReorderDepth"},
		{FaultPlan{Stalls: []Stall{{Rank: p}}}, "rank 4"},
		{FaultPlan{Stalls: []Stall{{Rank: 1}, {Rank: -1}}}, "stall 1 on rank -1"},
		{FaultPlan{Stalls: []Stall{{Rank: 1, Duration: -time.Second}}}, "Duration"},
	}
	for _, c := range bad {
		err := c.plan.Validate(p)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: got %v, want an error naming %q", c.plan, err, c.want)
		}
	}
}
