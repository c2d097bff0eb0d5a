package supervise

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBackoffGrowsAndCaps(t *testing.T) {
	p := Policy{Backoff: time.Second}
	want := []time.Duration{
		time.Second, 2 * time.Second, 4 * time.Second,
		5 * time.Second, 5 * time.Second,
	}
	for i, w := range want {
		if got := p.BackoffFor(i + 1); got != w {
			t.Errorf("BackoffFor(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestBackoffDefaults(t *testing.T) {
	var p Policy
	if got := p.BackoffFor(1); got != 50*time.Millisecond {
		t.Errorf("default first backoff = %v, want 50ms", got)
	}
	if got := p.BackoffFor(100); got != 5*time.Second {
		t.Errorf("default capped backoff = %v, want 5s", got)
	}
}

func TestGuardDrift(t *testing.T) {
	if got := (GuardConfig{}).Drift(); got != DefaultMaxEnergyDrift {
		t.Errorf("zero config drift = %g, want default %g", got, DefaultMaxEnergyDrift)
	}
	if got := (GuardConfig{MaxEnergyDrift: 1.5}).Drift(); got != 1.5 {
		t.Errorf("explicit drift = %g, want 1.5", got)
	}
	if got := (GuardConfig{MaxEnergyDrift: -1}).Drift(); got != 0 {
		t.Errorf("negative drift = %g, want 0 (disabled)", got)
	}
}

func TestTrapCatchesPanicAsRankFailure(t *testing.T) {
	tr := NewTrap()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer tr.Catch(3)
		panic("boom")
	}()
	<-done
	select {
	case <-tr.Failed():
	default:
		t.Fatal("Failed channel not closed after panic")
	}
	var rf *RankFailure
	if err := tr.Err(); !errors.As(err, &rf) {
		t.Fatalf("Err() = %v, want *RankFailure", err)
	}
	if rf.Rank != 3 || rf.Value != "boom" {
		t.Errorf("failure = rank %d value %q, want rank 3 value \"boom\"", rf.Rank, rf.Value)
	}
	if !strings.Contains(rf.Stack, "goroutine") {
		t.Error("failure carries no stack trace")
	}
}

func TestTrapPassesGuardViolationThrough(t *testing.T) {
	tr := NewTrap()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer tr.Catch(1)
		panic(&GuardViolation{Rank: 1, Step: 17, Check: "finite", Detail: "particle 5"})
	}()
	<-done
	var gv *GuardViolation
	if err := tr.Err(); !errors.As(err, &gv) {
		t.Fatalf("Err() = %v, want *GuardViolation", err)
	}
	if gv.Step != 17 || gv.Check != "finite" {
		t.Errorf("violation = %+v, want step 17 check finite", gv)
	}
}

func TestTrapNormalReturnIsClean(t *testing.T) {
	tr := NewTrap()
	func() { defer tr.Catch(0) }()
	if err := tr.Err(); err != nil {
		t.Fatalf("Err() = %v on clean return", err)
	}
	select {
	case <-tr.Failed():
		t.Fatal("Failed closed with no failure")
	default:
	}
}

func TestTrapCollectsConcurrentFailures(t *testing.T) {
	tr := NewTrap()
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer tr.Catch(rank)
			panic(rank)
		}(r)
	}
	wg.Wait()
	var rf *RankFailure
	if !errors.As(tr.Err(), &rf) || rf.Rank < 0 || rf.Rank >= 8 {
		t.Fatalf("Err() = %v, want one rank's *RankFailure", tr.Err())
	}
	select {
	case <-tr.Failed():
	default:
		t.Error("Failed not closed after 8 failures")
	}
}

func TestSabotageFiresExactlyOnce(t *testing.T) {
	s := &Sabotage{Kind: SabotagePanic, Step: 10, Rank: 2}
	if s.TryFire(9, 2) || s.TryFire(10, 1) {
		t.Fatal("fired off-script")
	}
	if !s.TryFire(10, 2) {
		t.Fatal("did not fire on script")
	}
	if s.TryFire(10, 2) {
		t.Fatal("fired twice")
	}
	if !s.Fired() {
		t.Fatal("Fired() false after firing")
	}
	var nilSab *Sabotage
	if nilSab.TryFire(10, 2) || nilSab.FireIn(0, 99) || nilSab.Fired() || nilSab.ProcessLevel() {
		t.Fatal("nil sabotage fired")
	}
	// The batch form: (done, done+n] must contain the step.
	b := &Sabotage{Kind: SabotageWorkerExit, Step: 10, Rank: 2}
	if b.FireIn(10, 5) || b.FireIn(4, 5) || b.Fired() {
		t.Fatal("fired in a batch that does not contain the step")
	}
	if !b.FireIn(9, 1) || b.FireIn(5, 5) {
		t.Fatal("the batch containing the step must fire, once")
	}
}

func TestRetryBudgetErrorUnwraps(t *testing.T) {
	last := &GuardViolation{Rank: 0, Step: 5, Check: "conservation", Detail: "n=9 want 10"}
	err := &RetryBudgetError{Attempts: 3, Last: last, Report: &Report{Rollbacks: 3}}
	var gv *GuardViolation
	if !errors.As(err, &gv) {
		t.Fatal("RetryBudgetError does not unwrap to the last failure")
	}
	if !strings.Contains(err.Error(), "3 attempts") {
		t.Errorf("error text %q lacks attempt count", err.Error())
	}
}
