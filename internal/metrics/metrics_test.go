package metrics

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"permcell/internal/supervise"
)

func TestPhaseNames(t *testing.T) {
	seen := map[string]bool{}
	for ph := Phase(0); ph < NumPhases; ph++ {
		name := ph.String()
		if name == "" || strings.Contains(name, "(") {
			t.Fatalf("phase %d has no name", ph)
		}
		if seen[name] {
			t.Fatalf("duplicate phase name %q", name)
		}
		seen[name] = true
	}
	if got := Phase(NumPhases).String(); got != "phase(7)" {
		t.Errorf("out-of-range name = %q", got)
	}
}

// TestNilTimerNoOps pins the disabled path: every method on a nil Timer is
// a safe no-op, which is what lets the engines thread one pointer through
// unconditionally.
func TestNilTimerNoOps(t *testing.T) {
	var tm *Timer
	t0 := tm.Start()
	if !t0.IsZero() {
		t.Fatal("nil Start returned non-zero time")
	}
	tm.Stop(PhaseForce, t0)
	tm.Add(PhaseHalo, 1)
	tm.Count(PhaseMigrate, 3, 144)
	if s := tm.TakeSample(); s != (Sample{}) {
		t.Fatalf("nil TakeSample = %+v", s)
	}
}

func TestTimerAccumulateAndReset(t *testing.T) {
	tm := &Timer{}
	tm.Add(PhaseForce, 0.25)
	tm.Add(PhaseForce, 0.25)
	tm.Count(PhaseHalo, 2, 100)
	tm.Count(PhaseHalo, 1, 50)
	t0 := tm.Start()
	time.Sleep(time.Millisecond)
	tm.Stop(PhaseIntegrate, t0)

	s := tm.TakeSample()
	if s.Secs[PhaseForce] != 0.5 {
		t.Errorf("force secs = %v", s.Secs[PhaseForce])
	}
	if s.Msgs[PhaseHalo] != 3 || s.Bytes[PhaseHalo] != 150 {
		t.Errorf("halo counts = %d msgs %d bytes", s.Msgs[PhaseHalo], s.Bytes[PhaseHalo])
	}
	if s.Secs[PhaseIntegrate] <= 0 {
		t.Errorf("integrate secs = %v", s.Secs[PhaseIntegrate])
	}
	if again := tm.TakeSample(); again != (Sample{}) {
		t.Errorf("sample not reset: %+v", again)
	}
}

// TestTimerZeroAlloc is the steady-state allocation contract for the hot
// half of the package: a full per-step timer cycle allocates nothing, for
// both the enabled and the disabled (nil) timer.
func TestTimerZeroAlloc(t *testing.T) {
	for name, tm := range map[string]*Timer{"enabled": {}, "nil": nil} {
		step := func() {
			t0 := tm.Start()
			tm.Stop(PhaseForce, t0)
			tm.Add(PhaseHalo, 0.001)
			tm.Count(PhaseMigrate, 8, 384)
			_ = tm.TakeSample()
		}
		if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
			t.Errorf("timer=%s: %v allocs per step cycle, want 0", name, allocs)
		}
	}
}

func TestBreakdownReduce(t *testing.T) {
	var b Breakdown
	a := Sample{}
	a.Secs[PhaseForce], a.Msgs[PhaseHalo], a.Bytes[PhaseHalo] = 2, 4, 400
	c := Sample{}
	c.Secs[PhaseForce], c.Msgs[PhaseHalo], c.Bytes[PhaseHalo] = 4, 6, 600
	b.Fold(a)
	b.Fold(c)
	b.Finalize(2)
	if b.MaxSecs[PhaseForce] != 4 || b.AveSecs[PhaseForce] != 3 {
		t.Errorf("force max/ave = %v/%v", b.MaxSecs[PhaseForce], b.AveSecs[PhaseForce])
	}
	if b.Msgs[PhaseHalo] != 10 || b.Bytes[PhaseHalo] != 1000 {
		t.Errorf("halo totals = %d/%d", b.Msgs[PhaseHalo], b.Bytes[PhaseHalo])
	}
	if b.SumAveSecs() != 3 {
		t.Errorf("SumAveSecs = %v", b.SumAveSecs())
	}
	if b.SumMsgs() != 10 {
		t.Errorf("SumMsgs = %d", b.SumMsgs())
	}
}

func TestGauges(t *testing.T) {
	if r := LoadRatio(4, 2); r != 2 {
		t.Errorf("LoadRatio = %v", r)
	}
	if e := Efficiency(4, 2); e != 0.5 {
		t.Errorf("Efficiency = %v", e)
	}
	if LoadRatio(1, 0) != 0 || Efficiency(0, 1) != 0 {
		t.Error("degenerate gauges not zero")
	}
	// m=2, n=1: f = 3/(7-4) = 1. Residual against C0/C = 0.4 is 0.6.
	if r := BoundResidual(2, 1, 0.4); math.Abs(r-0.6) > 1e-12 {
		t.Errorf("BoundResidual = %v", r)
	}
	if !math.IsNaN(BoundResidual(1, 1, 0.4)) || !math.IsNaN(BoundResidual(2, 0.5, 0.4)) {
		t.Error("out-of-domain residual not NaN")
	}
}

func TestCumulativePrometheus(t *testing.T) {
	var b Breakdown
	s := Sample{}
	s.Secs[PhaseForce] = 0.25
	s.Msgs[PhaseMigrate], s.Bytes[PhaseMigrate] = 8, 512
	b.Fold(s)
	b.Finalize(1)

	var c Cumulative
	c.Add(0.3, b)
	c.Add(0.3, b)
	var buf bytes.Buffer
	if err := c.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"permcell_steps_total 2\n",
		"permcell_step_wall_seconds_total 0.6\n",
		`permcell_phase_seconds_total{phase="force"} 0.5`,
		`permcell_phase_messages_total{phase="migrate"} 16`,
		`permcell_phase_bytes_total{phase="migrate"} 1024`,
		"# TYPE permcell_phase_seconds_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Recovery counters only appear when a supervisor report was attached.
	if strings.Contains(out, "permcell_recovery_") {
		t.Errorf("recovery counters present without a Recovery block:\n%s", out)
	}
	c.Recovery = &supervise.Report{RankFailures: 1, Rollbacks: 2, Retries: 2, StepsReplayed: 9}
	buf.Reset()
	if err := c.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	for _, want := range []string{
		"permcell_recovery_panics_total 1\n",
		"permcell_recovery_guard_violations_total 0\n",
		"permcell_recovery_rollbacks_total 2\n",
		"permcell_recovery_steps_replayed_total 9\n",
		"# TYPE permcell_recovery_retries_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestLabels(t *testing.T) {
	for _, tc := range []struct {
		kv   []string
		want string
	}{
		{nil, ""},
		{[]string{"run", "r1"}, `run="r1"`},
		{[]string{"run", "r1", "state", "paused"}, `run="r1",state="paused"`},
		{[]string{"odd"}, ""},
		{[]string{"v", `a"b\c` + "\n"}, `v="a\"b\\c\n"`},
	} {
		if got := Labels(tc.kv...); got != tc.want {
			t.Errorf("Labels(%q) = %q, want %q", tc.kv, got, tc.want)
		}
	}
}

// TestLabelledExposition checks the multi-run split: one header block, then
// one labelled sample set per run — the shape Prometheus requires (it
// rejects a repeated HELP/TYPE for a family).
func TestLabelledExposition(t *testing.T) {
	var b Breakdown
	s := Sample{}
	s.Secs[PhaseForce] = 0.25
	b.Fold(s)
	b.Finalize(1)

	var c1, c2 Cumulative
	c1.Add(0.3, b)
	c2.Add(0.4, b)
	c2.Add(0.4, b)
	c2.Recovery = &supervise.Report{Rollbacks: 3}

	var buf bytes.Buffer
	if err := WritePrometheusHeaders(&buf, true); err != nil {
		t.Fatal(err)
	}
	headerEnd := buf.Len()
	if err := c1.WriteSamples(&buf, Labels("run", "r1")); err != nil {
		t.Fatal(err)
	}
	if err := c2.WriteSamples(&buf, Labels("run", "r2")); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	if strings.Contains(out[headerEnd:], "# HELP") {
		t.Errorf("HELP lines after the header block:\n%s", out)
	}
	if n := strings.Count(out, "# HELP permcell_steps_total"); n != 1 {
		t.Errorf("permcell_steps_total declared %d times, want 1", n)
	}
	for _, want := range []string{
		"permcell_steps_total{run=\"r1\"} 1\n",
		"permcell_steps_total{run=\"r2\"} 2\n",
		"permcell_phase_seconds_total{phase=\"force\",run=\"r1\"} 0.25\n",
		"permcell_phase_seconds_total{phase=\"force\",run=\"r2\"} 0.5\n",
		"permcell_recovery_rollbacks_total{run=\"r2\"} 3\n",
		"# TYPE permcell_recovery_rollbacks_total counter\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("labelled exposition missing %q:\n%s", want, out)
		}
	}
	// c1 has no Recovery block: no recovery samples under its label.
	if strings.Contains(out, `permcell_recovery_rollbacks_total{run="r1"}`) {
		t.Errorf("recovery samples for a run without a Recovery block:\n%s", out)
	}

	// The unlabelled form is exactly headers + one unlabelled sample set.
	var split, direct bytes.Buffer
	if err := WritePrometheusHeaders(&split, true); err != nil {
		t.Fatal(err)
	}
	if err := c2.WriteSamples(&split, ""); err != nil {
		t.Fatal(err)
	}
	if err := c2.WritePrometheus(&direct); err != nil {
		t.Fatal(err)
	}
	if split.String() != direct.String() {
		t.Errorf("WritePrometheus != headers+samples:\n--- split:\n%s--- direct:\n%s", split.String(), direct.String())
	}
}
