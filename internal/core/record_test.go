package core

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"permcell/internal/conc"
	"permcell/internal/metrics"
)

// TestStepRecordJSONL: StepStats.Record fills every field of the JSONL
// record from the step's statistics — the gauges derived, the phase maps
// keyed by phase name, an empty balancer recorded as "none" — and omits the
// f(m, n) bound outside its domain.
func TestStepRecordJSONL(t *testing.T) {
	st := StepStats{
		Step: 7, StepWallMax: 1.1, StepWallAve: 1.0,
		WorkMax: 300, WorkAve: 200, WorkMin: 100,
		Balancer: "permcell", Moved: 1, MovedBytes: 72,
		Conc: conc.Stats{C0OverC: 0.5, NFactor: 1.2},
	}
	s := metrics.Sample{}
	s.Secs[metrics.PhaseForce], s.Secs[metrics.PhaseHalo] = 0.6, 0.4
	s.Msgs[metrics.PhaseHalo], s.Bytes[metrics.PhaseHalo] = 16, 1024
	st.Phases.Fold(s)
	st.Phases.Finalize(1)

	rec := st.Record(2)
	var buf bytes.Buffer
	if err := metrics.NewJSONLWriter(&buf).Write(rec); err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	if strings.Count(line, "\n") != 1 || !strings.HasSuffix(line, "\n") {
		t.Fatalf("not one line: %q", line)
	}
	var back map[string]any
	if err := json.Unmarshal([]byte(line), &back); err != nil {
		t.Fatalf("record not valid JSON: %v", err)
	}
	if back["step"].(float64) != 7 {
		t.Errorf("step = %v", back["step"])
	}
	if back["load_ratio"].(float64) != 1.5 {
		t.Errorf("load_ratio = %v", back["load_ratio"])
	}
	if back["imbalance"].(float64) != 1 {
		t.Errorf("imbalance = %v", back["imbalance"])
	}
	if back["balancer"].(string) != "permcell" || back["moved_bytes"].(float64) != 72 {
		t.Errorf("balancer/moved_bytes = %v/%v", back["balancer"], back["moved_bytes"])
	}
	ps := back["phase_secs_ave"].(map[string]any)
	if ps["force"].(float64) != 0.6 || ps["halo"].(float64) != 0.4 {
		t.Errorf("phase_secs_ave = %v", ps)
	}
	if got := back["phase_secs_sum_ave"].(float64); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("phase_secs_sum_ave = %v", got)
	}
	if _, ok := back["bound_residual"]; !ok {
		t.Error("bound_residual missing for m=2")
	}

	// Out-of-domain bound (n < 1) must omit the bound fields, keeping the
	// record valid JSON (NaN would fail to encode).
	st = StepStats{
		Step: 1, Phases: st.Phases, StepWallMax: 1, StepWallAve: 1,
		WorkMax: 1, WorkAve: 1, WorkMin: 1,
		Conc: conc.Stats{C0OverC: 0.5, NFactor: 0.2},
	}
	buf.Reset()
	if err := metrics.NewJSONLWriter(&buf).Write(st.Record(2)); err != nil {
		t.Fatalf("out-of-domain record: %v", err)
	}
	if strings.Contains(buf.String(), "bound") {
		t.Errorf("bound fields present out of domain: %s", buf.String())
	}
	if !strings.Contains(buf.String(), `"balancer":"none"`) {
		t.Errorf("empty balancer not normalized to none: %s", buf.String())
	}
}
