// Package metrics is the per-PE phase timing and imbalance observability
// layer. The paper's DLB protocol is driven entirely by measured per-step
// execution time, and its whole evaluation is a family of timing and
// imbalance curves — so the engines record where each step's wall time goes
// (force, halo exchange, migration, DLB decide/transfer, integration,
// collectives) and derive the balance gauges (max/avg load ratio, parallel
// efficiency, the f(m,n) bound residual) from the same census that already
// feeds the figures.
//
// The design splits into a hot half and a cold half:
//
//   - Timer/Sample run inside every PE goroutine each step. They are fixed
//     arrays with value semantics — no maps, no interfaces, no allocation in
//     steady state — and every Timer method is a nil-receiver no-op, so a
//     run without metrics pays one pointer test per phase boundary.
//   - Breakdown/Cumulative and the JSONL and Prometheus exporters run on
//     rank 0 (or in the driver) at statistics cadence; they may allocate.
//
// Phase msg/byte counters cover the point-to-point protocol traffic a PE
// originates (decisions, transfers, migration, halo replies and force
// returns).
// Collective traffic (reductions, gathers) is accounted in the whole-run
// comm totals, not per phase.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"permcell/internal/supervise"
	"permcell/internal/theory"
)

// Phase indexes one instrumented section of a time step.
type Phase uint8

// The phase taxonomy (DESIGN.md "Observability"). PhaseMigrate includes the
// post-migration cell re-binning; for the serial engine, which never
// communicates, it is the per-step re-binning alone.
const (
	PhaseDLBDecide Phase = iota
	PhaseDLBTransfer
	PhaseIntegrate
	PhaseMigrate
	PhaseHalo
	PhaseForce
	PhaseCollective

	// NumPhases is the number of instrumented phases; Sample and Breakdown
	// arrays are indexed by Phase.
	NumPhases = 7
)

var phaseNames = [NumPhases]string{
	"dlb_decide", "dlb_transfer", "integrate", "migrate", "halo", "force", "collective",
}

// String returns the stable snake_case phase name used by the exporters.
func (p Phase) String() string {
	if int(p) < NumPhases {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// Sample is one PE's phase breakdown for one step: wall seconds plus the
// point-to-point messages and payload bytes the PE originated per phase.
// Fixed arrays keep it comparable and sendable by value through the comm
// substrate without allocation beyond the interface boxing the substrate
// already performs for every record.
type Sample struct {
	Secs  [NumPhases]float64
	Msgs  [NumPhases]int64
	Bytes [NumPhases]int64
}

// Timer accumulates one PE's Sample across the phases of a step. All
// methods are nil-receiver no-ops so disabled runs carry no timing calls;
// an enabled Timer performs zero heap allocations in steady state
// (asserted by TestTimerZeroAlloc).
type Timer struct {
	cur Sample
}

// Start returns the phase start time (zero when disabled, so the matching
// Stop is also a no-op without a second branch at the call site).
func (t *Timer) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// Stop adds the elapsed time since t0 to phase ph.
func (t *Timer) Stop(ph Phase, t0 time.Time) {
	if t == nil {
		return
	}
	t.cur.Secs[ph] += time.Since(t0).Seconds()
}

// Add folds externally measured seconds into phase ph (used when a section
// already times itself, e.g. the force pass, whose wall time each PE
// records anyway).
func (t *Timer) Add(ph Phase, secs float64) {
	if t == nil {
		return
	}
	t.cur.Secs[ph] += secs
}

// Count adds originated messages and payload bytes to phase ph.
func (t *Timer) Count(ph Phase, msgs, bytes int64) {
	if t == nil {
		return
	}
	t.cur.Msgs[ph] += msgs
	t.cur.Bytes[ph] += bytes
}

// TakeSample returns the accumulated sample and resets the timer. Engines
// call it once per step so a sample never spans steps; the zero Sample is
// returned when disabled.
func (t *Timer) TakeSample() Sample {
	if t == nil {
		return Sample{}
	}
	s := t.cur
	t.cur = Sample{}
	return s
}

// Breakdown is the cross-PE reduction of one step's samples: slowest-PE and
// PE-average seconds per phase, and totals of the originated messages and
// bytes. Build one with Fold over every PE's Sample, then Finalize.
type Breakdown struct {
	MaxSecs [NumPhases]float64
	AveSecs [NumPhases]float64
	Msgs    [NumPhases]int64
	Bytes   [NumPhases]int64
}

// Fold accumulates one PE's sample (AveSecs holds sums until Finalize).
func (b *Breakdown) Fold(s Sample) {
	for ph := 0; ph < NumPhases; ph++ {
		b.MaxSecs[ph] = max(b.MaxSecs[ph], s.Secs[ph])
		b.AveSecs[ph] += s.Secs[ph]
		b.Msgs[ph] += s.Msgs[ph]
		b.Bytes[ph] += s.Bytes[ph]
	}
}

// Finalize converts the folded sums into PE averages.
func (b *Breakdown) Finalize(pes int) {
	if pes < 1 {
		return
	}
	for ph := 0; ph < NumPhases; ph++ {
		b.AveSecs[ph] /= float64(pes)
	}
}

// SumAveSecs returns the sum over phases of the PE-average seconds — the
// quantity that must track the PE-average whole-step wall time.
func (b Breakdown) SumAveSecs() float64 {
	var t float64
	for _, v := range b.AveSecs {
		t += v
	}
	return t
}

// SumMsgs returns the step's total originated point-to-point messages.
func (b Breakdown) SumMsgs() int64 {
	var t int64
	for _, v := range b.Msgs {
		t += v
	}
	return t
}

// ---- Derived imbalance gauges -----------------------------------------

// LoadRatio returns maxLoad/aveLoad, the max/avg load ratio (1 = perfect
// balance; the paper's Fmax/Fave).
func LoadRatio(maxLoad, aveLoad float64) float64 {
	if aveLoad == 0 {
		return 0
	}
	return maxLoad / aveLoad
}

// Efficiency returns aveLoad/maxLoad, the parallel efficiency of the step
// (P*Fave / (P*Fmax); 1 = no PE waits).
func Efficiency(maxLoad, aveLoad float64) float64 {
	if maxLoad == 0 {
		return 0
	}
	return aveLoad / maxLoad
}

// BoundResidual returns f(m, n) - c0OverC: the slack remaining under the
// paper's theoretical balancing bound (eq. 8). Positive means the measured
// concentration ratio is still inside the region permanent-cell DLB can
// balance uniformly; it crossing zero is the predicted breakdown point.
// NaN when (m, n) is outside the bound's domain (m < 2 or n < 1).
func BoundResidual(m int, n, c0OverC float64) float64 {
	f, err := theory.F(m, n)
	if err != nil {
		return math.NaN()
	}
	return f - c0OverC
}

// ---- JSONL exporter ----------------------------------------------------

// StepRecord is one per-step JSONL metrics record, the schema
// `mdrun -metrics` emits. Phase maps are keyed by Phase.String() names.
// Bound and BoundResidual are omitted when outside the f(m,n) domain.
type StepRecord struct {
	Step        int     `json:"step"`
	StepWallMax float64 `json:"step_wall_max"`
	StepWallAve float64 `json:"step_wall_ave"`

	PhaseSecsAve map[string]float64 `json:"phase_secs_ave"`
	PhaseSecsMax map[string]float64 `json:"phase_secs_max"`
	PhaseMsgs    map[string]int64   `json:"phase_msgs"`
	PhaseBytes   map[string]int64   `json:"phase_bytes"`
	// PhaseSecsSumAve is the sum of phase_secs_ave, reported so the
	// phase-coverage contract (sum within 5% of step_wall_ave) is checkable
	// from the record alone.
	PhaseSecsSumAve float64 `json:"phase_secs_sum_ave"`

	WorkMax float64 `json:"work_max"`
	WorkAve float64 `json:"work_ave"`
	WorkMin float64 `json:"work_min"`

	LoadRatio  float64 `json:"load_ratio"`
	Efficiency float64 `json:"efficiency"`
	Imbalance  float64 `json:"imbalance"`

	// Balancer names the load-balancing strategy the run executes under
	// ("none" for static DDM); Moved/MovedBytes are its migration traffic
	// this step (columns handed over, and the particle+force payload bytes
	// that traveled with them).
	Balancer   string `json:"balancer"`
	Moved      int    `json:"moved"`
	MovedBytes int64  `json:"moved_bytes"`

	C0OverC       float64  `json:"c0_over_c"`
	NFactor       float64  `json:"n_factor"`
	Bound         *float64 `json:"bound,omitempty"`
	BoundResidual *float64 `json:"bound_residual,omitempty"`

	// TotalEnergy and Temperature are the global observables of the step's
	// census; deterministic for a given run identity, they are what
	// trace-equivalence checks compare.
	TotalEnergy float64 `json:"total_energy"`
	Temperature float64 `json:"temperature"`

	// SentFrames/SentBytes are the cumulative transport traffic counters
	// at this step (StepStats.SentFrames etc.): wire frames on the TCP
	// transport, channel messages in-process. Being transport-dependent,
	// they are excluded from trace-equivalence comparisons.
	SentFrames int64 `json:"sent_frames"`
	SentBytes  int64 `json:"sent_bytes"`
}

// JSONLWriter streams StepRecords as one JSON object per line.
type JSONLWriter struct {
	enc *json.Encoder
}

// NewJSONLWriter returns a writer emitting to w.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{enc: json.NewEncoder(w)}
}

// Write emits one record (json.Encoder terminates each with a newline).
func (jw *JSONLWriter) Write(rec StepRecord) error { return jw.enc.Encode(rec) }

// ---- Prometheus exporter -----------------------------------------------

// Cumulative accumulates per-step breakdowns into run-total counters for
// Prometheus text-format export.
type Cumulative struct {
	Steps        int64
	StepWallSecs float64 // summed PE-average step wall time
	Secs         [NumPhases]float64
	Msgs         [NumPhases]int64
	Bytes        [NumPhases]int64
	// SentFrames/SentBytes mirror the run's latest cumulative transport
	// counters (already run totals in StepStats, so Observe stores rather
	// than sums).
	SentFrames int64
	SentBytes  int64
	// Recovery, when non-nil, adds the supervisor's recovery counters to the
	// exposition (drivers fill it from the supervision report).
	Recovery *supervise.Report
}

// Add folds one finalized step breakdown and its PE-average wall time.
func (c *Cumulative) Add(stepWallAve float64, b Breakdown) {
	c.Steps++
	c.StepWallSecs += stepWallAve
	for ph := 0; ph < NumPhases; ph++ {
		c.Secs[ph] += b.AveSecs[ph]
		c.Msgs[ph] += b.Msgs[ph]
		c.Bytes[ph] += b.Bytes[ph]
	}
}

// ObserveTransport records the latest cumulative transport counters
// (StepStats carries run totals, so this overwrites instead of adding).
func (c *Cumulative) ObserveTransport(frames, bytes int64) {
	c.SentFrames, c.SentBytes = frames, bytes
}

// The exposition is split into a header half and a sample half so a
// multi-run exporter (internal/serve) can write each family's HELP/TYPE
// comment once and then one labelled sample set per run: Prometheus rejects
// expositions that repeat a family header, so the single-run
// WritePrometheus form cannot simply be called in a loop.

// recoveryFamilies enumerates the supervisor counter families in exposition
// order.
func recoveryFamilies(r *supervise.Report) []struct {
	name, help string
	v          int
} {
	return []struct {
		name, help string
		v          int
	}{
		{"permcell_recovery_panics_total", "PE panics caught by the supervisor.", r.RankFailures},
		{"permcell_recovery_guard_violations_total", "Physics-guard violations caught by the supervisor.", r.GuardViolations},
		{"permcell_recovery_deadlocks_total", "Watchdog deadlocks caught by the supervisor.", r.Deadlocks},
		{"permcell_transport_worker_failures_total", "Distributed worker failures (exits, heartbeat timeouts, frame corruption, protocol violations) caught by the supervisor.", r.WorkerFailures},
		{"permcell_recovery_rollbacks_total", "Checkpoint rollbacks performed by the supervisor.", r.Rollbacks},
		{"permcell_recovery_retries_total", "Recovery attempts consumed from the retry budget.", r.Retries},
		{"permcell_recovery_steps_replayed_total", "Steps re-executed during post-rollback replay.", r.StepsReplayed},
	}
}

// labelEscaper escapes label values per the Prometheus text exposition
// format.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Labels renders key/value pairs as a label-block body (no braces), escaped
// for the text exposition format: Labels("run", "r1") == `run="r1"`. An odd
// trailing key is ignored; an empty call returns "".
func Labels(kv ...string) string {
	var b strings.Builder
	for i := 0; i+1 < len(kv); i += 2 {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, kv[i], labelEscaper.Replace(kv[i+1]))
	}
	return b.String()
}

// joinLabels merges two label-block bodies into a rendered {...} block
// ("" when both are empty).
func joinLabels(a, b string) string {
	switch {
	case a == "" && b == "":
		return ""
	case a == "":
		return "{" + b + "}"
	case b == "":
		return "{" + a + "}"
	default:
		return "{" + a + "," + b + "}"
	}
}

// WritePrometheusHeaders writes the HELP/TYPE header of every Cumulative
// family (including the recovery families when recovery is set). Call it
// once per exposition, before any WriteSamples.
func WritePrometheusHeaders(w io.Writer, recovery bool) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("# HELP permcell_steps_total Time steps recorded by the metrics layer.\n")
	p("# TYPE permcell_steps_total counter\n")
	p("# HELP permcell_step_wall_seconds_total PE-average whole-step wall seconds, summed over steps.\n")
	p("# TYPE permcell_step_wall_seconds_total counter\n")
	p("# HELP permcell_phase_seconds_total PE-average wall seconds per phase, summed over steps.\n")
	p("# TYPE permcell_phase_seconds_total counter\n")
	p("# HELP permcell_phase_messages_total Point-to-point messages originated per phase.\n")
	p("# TYPE permcell_phase_messages_total counter\n")
	p("# HELP permcell_phase_bytes_total Point-to-point payload bytes originated per phase.\n")
	p("# TYPE permcell_phase_bytes_total counter\n")
	p("# HELP permcell_transport_sent_frames_total Messages that crossed the transport (wire frames on TCP).\n")
	p("# TYPE permcell_transport_sent_frames_total counter\n")
	p("# HELP permcell_transport_sent_bytes_total Payload bytes that crossed the transport.\n")
	p("# TYPE permcell_transport_sent_bytes_total counter\n")
	if recovery {
		for _, m := range recoveryFamilies(&supervise.Report{}) {
			p("# HELP %s %s\n", m.name, m.help)
			p("# TYPE %s counter\n", m.name)
		}
	}
	return err
}

// WriteSamples writes c's sample lines with the given extra label-block
// body (from Labels; "" = unlabelled) attached to every series. Recovery
// samples are included only when c.Recovery is non-nil.
func (c *Cumulative) WriteSamples(w io.Writer, labels string) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("permcell_steps_total%s %d\n", joinLabels("", labels), c.Steps)
	p("permcell_step_wall_seconds_total%s %g\n", joinLabels("", labels), c.StepWallSecs)
	for ph := Phase(0); ph < NumPhases; ph++ {
		p("permcell_phase_seconds_total%s %g\n", joinLabels(Labels("phase", ph.String()), labels), c.Secs[ph])
	}
	for ph := Phase(0); ph < NumPhases; ph++ {
		p("permcell_phase_messages_total%s %d\n", joinLabels(Labels("phase", ph.String()), labels), c.Msgs[ph])
	}
	for ph := Phase(0); ph < NumPhases; ph++ {
		p("permcell_phase_bytes_total%s %d\n", joinLabels(Labels("phase", ph.String()), labels), c.Bytes[ph])
	}
	p("permcell_transport_sent_frames_total%s %d\n", joinLabels("", labels), c.SentFrames)
	p("permcell_transport_sent_bytes_total%s %d\n", joinLabels("", labels), c.SentBytes)
	if r := c.Recovery; r != nil {
		for _, m := range recoveryFamilies(r) {
			p("%s%s %d\n", m.name, joinLabels("", labels), m.v)
		}
	}
	return err
}

// WritePrometheus writes the counters in Prometheus text exposition format:
// the family headers followed by one unlabelled sample set.
func (c *Cumulative) WritePrometheus(w io.Writer) error {
	if err := WritePrometheusHeaders(w, c.Recovery != nil); err != nil {
		return err
	}
	return c.WriteSamples(w, "")
}
