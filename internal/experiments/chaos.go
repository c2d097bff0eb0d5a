package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"time"

	"permcell"
	"permcell/internal/checkpoint"
	"permcell/internal/comm"
)

// ChaosSpec runs one condensing DLB-DDM simulation under a comm
// fault-injection plan, with per-step protocol verification on and the
// deadlock watchdog armed. The replay property the chaos harness checks is
// that two runs of the same spec (same Plan.Seed) produce the identical
// deterministic trace (TraceHash).
type ChaosSpec struct {
	RunSpec
	// Plan is the fault-injection plan (see comm.FaultPlan). Its Seed
	// drives every injected fault; the RunSpec Seed drives the physics.
	Plan permcell.FaultPlan
	// Watchdog is the deadlock-detection timeout (0 = no watchdog).
	Watchdog time.Duration
}

// ChaosResult is the outcome of a chaos run.
type ChaosResult struct {
	Res  *permcell.Result
	Info SysInfo
	// TraceHash fingerprints the deterministic per-step trace.
	TraceHash uint64
}

// options is the spec's facade options plus the chaos runtime: a private
// copy of the fault plan (which also arms the per-step protocol check of
// DESIGN.md Section 6) and the watchdog.
func (s ChaosSpec) options() []permcell.Option {
	return append(s.RunSpec.options(), permcell.WithFaultPlan(s.Plan), permcell.WithWatchdog(s.Watchdog))
}

// Run executes the chaos spec: the full parallel engine with the fault
// plan threaded through the comm substrate and every step verified.
func (s ChaosSpec) Run() (*ChaosResult, error) {
	res, info, err := s.run(s.options())
	if err != nil {
		return nil, err
	}
	return &ChaosResult{Res: res, Info: info, TraceHash: TraceHash(res.Stats)}, nil
}

// TraceHash fingerprints the deterministic fields of a per-step trace with
// FNV-1a: step, the work-metric load series, columns moved, the global
// observables and the concentration census. Wall-clock fields are excluded
// — they vary run to run (and chaos runs perturb them on purpose), while
// everything hashed here must replay exactly from the seeds.
func TraceHash(stats []permcell.StepStats) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 8)
	wi := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf)
	}
	wf := func(v float64) { wi(math.Float64bits(v)) }
	for _, st := range stats {
		wi(uint64(st.Step))
		wf(st.WorkMax)
		wf(st.WorkAve)
		wf(st.WorkMin)
		wi(uint64(st.Moved))
		wf(st.TotalEnergy)
		wf(st.Temperature)
		wi(uint64(st.Conc.C))
		wi(uint64(st.Conc.C0))
		wf(st.Conc.C0OverC)
		wf(st.Conc.NFactor)
	}
	return h.Sum64()
}

// KillResumeResult is the outcome of the kill-and-recover scenario.
type KillResumeResult struct {
	Info SysInfo
	// CkptPath is the checkpoint file the recovery loaded.
	CkptPath string
	// GoldenHash fingerprints the uninterrupted run's full trace;
	// ResumedHash fingerprints the interrupted prefix concatenated with the
	// recovered run's tail. Bit-identical recovery means they are equal.
	GoldenHash, ResumedHash uint64
	// GoldenFaults/ResumedFaults count the faults injected into the golden
	// run and into the two interrupted sessions combined.
	GoldenFaults, ResumedFaults comm.FaultStats
	// Resumed is the interrupted prefix followed by the recovered tail.
	Resumed []permcell.StepStats
}

// Match reports whether the recovered trace equals the uninterrupted one.
func (r *KillResumeResult) Match() bool { return r.GoldenHash == r.ResumedHash }

// KillResume is the chaos subsystem's kill-and-recover scenario: run the
// spec uninterrupted (golden); run it again but hard-stop after killAt
// steps, keeping nothing except the checkpoint file written into dir; then
// recover strictly from that file and finish the remaining steps. Both
// interrupted sessions run under the spec's fault plan — the fault streams
// restart at the resume point, which must not matter, because the
// deterministic trace is invariant to the plan. The result's hashes compare
// the golden trace against interrupted-prefix + recovered-tail.
func (s ChaosSpec) KillResume(killAt int, dir string) (*KillResumeResult, error) {
	if killAt <= 0 || killAt >= s.Steps {
		return nil, fmt.Errorf("experiments: kill step %d outside (0, %d)", killAt, s.Steps)
	}
	golden, err := s.Run()
	if err != nil {
		return nil, fmt.Errorf("experiments: golden run: %w", err)
	}

	// Interrupted session: killAt steps, one checkpoint, hard stop.
	eng, err := permcell.Build(s.Spec, append(s.options(), permcell.WithCheckpoint(0, dir))...)
	if err != nil {
		return nil, err
	}
	if err := eng.Step(killAt); err != nil {
		eng.Result()
		return nil, fmt.Errorf("experiments: interrupted run: %w", err)
	}
	if err := permcell.CheckpointNow(eng); err != nil {
		eng.Result()
		return nil, err
	}
	res1, err := eng.Result() // release the goroutines; state is discarded
	if err != nil {
		return nil, fmt.Errorf("experiments: interrupted teardown: %w", err)
	}

	// Recovery: everything the resumed session knows about the run comes
	// from the file — the identity in its header, the state in its frames.
	// Restore applies the spec's runtime (plan, watchdog, metrics).
	eng, err = permcell.Restore(dir, s.options()...)
	if err != nil {
		return nil, err
	}
	res2, err := permcell.RunEngine(context.Background(), eng, s.Steps-killAt)
	if err != nil {
		return nil, fmt.Errorf("experiments: recovered run: %w", err)
	}

	combined := append(res1.Stats, res2.Stats...)
	faults := res1.Faults
	faults.Delays += res2.Faults.Delays
	faults.Reorders += res2.Faults.Reorders
	faults.Stalls += res2.Faults.Stalls
	return &KillResumeResult{
		Info: golden.Info, CkptPath: filepath.Join(dir, checkpoint.LatestName),
		GoldenHash: golden.TraceHash, ResumedHash: TraceHash(combined),
		GoldenFaults: golden.Res.Faults, ResumedFaults: faults, Resumed: combined,
	}, nil
}
