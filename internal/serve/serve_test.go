package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"permcell"
	"permcell/internal/metrics"
)

// newTestService starts a Server plus an httptest front end and tears both
// down with the test.
func newTestService(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return s, hs
}

// serialSpec is the cheap reference workload: ~400 particles, serial engine.
func serialSpec(steps int) RunSpec {
	return RunSpec{Kind: KindSerial, NC: 4, Rho: 0.4, Steps: steps}
}

func postRun(t *testing.T, hs *httptest.Server, spec RunSpec) string {
	t.Helper()
	id, code, body := tryPostRun(t, hs, spec)
	if code != http.StatusCreated {
		t.Fatalf("POST /runs: status %d, body %s", code, body)
	}
	return id
}

func tryPostRun(t *testing.T, hs *httptest.Server, spec RunSpec) (id string, code int, body string) {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	resp, err := http.Post(hs.URL+"/runs", "application/json", strings.NewReader(string(b)))
	if err != nil {
		t.Fatalf("POST /runs: %v", err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		buf.WriteString(sc.Text())
	}
	if resp.StatusCode != http.StatusCreated {
		return "", resp.StatusCode, buf.String()
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &out); err != nil {
		t.Fatalf("decode POST /runs response %q: %v", buf.String(), err)
	}
	return out.ID, resp.StatusCode, buf.String()
}

func getStatus(t *testing.T, hs *httptest.Server, id string) RunStatus {
	t.Helper()
	resp, err := http.Get(hs.URL + "/runs/" + id)
	if err != nil {
		t.Fatalf("GET /runs/%s: %v", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /runs/%s: status %d", id, resp.StatusCode)
	}
	var st RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return st
}

// streamRecords tails /runs/{id}/stream until it closes (terminal state)
// and returns every record.
func streamRecords(t *testing.T, hs *httptest.Server, id string) []metrics.StepRecord {
	t.Helper()
	resp, err := http.Get(hs.URL + "/runs/" + id + "/stream")
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET stream: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	var recs []metrics.StepRecord
	dec := json.NewDecoder(resp.Body)
	for {
		var rec metrics.StepRecord
		if err := dec.Decode(&rec); err != nil {
			break // EOF at terminal state
		}
		recs = append(recs, rec)
	}
	return recs
}

func waitState(t *testing.T, s *Server, id string, want State) {
	t.Helper()
	r, err := s.Get(id)
	if err != nil {
		t.Fatalf("Get(%s): %v", id, err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, st, ch := r.view()
		if st == want {
			return
		}
		if st.Terminal() || time.Now().After(deadline) {
			t.Fatalf("run %s: state %s, want %s", id, st, want)
		}
		select {
		case <-ch:
		case <-time.After(100 * time.Millisecond):
		}
	}
}

func waitTerminal(t *testing.T, s *Server, id string) State {
	t.Helper()
	r, err := s.Get(id)
	if err != nil {
		t.Fatalf("Get(%s): %v", id, err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		_, st, ch := r.view()
		if st.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s: still %s after deadline", id, st)
		}
		select {
		case <-ch:
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// soloTrace runs spec directly against the facade — no service — and
// returns the records a served run of the same spec must reproduce
// bit-for-bit (on the deterministic fields; see traceKey).
func soloTrace(t *testing.T, spec RunSpec, dir string) []metrics.StepRecord {
	t.Helper()
	var recs []metrics.StepRecord
	onStep := func(st permcell.StepStats) { recs = append(recs, stepRecord(&spec, st)) }
	var sab *permcell.Sabotage
	if sb := spec.Sabotage; sb != nil {
		sab = sb.script()
	}
	eng, err := permcell.Build(spec.spec(), spec.options(dir, sab, onStep)...)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := eng.Step(spec.Steps); err != nil {
		t.Fatalf("solo Step: %v", err)
	}
	if _, err := eng.Result(); err != nil {
		t.Fatalf("solo Result: %v", err)
	}
	return recs
}

// traceKey collapses a record's deterministic fields — physics, work
// metrics, balancer activity — into a comparable string. Wall-clock fields
// are deliberately excluded: they are the only nondeterministic part of a
// trace.
func traceKey(r metrics.StepRecord) string {
	return fmt.Sprintf("%d|%x|%x|%x|%s|%d|%d|%x|%x|%x|%x",
		r.Step,
		math.Float64bits(r.WorkMax), math.Float64bits(r.WorkAve), math.Float64bits(r.WorkMin),
		r.Balancer, r.Moved, r.MovedBytes,
		math.Float64bits(r.C0OverC), math.Float64bits(r.NFactor),
		math.Float64bits(r.TotalEnergy), math.Float64bits(r.Temperature))
}

func assertSameTrace(t *testing.T, got, want []metrics.StepRecord, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", label, len(got), len(want))
	}
	for i := range got {
		if g, w := traceKey(got[i]), traceKey(want[i]); g != w {
			t.Fatalf("%s: record %d diverges:\n got %s\nwant %s", label, i, g, w)
		}
	}
}

func TestServeRunToCompletion(t *testing.T) {
	s, hs := newTestService(t, Config{Workers: 2})
	spec := serialSpec(20)
	id := postRun(t, hs, spec)

	recs := streamRecords(t, hs, id)
	if st := waitTerminal(t, s, id); st != StateCompleted {
		t.Fatalf("state = %s, want completed", st)
	}
	if len(recs) != spec.Steps {
		t.Fatalf("streamed %d records, want %d", len(recs), spec.Steps)
	}
	st := getStatus(t, hs, id)
	if st.Done != spec.Steps || st.Records != spec.Steps {
		t.Fatalf("status = %+v", st)
	}

	solo := soloTrace(t, spec, t.TempDir())
	assertSameTrace(t, recs, solo, "served vs solo")
}

func TestServeParallelMatchesSolo(t *testing.T) {
	s, hs := newTestService(t, Config{Workers: 2})
	spec := RunSpec{Kind: KindParallel, M: 2, P: 4, Rho: 0.4, Steps: 12, Balancer: "permcell"}
	id := postRun(t, hs, spec)
	recs := streamRecords(t, hs, id)
	if st := waitTerminal(t, s, id); st != StateCompleted {
		t.Fatalf("state = %s, want completed", st)
	}
	solo := soloTrace(t, spec, t.TempDir())
	assertSameTrace(t, recs, solo, "parallel served vs solo")
}

func TestPauseResumeBitIdentical(t *testing.T) {
	s, hs := newTestService(t, Config{Workers: 1})
	spec := serialSpec(300)
	id := postRun(t, hs, spec)

	// Pause as soon as the run is actually running. The worker honors the
	// request at the next step boundary.
	waitState(t, s, id, StateRunning)
	if err := s.Pause(id); err != nil {
		t.Fatalf("Pause: %v", err)
	}
	waitState(t, s, id, StatePaused)

	st := getStatus(t, hs, id)
	if st.Done >= spec.Steps {
		t.Fatalf("paused after all %d steps; pause raced completion", spec.Steps)
	}
	paused := st.Done

	if err := s.Resume(id); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if fin := waitTerminal(t, s, id); fin != StateCompleted {
		t.Fatalf("state after resume = %s, want completed", fin)
	}

	// A stream opened after the fact replays the full history: the resumed
	// half must continue the trajectory bit-for-bit.
	recs := streamRecords(t, hs, id)
	solo := soloTrace(t, spec, t.TempDir())
	assertSameTrace(t, recs, solo, fmt.Sprintf("pause@%d/resume vs solo", paused))
}

// hookedRun registers a run of spec with s as Submit would, but leaves it
// off the queue and wraps its step sink so that hook sees each record's
// step from inside that step. The caller drives it with s.execute.
func hookedRun(t *testing.T, s *Server, spec RunSpec, hook func(id string, step int)) *Run {
	t.Helper()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	id := fmt.Sprintf("r%06d", s.seq)
	r := newRun(id, spec, filepath.Join(s.cfg.Dir, id), s.ctx)
	r.sink = func(st permcell.StepStats) {
		r.onStep(st)
		hook(id, st.Step)
	}
	s.runs[id] = r
	return r
}

// TestControlLandsAtItsStep raises a pause or a cancel from inside step k:
// the run must stop with exactly k steps done and k records, not at a later
// batch boundary, and the paused run, resumed, must stream the solo trace.
func TestControlLandsAtItsStep(t *testing.T) {
	const k = 5
	for _, c := range []struct {
		name string
		spec RunSpec
	}{
		{"serial", serialSpec(20)},
		{"parallel", RunSpec{Kind: KindParallel, M: 2, P: 4, Rho: 0.4, Steps: 20, Balancer: "permcell"}},
	} {
		t.Run(c.name+"/pause", func(t *testing.T) {
			s, hs := newTestService(t, Config{Workers: 1})
			r := hookedRun(t, s, c.spec, func(id string, step int) {
				if step == k {
					if err := s.Pause(id); err != nil {
						t.Error(err)
					}
				}
			})
			s.execute(r)
			if st := getStatus(t, hs, r.ID); st.State != StatePaused || st.Done != k || st.Records != k {
				t.Fatalf("paused from inside step %d: status %+v", k, st)
			}
			if err := s.Resume(r.ID); err != nil {
				t.Fatalf("Resume: %v", err)
			}
			if fin := waitTerminal(t, s, r.ID); fin != StateCompleted {
				t.Fatalf("state after resume = %s, want completed", fin)
			}
			assertSameTrace(t, streamRecords(t, hs, r.ID), soloTrace(t, c.spec, t.TempDir()),
				fmt.Sprintf("pause@%d/resume vs solo", k))
		})
		t.Run(c.name+"/cancel", func(t *testing.T) {
			s, hs := newTestService(t, Config{Workers: 1})
			r := hookedRun(t, s, c.spec, func(id string, step int) {
				if step == k {
					if err := s.Cancel(id); err != nil {
						t.Error(err)
					}
				}
			})
			s.execute(r)
			if st := getStatus(t, hs, r.ID); st.State != StateCanceled || st.Done != k || st.Records != k {
				t.Fatalf("canceled from inside step %d: status %+v", k, st)
			}
		})
	}
}

// TestPauseAfterLastStepCompletes: a pause that arrives once the last step
// is done is still accepted (202), but there is nothing left to park, so
// the run completes instead of checkpointing and waiting for a resume.
func TestPauseAfterLastStepCompletes(t *testing.T) {
	s, hs := newTestService(t, Config{Workers: 1})
	spec := serialSpec(6)
	r := hookedRun(t, s, spec, func(id string, step int) {
		if step != spec.Steps {
			return
		}
		resp, err := hs.Client().Post(hs.URL+"/runs/"+id+"/pause", "application/json", nil)
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Errorf("pause after the last step: status %d, want 202", resp.StatusCode)
		}
	})
	s.execute(r)
	if st := getStatus(t, hs, r.ID); st.State != StateCompleted || st.Done != spec.Steps {
		t.Fatalf("status %+v, want completed after %d steps", st, spec.Steps)
	}
}

func TestCancel(t *testing.T) {
	s, hs := newTestService(t, Config{Workers: 1})
	spec := serialSpec(100_000)
	id := postRun(t, hs, spec)
	waitState(t, s, id, StateRunning)

	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/runs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	if st := waitTerminal(t, s, id); st != StateCanceled {
		t.Fatalf("state = %s, want canceled", st)
	}
}

// TestAdmissionRefusesOversizedSpecs: a spec whose particle or cell count
// overflows int, or whose grid alone is past the cap however thin it is,
// gets 413 and reaches no worker: rho 1e20, nc and m of 2^40 (of MaxInt on
// a 32-bit int), and nc 100 000 at rho 1e-12 — N = 15 625 in 10^15 cells.
// A NaN density is refused as invalid.
func TestAdmissionRefusesOversizedSpecs(t *testing.T) {
	huge := int(min(1<<40, math.MaxInt))
	s, hs := newTestService(t, Config{Workers: 1, QueueDepth: 1})
	for _, spec := range []RunSpec{
		{Kind: KindParallel, M: 2, P: 4, Rho: 1e20, Steps: 1},
		{Kind: KindSerial, NC: huge, Rho: 0.4, Steps: 1},
		{Kind: KindParallel, M: huge, P: 4, Rho: 0.4, Steps: 1},
		{Kind: KindSerial, NC: 100_000, Rho: 1e-12, Steps: 1},
	} {
		if sz := spec.spec().Size(); sz.N < 0 || sz.C < 0 {
			t.Errorf("%s m=%d nc=%d rho=%g: %d particles in %d cells", spec.Kind, spec.M, spec.NC, spec.Rho, sz.N, sz.C)
		}
		if _, code, body := tryPostRun(t, hs, spec); code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s m=%d nc=%d rho=%g: status %d (%s), want 413", spec.Kind, spec.M, spec.NC, spec.Rho, code, strings.TrimSpace(body))
		}
	}
	// JSON carries no NaN, but Submit does: a NaN density is invalid, not
	// too large.
	if _, err := s.Submit(RunSpec{Kind: KindSerial, NC: 3, Rho: math.NaN(), Steps: 1}); err == nil || errors.Is(err, ErrTooLarge) {
		t.Errorf("rho=NaN: %v, want a validation error", err)
	}
	if n := len(s.List()); n != 0 {
		t.Errorf("%d runs admitted, want none", n)
	}
}

func TestAdmissionControl(t *testing.T) {
	s, hs := newTestService(t, Config{Workers: 1, QueueDepth: 1, MaxParticles: 500})

	// Invalid spec: 400.
	if _, code, _ := tryPostRun(t, hs, RunSpec{Kind: KindParallel, M: 0, P: 3, Rho: 0.4, Steps: 1}); code != http.StatusBadRequest {
		t.Fatalf("invalid spec: status %d, want 400", code)
	}
	// A negative well count or strength is invalid too, not pure physics.
	for _, bad := range []RunSpec{
		{Kind: KindSerial, NC: 3, Rho: 0.4, Steps: 1, Wells: -3, WellK: 1.5},
		{Kind: KindSerial, NC: 3, Rho: 0.4, Steps: 1, Wells: 2, WellK: -1},
	} {
		if _, code, _ := tryPostRun(t, hs, bad); code != http.StatusBadRequest {
			t.Fatalf("wells=%d well_k=%g: status %d, want 400", bad.Wells, bad.WellK, code)
		}
	}
	// So is a negative time step: it must not reach a worker.
	if _, code, _ := tryPostRun(t, hs, RunSpec{Kind: KindSerial, NC: 3, Rho: 0.4, Steps: 1, Dt: -0.005}); code != http.StatusBadRequest {
		t.Fatalf("dt=-0.005: status %d, want 400", code)
	}
	// So is the retired shards field: the strict decoder knows no such key.
	resp, err := http.Post(hs.URL+"/runs", "application/json",
		strings.NewReader(`{"kind":"parallel","m":2,"p":4,"rho":0.3,"steps":1,"shards":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("shards=2: status %d, want 400", resp.StatusCode)
	}
	// Over the particle cap: 413.
	if _, code, _ := tryPostRun(t, hs, RunSpec{Kind: KindSerial, NC: 8, Rho: 0.4, Steps: 1}); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized spec: status %d, want 413", code)
	}

	// Fill the single worker, then the single queue slot; the next submit
	// must be rejected with 429.
	a := postRun(t, hs, serialSpec(100_000))
	waitState(t, s, a, StateRunning) // a is out of the queue
	b := postRun(t, hs, serialSpec(10))
	if _, code, _ := tryPostRun(t, hs, serialSpec(10)); code != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d, want 429", code)
	}
	if err := s.Cancel(a); err != nil {
		t.Fatalf("Cancel(a): %v", err)
	}
	waitTerminal(t, s, a)
	if st := waitTerminal(t, s, b); st != StateCompleted {
		t.Fatalf("queued run after cancel: %s, want completed", st)
	}
}

func TestLifecycleConflicts(t *testing.T) {
	s, hs := newTestService(t, Config{Workers: 1})
	id := postRun(t, hs, serialSpec(5))
	waitTerminal(t, s, id)

	var cf *ConflictError
	if err := s.Pause(id); !errors.As(err, &cf) {
		t.Fatalf("Pause(completed) = %v, want ConflictError", err)
	}
	if err := s.Resume(id); !errors.As(err, &cf) {
		t.Fatalf("Resume(completed) = %v, want ConflictError", err)
	}
	var nf *NotFoundError
	if err := s.Pause("nope"); !errors.As(err, &nf) {
		t.Fatalf("Pause(unknown) = %v, want NotFoundError", err)
	}
	resp, err := http.Get(hs.URL + "/runs/nope")
	if err != nil {
		t.Fatalf("GET unknown: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown run: status %d, want 404", resp.StatusCode)
	}
}

func TestSupervisedSabotageHealsNeighborsUntouched(t *testing.T) {
	s, hs := newTestService(t, Config{Workers: 2})
	retries := 2
	sabotaged := RunSpec{
		Kind: KindParallel, M: 2, P: 4, Rho: 0.4, Steps: 16,
		Balancer:   "permcell",
		MaxRetries: &retries,
		Sabotage:   &SabotageSpec{Kind: permcell.SabotagePanic, Step: 6, Rank: 1},
	}
	healthy := serialSpec(16)

	sid := postRun(t, hs, sabotaged)
	hid := postRun(t, hs, healthy)

	if st := waitTerminal(t, s, sid); st != StateCompleted {
		t.Fatalf("sabotaged supervised run = %s, want completed (healed)", st)
	}
	if st := waitTerminal(t, s, hid); st != StateCompleted {
		t.Fatalf("healthy neighbor = %s, want completed", st)
	}

	// The healed run's physics must match the unsabotaged solo trajectory.
	clean := sabotaged
	clean.Sabotage = nil
	clean.MaxRetries = nil
	solo := soloTrace(t, clean, t.TempDir())
	recs := streamRecords(t, hs, sid)
	// The supervisor replays the rolled-back steps; the stream deduplicates
	// nothing, so compare against the solo trace by step number using the
	// last record per step (the healed replay).
	latest := map[int]metrics.StepRecord{}
	for _, r := range recs {
		latest[r.Step] = r
	}
	if len(latest) != len(solo) {
		t.Fatalf("healed run covers %d distinct steps, want %d", len(latest), len(solo))
	}
	for _, want := range solo {
		got, ok := latest[want.Step]
		if !ok {
			t.Fatalf("healed run missing step %d", want.Step)
		}
		if traceKey(got) != traceKey(want) {
			t.Fatalf("healed step %d diverges:\n got %s\nwant %s", want.Step, traceKey(got), traceKey(want))
		}
	}

	// And the healthy neighbor is bit-identical to its own solo run.
	assertSameTrace(t, streamRecords(t, hs, hid), soloTrace(t, healthy, t.TempDir()), "neighbor vs solo")
}

func TestUnsupervisedSabotageFailsOnlyItself(t *testing.T) {
	s, hs := newTestService(t, Config{Workers: 2})
	doomed := RunSpec{
		Kind: KindParallel, M: 2, P: 4, Rho: 0.4, Steps: 16,
		Sabotage: &SabotageSpec{Kind: permcell.SabotagePanic, Step: 4, Rank: 0},
	}
	healthy := serialSpec(16)
	did := postRun(t, hs, doomed)
	hid := postRun(t, hs, healthy)

	if st := waitTerminal(t, s, did); st != StateFailed {
		t.Fatalf("unsupervised sabotaged run = %s, want failed", st)
	}
	if getStatus(t, hs, did).Error == "" {
		t.Fatal("failed run reports no error")
	}
	if st := waitTerminal(t, s, hid); st != StateCompleted {
		t.Fatalf("healthy neighbor = %s, want completed", st)
	}
	assertSameTrace(t, streamRecords(t, hs, hid), soloTrace(t, healthy, t.TempDir()), "neighbor vs solo")
}

var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)

func TestMetricsEndpoint(t *testing.T) {
	s, hs := newTestService(t, Config{Workers: 1})
	id := postRun(t, hs, serialSpec(8))
	waitTerminal(t, s, id)
	streamRecords(t, hs, id) // drain

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}

	seenHelp := map[string]int{}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		lines = append(lines, line)
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			seenHelp[strings.Fields(rest)[0]]++
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") || line == "" {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
	body := strings.Join(lines, "\n")

	for family, n := range seenHelp {
		if n != 1 {
			t.Errorf("family %s declared %d times, want exactly 1", family, n)
		}
	}
	for _, want := range []string{
		`permcell_serve_runs{state="completed"} 1`,
		"permcell_serve_queue_depth 0",
		"permcell_serve_admitted_total 1",
		`permcell_serve_rejected_total{reason="queue_full"} 0`,
		fmt.Sprintf(`permcell_run_steps_done{run="%s"} 8`, id),
		fmt.Sprintf(`permcell_run_load_ratio{run="%s"}`, id),
		fmt.Sprintf(`run="%s"`, id),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Per-run cumulative families must be present with the run label.
	if !regexp.MustCompile(`permcell_steps_total\{run="` + id + `"\} 8`).MatchString(body) {
		t.Errorf("exposition missing labelled permcell_steps_total for %s:\n%s", id, body)
	}
}

func TestHealthz(t *testing.T) {
	_, hs := newTestService(t, Config{})
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz: status %d", resp.StatusCode)
	}
}

func TestStreamSSE(t *testing.T) {
	s, hs := newTestService(t, Config{Workers: 1})
	id := postRun(t, hs, serialSpec(5))
	waitTerminal(t, s, id)

	req, _ := http.NewRequest(http.MethodGet, hs.URL+"/runs/"+id+"/stream?sse=1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET stream sse: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("sse Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	events := 0
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		payload, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			t.Fatalf("sse line without data prefix: %q", line)
		}
		var rec metrics.StepRecord
		if err := json.Unmarshal([]byte(payload), &rec); err != nil {
			t.Fatalf("sse payload: %v", err)
		}
		events++
	}
	if events != 5 {
		t.Fatalf("sse events = %d, want 5", events)
	}
}

// TestShutdownWaitsForEveryCaller: a later Shutdown waits for the same
// drain as the first, under its own deadline, instead of reporting nil
// while the workers are still tearing runs down.
func TestShutdownWaitsForEveryCaller(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	s.wg.Add(1) // a worker still draining
	for i := 1; i <= 2; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		err := s.Shutdown(ctx)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Shutdown %d during the drain returned %v, want %v", i, err, context.DeadlineExceeded)
		}
	}
	s.wg.Done()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown after the drain: %v", err)
	}
}
