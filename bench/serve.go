package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"permcell"
	"permcell/internal/serve"
)

// Serve scenario: small engines (m = 3, P = 4, N = 864) so that the
// service's own cost — admission, worker pool, record log, JSONL streaming,
// pause = checkpoint + release, resume = restore — is visible next to the
// stepping. The run has two kinds of phase, never at once:
//
//   - load: two tenants, each a closed-loop client, one submitting long runs
//     and one short runs, none paused. Both workers are busy throughout, so
//     this is what the service sustains: particle_steps_per_s and step_ms.
//   - probe: one closed-loop client on the otherwise idle service, submitting
//     short runs and pausing and resuming each of them every probe.pauseEvery
//     records. Admission to first record, pause and resume are timed here and
//     only here: each is a few milliseconds of the service's own work, and
//     beside a second tenant's engine it was the two cores' scheduling that
//     got timed (the same call took 4 to 20 ms, evenly spread, and the
//     typical value moved by a quarter from process to process).
type tenant struct {
	steps      int // mean run length; a run's own length is drawn from its seed
	pauseEvery int // the run is paused at every pauseEvery-th record (0 = never)
	fixed      int // runs that always complete, whatever the window
}

var (
	loadTenants = []tenant{{steps: 1000, fixed: 1}, {steps: 120, fixed: 8}}
	probeTenant = tenant{steps: 96, pauseEvery: 24, fixed: 2}
)

// The smoke test's tenants. The probe's runs go on long enough after a
// pause point that the pause lands even when the test's box is busy.
var (
	quickLoadTenants = []tenant{{steps: 64, fixed: 1}, {steps: 160, fixed: 2}}
	quickProbeTenant = tenant{steps: 160, pauseEvery: 48, fixed: 1}
)

// serveSpec is a tenant's run for a seed: its length lies within a quarter
// of the tenant's mean, so that the tenants' runs do not stay in step.
func serveSpec(seed uint64, steps int) serve.RunSpec {
	steps += int(seed*0x9E3779B97F4A7C15>>33)%(steps/2+1) - steps/4
	return serve.RunSpec{M: 3, P: 4, Rho: rho, Steps: steps, Balancer: "permcell",
		Wells: 3, WellK: 1.5, Seed: seed}
}

// serveSeed derives the seed of a tenant's i-th run; never 0, which a
// RunSpec reads as "default".
func serveSeed(seed uint64, tenant, i int) uint64 {
	return seed*1_000_003 + uint64(tenant)*100_003 + uint64(i) + 1
}

// startServer constructs the service behind an HTTP test server and returns
// once it answers a health check: the moment it accepts work.
func startServer(dir string) (*serve.Server, *httptest.Server, error) {
	srv, err := serve.New(serve.Config{Dir: dir, Workers: len(loadTenants)})
	if err != nil {
		return nil, nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		stopServer(srv, ts)
		return nil, nil, err
	}
	return srv, ts, nil
}

func stopServer(srv *serve.Server, ts *httptest.Server) error {
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// served is what one client saw of one run.
type served struct {
	steps                              int
	submitMS, ttfsMS, latencyMS, lagMS float64
	pauseMS, resumeMS                  []float64 // one of each per pause the run went through
	efficiency                         float64   // mean over the run's records
}

// serveClient is one closed-loop client's view of the service.
type serveClient struct {
	r        *run
	base     string
	hc       *http.Client
	streamed *atomic.Int64 // counts the records received, when not nil
}

func (c *serveClient) post(path string, body []byte, want int, out any) error {
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(b))
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

func (c *serveClient) status(id string) (serve.RunStatus, error) {
	var st serve.RunStatus
	resp, err := c.hc.Get(c.base + "/runs/" + id)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /runs/%s: %s", id, resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// pauseResume pauses the run, waits until the service reports it parked
// (its checkpoint written, its engine released), and resumes it. It returns
// the record count at the pause, so the caller can tell the first record
// the restored engine produced. A run that completed before the pause
// request reached it (the client fell that far behind the stream) is not a
// failure: that pause did not happen, and records is -1.
func (c *serveClient) pauseResume(id string, root int, sv *served) (records int, resumed time.Time, err error) {
	sp := c.r.tr.begin("http.pause", root)
	t := time.Now()
	err = c.post("/runs/"+id+"/pause", nil, http.StatusAccepted, nil)
	for {
		st, serr := c.status(id)
		if serr != nil {
			err = serr
			break
		}
		if st.State == serve.StateCompleted {
			c.r.tr.end(sp, 0)
			return -1, time.Time{}, nil
		}
		if err != nil || st.State.Terminal() {
			err = fmt.Errorf("pausing run %s in state %s: %v", id, st.State, err)
			break
		}
		if st.State == serve.StatePaused {
			records = st.Records
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	d := msSince(t)
	c.r.tr.end(sp, 1)
	if !c.r.op("pause", err) {
		return 0, time.Time{}, err
	}
	sv.pauseMS = append(sv.pauseMS, d)
	sp = c.r.tr.begin("http.resume", root)
	resumed = time.Now()
	err = c.post("/runs/"+id+"/resume", nil, http.StatusAccepted, nil)
	c.r.tr.end(sp, 1)
	if !c.r.op("resume", err) {
		return 0, time.Time{}, err
	}
	return records, resumed, nil
}

// oneRun submits a spec, tails its stream to the end and verifies it. With
// pauseEvery > 0 it pauses and resumes the run at every pauseEvery-th
// record that leaves at least as many again to go.
func (c *serveClient) oneRun(spec serve.RunSpec, pauseEvery int) (served, error) {
	sv := served{steps: spec.Steps}
	root := c.r.tr.begin("http.run", 0)
	defer func() { c.r.tr.end(root, spec.Steps) }()
	body, err := json.Marshal(spec)
	if err != nil {
		return sv, err
	}
	t0 := time.Now()
	sp := c.r.tr.begin("http.submit", root)
	var created struct {
		ID string `json:"id"`
	}
	err = c.post("/runs", body, http.StatusCreated, &created)
	c.r.tr.end(sp, 1)
	if !c.r.op("submit", err) {
		return sv, err
	}
	sv.submitMS = msSince(t0)

	sp = c.r.tr.begin("http.stream", root)
	resp, err := c.hc.Get(c.base + "/runs/" + created.ID + "/stream")
	if err != nil {
		c.r.tr.end(sp, 0)
		c.r.op("stream", err)
		return sv, err
	}
	defer resp.Body.Close()
	var (
		n         int
		lastAt    time.Time
		effSum    float64
		ordered   = true
		pausedAt  = -1 // record count at the pause; -1 = not waiting for a resumed record
		resumedAt time.Time
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var rec struct {
			Step       int     `json:"step"`
			Efficiency float64 `json:"efficiency"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			c.r.tr.end(sp, n)
			c.r.op("stream record", err)
			return sv, err
		}
		n++
		if c.streamed != nil {
			c.streamed.Add(1)
		}
		lastAt = time.Now()
		effSum += rec.Efficiency
		ordered = ordered && rec.Step == n
		if n == 1 {
			sv.ttfsMS = msSince(t0)
		}
		if pausedAt >= 0 && n > pausedAt {
			sv.resumeMS = append(sv.resumeMS, msSince(resumedAt))
			pausedAt = -1
		}
		if pauseEvery > 0 && n%pauseEvery == 0 && n+pauseEvery <= spec.Steps && pausedAt < 0 {
			if pausedAt, resumedAt, err = c.pauseResume(created.ID, root, &sv); err != nil {
				c.r.tr.end(sp, n)
				return sv, err
			}
		}
	}
	c.r.tr.end(sp, n)
	if !c.r.op("stream", sc.Err()) {
		return sv, sc.Err()
	}
	sv.latencyMS = msSince(t0)
	sv.efficiency = ratio(effSum, float64(n))
	st, err := c.status(created.ID)
	// From the last record to the client knowing that it was the last: the
	// end of the stream and a status that says completed.
	sv.lagMS = msSince(lastAt)
	if c.r.op("status", err) {
		c.r.check(n == spec.Steps && ordered && st.State == serve.StateCompleted,
			"run %s: %d records (in order: %t) and state %q, want %d and completed", created.ID, n, ordered, st.State, spec.Steps)
	}
	return sv, nil
}

// clientLoop is one tenant's closed-loop client: it submits the tenant's
// runs from number first on, each only after the previous one's stream has
// ended — tn.fixed runs at least, then more until limit has passed. It adds
// the records it receives to streamed, if there is one.
func (r *run) clientLoop(ts *httptest.Server, c int, tn tenant, first int, limit time.Duration, streamed *atomic.Int64) ([]served, error) {
	cl := &serveClient{r: r, base: ts.URL, hc: ts.Client(), streamed: streamed}
	var out []served
	for i, start := 0, time.Now(); i < tn.fixed || time.Since(start) < limit; i++ {
		sv, err := cl.oneRun(serveSpec(serveSeed(r.cfg.seed, c, first+i), tn.steps), tn.pauseEvery)
		if err != nil {
			return out, err
		}
		out = append(out, sv)
	}
	return out, nil
}

// runServeMix drives mdserve's service path: a probe phase, the load phase
// and a second probe phase (see tenant), with the set-up trials around them.
func runServeMix(r *run) error {
	tenants, probe := loadTenants, probeTenant
	if r.cfg.quick {
		tenants, probe = quickLoadTenants, quickProbeTenant
	}
	n := particlesIn(6)

	// Set-up: constructor calls until the server accepts work, sampled in
	// one batch before the timed phases and one after them. A batch is capped
	// because every trial leaves sockets in TIME_WAIT, and run after run of
	// thousands of them slows the kernel's port search down severalfold.
	var setup []float64
	setupTrials := func() error {
		const most = 100
		trials := sampling{r.share(0.5 / 15), r.pick(8, 1)}
		for i, start := 0, time.Now(); i < most && trials.more(i, start); i++ {
			dir, err := r.dir("serve-setup")
			if err != nil {
				return err
			}
			t := time.Now()
			srv, ts, err := startServer(dir)
			if !r.op("server constructor", err) {
				return err
			}
			setup = append(setup, time.Since(t).Seconds())
			r.op("server shutdown", stopServer(srv, ts))
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
		return nil
	}
	if err := setupTrials(); err != nil {
		return err
	}

	dir, err := r.dir("serve")
	if err != nil {
		return err
	}
	srv, ts, err := startServer(dir)
	if !r.op("server constructor", err) {
		return err
	}
	defer stopServer(srv, ts)

	// Warm-up: one short run per client fills the HTTP connection pool.
	warm := &serveClient{r: r, base: ts.URL, hc: ts.Client()}
	for c := range tenants {
		if _, err := warm.oneRun(serveSpec(serveSeed(r.cfg.seed, c, -1), 20), 0); err != nil {
			return err
		}
	}

	// The probe's runs are tenant number len(tenants)'s, numbered through
	// both of its phases.
	var probed []served
	probePhase := func() error {
		runtime.GC()
		svs, err := r.clientLoop(ts, len(tenants), probe, len(probed), r.share(3.0/15), nil)
		probed = append(probed, svs...)
		return err
	}
	if err := probePhase(); err != nil {
		return err
	}

	// The load phase. What the service sustains is taken in slices, as in
	// an engine's timed window (see sliceLen): the records both clients
	// received in a quarter of a second, read off a counter. The slices at
	// the end, when one client has stopped and the other finishes its last
	// run alone, are slower ones and do not weigh on the typical slice.
	runtime.GC()
	all := make([][]served, len(tenants))
	errs := make([]error, len(tenants))
	var streamed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c, tn := range tenants {
		wg.Add(1)
		go func(c int, tn tenant) {
			defer wg.Done()
			all[c], errs[c] = r.clientLoop(ts, c, tn, 0, r.share(8.0/15), &streamed)
		}(c, tn)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var sliceS []float64 // wall seconds per record of each slice
	tick := time.NewTicker(sliceLen)
	for sliceStart, had, loading := start, int64(0), true; loading; {
		select {
		case <-done:
			loading = false
		case now := <-tick.C:
			if have := streamed.Load(); have > had {
				sliceS = append(sliceS, now.Sub(sliceStart).Seconds()/float64(have-had))
				sliceStart, had = now, have
			}
		}
	}
	tick.Stop()
	wall := time.Since(start).Seconds()
	if len(sliceS) == 0 {
		sliceS = []float64{wall / float64(streamed.Load())}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	if err := probePhase(); err != nil {
		return err
	}
	if err := setupTrials(); err != nil {
		return err
	}
	r.setTiming("setup_s", setup)

	var submit, ttfs, shortLatency, perStep, lag, pause, resume, pauseResume, eff []float64
	runs, short := 0, len(tenants)-1
	for c := range all {
		for i, sv := range all[c] {
			runs++
			submit = append(submit, sv.submitMS)
			lag = append(lag, sv.lagMS)
			ms := sv.latencyMS / float64(sv.steps)
			perStep = append(perStep, ms)
			if c == short {
				// Scaled to the tenant's mean run length, as the solo runs are.
				shortLatency = append(shortLatency, ms*float64(tenants[short].steps))
			}
			if i < tenants[c].fixed {
				eff = append(eff, sv.efficiency)
			}
		}
	}
	for _, sv := range probed {
		submit = append(submit, sv.submitMS)
		lag = append(lag, sv.lagMS)
		ttfs = append(ttfs, sv.ttfsMS)
		pause = append(pause, sv.pauseMS...)
		resume = append(resume, sv.resumeMS...)
		for i := range sv.resumeMS {
			pauseResume = append(pauseResume, sv.pauseMS[i]+sv.resumeMS[i])
		}
	}
	r.setTiming("ttfs_ms", ttfs)
	r.set("particle_steps_per_s", ratio(float64(n), typical(sliceS)), len(sliceS))
	r.setTiming("step_ms", perStep)
	r.setTiming("checkpoint_ms", pause)
	r.setTiming("restore_ms", resume)
	if !r.cfg.trace {
		return nil
	}

	r.set("balance.efficiency", mean(eff), len(eff))
	r.set("serve.runs_per_s", ratio(float64(runs), wall), runs)
	r.setMedian("serve.run_latency_ms_p50", shortLatency)
	r.setMedian("serve.submit_ms_p50", submit)
	r.setMedian("serve.stream_lag_ms_p50", lag)
	r.setMedian("serve.pause_resume_ms_p50", pauseResume)
	r.setMedian("facade.step_ms_p50", perStep)
	r.set("facade.step_ms_p99", quantile(perStep, 0.99), len(perStep))
	r.set("facade.step_ms_max", maxOf(perStep), len(perStep))
	return r.soloRuns(tenants, typical(perStep))
}

// soloRuns drives every tenant's fixed runs straight through permcell.New
// and Step, the tenants side by side as under the service, once with
// metrics on (as the service runs them) and once with metrics off. The
// served latency of the short tenant's runs minus their solo time, both
// scaled to the tenant's mean run length, is the service's own cost; on
// minus off is what WithMetrics costs. The solo
// engines also supply the state for the engine-side per-layer metrics,
// which the service does not expose.
func (r *run) soloRuns(tenants []tenant, servedStepMS float64) error {
	type solo struct {
		stepMS []float64
		res    *permcell.Result
		dir    string
		err    error
	}
	one := func(s *solo, spec serve.RunSpec, metricsOn bool) error {
		var err error
		if s.dir, err = r.dir("solo"); err != nil {
			return err
		}
		bal, _ := permcell.BalancerByName(spec.Balancer)
		opts := []permcell.Option{
			permcell.WithSeed(spec.Seed), permcell.WithWells(spec.Wells, spec.WellK),
			permcell.WithBalancer(bal), permcell.WithCheckpoint(0, s.dir),
		}
		if metricsOn {
			opts = append(opts, permcell.WithMetrics())
		}
		root := r.tr.begin("solo", 0)
		defer r.tr.end(root, spec.Steps)
		t := time.Now()
		eng, err := permcell.New(spec.M, spec.P, spec.Rho, opts...)
		if !r.op("solo constructor", err) {
			return err
		}
		for k := 0; k < spec.Steps; k++ {
			if err := eng.Step(1); !r.op("solo Step", err) {
				eng.Result()
				return err
			}
		}
		r.op("solo CheckpointNow", permcell.CheckpointNow(eng))
		if s.res, err = eng.Result(); !r.op("solo Result", err) {
			return err
		}
		s.stepMS = append(s.stepMS, msSince(t)/float64(spec.Steps))
		return nil
	}
	pass := func(metricsOn bool) ([]solo, error) {
		out := make([]solo, len(tenants))
		var wg sync.WaitGroup
		for c, tn := range tenants {
			wg.Add(1)
			go func(s *solo, c int, tn tenant) {
				defer wg.Done()
				for i := 0; i < tn.fixed && s.err == nil; i++ {
					s.err = one(s, serveSpec(serveSeed(r.cfg.seed, c, i), tn.steps), metricsOn)
				}
			}(&out[c], c, tn)
		}
		wg.Wait()
		for c := range out {
			if out[c].err != nil {
				return nil, out[c].err
			}
		}
		return out, nil
	}
	on, err := pass(true)
	if err != nil {
		return err
	}
	off, err := pass(false)
	if err != nil {
		return err
	}
	var onMS, offMS []float64
	for c := range tenants {
		onMS = append(onMS, on[c].stepMS...)
		offMS = append(offMS, off[c].stepMS...)
	}
	short := len(tenants) - 1
	r.set("serve.solo_run_ms_p50", median(on[short].stepMS)*float64(tenants[short].steps), len(on[short].stepMS))
	r.set("metrics.overhead_frac", ratio(typical(onMS)-typical(offMS), typical(offMS)), len(onMS))
	long := &on[0]
	r.layerStats(long.res.Stats, long.res.Stats, 3, 4)
	r.commCounts(long.res)
	r.directLayers(long.res.Final, 6, servedStepMS, long.dir)
	return nil
}
