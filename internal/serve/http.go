package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"

	"permcell/internal/metrics"
)

// Handler returns the service's HTTP API:
//
//	POST   /runs             submit a RunSpec; 201 + {"id": ...}
//	GET    /runs             list run statuses
//	GET    /runs/{id}        one run's status
//	GET    /runs/{id}/stream live step records, JSONL by default,
//	                         text/event-stream with Accept: text/event-stream
//	                         or ?sse=1; ?from=N skips the first N records
//	POST   /runs/{id}/pause  checkpoint and park after the step in flight
//	POST   /runs/{id}/resume restore from checkpoint and re-queue
//	DELETE /runs/{id}        cancel
//	GET    /metrics          Prometheus exposition, service + per-run series
//	GET    /healthz          liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /runs", s.handleSubmit)
	mux.HandleFunc("GET /runs", s.handleList)
	mux.HandleFunc("GET /runs/{id}", s.handleStatus)
	mux.HandleFunc("GET /runs/{id}/stream", s.handleStream)
	mux.HandleFunc("POST /runs/{id}/pause", s.handlePause)
	mux.HandleFunc("POST /runs/{id}/resume", s.handleResume)
	mux.HandleFunc("DELETE /runs/{id}", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// httpError maps service errors onto status codes and writes a JSON error
// body.
func httpError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	var nf *NotFoundError
	var cf *ConflictError
	switch {
	case errors.As(err, &nf):
		code = http.StatusNotFound
	case errors.As(err, &cf):
		code = http.StatusConflict
	case errors.Is(err, ErrQueueFull):
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrTooLarge):
		code = http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrClosed):
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec RunSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, fmt.Errorf("serve: decoding run spec: %w", err))
		return
	}
	id, err := s.Submit(spec)
	if err != nil {
		httpError(w, err)
		return
	}
	w.Header().Set("Location", "/runs/"+id)
	writeJSON(w, http.StatusCreated, map[string]string{"id": id})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	run, err := s.Get(r.PathValue("id"))
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, run.snapshot())
}

func (s *Server) handlePause(w http.ResponseWriter, r *http.Request) {
	if err := s.Pause(r.PathValue("id")); err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"state": string(StatePaused)})
}

func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	if err := s.Resume(r.PathValue("id")); err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"state": string(StateQueued)})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if err := s.Cancel(r.PathValue("id")); err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"state": string(StateCanceled)})
}

// handleStream tails a run's step records. Records already collected are
// replayed first; the stream then follows the run live — across pauses —
// and ends when the run reaches a terminal state (or the client goes
// away). Lossless by construction: the log is replayed from an offset, so
// a slow consumer delays only itself, never the run (the OnStep hook
// appends under the run mutex and returns).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	run, err := s.Get(r.PathValue("id"))
	if err != nil {
		httpError(w, err)
		return
	}
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		if _, err := fmt.Sscanf(v, "%d", &from); err != nil || from < 0 {
			httpError(w, fmt.Errorf("serve: bad from=%q", v))
			return
		}
	}
	sse := r.URL.Query().Get("sse") == "1" || r.Header.Get("Accept") == "text/event-stream"
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)

	enc := json.NewEncoder(w)
	emit := func(rec metrics.StepRecord) error {
		if sse {
			if _, err := fmt.Fprint(w, "data: "); err != nil {
				return err
			}
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
		if sse {
			if _, err := fmt.Fprint(w, "\n"); err != nil {
				return err
			}
		}
		return nil
	}

	for {
		n, state, ch := run.view()
		for from < n {
			// Copy out in bounded chunks so a huge backlog is not held
			// under the run mutex at once.
			to := min(n, from+256)
			for _, rec := range run.records(from, to) {
				if err := emit(rec); err != nil {
					return
				}
			}
			from = to
		}
		if fl != nil {
			fl.Flush()
		}
		if state.Terminal() {
			return
		}
		if !run.await(ch, r.Context()) {
			return
		}
	}
}

// handleMetrics writes the Prometheus exposition: service-level gauges and
// counters, then the per-run families — each run's Cumulative series
// labelled run="<id>" (one shared family header, per the text format),
// plus per-run balance gauges.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	runs := make([]*Run, 0, len(s.runs))
	for _, r := range s.runs {
		runs = append(runs, r)
	}
	admitted := s.admitted
	reaped := s.reaped
	rejected := make(map[string]int64, len(s.rejected))
	for k, v := range s.rejected {
		rejected[k] = v
	}
	s.mu.Unlock()

	byState := map[State]int{}
	type runExpo struct {
		id     string
		cum    metrics.Cumulative
		ratio  float64
		eff    float64
		done   int
		active bool
	}
	expos := make([]runExpo, 0, len(runs))
	anyRecovery := false
	for _, r := range runs {
		r.mu.Lock()
		byState[r.state]++
		cum := r.cum
		if cum.Recovery != nil {
			rc := *cum.Recovery
			cum.Recovery = &rc
			anyRecovery = true
		}
		expos = append(expos, runExpo{
			id: r.ID, cum: cum, ratio: r.lastRatio, eff: r.lastEff,
			done: r.done, active: !r.state.Terminal(),
		})
		r.mu.Unlock()
	}
	sort.Slice(expos, func(i, j int) bool { return expos[i].id < expos[j].id })

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}

	// Service-level series.
	p("# HELP permcell_serve_runs Runs per lifecycle state.\n")
	p("# TYPE permcell_serve_runs gauge\n")
	for _, st := range []State{StateQueued, StateRunning, StatePaused, StateCompleted, StateFailed, StateCanceled} {
		p("permcell_serve_runs{%s} %d\n", metrics.Labels("state", string(st)), byState[st])
	}
	p("# HELP permcell_serve_queue_depth Admission queue occupancy.\n")
	p("# TYPE permcell_serve_queue_depth gauge\n")
	p("permcell_serve_queue_depth %d\n", len(s.queue))
	p("# HELP permcell_serve_admitted_total Runs admitted through the queue.\n")
	p("# TYPE permcell_serve_admitted_total counter\n")
	p("permcell_serve_admitted_total %d\n", admitted)
	p("# HELP permcell_serve_rejected_total Run submissions rejected, by reason.\n")
	p("# TYPE permcell_serve_rejected_total counter\n")
	for _, reason := range []string{"invalid", "too_large", "queue_full"} {
		p("permcell_serve_rejected_total{%s} %d\n", metrics.Labels("reason", reason), rejected[reason])
	}
	p("# HELP permcell_serve_runs_reaped_total Terminal runs removed by the retention janitor.\n")
	p("# TYPE permcell_serve_runs_reaped_total counter\n")
	p("permcell_serve_runs_reaped_total %d\n", reaped)

	// Per-run gauges.
	p("# HELP permcell_run_steps_done Completed simulation steps per run.\n")
	p("# TYPE permcell_run_steps_done gauge\n")
	for _, e := range expos {
		p("permcell_run_steps_done{%s} %d\n", metrics.Labels("run", e.id), e.done)
	}
	p("# HELP permcell_run_load_ratio Last observed max/avg load ratio per run.\n")
	p("# TYPE permcell_run_load_ratio gauge\n")
	for _, e := range expos {
		p("permcell_run_load_ratio{%s} %g\n", metrics.Labels("run", e.id), e.ratio)
	}
	p("# HELP permcell_run_efficiency Last observed parallel efficiency per run.\n")
	p("# TYPE permcell_run_efficiency gauge\n")
	for _, e := range expos {
		p("permcell_run_efficiency{%s} %g\n", metrics.Labels("run", e.id), e.eff)
	}

	// Per-run Cumulative families: shared headers, labelled samples.
	if err == nil {
		err = metrics.WritePrometheusHeaders(w, anyRecovery)
	}
	for _, e := range expos {
		if err == nil {
			err = e.cum.WriteSamples(w, metrics.Labels("run", e.id))
		}
	}
	_ = err // the response is already streaming; nothing to report to
}
