package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"permcell"
	"permcell/internal/metrics"
)

// soakVariant is one archetype in the soak fleet.
type soakVariant struct {
	name string
	spec RunSpec
	want State
}

// healthyVariants covers every engine kind plus balanced parallel.
func healthyVariants() []soakVariant {
	return []soakVariant{
		{"serial", RunSpec{Kind: KindSerial, NC: 4, Rho: 0.4, Steps: 10}, StateCompleted},
		{"static", RunSpec{Kind: KindStatic, NC: 4, P: 2, Shape: "plane", Rho: 0.4, Steps: 10}, StateCompleted},
		{"parallel-ddm", RunSpec{Kind: KindParallel, M: 2, P: 4, Rho: 0.4, Steps: 10}, StateCompleted},
		{"parallel-dlb", RunSpec{Kind: KindParallel, M: 2, P: 4, Rho: 0.4, Steps: 10, Balancer: "permcell"}, StateCompleted},
	}
}

// runFleet submits total runs cycling through variants, tails every stream
// concurrently, waits for the expected terminal states and returns the
// collected traces (indexed like the submissions).
func runFleet(t *testing.T, s *Server, hs *httptest.Server, variants []soakVariant, total int) ([]string, [][]metrics.StepRecord) {
	t.Helper()
	ids := make([]string, total)
	for i := range ids {
		ids[i] = postRun(t, hs, variants[i%len(variants)].spec)
	}
	traces := make([][]metrics.StepRecord, total)
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			traces[i] = streamFleet(hs, id)
		}()
	}
	for i, id := range ids {
		v := variants[i%len(variants)]
		if st := waitTerminal(t, s, id); st != v.want {
			t.Errorf("run %s (%s): state %s, want %s", id, v.name, st, v.want)
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	return ids, traces
}

// shutdownAndSettle closes the front end, shuts the service down and waits
// for the goroutine count to drop to the given ceiling, failing with a full
// stack dump if it never does.
func shutdownAndSettle(t *testing.T, s *Server, hs *httptest.Server, ceiling int) int {
	t.Helper()
	hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= ceiling {
			return n
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d live, ceiling %d\n%s", n, ceiling, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestSoakConcurrentRuns pushes >=100 runs through the service at once —
// every engine kind, a sabotaged subset — and holds the service to the
// issue's bar:
//
//   - every healthy run's streamed trace is bit-identical to a solo run of
//     the same spec (deterministic fields; see traceKey),
//   - sabotaged runs heal (supervised) or fail (unsupervised) exactly per
//     their policy, without touching any neighbor,
//   - no goroutine leaks: the mixed fleet winds down to a bounded residue
//     (a dead rank permanently parks its surviving world — the documented
//     MPI_Abort analogue — so each sabotaged parallel run may retain a few
//     blocked goroutines), and a healthy-only fleet winds down to exactly
//     the pre-fleet count.
//
// Run it under -race to make the soak double as a data-race sweep over the
// whole serve/facade/engine stack.
func TestSoakConcurrentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: skipped in -short mode")
	}
	const total = 120
	retries := 2
	variants := append(healthyVariants(),
		soakVariant{"sabotage-healed", RunSpec{
			Kind: KindParallel, M: 2, P: 4, Rho: 0.4, Steps: 10,
			MaxRetries: &retries,
			Sabotage:   &SabotageSpec{Kind: permcell.SabotagePanic, Step: 5, Rank: 1},
		}, StateCompleted},
		// Unsupervised panic: the in-engine trap converts it into a Step
		// error, so the run fails cleanly instead of crashing the worker.
		// (An unsupervised NaN would sail through — the physics guard is
		// armed by the supervisor, which this variant deliberately lacks.)
		soakVariant{"sabotage-doomed", RunSpec{
			Kind: KindParallel, M: 2, P: 4, Rho: 0.4, Steps: 10,
			Sabotage: &SabotageSpec{Kind: permcell.SabotagePanic, Step: 5, Rank: 0},
		}, StateFailed},
	)

	// One solo reference trace per healthy variant (the expensive part is
	// shared across all runs of that variant).
	solo := make([][]metrics.StepRecord, len(variants))
	for i, v := range variants {
		if v.spec.Sabotage == nil {
			solo[i] = soloTrace(t, v.spec, t.TempDir())
		}
	}

	baseline := runtime.NumGoroutine()
	s, hs := newTestService(t, Config{
		Workers:    runtime.GOMAXPROCS(0),
		QueueDepth: total,
	})
	ids, traces := runFleet(t, s, hs, variants, total)

	for i, id := range ids {
		vi := i % len(variants)
		v := variants[vi]
		switch {
		case v.spec.Sabotage == nil:
			assertSameTrace(t, traces[i], solo[vi], fmt.Sprintf("run %s (%s)", id, v.name))
		case v.want == StateCompleted:
			// Healed: the supervisor replays rolled-back steps, so compare
			// the last record per step against the clean reference — the
			// parallel-ddm variant has the same physics spec minus the
			// sabotage/supervision policy fields.
			ref := solo[2]
			latest := map[int]metrics.StepRecord{}
			for _, r := range traces[i] {
				latest[r.Step] = r
			}
			if len(latest) != len(ref) {
				t.Errorf("run %s (%s): %d distinct steps, want %d", id, v.name, len(latest), len(ref))
				continue
			}
			for _, want := range ref {
				if traceKey(latest[want.Step]) != traceKey(want) {
					t.Errorf("run %s (%s): healed step %d diverges", id, v.name, want.Step)
					break
				}
			}
		default:
			// Doomed: must have failed with a recorded error.
			if getStatus(t, hs, id).Error == "" {
				t.Errorf("run %s (%s): failed without an error message", id, v.name)
			}
		}
	}

	// Service-level accounting survived the stampede.
	s.mu.Lock()
	admitted := s.admitted
	s.mu.Unlock()
	if admitted != int64(total) {
		t.Errorf("admitted = %d, want %d", admitted, total)
	}

	// Bounded residue: every abandoned world (one per doomed run, one per
	// healed run's rollback) parks at most its P ranks plus their comm
	// helpers. Anything beyond that allowance is a real leak.
	sabotaged := 2 * (total / len(variants))
	settled := shutdownAndSettle(t, s, hs, baseline+12*sabotaged)

	// Strict phase: a healthy-only fleet must wind down to exactly the
	// goroutines alive before it started (small slack for runtime helpers).
	s2, hs2 := newTestService(t, Config{
		Workers:    runtime.GOMAXPROCS(0),
		QueueDepth: total,
	})
	hv := healthyVariants()
	ids2, traces2 := runFleet(t, s2, hs2, hv, total)
	for i, id := range ids2 {
		assertSameTrace(t, traces2[i], solo[i%len(hv)], fmt.Sprintf("healthy run %s (%s)", id, hv[i%len(hv)].name))
	}
	shutdownAndSettle(t, s2, hs2, settled+5)
}

// streamFleet is streamRecords without the *testing.T plumbing (the soak
// tails 240 streams from goroutines; a transport error just ends the tail,
// and the per-run trace assertions catch any truncation).
func streamFleet(hs *httptest.Server, id string) []metrics.StepRecord {
	resp, err := hs.Client().Get(hs.URL + "/runs/" + id + "/stream")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var recs []metrics.StepRecord
	dec := json.NewDecoder(resp.Body)
	for {
		var rec metrics.StepRecord
		if err := dec.Decode(&rec); err != nil {
			return recs
		}
		recs = append(recs, rec)
	}
}
