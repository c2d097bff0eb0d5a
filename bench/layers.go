package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"time"

	"permcell"
	"permcell/internal/checkpoint"
	"permcell/internal/comm"
	"permcell/internal/kernel"
	"permcell/internal/particle"
	"permcell/internal/potential"
	"permcell/internal/space"
	"permcell/internal/topology"
	"permcell/internal/transport"
	"permcell/internal/units"
	"permcell/internal/vec"
)

// This file holds the traced run's per-layer measurements: the ones read
// from what the engines already export (StepStats and, under WithMetrics,
// StepStats.Phases), and the ones made by timing direct calls into a
// layer's public functions. Nothing here runs with tracing off.

// layerStats derives the core, integrator, balance, comm-count and
// transport-count metrics from a metrics-on StepStats stream. timed is the
// timed window; prefix is the fixed leading part of it, over which the
// counts repeat exactly for a given seed; m is the pillar cross-section
// (0 for engines the f(m,n) bound does not apply to) and p the PE count.
func (r *run) layerStats(timed, prefix []permcell.StepStats, m, p int) {
	n := len(timed)
	if n == 0 {
		return
	}
	var wallAve, wallMax, phaseSum float64
	var ave, mx [permcell.NumPhases]float64
	var work, force []float64
	for i := range timed {
		s := &timed[i]
		wallAve += s.StepWallAve
		wallMax += s.StepWallMax
		phaseSum += s.Phases.SumAveSecs()
		for ph := 0; ph < permcell.NumPhases; ph++ {
			ave[ph] += s.Phases.AveSecs[ph]
			mx[ph] += s.Phases.MaxSecs[ph]
		}
		work = append(work, s.WorkAve)
		force = append(force, s.Phases.AveSecs[permcell.PhaseForce])
	}
	for ph, name := range phaseNames {
		r.set("core.phase_share."+name, ratio(ave[ph], wallAve), n)
		r.set("core.phase_ms_max."+name, mx[ph]/float64(n)*1e3, n)
	}
	r.set("core.phase_sum_over_wall", ratio(phaseSum, wallAve), n)
	r.set("core.step_wall_max_over_ave", ratio(wallMax, wallAve), n)
	r.set("integrator.step_share", ratio(ave[permcell.PhaseIntegrate], wallAve), n)
	r.set("balance.decide_share", ratio(ave[permcell.PhaseDLBDecide], wallAve), n)
	r.set("balance.transfer_share", ratio(ave[permcell.PhaseDLBTransfer], wallAve), n)
	// The DLB runs on the pair count as a stand-in for MPI_Wtime; this is
	// how well the count tracks the measured force-phase time.
	r.set("balance.work_wall_corr", pearson(work, force), n)
	if n > 1 {
		first, last := &timed[0], &timed[n-1]
		r.set("transport.frames_per_step", float64(last.SentFrames-first.SentFrames)/float64(n-1), n-1)
		r.set("transport.bytes_per_step", float64(last.SentBytes-first.SentBytes)/float64(n-1), n-1)
	}

	var moved, movedBytes, makespan, pairs float64
	boundary := 0
	for i := range prefix {
		s := &prefix[i]
		moved += float64(s.Moved)
		movedBytes += float64(s.MovedBytes)
		makespan += s.WorkMax
		pairs += s.WorkAve * float64(p)
		if boundary == 0 && m >= 2 {
			if f, err := permcell.Bound(m, s.Conc.NFactor); err == nil && s.Conc.C0OverC > f {
				boundary = s.Step
			}
		}
	}
	k := len(prefix)
	r.set("balance.moved_cols", moved, k)
	r.set("balance.moved_bytes", movedBytes, k)
	r.set("balance.virtual_makespan_mpairs", makespan/1e6, k)
	r.set("balance.boundary_step", float64(boundary), k)
	r.set("kernel.pairs_per_step", ratio(pairs, float64(k)), k)
}

// commCounts reports the whole-run message statistics per step.
func (r *run) commCounts(res *permcell.Result) {
	if n := len(res.Stats); n > 0 {
		r.set("comm.msgs_per_step", float64(res.CommMsgs)/float64(n), n)
		r.set("comm.bytes_per_step", float64(res.CommBytes)/float64(n), n)
	}
}

// reps calls fn until it has run for budget (at least three times) and
// returns the typical call time in milliseconds, the statistic the step
// times it is set against are reported as.
func reps(budget time.Duration, fn func()) float64 {
	var ms []float64
	for calls, t0 := (sampling{budget, 3}), time.Now(); calls.more(len(ms), t0); {
		s := time.Now()
		fn()
		ms = append(ms, msSince(s))
	}
	return typical(ms)
}

// directBudget bounds each direct measurement, so the traced run stays
// well inside the driver's time cap.
func (r *run) directBudget() time.Duration {
	if r.cfg.quick {
		return time.Millisecond
	}
	return 250 * time.Millisecond
}

// kernelDirect times CellLists.Bin and Compute on the workload's final
// particle state as one domain hosting every cell of the nc^3 grid — the
// whole system's force pass with no halo. stepMS is the workload's typical
// step time, for the kernel's share of it.
func (r *run) kernelDirect(final *particle.Set, nc int, stepMS float64) error {
	box, err := space.NewCubicBox(float64(nc) * units.PaperCutoff)
	if err != nil {
		return err
	}
	g, err := space.NewGridWithDims(box, nc, nc, nc)
	if err != nil {
		return err
	}
	set := final.Clone()
	cells := make([]int, g.NumCells())
	for c := range cells {
		cells[c] = c
	}
	cl := kernel.NewCellLists(g, 1)
	defer cl.Close()
	cl.SetHosted(cells)
	cl.SealGhosts()
	lj := potential.NewPaperLJ()
	sp := r.tr.begin("kernel.direct", 0)
	bad := -1
	binMS := reps(r.directBudget(), func() { bad = cl.Bin(set.Pos) })
	if bad >= 0 {
		return fmt.Errorf("kernel: particle %d outside the grid", bad)
	}
	var pairs int64
	computeMS := reps(r.directBudget(), func() {
		set.ZeroForces()
		_, _, pairs = cl.Compute(lj, set)
	})
	r.tr.end(sp, int(pairs))
	r.set("kernel.bin_ms", binMS, 1)
	r.set("kernel.compute_ms", computeMS, 1)
	r.set("kernel.ns_per_pair", ratio(computeMS*1e6, float64(pairs)), int(pairs))
	r.set("kernel.step_share", ratio(binMS+computeMS, stepMS), 1)
	return nil
}

// commDirect times the two collectives the PE step is built from on a
// P=16 in-process World: an allreduce, and an exchange of a 2 KiB payload
// with every torus neighbour.
func (r *run) commDirect() error {
	const p = 16
	tor, err := topology.NewSquareTorus(p)
	if err != nil {
		return err
	}
	iters := r.pick(2000, 20)
	timeWorld := func(body func(c *comm.Comm)) (float64, error) {
		w, err := comm.NewWorld(p)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		w.Run(func(c *comm.Comm) {
			for i := 0; i < iters; i++ {
				body(c)
			}
		})
		return float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(iters), nil
	}
	sp := r.tr.begin("comm.direct", 0)
	defer r.tr.end(sp, 2*iters)
	us, err := timeWorld(func(c *comm.Comm) { c.AllreduceFloat64(float64(c.Rank()), comm.Sum) })
	if err != nil {
		return err
	}
	r.set("comm.allreduce_us", us, iters)
	payload := make([]float64, 256)
	us, err = timeWorld(func(c *comm.Comm) {
		nbs := tor.UniqueNeighbors(c.Rank())
		for _, nb := range nbs {
			c.Send(nb, 1, payload)
		}
		for _, nb := range nbs {
			c.Recv(nb, 1)
		}
	})
	if err != nil {
		return err
	}
	r.set("comm.neighbor_exchange_us", us, iters)
	return nil
}

// transportDirect times the wire path on a 256-particle migration payload:
// payload and frame encode, decode, the encoded size per particle, and a
// frame's round trip between two Peers over a loopback socket.
func (r *run) transportDirect() error {
	const particles = 256
	ones := make([]particle.One, particles)
	for i := range ones {
		x := float64(i)
		ones[i] = particle.One{ID: int64(i), Pos: vec.New(x, x/2, x/3), Vel: vec.New(-x, x/5, x/7)}
	}
	sp := r.tr.begin("transport.direct", 0)
	defer r.tr.end(sp, particles)
	var wire bytes.Buffer
	var pl []byte
	var encErr error
	encMS := reps(r.directBudget(), func() {
		wire.Reset()
		if pl, encErr = transport.EncodePayload(ones); encErr == nil {
			encErr = transport.EncodeFrame(&wire, transport.Frame{Kind: transport.KindData, Src: 0, Dst: 1, Tag: 1, Payload: pl})
		}
	})
	if encErr != nil {
		return encErr
	}
	frame := append([]byte(nil), wire.Bytes()...)
	var decErr error
	decMS := reps(r.directBudget(), func() {
		var f transport.Frame
		if f, decErr = transport.DecodeFrame(bytes.NewReader(frame)); decErr == nil {
			_, decErr = transport.DecodePayload(f.Payload)
		}
	})
	if decErr != nil {
		return decErr
	}
	r.set("transport.encode_us_per_frame", encMS*1e3, 1)
	r.set("transport.decode_us_per_frame", decMS*1e3, 1)
	r.set("transport.bytes_per_particle", float64(len(frame))/particles, particles)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	echoed := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		p := transport.NewPeer(c)
		defer p.Close()
		for {
			f, err := p.Recv()
			if err != nil {
				echoed <- nil // the dialing side closed: done
				return
			}
			if err := p.Send(f); err != nil {
				echoed <- err
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	peer := transport.NewPeer(c)
	f := transport.Frame{Kind: transport.KindData, Src: 0, Dst: 1, Tag: 1, Payload: pl}
	var rtErr error
	rtMS := reps(r.directBudget(), func() {
		if rtErr = peer.Send(f); rtErr == nil {
			_, rtErr = peer.Recv()
		}
	})
	peer.Close()
	if err := <-echoed; err != nil && rtErr == nil {
		rtErr = err
	}
	if rtErr != nil {
		return rtErr
	}
	r.set("transport.peer_roundtrip_us", rtMS*1e3, 1)
	return nil
}

// checkpointDirect times the codec on the workload's own checkpoint file:
// encode, decode and the finiteness scan, in MB of file per second.
func (r *run) checkpointDirect(dir string) error {
	path := dir + "/" + checkpoint.LatestName
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	meta, frames, err := checkpoint.Decode(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	mb := float64(len(raw)) / 1e6
	sp := r.tr.begin("checkpoint.direct", 0)
	defer r.tr.end(sp, len(raw))
	var buf bytes.Buffer
	var cerr error
	encMS := reps(r.directBudget(), func() {
		buf.Reset()
		if err := checkpoint.Encode(&buf, meta, frames); err != nil {
			cerr = err
		}
	})
	decMS := reps(r.directBudget(), func() {
		if _, _, err := checkpoint.Decode(bytes.NewReader(raw)); err != nil {
			cerr = err
		}
	})
	finMS := reps(r.directBudget(), func() {
		if err := checkpoint.CheckFinite(frames); err != nil {
			cerr = err
		}
	})
	if cerr != nil {
		return cerr
	}
	r.set("checkpoint.bytes", float64(len(raw)), 1)
	r.set("checkpoint.encode_mb_s", ratio(mb*1e3, encMS), 1)
	r.set("checkpoint.decode_mb_s", ratio(mb*1e3, decMS), 1)
	r.set("checkpoint.checkfinite_mb_s", ratio(mb*1e3, finMS), 1)
	return nil
}

// directLayers runs every direct measurement; each one is independent of
// the workload except for the state it is handed.
func (r *run) directLayers(final *particle.Set, nc int, stepMS float64, ckptDir string) {
	r.op("kernel direct", r.kernelDirect(final, nc, stepMS))
	r.op("comm direct", r.commDirect())
	r.op("transport direct", r.transportDirect())
	r.op("checkpoint direct", r.checkpointDirect(ckptDir))
}
