package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"

	"permcell"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// typical is the statistic every end-to-end timing is reported as: the mean
// of the faster half of the calls (see endToEnd); 0 for an empty sample.
func typical(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return mean(s[:(len(s)+1)/2])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0 (a bypassed layer reports 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pearson returns the correlation coefficient of xs and ys (0 when either
// is constant or the samples are too short to define one).
func pearson(xs, ys []float64) float64 {
	n := min(len(xs), len(ys))
	if n < 3 {
		return 0
	}
	mx, my := mean(xs[:n]), mean(ys[:n])
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// traceHash fingerprints the deterministic part of a StepStats stream: the
// step number, the work counts, the balancer's moves, the global
// observables and the concentration census. Wall-time fields and the
// transport counters are left out, so the hash is the cross-transport,
// cross-recovery trace identity the repository's goldens assert.
func traceHash(stats []permcell.StepStats) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for i := range stats {
		s := &stats[i]
		put(uint64(s.Step))
		for _, f := range []float64{s.WorkMax, s.WorkAve, s.WorkMin, s.TotalEnergy, s.Temperature, s.Conc.C0OverC, s.Conc.NFactor} {
			put(math.Float64bits(f))
		}
		put(uint64(s.Moved))
		put(uint64(s.MovedBytes))
	}
	return h.Sum64()
}

func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
