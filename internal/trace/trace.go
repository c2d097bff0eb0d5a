// Package trace processes per-step time series: smoothing, the
// boundary-point detector of Section 4.2 ("the time step at which the
// difference between the maximum and the minimum of force computing time
// begins to increase"), CSV emission, and quick ASCII plots for the CLI
// tools.
package trace

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Smooth returns the centered moving average of vals with the given odd
// window (even windows are rounded up). Endpoints use the available
// neighborhood.
func Smooth(vals []float64, window int) []float64 {
	if window < 1 {
		window = 1
	}
	if window%2 == 0 {
		window++
	}
	half := window / 2
	out := make([]float64, len(vals))
	for i := range vals {
		lo, hi := i-half, i+half
		if lo < 0 {
			lo = 0
		}
		if hi >= len(vals) {
			hi = len(vals) - 1
		}
		var s float64
		for j := lo; j <= hi; j++ {
			s += vals[j]
		}
		out[i] = s / float64(hi-lo+1)
	}
	return out
}

// DetectRise finds the index at which vals begins a sustained rise above
// its initial baseline: the first index i where the smoothed series exceeds
// baseline + factor*max(baseline, floor) and never falls back below that
// threshold. It returns -1 if no sustained rise exists.
//
// baseline is the mean of the first baseLen smoothed values (clamped to the
// series length); floor guards against near-zero baselines where any noise
// would trigger. This implements the paper's experimental boundary-point
// criterion on the (Fmax - Fmin) series.
func DetectRise(vals []float64, window, baseLen int, factor, floor float64) int {
	if len(vals) == 0 {
		return -1
	}
	s := Smooth(vals, window)
	if baseLen < 1 {
		baseLen = 1
	}
	if baseLen > len(s) {
		baseLen = len(s)
	}
	var base float64
	for _, v := range s[:baseLen] {
		base += v
	}
	base /= float64(baseLen)
	scale := base
	if scale < floor {
		scale = floor
	}
	thresh := base + factor*scale

	// Last index that is at or below the threshold; the rise starts after.
	last := -1
	for i, v := range s {
		if v <= thresh {
			last = i
		}
	}
	rise := last + 1
	if rise >= len(s) {
		return -1 // never rises (or never stays risen)
	}
	return rise
}

// FaultEvent is one injected communication fault, as recorded by the
// internal/comm fault-injection layer. Seq is the faulting rank's comm-op
// sequence number when the fault fired, which — together with the plan seed
// — locates the event exactly on a replay.
type FaultEvent struct {
	Rank int     // rank the fault was injected on
	Peer int     // destination rank of the affected message (-1 when N/A)
	Tag  int     // tag of the affected message (0 when N/A)
	Kind string  // "delay", "reorder", "stall"
	Seq  int64   // rank-local comm-op sequence number
	Dur  float64 // injected wait in seconds (delay/stall; 0 otherwise)
}

// WriteFaultCSV writes fault events as CSV (rank, peer, tag, kind, seq, dur).
func WriteFaultCSV(w io.Writer, events []FaultEvent) error {
	if _, err := fmt.Fprintln(w, "rank,peer,tag,kind,seq,dur"); err != nil {
		return err
	}
	for _, e := range events {
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%s,%d,%g\n", e.Rank, e.Peer, e.Tag, e.Kind, e.Seq, e.Dur); err != nil {
			return err
		}
	}
	return nil
}

// Plot renders series as a crude ASCII chart: one rune per series, points
// scaled into a width x height grid. Series may have different lengths;
// x is the sample index scaled to the longest series.
func Plot(w io.Writer, names []string, series [][]float64, width, height int) error {
	if width < 8 {
		width = 8
	}
	if height < 4 {
		height = 4
	}
	marks := []rune{'*', '+', 'o', 'x', '#', '@'}
	maxLen, lo, hi := 0, math.Inf(1), math.Inf(-1)
	for _, s := range series {
		if len(s) > maxLen {
			maxLen = len(s)
		}
		for _, v := range s {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	if maxLen == 0 {
		_, err := fmt.Fprintln(w, "(empty plot)")
		return err
	}
	if hi == lo {
		hi = lo + 1
	}
	grid := make([][]rune, height)
	for r := range grid {
		grid[r] = []rune(strings.Repeat(" ", width))
	}
	for si, s := range series {
		mark := marks[si%len(marks)]
		for i, v := range s {
			x := 0
			if maxLen > 1 {
				x = i * (width - 1) / (maxLen - 1)
			}
			y := int((v - lo) / (hi - lo) * float64(height-1))
			row := height - 1 - y
			grid[row][x] = mark
		}
	}
	if _, err := fmt.Fprintf(w, "%12.4g ┐\n", hi); err != nil {
		return err
	}
	for _, row := range grid {
		if _, err := fmt.Fprintf(w, "             │%s\n", string(row)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%12.4g ┘%s\n", lo, strings.Repeat("─", width)); err != nil {
		return err
	}
	for si, name := range names {
		if _, err := fmt.Fprintf(w, "  %c %s\n", marks[si%len(marks)], name); err != nil {
			return err
		}
	}
	return nil
}
