// Package potential implements the interaction models used by the
// simulators: the truncated Lennard-Jones pair potential of the paper (plain
// and energy-shifted) and external one-body fields (a central harmonic well
// used to drive particle concentration quickly in the accelerated
// experiments).
package potential

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"permcell/internal/vec"
)

// Pair is a short-range pair potential. Implementations are pure functions
// of the squared separation and safe for concurrent use.
type Pair interface {
	// Cutoff returns the interaction cut-off distance r_c.
	Cutoff() float64
	// EnergyForce returns the pair energy e and the force factor f for a
	// squared separation r2 (0 < r2 <= Cutoff^2). The force on particle i is
	// f * (r_i - r_j); the force on j is the negative.
	EnergyForce(r2 float64) (e, f float64)
}

// LJ is the (4*eps)*((sig/r)^12 - (sig/r)^6) Lennard-Jones potential
// truncated at Cut. If Shift is true the energy is shifted so that it is
// continuous (zero) at the cut-off; forces are identical either way.
type LJ struct {
	Eps, Sigma, Cut float64
	Shift           bool
	shiftE          float64
}

// NewLJ returns a truncated Lennard-Jones potential. eps, sigma and cut must
// be positive; cut is in the same units as sigma.
func NewLJ(eps, sigma, cut float64, shift bool) (*LJ, error) {
	if eps <= 0 || sigma <= 0 || cut <= 0 {
		return nil, fmt.Errorf("potential: LJ parameters must be positive (eps=%g sigma=%g cut=%g)", eps, sigma, cut)
	}
	lj := &LJ{Eps: eps, Sigma: sigma, Cut: cut, Shift: shift}
	if shift {
		e, _ := lj.raw(cut * cut)
		lj.shiftE = e
	}
	return lj, nil
}

// NewPaperLJ returns the paper's reduced-unit potential: eps = sigma = 1,
// cut-off 2.5, unshifted (the classical Verlet/Heermann setup).
func NewPaperLJ() *LJ {
	lj, err := NewLJ(1, 1, 2.5, false)
	if err != nil {
		panic(err) // unreachable: constants are valid
	}
	return lj
}

// Cutoff implements Pair.
func (lj *LJ) Cutoff() float64 { return lj.Cut }

func (lj *LJ) raw(r2 float64) (e, f float64) {
	sr2 := lj.Sigma * lj.Sigma / r2
	sr6 := sr2 * sr2 * sr2
	sr12 := sr6 * sr6
	e = 4 * lj.Eps * (sr12 - sr6)
	f = 24 * lj.Eps * (2*sr12 - sr6) / r2
	return e, f
}

// EnergyForce implements Pair.
func (lj *LJ) EnergyForce(r2 float64) (e, f float64) {
	e, f = lj.raw(r2)
	return e - lj.shiftE, f
}

// Coefficients returns the four numbers EnergyForce is built from, each
// rounded by raw's own expression: sig2 = Sigma*Sigma, eps4 = 4*Eps,
// eps24 = 24*Eps and the energy shift. With sr2 = sig2/r2,
// sr6 = (sr2*sr2)*sr2 and sr12 = sr6*sr6, EnergyForce is exactly
// e = eps4*(sr12-sr6) - shiftE and f = (eps24*(2*sr12-sr6))/r2, so a
// vectorised evaluation from these reproduces its bits.
func (lj *LJ) Coefficients() (sig2, eps4, eps24, shiftE float64) {
	return lj.Sigma * lj.Sigma, 4 * lj.Eps, 24 * lj.Eps, lj.shiftE
}

// External is a one-body field. Implementations must be safe for concurrent
// use.
type External interface {
	// EnergyForce returns the field energy and force for a particle at p.
	EnergyForce(p vec.V) (e float64, f vec.V)
}

// HarmonicWell attracts particles toward Center with spring constant K:
// V(p) = K/2 * |p - Center|^2. Displacement is measured with the minimum
// image convention in a periodic box with edges L, so the well is well
// defined under periodic boundary conditions.
//
// The well is the accelerated-concentration driver described in DESIGN.md:
// it produces the monotone growth of particle concentration that the
// supercooled gas develops over many more steps, exercising the identical
// DLB code path.
type HarmonicWell struct {
	Center vec.V
	K      float64
	L      vec.V
}

// EnergyForce implements External.
func (h HarmonicWell) EnergyForce(p vec.V) (float64, vec.V) {
	d := p.Sub(h.Center).MinImage(h.L)
	return 0.5 * h.K * d.Norm2(), d.Scale(-h.K)
}

// MultiWell attracts each particle toward its nearest center (minimum-image
// metric): V(p) = K/2 * d_min(p)^2. A handful of wells scattered through the
// box drives the dispersed droplet condensation a supercooled LJ gas
// develops over many thousands of steps — the workload shape the paper's
// DLB evaluation runs on — in a few hundred steps.
//
// A MultiWell made by NewMultiWell does not scan every well for every
// particle. Its first EnergyForce builds a table over a uniform grid of
// 16^3 bins covering the box, once, shared by every copy of the value (all
// the rank goroutines of an engine). Each bin keeps, in ascending index
// order, the wells that can be nearest to some point of it: a well is
// dropped only when its minimum-image distance to the bin, padded by a
// relative 1e-9 of the bin width, exceeds by a relative margin of 1e-9 the
// smallest largest distance from any well to the bin. A dropped well is
// then farther from every point of the bin than some kept one, by at least
// 1e-9 of half a bin width, orders of magnitude above the rounding of the
// distance expression: it can never be the scan's minimum, nor tie with
// it. The kept wells, scanned in index order with the same expression and
// the same strict comparison, give the full scan's argmin (ties to the
// lower index) and the same displacement, so the same energy and force
// bits. A position outside [0, L), a MultiWell written as a literal, and
// well sets the table cannot bound (a center outside [0, L), extreme box
// edges) or would not repay (fewer than four wells) scan every well
// through the same loop.
// Centers and L must not change after NewMultiWell.
type MultiWell struct {
	Centers []vec.V
	K       float64
	L       vec.V
	near    *nearTable
}

// NewMultiWell returns the multi-well field with its nearest-well table,
// which is built on the first EnergyForce, not here.
func NewMultiWell(centers []vec.V, k float64, l vec.V) MultiWell {
	return MultiWell{Centers: centers, K: k, L: l, near: &nearTable{centers: centers, l: l}}
}

// EnergyForce implements External.
func (m MultiWell) EnergyForce(p vec.V) (float64, vec.V) {
	cs := m.Centers
	if m.near != nil {
		cs = m.near.candidates(p)
	}
	if len(cs) == 0 {
		return 0, vec.Zero
	}
	best := p.Sub(cs[0]).MinImage(m.L)
	bestN2 := best.Norm2()
	for _, c := range cs[1:] {
		d := p.Sub(c).MinImage(m.L)
		if n2 := d.Norm2(); n2 < bestN2 {
			best, bestN2 = d, n2
		}
	}
	return 0.5 * m.K * bestN2, best.Scale(-m.K)
}

const (
	// wellBins is the nearest-well table's bin count along each axis: at
	// 12 wells a 16^3 table leaves about 2.4 candidates per bin. A power of
	// two: the build halves the box down to it.
	wellBins = 16
	// nearMargin pads each bin and separates a dropped well from the
	// nearest one, both relative; see MultiWell.
	nearMargin = 1e-9
)

// nearTable is MultiWell's nearest-well candidate table over the centers
// and box it was made with: bin b (x fastest) has candidates
// cs[start[b]:start[b+1]].
type nearTable struct {
	once    sync.Once
	centers []vec.V
	l       vec.V
	inv     vec.V // bins per unit length along each axis
	start   []int32
	cs      []vec.V
}

// candidates returns the centers that can be nearest to p: p's bin's list,
// or all of them when p is outside [0, l) (NaN included) or no table could
// be built. The first call builds the table.
func (t *nearTable) candidates(p vec.V) []vec.V {
	t.once.Do(t.build)
	if t.start == nil || !inBox(p, t.l) {
		return t.centers
	}
	ix := min(int(p.X*t.inv.X), wellBins-1)
	iy := min(int(p.Y*t.inv.Y), wellBins-1)
	iz := min(int(p.Z*t.inv.Z), wellBins-1)
	b := ix + wellBins*(iy+wellBins*iz)
	return t.cs[t.start[b]:t.start[b+1]]
}

// inBox reports whether p lies in [0, l) on every axis (false for NaN).
func inBox(p, l vec.V) bool {
	return p.X >= 0 && p.X < l.X && p.Y >= 0 && p.Y < l.Y && p.Z >= 0 && p.Z < l.Z
}

// build fills the table by halving: starting from the whole box with every
// well, each level splits every block in eight and keeps, for each half,
// the wells of its parent's list that can be nearest somewhere in it, down
// to wellBins blocks per axis. A half's padded extent lies in its parent's,
// so a well dropped for a block is dropped for every bin in it.
//
// No table is built for fewer than four wells, where it does not repay
// its build (0.1-0.25 ms, paid before the first step) within a short run:
// per particle, a bin lookup saves nothing at two wells (24.5 vs 24.4 ns),
// 1-7 ns of ~37 at three and 10-16 ns of ~47 at four (three random well
// sets each, on a 2-core 2.1 GHz Xeon VM). Nor is one built unless every
// center lies in [0, l), where the minimum-image expression is accurate to
// a few ulps of l, and the box edges lie in [1e-100, 1e100], where no
// squared distance the margin relies on underflows or overflows.
func (t *nearTable) build() {
	centers, l := t.centers, t.l
	for _, e := range [3]float64{l.X, l.Y, l.Z} {
		if !(e >= 1e-100 && e <= 1e100) {
			return
		}
	}
	if len(centers) < 4 || slices.ContainsFunc(centers, func(c vec.V) bool { return !inBox(c, l) }) {
		return
	}
	nw := len(centers)
	ids := make([]int32, nw)
	for j := range ids {
		ids[j] = int32(j)
	}
	start := []int32{0, int32(nw)}
	b := newBounds(nw)
	loYZ, hiYZ := make([]float64, nw), make([]float64, nw)
	for n := 2; n <= wellBins; n *= 2 {
		b.fill(centers, l, n)
		// A block keeps at most its parent's wells.
		kept, next := make([]int32, 0, 8*len(ids)), make([]int32, 1, n*n*n+1)
		for z := range n {
			for y := range n {
				loY, loZ := b.lo[1][y*nw:(y+1)*nw], b.lo[2][z*nw:(z+1)*nw]
				hiY, hiZ := b.hi[1][y*nw:(y+1)*nw], b.hi[2][z*nw:(z+1)*nw]
				for j := range nw {
					loYZ[j], hiYZ[j] = loY[j]+loZ[j], hiY[j]+hiZ[j]
				}
				row := n / 2 * (y/2 + n/2*(z/2))
				for x := range n {
					p := row + x/2
					kept = keep(kept, ids[start[p]:start[p+1]],
						b.lo[0][x*nw:(x+1)*nw], b.hi[0][x*nw:(x+1)*nw], loYZ, hiYZ)
					next = append(next, int32(len(kept)))
				}
			}
		}
		ids, start = kept, next
	}
	cs := make([]vec.V, len(ids))
	for i, j := range ids {
		cs[i] = centers[j]
	}
	t.inv, t.start, t.cs = vec.New(wellBins/l.X, wellBins/l.Y, wellBins/l.Z), start, cs
}

// bounds holds, for a grid of n blocks per axis, the squared lower and
// upper bounds of the distance between each center and each block along
// each axis: lo[a][i*nw+j] and hi[a][i*nw+j] for center j and block i of
// axis a. Along one axis the distance to a center is a tent function of
// the position, so with f the minimum-image distance from the block's
// middle and h its padded half-width it lies in [max(0, f-h), min(l/2,
// f+h)] over the block; the squared bounds summed over the axes bound the
// squared distance from the center to the block.
type bounds struct {
	nw     int
	lo, hi [3][]float64
}

// newBounds returns bounds for nw centers with room for wellBins blocks
// per axis, which every level of the build refills.
func newBounds(nw int) bounds {
	b := bounds{nw: nw}
	m := wellBins * nw
	flat := make([]float64, 6*m)
	for a := range 3 {
		b.lo[a], b.hi[a] = flat[2*a*m:(2*a+1)*m], flat[(2*a+1)*m:(2*a+2)*m]
	}
	return b
}

// fill sets the bounds for a grid of n blocks per axis.
func (b *bounds) fill(centers []vec.V, l vec.V, n int) {
	nw := b.nw
	w := l.Scale(1 / float64(n))
	h := w.Scale(0.5 * (1 + nearMargin))
	for i := range n {
		mid := w.Scale(float64(i) + 0.5)
		for j, c := range centers {
			d := mid.Sub(c).MinImage(l)
			for a, f := range [3][3]float64{{d.X, h.X, l.X}, {d.Y, h.Y, l.Y}, {d.Z, h.Z, l.Z}} {
				dist, half, edge := math.Abs(f[0]), f[1], f[2]
				lo, hi := max(0, dist-half), min(edge/2, dist+half)
				b.lo[a][i*nw+j] = lo * lo
				b.hi[a][i*nw+j] = hi * hi
			}
		}
	}
}

// keep appends to dst the wells of cand that can be nearest somewhere in
// one block, given the block's bounds along x and their sums along y and
// z: those whose lower bound does not exceed, by the margin, the smallest
// upper bound among cand. dst has room for all of cand.
func keep(dst, cand []int32, loX, hiX, loYZ, hiYZ []float64) []int32 {
	const slack = (1 + nearMargin) * (1 + nearMargin)
	hiMin := math.Inf(1)
	for _, j := range cand {
		hiMin = min(hiMin, hiX[j]+hiYZ[j])
	}
	cut := hiMin * slack
	// Written without a branch on the test, which about half the wells
	// pass.
	n := len(dst)
	dst = dst[:n+len(cand)]
	for _, j := range cand {
		dst[n] = j
		if loX[j]+loYZ[j] <= cut {
			n++
		}
	}
	return dst[:n]
}

// NoField is the zero external field.
type NoField struct{}

// EnergyForce implements External.
func (NoField) EnergyForce(vec.V) (float64, vec.V) { return 0, vec.Zero }
