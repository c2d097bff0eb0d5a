package kernel

// The map-based topology construction SetHosted used to be, retained in
// test code as the oracle for the single map-free walk: a Neighbors26 that
// deduplicates through a map, a ghost pass and a stencil pass that each walk
// every hosted cell's neighborhood (the stencil pass through a second seen
// map), and a min-image round term stored as a vector per stencil entry,
// beside the mark of the count-only entries (ghost cells below the hosted
// one).
// The production walk must reproduce every list it builds element for
// element, and every round term bit for bit.

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"permcell/internal/rng"
	"permcell/internal/space"
	"permcell/internal/vec"
)

// neighbors26Map is the map-deduplicated space.Grid.Neighbors26.
func neighbors26Map(g space.Grid, idx int, dst []int) []int {
	ix, iy, iz := g.Coords(idx)
	seen := map[int]bool{idx: true}
	for dz := -1; dz <= 1; dz++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 && dz == 0 {
					continue
				}
				n := g.CellOfCoords(ix+dx, iy+dy, iz+dz)
				if !seen[n] {
					seen[n] = true
					dst = append(dst, n)
				}
			}
		}
	}
	return dst
}

// wrapTermMap is the round term the map-based walk computed per entry.
func wrapTermMap(u, n int, l float64) float64 {
	switch {
	case u < 0:
		return -l
	case u >= n:
		return l
	}
	return 0
}

// topologyMap is what the map-based SetHosted left in a CellLists.
type topologyMap struct {
	cells      []int
	ghostCells []int
	stencil    []int32 // >= 0: hosted slot; < 0: -1-ghostSlot
	stShift    []vec.V
	stCount    []bool // count-only: a ghost cell below the hosted one, its host's pair
	stStart    []int32
	shardSlot  []int32
	shardStart []int32
}

func setHostedMap(g space.Grid, shards int, hostedCells []int) topologyMap {
	var tp topologyMap
	slotOf := make([]int32, g.NumCells())
	for i := range slotOf {
		slotOf[i] = -1
	}
	tp.cells = append(tp.cells, hostedCells...)
	slices.Sort(tp.cells)
	for s, c := range tp.cells {
		slotOf[c] = int32(s)
	}

	var nbBuf []int
	for _, c := range tp.cells {
		nbBuf = neighbors26Map(g, c, nbBuf[:0])
		for _, nc := range nbBuf {
			if slotOf[nc] == -1 {
				slotOf[nc] = -2
				tp.ghostCells = append(tp.ghostCells, nc)
			}
		}
	}
	slices.Sort(tp.ghostCells)
	for gs, c := range tp.ghostCells {
		slotOf[c] = -2 - int32(gs)
	}

	tp.stStart = append(tp.stStart, 0)
	seen := make(map[int]bool, 27)
	for _, c := range tp.cells {
		ix, iy, iz := g.Coords(c)
		clear(seen)
		seen[c] = true
		for dz := -1; dz <= 1; dz++ {
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if dx == 0 && dy == 0 && dz == 0 {
						continue
					}
					nc := g.CellOfCoords(ix+dx, iy+dy, iz+dz)
					if seen[nc] {
						continue
					}
					seen[nc] = true
					v := slotOf[nc]
					if v >= 0 && nc <= c {
						continue
					}
					if v < 0 {
						v = -1 - (-2 - v)
					}
					tp.stencil = append(tp.stencil, v)
					tp.stCount = append(tp.stCount, v < 0 && nc < c)
					tp.stShift = append(tp.stShift, vec.V{
						X: wrapTermMap(ix+dx, g.Nx, g.Box.L.X),
						Y: wrapTermMap(iy+dy, g.Ny, g.Box.L.Y),
						Z: wrapTermMap(iz+dz, g.Nz, g.Box.L.Z),
					})
				}
			}
		}
		tp.stStart = append(tp.stStart, int32(len(tp.stencil)))
	}

	shardOf := make([]int32, len(tp.cells))
	if shards > 1 {
		var uniq []int
		for _, c := range tp.cells {
			uniq = append(uniq, g.ColumnOf(c))
		}
		slices.Sort(uniq)
		uniq = slices.Compact(uniq)
		for i, c := range tp.cells {
			rank, _ := slices.BinarySearch(uniq, g.ColumnOf(c))
			shardOf[i] = int32(rank % shards)
		}
	}
	tp.shardStart = make([]int32, shards+1)
	for _, sh := range shardOf {
		tp.shardStart[sh+1]++
	}
	for sh := 0; sh < shards; sh++ {
		tp.shardStart[sh+1] += tp.shardStart[sh]
	}
	tp.shardSlot = make([]int32, len(tp.cells))
	fill := make([]int32, shards)
	copy(fill, tp.shardStart[:shards])
	for slot, sh := range shardOf {
		tp.shardSlot[fill[sh]] = int32(slot)
		fill[sh]++
	}
	return tp
}

// sameBits reports whether a and b are the same three doubles, the sign of
// zero included.
func sameBits(a, b vec.V) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.Z) == math.Float64bits(b.Z)
}

// diffTopology compares what SetHosted left in cl with the oracle's lists
// and returns the first difference, or "" when there is none.
func diffTopology(cl *CellLists, want topologyMap) string {
	switch {
	case !slices.Equal(cl.HostedCells(), want.cells):
		return fmt.Sprintf("hosted cells %v, oracle %v", cl.HostedCells(), want.cells)
	case !slices.Equal(cl.GhostCells(), want.ghostCells):
		return fmt.Sprintf("ghost cells %v, oracle %v", cl.GhostCells(), want.ghostCells)
	case !slices.Equal(cl.stStart, want.stStart):
		return fmt.Sprintf("stencil offsets %v, oracle %v", cl.stStart, want.stStart)
	case !slices.Equal(cl.stencil, want.stencil):
		return fmt.Sprintf("stencil entries %v, oracle %v", cl.stencil, want.stencil)
	case !slices.Equal(cl.shardStart, want.shardStart):
		return fmt.Sprintf("shard offsets %v, oracle %v", cl.shardStart, want.shardStart)
	case !slices.Equal(cl.shardSlot, want.shardSlot):
		return fmt.Sprintf("shard slots %v, oracle %v", cl.shardSlot, want.shardSlot)
	case len(cl.stCode) != len(want.stShift):
		return fmt.Sprintf("%d shift codes, oracle has %d shifts", len(cl.stCode), len(want.stShift))
	}
	for k, code := range cl.stCode {
		if want.stCount[k] || code == countOnly {
			if !want.stCount[k] || code != countOnly {
				return fmt.Sprintf("stencil entry %d: code %d, oracle count-only = %v", k, code, want.stCount[k])
			}
			continue // never searched: no round term
		}
		if got := cl.shift[code]; !sameBits(got, want.stShift[k]) {
			return fmt.Sprintf("stencil entry %d: shift code %d decodes to %v, oracle %v", k, code, got, want.stShift[k])
		}
	}
	for s := range want.cells {
		var ghosts []int32
		for _, e := range want.stencil[want.stStart[s]:want.stStart[s+1]] {
			if e < 0 {
				ghosts = append(ghosts, -1-e)
			}
		}
		if got := cl.SlotGhosts(s, nil); !slices.Equal(got, ghosts) {
			return fmt.Sprintf("slot %d borders ghost slots %v, oracle %v", s, got, ghosts)
		}
	}
	return ""
}

func gridOf(t testing.TB, nx, ny, nz int) space.Grid {
	t.Helper()
	const rc = 2.5
	box, err := space.NewBox(vec.New(float64(nx)*rc, float64(ny)*rc, float64(nz)*rc))
	if err != nil {
		t.Fatal(err)
	}
	g, err := space.NewGridWithDims(box, nx, ny, nz)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSetHostedMatchesMapOracle holds the single walk to the map-based
// construction over random hosted sets, each CellLists rebuilt several times
// so that what one topology leaves behind (slot marks, ghost marks, buffer
// lengths) cannot leak into the next, at shard counts 1 and 3.
func TestSetHostedMatchesMapOracle(t *testing.T) {
	dims := [][3]int{{1, 1, 1}, {2, 2, 2}, {2, 3, 4}, {3, 3, 3}, {4, 4, 4}, {6, 6, 6}}
	r := rng.New(20240918)
	for _, d := range dims {
		g := gridOf(t, d[0], d[1], d[2])
		for _, shards := range []int{1, 3} {
			cl := NewCellLists(g, shards)
			for trial := 0; trial < 12; trial++ {
				// Hosted fraction sweeps from sparse to everything; the
				// last trial hosts every cell (no ghosts at all).
				var cells []int
				for c := 0; c < g.NumCells(); c++ {
					if trial == 11 || r.Intn(12) <= trial {
						cells = append(cells, c)
					}
				}
				// SetHosted sorts: hand it the cells out of order.
				for i := len(cells) - 1; i > 0; i-- {
					j := r.Intn(i + 1)
					cells[i], cells[j] = cells[j], cells[i]
				}
				cl.SetHosted(cells)
				if d := diffTopology(cl, setHostedMap(g, shards, cells)); d != "" {
					t.Fatalf("%dx%dx%d shards=%d trial %d (%d hosted): %s",
						g.Nx, g.Ny, g.Nz, shards, trial, len(cells), d)
				}
			}
			cl.Close()
		}
	}
}

// TestSetHostedAllHosted24 is the serial engine's case at the 50k preset:
// every cell of the 24^3 grid hosted, which is also where the walk's cost
// shows (BenchmarkKernelSetHosted/50k).
func TestSetHostedAllHosted24(t *testing.T) {
	g := gridOf(t, 24, 24, 24)
	cells := make([]int, g.NumCells())
	for c := range cells {
		cells[c] = c
	}
	for _, shards := range []int{1, 2} {
		cl := NewCellLists(g, shards)
		cl.SetHosted(cells)
		if d := diffTopology(cl, setHostedMap(g, shards, cells)); d != "" {
			t.Fatalf("shards=%d: %s", shards, d)
		}
		if n := len(cl.stencil); n != 13*len(cells) {
			t.Errorf("shards=%d: %d stencil entries, want 13 per cell", shards, n)
		}
		cl.Close()
	}
}
