package topology

import (
	"testing"
)

func TestSquareTorus(t *testing.T) {
	for _, p := range []int{16, 36, 64} {
		tor, err := NewSquareTorus(p)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if tor.Size() != p {
			t.Errorf("P=%d: size=%d", p, tor.Size())
		}
	}
	if _, err := NewSquareTorus(12); err == nil {
		t.Error("non-square P accepted")
	}
}

func TestTorus2DRankCoordsRoundTrip(t *testing.T) {
	tor, _ := NewTorus2D(4, 6)
	for r := 0; r < tor.Size(); r++ {
		i, j := tor.Coords(r)
		if tor.Rank(i, j) != r {
			t.Fatalf("round trip failed for rank %d", r)
		}
	}
}

func TestTorus2DWrap(t *testing.T) {
	tor, _ := NewTorus2D(3, 3)
	if tor.Rank(-1, -1) != tor.Rank(2, 2) {
		t.Error("negative wrap broken")
	}
	if tor.Rank(3, 4) != tor.Rank(0, 1) {
		t.Error("positive wrap broken")
	}
}

func TestNeighbors8OffsetOrder(t *testing.T) {
	tor, _ := NewTorus2D(6, 6)
	r := tor.Rank(2, 3)
	nb := tor.Neighbors8(r)
	if len(nb) != 8 {
		t.Fatalf("len = %d", len(nb))
	}
	for k, o := range Offsets8 {
		if nb[k] != tor.Rank(2+o.DI, 3+o.DJ) {
			t.Errorf("neighbor %d (%v) = %d, want %d", k, o, nb[k], tor.Rank(2+o.DI, 3+o.DJ))
		}
	}
}

func TestNeighborSymmetry(t *testing.T) {
	// If b appears among a's 8 neighbors, a must appear among b's.
	tor, _ := NewTorus2D(5, 4)
	for a := 0; a < tor.Size(); a++ {
		for _, b := range tor.UniqueNeighbors(a) {
			found := false
			for _, c := range tor.UniqueNeighbors(b) {
				if c == a {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("asymmetric neighbors: %d -> %d", a, b)
			}
		}
	}
}

func TestUniqueNeighborsLargeTorus(t *testing.T) {
	tor, _ := NewTorus2D(6, 6)
	for r := 0; r < tor.Size(); r++ {
		if got := len(tor.UniqueNeighbors(r)); got != 8 {
			t.Fatalf("rank %d: %d unique neighbors, want 8", r, got)
		}
	}
}

func TestUniqueNeighborsTinyTorus(t *testing.T) {
	tor, _ := NewTorus2D(2, 2)
	// On 2x2, each rank has only 3 distinct neighbors.
	if got := len(tor.UniqueNeighbors(0)); got != 3 {
		t.Errorf("2x2 torus: %d unique neighbors, want 3", got)
	}
}

func TestOffsetSetsPartition(t *testing.T) {
	all := map[Offset]int{}
	for _, o := range Offsets8 {
		all[o]++
	}
	antiDiagonal := []Offset{{-1, 1}, {1, -1}} // Case 2: nothing is exchanged
	for _, set := range [][]Offset{UpLeft, antiDiagonal, DownRight} {
		for _, o := range set {
			all[o]--
		}
	}
	// UpLeft+anti-diagonal+DownRight must cover exactly all 8 offsets once.
	for o, c := range all {
		if c != 0 {
			t.Errorf("offset %v covered %d extra times", o, c)
		}
	}
}

func TestUpLeftDownRightAreOpposites(t *testing.T) {
	for k, o := range UpLeft {
		opp := DownRight[len(DownRight)-1-k]
		if o.DI != -opp.DI || o.DJ != -opp.DJ {
			// Order differs; just check set-wise opposition.
			found := false
			for _, d := range DownRight {
				if d.DI == -o.DI && d.DJ == -o.DJ {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("UpLeft offset %v has no opposite in DownRight", o)
			}
		}
	}
}

func TestTorus3D(t *testing.T) {
	tor, err := NewCubicTorus(27)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 3; k++ {
				r := tor.Rank(i, j, k)
				if r < 0 || r >= tor.Size() || seen[r] {
					t.Fatalf("rank %d of (%d,%d,%d) out of range or repeated", r, i, j, k)
				}
				seen[r] = true
				if tor.Rank(i-3, j+3, k-6) != r {
					t.Fatalf("rank of (%d,%d,%d) does not wrap", i, j, k)
				}
			}
		}
	}
	if _, err := NewCubicTorus(10); err == nil {
		t.Error("non-cube P accepted")
	}
}
