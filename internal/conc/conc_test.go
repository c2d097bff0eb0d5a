package conc

import (
	"math"
	"testing"
)

func TestComputeEmptyInput(t *testing.T) {
	s := Compute(nil)
	if s.C != 0 || s.NFactor != 0 {
		t.Errorf("empty input gave %+v", s)
	}
}

func TestComputeUniformStart(t *testing.T) {
	// No empty cells anywhere: C0/C = 0 and n = 0 (origin of Fig. 9).
	pes := []PE{{Cells: 9, Empty: 0}, {Cells: 9, Empty: 0}}
	s := Compute(pes)
	if s.C != 18 || s.C0 != 0 {
		t.Errorf("census wrong: %+v", s)
	}
	if s.C0OverC != 0 || s.NFactor != 0 {
		t.Errorf("uniform start: %+v", s)
	}
}

func TestComputePaperExample(t *testing.T) {
	// Fig. 8's worked example: N=90, C=81, C0=36, C'=21, C0'=16 in a single
	// maximum domain; n = (16/21)/(36/81) ~ 1.7.
	// Model it as: one PE holds the maximum domain (21 cells, 16 empty),
	// the rest hold 60 cells with 20 empty.
	pes := []PE{
		{Cells: 21, Empty: 16},
		{Cells: 20, Empty: 7},
		{Cells: 20, Empty: 7},
		{Cells: 20, Empty: 6},
	}
	s := Compute(pes)
	if s.C != 81 || s.C0 != 36 {
		t.Fatalf("census wrong: %+v", s)
	}
	if math.Abs(s.C0OverC-36.0/81) > 1e-12 {
		t.Errorf("C0/C = %v", s.C0OverC)
	}
	// PE 0 has both max cells and max empty, so n = (16/21)/(36/81).
	want := (16.0 / 21.0) / (36.0 / 81.0)
	if math.Abs(s.NFactor-want) > 1e-12 {
		t.Errorf("n = %v, want %v (~1.7)", s.NFactor, want)
	}
	if s.NFactor < 1.6 || s.NFactor > 1.8 {
		t.Errorf("n = %v outside the paper's ~1.7", s.NFactor)
	}
}

func TestComputeTwoEstimatorPEs(t *testing.T) {
	// Max-cells PE differs from max-empty PE; n must use their average.
	pes := []PE{
		{Cells: 21, Empty: 5}, // max cells
		{Cells: 10, Empty: 9}, // max empty
		{Cells: 20, Empty: 2},
	}
	s := Compute(pes)
	if s.MaxCellsPE != 0 || s.MaxEmptyPE != 1 {
		t.Fatalf("estimators = %d, %d", s.MaxCellsPE, s.MaxEmptyPE)
	}
	c0c := float64(16) / 51
	want := ((5.0/21 + 9.0/10) / 2) / c0c
	if math.Abs(s.NFactor-want) > 1e-12 {
		t.Errorf("n = %v, want %v", s.NFactor, want)
	}
}

func TestComputeTiesGoToFirstPE(t *testing.T) {
	// 2 PEs of 4 cells; PE 1 entirely empty.
	s := Compute([]PE{{Cells: 4, Empty: 0}, {Cells: 4, Empty: 4}})
	if s.C != 8 || s.C0 != 4 {
		t.Fatalf("census: %+v", s)
	}
	if s.C0OverC != 0.5 {
		t.Errorf("C0/C = %v", s.C0OverC)
	}
	// Max cells ties at 4 (first wins: PE 0, ratio 0); max empty is PE 1
	// (ratio 1). n = ((0+1)/2)/0.5 = 1.
	if s.NFactor != 1 {
		t.Errorf("n = %v, want 1", s.NFactor)
	}
}

func TestNFactorAtLeastZero(t *testing.T) {
	pes := []PE{{Cells: 4, Empty: 1}, {Cells: 4, Empty: 2}}
	s := Compute(pes)
	if s.NFactor < 0 {
		t.Errorf("n = %v < 0", s.NFactor)
	}
}
