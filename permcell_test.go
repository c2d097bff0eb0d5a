package permcell_test

import (
	"context"
	"math"
	"testing"

	"permcell"
)

func TestNewValidatesCoordinates(t *testing.T) {
	eng, err := permcell.New(2, 4, 0.256)
	if err != nil {
		t.Fatalf("valid coordinates rejected: %v", err)
	}
	if _, err := eng.Result(); err != nil {
		t.Fatal(err)
	}
	if _, err := permcell.New(2, 5, 0.256); err == nil {
		t.Error("non-square P accepted")
	}
	if _, err := permcell.New(1, 4, 0.256); err == nil {
		t.Error("m=1 accepted")
	}
}

func TestRunFacade(t *testing.T) {
	res, err := permcell.Run(context.Background(), 2, 4, 0.256, 50,
		permcell.WithDLB(), permcell.WithSeed(1), permcell.WithWells(3, 1.5), permcell.WithHysteresis(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 50 {
		t.Fatalf("stats = %d", len(res.Stats))
	}
	if res.Final.Len() == 0 {
		t.Fatal("no particles in final state")
	}
	if err := res.Final.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBoundFacade(t *testing.T) {
	f, err := permcell.Bound(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-0.3) > 1e-12 { // f(2,2) = 3/(7*2-4)
		t.Errorf("Bound(2,2) = %v, want 0.3", f)
	}
	if _, err := permcell.Bound(1, 2); err == nil {
		t.Error("m=1 accepted")
	}
}

func TestMaxDomainColumnsFacade(t *testing.T) {
	if permcell.MaxDomainColumns(3) != 21 {
		t.Error("C'(3) != 21")
	}
}

func TestPaperConstants(t *testing.T) {
	if permcell.PaperTref != 0.722 || permcell.PaperCutoff != 2.5 {
		t.Error("paper constants wrong")
	}
}
