package runspec

import (
	"math"
	"testing"

	"permcell/internal/balance"
	"permcell/internal/checkpoint"
)

// TestBalancerDecodesEveryHeaderEra covers the three ways a header names its
// strategy: the encoded spec, "none"/"" for plain DDM, and the legacy
// DLB flag + Hysteresis pair of checkpoints predating the Balancer field.
func TestBalancerDecodesEveryHeaderEra(t *testing.T) {
	cases := []struct {
		meta checkpoint.Meta
		want string
	}{
		{checkpoint.Meta{Balancer: "sfc(h=0.05,moves=3)", DLB: true}, "sfc(h=0.05,moves=3)"},
		{checkpoint.Meta{Balancer: "none"}, "none"},
		{checkpoint.Meta{}, "none"},
		{checkpoint.Meta{DLB: true, Hysteresis: 0.1}, "permcell(h=0.1,pick=0)"},
	}
	for _, c := range cases {
		b, err := Balancer(&c.meta)
		if err != nil {
			t.Fatalf("%+v: %v", c.meta, err)
		}
		if got := balance.Encode(b); got != c.want {
			t.Errorf("Balancer(%q, DLB=%v) = %s, want %s", c.meta.Balancer, c.meta.DLB, got, c.want)
		}
	}
	if _, err := Balancer(&checkpoint.Meta{Balancer: "roundrobin"}); err == nil {
		t.Error("unknown balancer decoded")
	}
}

// TestCoordinatesRejected pins the coordinate guards every engine path now
// shares.
func TestCoordinatesRejected(t *testing.T) {
	for _, meta := range []checkpoint.Meta{
		{Kind: checkpoint.KindDLB, M: 2, P: 5, Rho: 0.256},
		{Kind: checkpoint.KindDLB, M: 1, P: 4, Rho: 0.256},
		{Kind: checkpoint.KindStatic, NC: 0, P: 4, Rho: 0.256},
		{Kind: checkpoint.KindStatic, NC: 4, P: 4, Rho: 0.256, Shape: 99},
		{Kind: checkpoint.KindSerial, NC: 4, P: 4, Rho: 0.256},
		{Kind: checkpoint.KindDLB, M: 2, P: 4, Rho: 0},
		{Kind: "quantum", NC: 4, P: 4, Rho: 0.256},
	} {
		if _, _, err := Parallel(&meta, nil); err == nil {
			t.Errorf("Parallel accepted %+v", meta)
		}
	}
	if _, _, err := Serial(&checkpoint.Meta{Kind: checkpoint.KindSerial, NC: 0, Rho: 0.3}, nil); err == nil {
		t.Error("Serial accepted nc=0")
	}
	for _, dt := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.005} {
		meta := checkpoint.Meta{Kind: checkpoint.KindDLB, M: 2, P: 4, Rho: 0.256, Dt: dt}
		if _, _, err := Parallel(&meta, nil); err == nil {
			t.Errorf("Parallel accepted dt=%g", dt)
		}
	}
	if dt, err := TimeStep(0); err != nil || dt != DefaultDt {
		t.Errorf("TimeStep(0) = %g, %v; want the default", dt, err)
	}
	if nc, err := Side(3, 16); err != nil || nc != 12 {
		t.Errorf("Side(3, 16) = %d, %v", nc, err)
	}
	if in := Sizes(4, 0.256); in.N != 256 || in.C != 64 || in.Box != 10 {
		t.Errorf("Sizes(4, 0.256) = %+v", in)
	}
}
