package runspec

import (
	"math"
	"testing"

	"permcell/internal/balance"
	"permcell/internal/checkpoint"
	"permcell/internal/decomp"
)

// TestBalancerDecodesEveryHeaderEra covers the three ways a header names its
// strategy: the encoded spec, "none"/"" for plain DDM, and the legacy
// DLB flag + Hysteresis pair of checkpoints predating the Balancer field.
func TestBalancerDecodesEveryHeaderEra(t *testing.T) {
	cases := []struct {
		meta checkpoint.Meta
		want string
	}{
		{checkpoint.Meta{Spec: checkpoint.Spec{Balancer: "sfc(h=0.05,moves=3)"}, DLB: true}, "sfc(h=0.05,moves=3)"},
		{checkpoint.Meta{Spec: checkpoint.Spec{Balancer: "none"}}, "none"},
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
	if _, err := Balancer(&checkpoint.Meta{Spec: checkpoint.Spec{Balancer: "roundrobin"}}); err == nil {
		t.Error("unknown balancer decoded")
	}
}

// TestCoordinatesRejected pins the coordinate guards every engine path
// shares: the builder refuses what Spec.Validate refuses, and a spec of
// one kind builds no engine of another.
func TestCoordinatesRejected(t *testing.T) {
	for _, spec := range []checkpoint.Spec{
		{Kind: checkpoint.KindDLB, M: 2, P: 5, Rho: 0.256},
		{Kind: checkpoint.KindDLB, M: 1, P: 4, Rho: 0.256},
		{Kind: checkpoint.KindStatic, NC: 0, P: 4, Rho: 0.256},
		{Kind: checkpoint.KindStatic, NC: 4, P: 4, Rho: 0.256, Shape: 99},
		{Kind: checkpoint.KindStatic, NC: 5, P: 4, Rho: 0.256, Shape: decomp.Plane},
		{Kind: checkpoint.KindSerial, NC: 4, P: 4, Rho: 0.256},
		{Kind: checkpoint.KindDLB, M: 2, P: 4, Rho: 0},
		{Kind: "quantum", NC: 4, P: 4, Rho: 0.256},
	} {
		if _, _, err := Parallel(&checkpoint.Meta{Spec: spec}, nil); err == nil {
			t.Errorf("Parallel accepted %+v", spec)
		}
	}
	for _, spec := range []checkpoint.Spec{
		{Kind: checkpoint.KindSerial, NC: 0, Rho: 0.3},
		{Kind: checkpoint.KindSerial, NC: 2, Rho: 0.001}, // N rounds to 0
	} {
		if _, _, err := Serial(&checkpoint.Meta{Spec: spec}, nil); err == nil {
			t.Errorf("Serial accepted %+v", spec)
		}
	}
	for _, dt := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.005} {
		meta := checkpoint.Meta{Spec: checkpoint.Spec{Kind: checkpoint.KindDLB, M: 2, P: 4, Rho: 0.256, Dt: dt}}
		if _, _, err := Parallel(&meta, nil); err == nil {
			t.Errorf("Parallel accepted dt=%g", dt)
		}
	}
	meta := checkpoint.Meta{Spec: checkpoint.Spec{Kind: checkpoint.KindDLB, M: 2, P: 4, Rho: 0.256}}
	if cfg, _, err := Parallel(&meta, nil); err != nil || cfg.Dt != checkpoint.DefaultDt {
		t.Errorf("dt=0 built dt=%g, %v; want the default", cfg.Dt, err)
	}
	if sz := (checkpoint.Spec{Kind: checkpoint.KindDLB, M: 3, P: 16}).Size(); sz.NC != 12 {
		t.Errorf("m=3 P=16: nc=%d, want 12", sz.NC)
	}
	if sz := (checkpoint.Spec{Kind: checkpoint.KindSerial, NC: 4, Rho: 0.256}).Size(); sz.N != 256 || sz.C != 64 {
		t.Errorf("nc=4 rho=0.256: %+v", sz)
	}
}
