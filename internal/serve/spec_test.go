package serve

import "testing"

// TestParticlesMatchesEngine pins the admission proxy to the builder: for
// every engine kind, the N a spec is admitted under is the N its engine
// actually holds — including a density where rounding decides the count.
func TestParticlesMatchesEngine(t *testing.T) {
	for _, spec := range []RunSpec{
		{Kind: KindParallel, M: 2, P: 4, Rho: 0.256, Steps: 1},
		{Kind: KindParallel, M: 3, P: 4, Rho: 0.3017, Steps: 1},
		{Kind: KindStatic, Shape: "plane", NC: 4, P: 4, Rho: 0.256, Steps: 1},
		{Kind: KindStatic, Shape: "cube", NC: 4, P: 8, Rho: 0.199, Steps: 1},
		{Kind: KindSerial, NC: 3, Rho: 0.3, Steps: 1},
		{Kind: KindSerial, NC: 5, Rho: 0.2503, Steps: 1},
	} {
		if err := spec.Validate(); err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		eng, err := spec.build(nil)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		res, err := eng.Result()
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		if got, want := spec.Particles(), len(res.Final.ID); got != want || want == 0 {
			t.Errorf("%s m=%d nc=%d rho=%g: Particles() = %d, engine holds %d",
				spec.kind(), spec.M, spec.NC, spec.Rho, got, want)
		}
	}
	bad := RunSpec{Kind: KindParallel, M: 2, P: 5, Rho: 0.256, Steps: 1}
	if bad.Validate() == nil || bad.Particles() != 0 {
		t.Errorf("non-square P: Validate() = %v, Particles() = %d", bad.Validate(), bad.Particles())
	}
}
