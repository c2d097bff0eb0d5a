package units

import "testing"

func TestPaperTemperatureIsSupercooled(t *testing.T) {
	// Tref = 0.722 must be below Argon's boiling point (~87.3 K); Argon's
	// epsilon/k_B is 119.8 K (Heermann).
	k := PaperTref * 119.8
	if k >= 87.3 {
		t.Errorf("Tref in Kelvin = %v, expected below Argon boiling point", k)
	}
	if k < 80 {
		t.Errorf("Tref in Kelvin = %v, implausibly low for 0.722*119.8", k)
	}
}

func TestPaperConstants(t *testing.T) {
	if PaperCutoff < 2.5 || PaperCutoff > 3.5 {
		t.Error("cutoff outside the 2.5..3.5 range the paper quotes")
	}
	if PaperRescaleInterval != 50 {
		t.Error("rescale interval must be 50 steps per the paper")
	}
}
