// Package units holds the paper's run conditions in the reduced
// Lennard-Jones unit system the simulations use: length in sigma, energy in
// epsilon, mass in particle mass, k_B = 1. Temperature is in epsilon/k_B,
// time in sigma*sqrt(m/epsilon), density in sigma^-3.
package units

// Paper run conditions (Section 3.2).
const (
	// PaperTref is the reduced reference temperature (below Argon's boiling
	// point, i.e. a supercooled gas).
	PaperTref = 0.722
	// PaperDensity is the headline reduced density of the Fig. 5/6 runs.
	PaperDensity = 0.256
	// PaperCutoff is the reduced cut-off distance used for the LJ potential.
	PaperCutoff = 2.5
	// PaperTimeStep is the reduced integration time step (the paper states
	// dt = 10^-4 in its time-step description).
	PaperTimeStep = 1e-4
	// PaperRescaleInterval is how often (in steps) the temperature is scaled
	// back to Tref.
	PaperRescaleInterval = 50
)
