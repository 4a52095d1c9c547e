//go:build race

package mpi_test

// raceEnabled reports that the race detector instruments this build;
// its bookkeeping allocates, so allocation budgets are looser under it.
const raceEnabled = true
