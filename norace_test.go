//go:build !race

package pseudocircuit_test

// raceBuild is set under -race, whose instrumentation adds allocations.
const raceBuild = false
