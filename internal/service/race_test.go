//go:build race

package service

// raceBuild is set under -race, whose instrumentation adds allocations.
const raceBuild = true
