// Package pseudocircuit is a from-scratch Go reproduction of
// "Pseudo-Circuit: Accelerating Communication for On-Chip Interconnection
// Networks" (Minseon Ahn and Eun Jung Kim, MICRO 2010).
//
// The public API lives in pseudocircuit/noc. The command-line tools are
// cmd/nocsim (single simulation), cmd/sweep (regenerate every figure and
// table of the paper's evaluation) and cmd/nocd (the simulation service
// daemon). This package holds no code: it carries the tests that span
// packages. determinism_test.go holds the run-to-run and naive-versus-active
// kernel checks, arch_test.go the structural rules, benchmod_test.go the
// vet and tests of the benchmark module (bench/), and bench_test.go the
// simulator micro-benchmarks.
//
// See README.md for an overview and its Architecture tree for the system
// inventory, DESIGN.md for the design and EXPERIMENTS.md for the
// paper-versus-measured record.
package pseudocircuit
