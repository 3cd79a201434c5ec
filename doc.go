// Package repro is a from-scratch Go reproduction of "Robustness against
// Release/Acquire Semantics" (Lahav & Margalit, PLDI 2019): a sound and
// precise checker for execution-graph robustness of concurrent programs
// against the C/C++11 release/acquire memory model, via the paper's
// reduction to reachability under an instrumented sequentially consistent
// memory.
//
// See README.md for an overview, DESIGN.md for the system inventory and
// substitution notes, and EXPERIMENTS.md for the paper-versus-measured
// record. The public entry points live under internal/ (this is a
// self-contained research artifact): internal/core is the verifier,
// internal/litmus the benchmark corpus, and the runnable tool is
// cmd/rocker (verify, the -models matrix, and the vet, golint, fig7,
// sweep, repair, simulate and emit subcommands).
package repro
