// Package rmp is a complete Go implementation of the system described
// in Markatos & Dramitinos, "Implementation of a Reliable Remote
// Memory Pager" (USENIX Technical Conference, 1996): paging to the
// idle main memory of remote workstations, made reliable against
// single-machine crashes by mirroring, basic parity, the paper's
// novel parity-logging scheme, and a write-through baseline.
//
// The module root holds the evaluation harness (bench_test.go and
// integration_test.go); the system lives in the internal packages:
//
//   - internal/wire, internal/server, internal/client: the live TCP
//     system — protocol, memory-donor daemon, and the pager with all
//     five reliability policies, crash recovery and migration;
//   - internal/parity, internal/rs: the log-structured stripe engine's
//     bookkeeping and its parity codec — parity logging is its shape
//     (S,1), RS(k,m) erasure coding its shape (k,m);
//   - internal/vm, internal/blockdev, internal/disk: the demand-paged
//     address space, the block-device boundary, and the local swap;
//   - internal/apps: the paper's six benchmark applications;
//   - internal/sim, internal/simnet, internal/cluster, internal/model:
//     the calibrated 1996-testbed models behind the figures;
//   - internal/experiments: one harness per published table/figure;
//   - internal/trace: trace recording and replay.
//
// Commands: cmd/rmemd (server daemon), cmd/rmpctl (operator tool),
// cmd/rmpapp (run a workload over a live cluster), cmd/rmptrace
// (offline trace pipeline), cmd/rmpbench (regenerate the paper's
// evaluation). See README.md, DESIGN.md, EXPERIMENTS.md, PROTOCOL.md.
package rmp
