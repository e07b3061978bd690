//! # ck_apps — the benchmark suite of the SC '91 evaluation
//!
//! Twelve applications spanning the paper's workload classes, each built
//! on the `chare_kernel` public API, plus hand-coded message-passing
//! baselines:
//!
//! | Module | Workload class | Kernel features exercised |
//! |--------|----------------|---------------------------|
//! | [`fib`] | adaptive tree | dynamic creation, load balancing |
//! | [`nqueens`] | irregular search, count all | accumulators, quiescence |
//! | [`tsp`] | branch & bound | monotonic variables, bitvector priorities |
//! | [`puzzle`] | IDA* search | repeated quiescence phases, int priorities |
//! | [`jacobi`] | regular grid | branch-office chares, ghost exchange |
//! | [`primes`] | embarrassingly parallel | accumulators (control case) |
//! | [`quad`] | adaptive quadrature | data-dependent tree, ACWN |
//! | [`matmul`] | Cannon's matrix multiply | mesh BOC, bulk data |
//! | [`jacobi_conv`] | Jacobi to convergence | reduction-per-iteration barrier |
//! | [`sortbench`] | sample sort | all-to-all communication |
//! | [`mmr`] | Merkle-mountain-range build | distributed table, write-once, bitvector priorities |
//! | [`tablefill`] | pipelined staged table fill | distributed table streaming, `(stage, block)` priorities |
//! | [`baseline`] | — | raw machine layer (kernel-overhead comparison) |
//!
//! Every app exposes one `build(params) -> Program` — its chares, its
//! codecs, its main seed, set to run under the default strategies its
//! `APP` descriptor names (a caller that wants others says so with
//! `Program::with_opts`) — a sequential reference implementation used
//! both for verification and as the speedup denominator, and that `APP`
//! descriptor. The [`registry`] collects the descriptors: it is the one
//! list of benchmarks that the spec parser, the table suite, the desim
//! scenarios and the conformance tests all enumerate.
//!
//! The [`spec`] module maps a textual spec (`"fib:n=18,grain=10"`) to a
//! built program through the registry; the multi-process backend uses
//! it so parent and re-invoked worker processes construct identical
//! programs (see [`spec::worker_hook`]).

pub mod baseline;
pub mod costs;
pub mod hashes;
pub mod jacobi;
pub mod jacobi_conv;
pub mod puzzle;
pub mod quad;
pub mod registry;
pub mod sortbench;
pub mod tsp;
pub mod fib;
pub mod matmul;
pub mod mmr;
pub mod nqueens;
pub mod primes;
pub mod spec;
pub mod tablefill;
