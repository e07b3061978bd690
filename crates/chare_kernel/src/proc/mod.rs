//! Multi-process backend: one OS process per PE over real sockets.
//!
//! The third machine backend. Where [`run_sim`](crate::program::Program::run_sim)
//! models a multicomputer and [`run_threads`](crate::program::Program::run_threads)
//! shares one address space, `run_procs` gives every PE its own OS
//! process and its own memory — the strictest realization of the
//! paper's nonshared-memory model this repository has. Messages really
//! serialize (via the [`wire`](crate::wire) codecs), really cross a
//! kernel boundary (Unix-domain sockets by default, TCP behind the same
//! transport enum), and really arrive out of order when the loopback
//! loss shim says so.
//!
//! ## Process model
//!
//! A parent launcher ([`run_parent`], reached through
//! [`Program::run_procs`](crate::program::Program::run_procs)) re-invokes
//! the *current executable* once per PE with the `CK_PE_RANK` environment
//! contract. Each worker's `main` (or test body) must call
//! [`maybe_worker`] before anything else: in the parent it is a no-op,
//! in a worker it builds the program from the `CK_SPEC` string, runs the
//! per-PE scheduler loop to completion and exits the process — it never
//! returns. The env contract:
//!
//! | variable        | meaning                                            |
//! |-----------------|----------------------------------------------------|
//! | `CK_PE_RANK`    | this process is worker PE *n*                      |
//! | `CK_SPEC`       | opaque program spec, passed back to the builder    |
//! | `CK_PROC_ADDR`  | parent control socket (`uds:<path>` / `tcp:<addr>`)|
//! | `CK_PROC_OPTS`  | machine shape + run overrides (see [`ProcOpts`])   |
//! | `CK_PROC_CRASH` | fault-injection hook for teardown tests            |
//!
//! ## Handshake and teardown
//!
//! Over the control socket each worker sends `Hello{rank, fingerprint,
//! data_addr}`; the parent verifies the wire-table fingerprint (a codec
//! mismatch between parent and worker binaries fails fast instead of
//! corrupting memory), replies `Go{peer addrs}`, and the workers wire a
//! full data mesh (worker *i* connects to every *j < i*). After `Ready`
//! from all, the parent broadcasts `Start`. A worker whose node calls
//! `CkExit` reports `Stopped{result}`; the parent broadcasts `Halt`,
//! collects a `Final{stats, metrics, trace}` from every worker, merges
//! the per-PE metric shards through the exact shard-merge path, and
//! reaps the children. A worker that dies instead of reporting —
//! nonzero exit (its own [`EXIT_BAD_FRAME`] on a corrupt data frame
//! included), killed, or socket closed — surfaces as a structured
//! [`ProcAbortReason`] in [`CkReport::proc`](crate::program::CkReport),
//! never as a hang (the parent watchdog backstops everything).
//!
//! ## What crosses the wire
//!
//! The data mesh reuses the kernel's sequence-numbered reliable-delivery
//! envelopes as its wire format: when the program runs with
//! [`ReliableConfig`](crate::reliable::ReliableConfig), every remote
//! message travels as the same `RelData`/`RelAck` frames the simulator's
//! fault experiments use, now encoded to bytes. Small messages to one
//! destination coalesce into single writes ([`ProcConfig::batch_bytes`]
//! / [`ProcConfig::batch_frames`]; a buffer below both is written out
//! before its PE blocks and at the latest every 16 scheduling steps),
//! and the deterministic
//! [`LossConfig`] shim can drop or reorder frames per directed link so
//! retransmit, send-window and seed-redirect logic run against real —
//! but seeded, hence reproducible — socket faults.

mod launcher;
mod shim;
mod transport;
mod worker;

pub use launcher::run_parent;
pub use shim::{loss_schedule, LossAction, LossConfig};
pub use transport::ProcTransport;
pub use worker::maybe_worker;

use std::time::Duration;

use multicomputer::Topology;

use crate::metrics::MetricsConfig;
use crate::reliable::ReliableConfig;
use crate::trace::TraceConfig;

/// Environment variable naming a worker's PE rank (the contract's
/// presence test: set ⇒ this process is a worker).
pub const ENV_RANK: &str = "CK_PE_RANK";
/// Environment variable carrying the opaque program spec.
pub const ENV_SPEC: &str = "CK_SPEC";
/// Environment variable carrying the parent control-socket address.
pub const ENV_ADDR: &str = "CK_PROC_ADDR";
/// Environment variable carrying serialized [`ProcOpts`].
pub const ENV_OPTS: &str = "CK_PROC_OPTS";
/// Environment variable carrying the crash-injection hook
/// (`<rank>:exit:<code>:<after>`, `<rank>:close:<after>` or
/// `<rank>:badlen:<len>:<after>`).
pub const ENV_CRASH: &str = "CK_PROC_CRASH";

/// Exit code of a worker whose control socket closed under it: the
/// parent is gone or has given up on the run.
pub const EXIT_CTL_LOST: i32 = 3;
/// Exit code of a worker that read a data-mesh frame whose length
/// prefix is below the 12-byte frame header or above the 256 MiB frame
/// cap: the byte stream from that peer can no longer be cut into
/// frames, so the worker stops at once and the parent reports
/// [`ProcAbortReason::WorkerExit`] with this code.
pub const EXIT_BAD_FRAME: i32 = 4;

/// Configuration of the multi-process machine.
#[derive(Clone, Debug)]
pub struct ProcConfig {
    /// Number of PEs (worker processes).
    pub npes: usize,
    /// Opaque program spec handed to every worker's builder closure via
    /// `CK_SPEC`. The closure passed to [`maybe_worker`] must build the
    /// same program from it that the parent is running (the wire-table
    /// fingerprint handshake catches codec-level divergence).
    pub spec: String,
    /// Arguments for the re-invoked binary. Plain binaries can keep the
    /// default marker; a `cargo test` integration test must pass its own
    /// test name plus `--exact` so the re-invoked libtest harness reaches
    /// the same test body (whose first line calls [`maybe_worker`]).
    pub worker_args: Vec<String>,
    /// Logical topology for load-balancing neighborhoods. The physical
    /// socket mesh is always fully connected (the kernel addresses any
    /// PE directly); topology only shapes which PEs exchange load
    /// reports, exactly as on the other backends.
    pub topology: Topology,
    /// Socket flavor for control and data connections.
    pub transport: ProcTransport,
    /// Abort the run after this much wall time if the program has not
    /// stopped itself.
    pub watchdog: Duration,
    /// Flush a destination's coalescing buffer once it holds this many
    /// bytes. Below the thresholds a buffer is written out before its
    /// PE blocks for lack of work, after an alarm handler, and at the
    /// latest every 16 scheduling steps — so a lone message leaves
    /// before its sender sleeps, and waits at most 16 steps of a busy
    /// one.
    pub batch_bytes: usize,
    /// Flush a destination's coalescing buffer once it holds this many
    /// frames.
    pub batch_frames: usize,
    /// Deterministic loopback loss/reorder shim on every data link.
    /// Requires the program to run reliable delivery
    /// ([`ProgramBuilder::reliable`](crate::program::ProgramBuilder::reliable));
    /// [`run_parent`] panics otherwise, because dropped frames would
    /// simply vanish.
    pub loss: Option<LossConfig>,
    /// Teardown-test hook, passed verbatim as `CK_PROC_CRASH`:
    /// `<rank>:exit:<code>:<after>` makes worker `<rank>` exit with
    /// `<code>` after `<after>` user steps; `<rank>:close:<after>` makes
    /// it close all its sockets and hang instead;
    /// `<rank>:badlen:<len>:<after>` makes it write `<len>` as a bare
    /// length prefix to every peer and keep running. Production runs
    /// leave this `None`.
    pub crash: Option<String>,
}

impl ProcConfig {
    /// `npes` worker processes over Unix-domain sockets with a 60-second
    /// watchdog and 16 KiB / 64-frame batching.
    pub fn new(npes: usize, spec: impl Into<String>) -> Self {
        assert!(npes > 0, "machine needs at least one PE");
        ProcConfig {
            npes,
            spec: spec.into(),
            worker_args: vec!["__ck-proc-worker".to_string()],
            topology: Topology::Hypercube,
            transport: ProcTransport::Uds,
            watchdog: Duration::from_secs(60),
            batch_bytes: 16 * 1024,
            batch_frames: 64,
            loss: None,
            crash: None,
        }
    }

    /// A config whose workers re-enter the named `cargo test` test: the
    /// re-invoked libtest harness runs exactly that test, whose body
    /// must call [`maybe_worker`] first.
    pub fn for_test(npes: usize, spec: impl Into<String>, test_name: &str) -> Self {
        let mut cfg = Self::new(npes, spec);
        cfg.worker_args = vec![
            test_name.to_string(),
            "--exact".to_string(),
            "--test-threads=1".to_string(),
        ];
        cfg
    }

    /// Override the logical topology.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Override the socket flavor.
    pub fn with_transport(mut self, transport: ProcTransport) -> Self {
        self.transport = transport;
        self
    }

    /// Override the watchdog deadline.
    pub fn with_watchdog(mut self, watchdog: Duration) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Override the batching thresholds.
    pub fn with_batching(mut self, bytes: usize, frames: usize) -> Self {
        self.batch_bytes = bytes.max(1);
        self.batch_frames = frames.max(1);
        self
    }

    /// Inject deterministic loss/reordering on every data link.
    pub fn with_loss(mut self, loss: LossConfig) -> Self {
        self.loss = Some(loss);
        self
    }

    /// Install the crash-injection hook (teardown tests only).
    pub fn with_crash(mut self, crash: impl Into<String>) -> Self {
        self.crash = Some(crash.into());
        self
    }
}

/// Why a multi-process run was cut short.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProcAbortReason {
    /// A worker process could not be spawned at all.
    SpawnFailed { rank: u32, error: String },
    /// A worker's wire-table fingerprint disagreed with the parent's —
    /// the two binaries would not agree on message encodings.
    FingerprintMismatch { rank: u32 },
    /// A worker exited (code, or `None` when killed by a signal) before
    /// reporting its final stats.
    WorkerExit { rank: u32, code: Option<i32> },
    /// A worker's control socket closed before it reported — the
    /// process hung up (or was lost) mid-run.
    WorkerDisconnect { rank: u32 },
    /// The parent watchdog fired before the program stopped.
    Watchdog,
    /// A worker violated the control protocol (malformed or unexpected
    /// message).
    Protocol { rank: u32, error: String },
}

impl std::fmt::Display for ProcAbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcAbortReason::SpawnFailed { rank, error } => {
                write!(f, "worker {rank} failed to spawn: {error}")
            }
            ProcAbortReason::FingerprintMismatch { rank } => {
                write!(f, "worker {rank} wire-table fingerprint mismatch")
            }
            ProcAbortReason::WorkerExit { rank, code: Some(c) } => {
                write!(f, "worker {rank} exited with code {c} mid-run")
            }
            ProcAbortReason::WorkerExit { rank, code: None } => {
                write!(f, "worker {rank} was killed by a signal mid-run")
            }
            ProcAbortReason::WorkerDisconnect { rank } => {
                write!(f, "worker {rank} closed its control socket mid-run")
            }
            ProcAbortReason::Watchdog => write!(f, "watchdog fired before the program stopped"),
            ProcAbortReason::Protocol { rank, error } => {
                write!(f, "worker {rank} protocol violation: {error}")
            }
        }
    }
}

/// Multi-process-backend detail attached to the run report.
#[derive(Clone, Debug)]
pub struct ProcDetail {
    /// Number of worker processes.
    pub npes: usize,
    /// Socket flavor the run used.
    pub transport: ProcTransport,
    /// Set when the run was cut short; `None` means a clean stop with
    /// every worker reporting.
    pub aborted: Option<ProcAbortReason>,
    /// Per-rank worker-local end times in nanoseconds (0 for workers
    /// that never reported).
    pub worker_end_ns: Vec<u64>,
}

/// Machine shape and run overrides serialized into `CK_PROC_OPTS`.
///
/// Everything a worker needs beyond the program spec: the machine size
/// and topology, batching thresholds, the loss shim, and the run-level
/// program knobs (`rng_seed`, reliable/tracing/metrics configs) the
/// parent's `Program` carries — shipping those guarantees a
/// `with_reliable`/`with_tracing`/`with_metrics` applied on the parent
/// side takes effect in every worker without the spec-builder knowing.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct ProcOpts {
    pub npes: usize,
    pub topology: Topology,
    pub batch_bytes: usize,
    pub batch_frames: usize,
    pub loss: Option<LossConfig>,
    pub rng_seed: u64,
    pub reliable: Option<ReliableConfig>,
    pub tracing: Option<TraceConfig>,
    pub metrics: Option<MetricsConfig>,
}

fn topology_to_str(t: &Topology) -> String {
    match t {
        Topology::Hypercube => "hypercube".to_string(),
        Topology::Ring => "ring".to_string(),
        Topology::FullyConnected => "full".to_string(),
        Topology::Bus => "bus".to_string(),
        Topology::Mesh2D { rows, cols } => format!("mesh:{rows}x{cols}"),
    }
}

fn topology_from_str(s: &str) -> Option<Topology> {
    match s {
        "hypercube" => Some(Topology::Hypercube),
        "ring" => Some(Topology::Ring),
        "full" => Some(Topology::FullyConnected),
        "bus" => Some(Topology::Bus),
        _ => {
            let dims = s.strip_prefix("mesh:")?;
            let (r, c) = dims.split_once('x')?;
            Some(Topology::Mesh2D {
                rows: r.parse().ok()?,
                cols: c.parse().ok()?,
            })
        }
    }
}

impl ProcOpts {
    pub(crate) fn serialize(&self) -> String {
        let mut s = format!(
            "npes={};topo={};bb={};bf={};seed={}",
            self.npes,
            topology_to_str(&self.topology),
            self.batch_bytes,
            self.batch_frames,
            self.rng_seed,
        );
        if let Some(l) = &self.loss {
            s.push_str(&format!(
                ";loss={},{},{}",
                l.seed, l.drop_permille, l.reorder_permille
            ));
        }
        if let Some(r) = &self.reliable {
            s.push_str(&format!(
                ";rel={},{},{}",
                r.timeout.as_nanos(),
                r.seed_retry_limit,
                r.window
            ));
        }
        if let Some(t) = &self.tracing {
            s.push_str(&format!(
                ";trace={},{}",
                t.capacity,
                if t.queue_samples { 1 } else { 0 }
            ));
        }
        if let Some(m) = &self.metrics {
            s.push_str(&format!(
                ";metrics={},{},{}",
                m.slice_ns, m.max_slices, m.flight_cap
            ));
        }
        s
    }

    pub(crate) fn parse(s: &str) -> Option<ProcOpts> {
        let mut opts = ProcOpts {
            npes: 0,
            topology: Topology::Hypercube,
            batch_bytes: 16 * 1024,
            batch_frames: 64,
            loss: None,
            rng_seed: 0,
            reliable: None,
            tracing: None,
            metrics: None,
        };
        for field in s.split(';') {
            let (key, val) = field.split_once('=')?;
            match key {
                "npes" => opts.npes = val.parse().ok()?,
                "topo" => opts.topology = topology_from_str(val)?,
                "bb" => opts.batch_bytes = val.parse().ok()?,
                "bf" => opts.batch_frames = val.parse().ok()?,
                "seed" => opts.rng_seed = val.parse().ok()?,
                "loss" => {
                    let mut it = val.splitn(3, ',');
                    opts.loss = Some(LossConfig {
                        seed: it.next()?.parse().ok()?,
                        drop_permille: it.next()?.parse().ok()?,
                        reorder_permille: it.next()?.parse().ok()?,
                    });
                }
                "rel" => {
                    let mut it = val.splitn(3, ',');
                    opts.reliable = Some(ReliableConfig {
                        timeout: multicomputer::Cost::nanos(it.next()?.parse().ok()?),
                        seed_retry_limit: it.next()?.parse().ok()?,
                        window: it.next()?.parse().ok()?,
                    });
                }
                "trace" => {
                    let mut it = val.splitn(2, ',');
                    opts.tracing = Some(TraceConfig {
                        capacity: it.next()?.parse().ok()?,
                        queue_samples: it.next()? == "1",
                    });
                }
                "metrics" => {
                    let mut it = val.splitn(3, ',');
                    opts.metrics = Some(MetricsConfig {
                        slice_ns: it.next()?.parse().ok()?,
                        max_slices: it.next()?.parse().ok()?,
                        flight_cap: it.next()?.parse().ok()?,
                    });
                }
                _ => return None,
            }
        }
        if opts.npes == 0 {
            return None;
        }
        Some(opts)
    }
}

/// The transport flavor an address string uses.
pub(crate) fn transport_of(addr: &str) -> ProcTransport {
    if addr.starts_with("uds:") {
        ProcTransport::Uds
    } else {
        ProcTransport::Tcp
    }
}

/// Parsed `CK_PROC_CRASH` hook.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CrashMode {
    /// `process::exit(code)`.
    Exit(i32),
    /// Shut every socket down and hang (the parent must detect the
    /// disconnect, not an exit status).
    Close,
    /// Write this value as a length prefix, with no body, on every data
    /// link and keep running (the *receivers* must reject it).
    BadLen(u32),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct CrashHook {
    pub rank: u32,
    pub mode: CrashMode,
    /// Trigger after this many user scheduling steps.
    pub after: u64,
}

impl CrashHook {
    pub(crate) fn parse(s: &str) -> Option<CrashHook> {
        let mut it = s.split(':');
        let rank = it.next()?.parse().ok()?;
        let mode = it.next()?;
        match mode {
            "exit" => Some(CrashHook {
                rank,
                mode: CrashMode::Exit(it.next()?.parse().ok()?),
                after: it.next()?.parse().ok()?,
            }),
            "close" => Some(CrashHook {
                rank,
                mode: CrashMode::Close,
                after: it.next()?.parse().ok()?,
            }),
            "badlen" => Some(CrashHook {
                rank,
                mode: CrashMode::BadLen(it.next()?.parse().ok()?),
                after: it.next()?.parse().ok()?,
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multicomputer::Cost;

    #[test]
    fn opts_roundtrip_minimal() {
        let opts = ProcOpts {
            npes: 4,
            topology: Topology::Hypercube,
            batch_bytes: 16 * 1024,
            batch_frames: 64,
            loss: None,
            rng_seed: 0x5EED_CAFE,
            reliable: None,
            tracing: None,
            metrics: None,
        };
        assert_eq!(ProcOpts::parse(&opts.serialize()), Some(opts));
    }

    #[test]
    fn opts_roundtrip_everything() {
        let opts = ProcOpts {
            npes: 8,
            topology: Topology::Mesh2D { rows: 2, cols: 4 },
            batch_bytes: 1,
            batch_frames: 1,
            loss: Some(LossConfig {
                seed: 42,
                drop_permille: 100,
                reorder_permille: 50,
            }),
            rng_seed: 7,
            reliable: Some(ReliableConfig {
                timeout: Cost::millis(3),
                seed_retry_limit: 30,
                window: 16,
            }),
            tracing: Some(TraceConfig {
                capacity: 1 << 12,
                queue_samples: false,
            }),
            metrics: Some(MetricsConfig {
                slice_ns: 1 << 14,
                max_slices: 128,
                flight_cap: 32,
            }),
        };
        assert_eq!(ProcOpts::parse(&opts.serialize()), Some(opts));
    }

    #[test]
    fn topology_strings_roundtrip() {
        for t in [
            Topology::Hypercube,
            Topology::Ring,
            Topology::FullyConnected,
            Topology::Bus,
            Topology::Mesh2D { rows: 3, cols: 5 },
        ] {
            assert_eq!(topology_from_str(&topology_to_str(&t)), Some(t));
        }
    }

    #[test]
    fn malformed_opts_rejected() {
        assert_eq!(ProcOpts::parse(""), None);
        assert_eq!(ProcOpts::parse("npes=0"), None);
        assert_eq!(ProcOpts::parse("npes=4;bogus=1"), None);
        assert_eq!(ProcOpts::parse("npes=4;topo=donut"), None);
    }

    #[test]
    fn crash_hook_parses() {
        assert_eq!(
            CrashHook::parse("2:exit:7:5"),
            Some(CrashHook {
                rank: 2,
                mode: CrashMode::Exit(7),
                after: 5
            })
        );
        assert_eq!(
            CrashHook::parse("1:close:3"),
            Some(CrashHook {
                rank: 1,
                mode: CrashMode::Close,
                after: 3
            })
        );
        assert_eq!(
            CrashHook::parse("0:badlen:4294967295:2"),
            Some(CrashHook {
                rank: 0,
                mode: CrashMode::BadLen(u32::MAX),
                after: 2
            })
        );
        assert_eq!(CrashHook::parse("1:burn:3"), None);
        assert_eq!(CrashHook::parse(""), None);
    }

    #[test]
    fn abort_reasons_display() {
        let cases = [
            ProcAbortReason::SpawnFailed {
                rank: 0,
                error: "no exe".into(),
            },
            ProcAbortReason::FingerprintMismatch { rank: 1 },
            ProcAbortReason::WorkerExit {
                rank: 2,
                code: Some(7),
            },
            ProcAbortReason::WorkerExit { rank: 2, code: None },
            ProcAbortReason::WorkerDisconnect { rank: 3 },
            ProcAbortReason::Watchdog,
            ProcAbortReason::Protocol {
                rank: 4,
                error: "bad frame".into(),
            },
        ];
        for c in cases {
            assert!(!format!("{c}").is_empty());
        }
    }
}
