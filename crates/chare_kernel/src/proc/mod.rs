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
//!
//! ## Handshake and teardown
//!
//! Over the control socket, in the [`Wire`](crate::wire::Wire) codec
//! like everything else that crosses a socket, each worker sends
//! `Hello{rank, fingerprint, data_addr}`; the parent verifies the
//! wire-table fingerprint (a codec mismatch between parent and worker
//! binaries fails fast instead of corrupting memory) and replies
//! `Go{peer addrs, opts}` — `ProcOpts`: the machine shape, batching
//! thresholds, loss shim and crash hook of the [`ProcConfig`], and the
//! parent `Program`'s [`RunOpts`] whole, which the worker installs over
//! what its own `CK_SPEC` build chose (the parent's win, the spec's `q=`
//! and `bal=` included) before it builds its node. Every rank is sent
//! the same `Go`, framed once. The workers wire a full
//! data mesh (worker *i* connects to every *j < i*); after `Ready` from
//! all, the parent broadcasts `Start{epoch_ns}`, the one clock origin
//! every worker's PE counts from. A worker whose node calls
//! `CkExit` reports `Stopped{result}`; the parent broadcasts `Halt`, collects a
//! `Final{end_ns, shard}` from every worker, reaps the children, hands
//! the shards to the merge the other backends' runs end in, and joins
//! its control readers. A worker that dies instead of reporting —
//! nonzero exit (its own [`EXIT_BAD_FRAME`] on a corrupt data frame
//! included), killed, or socket closed — or that sends a control
//! message that does not decode surfaces as a structured
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
//! / [`ProcConfig::batch_frames`], by the flush rule both real backends
//! share, [`multicomputer::real`]), and the deterministic
//! [`LossConfig`] shim can drop or reorder frames per directed link so
//! retransmit, send-window and seed-redirect logic run against real —
//! but seeded, hence reproducible — socket faults.

mod launcher;
mod shim;
pub(crate) mod transport;
mod worker;

pub use launcher::run_parent;
pub use shim::{loss_schedule, LossAction, LossConfig};
pub use transport::ProcTransport;
pub use worker::maybe_worker;

use std::time::Duration;

use multicomputer::Topology;

use crate::program::RunOpts;

/// Environment variable naming a worker's PE rank (the contract's
/// presence test: set ⇒ this process is a worker).
pub const ENV_RANK: &str = "CK_PE_RANK";
/// Environment variable carrying the opaque program spec.
pub const ENV_SPEC: &str = "CK_SPEC";
/// Environment variable carrying the parent control-socket address.
pub const ENV_ADDR: &str = "CK_PROC_ADDR";

/// Handshake I/O deadline on both sides (also bounds teardown waits).
pub(crate) const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(30);

/// Exit code of a worker whose control socket closed under it: the
/// parent is gone or has given up on the run.
pub const EXIT_CTL_LOST: i32 = 3;
/// Exit code of a worker that read a data-mesh frame whose length
/// prefix is below the 12-byte frame header or above the 256 MiB frame
/// cap, or whose body is not an encoded envelope: the byte stream from
/// that peer can no longer be trusted, so the worker stops at once and
/// the parent reports [`ProcAbortReason::WorkerExit`] with this code.
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
    /// encoded bytes. When a buffer below the thresholds leaves is the
    /// rule of [`multicomputer::real`]; the worker also flushes after an
    /// alarm handler.
    pub batch_bytes: usize,
    /// Flush a destination's coalescing buffer once it holds this many
    /// frames ([`BATCH_PACKETS`](multicomputer::BATCH_PACKETS) by default).
    pub batch_frames: usize,
    /// Deterministic loopback loss/reorder shim on every data link.
    /// Requires the program to run reliable delivery
    /// ([`ProgramBuilder::reliable`](crate::program::ProgramBuilder::reliable));
    /// [`run_parent`] panics otherwise, because dropped frames would
    /// simply vanish.
    pub loss: Option<LossConfig>,
    /// Teardown-test hook ([`ProcConfig::with_crash`] has the grammar):
    /// one worker, after a number of user steps, exits, hangs up, or
    /// writes its peers or the parent something malformed and keeps
    /// running. Rides `Go` like every other option. Production runs
    /// leave this `None`.
    pub crash: Option<CrashHook>,
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
            batch_frames: multicomputer::BATCH_PACKETS,
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

    /// Install the crash-injection hook (teardown tests only):
    /// `<rank>:<mode>:<after>`, where the mode is `exit:<code>`, `close`,
    /// `badlen:<len>`, `badctl`, `badbody` or `nest:<depth>` (see
    /// [`CrashMode`]) and `<after>` counts the rank's user steps. Panics
    /// on anything else: a hook that does not parse would never fire,
    /// and the test that set it would pass without testing anything.
    pub fn with_crash(mut self, crash: &str) -> Self {
        let hook = CrashHook::parse(crash);
        self.crash = Some(hook.unwrap_or_else(|| panic!("{crash:?} is not a crash hook")));
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

/// What `Go` carries to every worker beyond the program spec: the
/// machine shape (size and topology), the batching thresholds, the loss
/// shim, the crash hook (which names the one rank it is for), and the
/// parent `Program`'s [`RunOpts`], whole. The worker
/// installs them over whatever its `CK_SPEC` build chose — the parent
/// wins — so any run option set on the parent side, the strategies
/// included, takes effect in every worker without the spec-builder
/// knowing.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct ProcOpts {
    pub npes: usize,
    pub topology: Topology,
    pub batch_bytes: usize,
    pub batch_frames: usize,
    pub loss: Option<LossConfig>,
    pub crash: Option<CrashHook>,
    pub run: RunOpts,
}

crate::wire_struct!(ProcOpts { npes, topology, batch_bytes, batch_frames, loss, crash, run });
crate::wire_struct!(LossConfig { seed, drop_permille, reorder_permille });
crate::wire_struct!(CrashHook { rank, mode, after });
crate::wire_enum!(CrashMode { Exit(code), Close, BadLen(len), BadCtl, BadBody, Nest(depth) });

/// The transport flavor an address string uses.
pub(crate) fn transport_of(addr: &str) -> ProcTransport {
    if addr.starts_with("uds:") {
        ProcTransport::Uds
    } else {
        ProcTransport::Tcp
    }
}

/// What a [`CrashHook`] makes its worker do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashMode {
    /// `process::exit(code)`.
    Exit(i32),
    /// Shut every socket down and hang (the parent must detect the
    /// disconnect, not an exit status).
    Close,
    /// Write this value as a length prefix, with no body, on every data
    /// link and keep running (the *receivers* must reject it).
    BadLen(u32),
    /// Send the parent a well-framed control message that is a `Final`
    /// tag and three bytes, and keep running.
    BadCtl,
    /// Write every peer a data frame with a valid header and a body that
    /// is no envelope, and keep running.
    BadBody,
    /// Write every peer a well-formed data frame of this many `RelData`
    /// envelopes one inside the other, and keep running (the receivers
    /// must refuse it, not recurse to the bottom of it).
    Nest(u32),
}

/// The teardown-test hook of a [`ProcConfig`]: one worker misbehaves
/// once, mid-run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashHook {
    /// The worker it is for.
    pub rank: u32,
    /// What that worker does.
    pub mode: CrashMode,
    /// Trigger after this many user scheduling steps.
    pub after: u64,
}

impl CrashHook {
    /// The hook `s` spells in [`ProcConfig::with_crash`]'s grammar.
    fn parse(s: &str) -> Option<CrashHook> {
        let mut it = s.split(':');
        let rank = it.next()?.parse().ok()?;
        let mode = match it.next()? {
            "exit" => CrashMode::Exit(it.next()?.parse().ok()?),
            "close" => CrashMode::Close,
            "badlen" => CrashMode::BadLen(it.next()?.parse().ok()?),
            "badctl" => CrashMode::BadCtl,
            "badbody" => CrashMode::BadBody,
            "nest" => CrashMode::Nest(it.next()?.parse().ok()?),
            _ => return None,
        };
        let after = it.next()?.parse().ok()?;
        it.next().is_none().then_some(CrashHook { rank, mode, after })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first-column names of the first table after `heading`.
    fn table_names<'a>(text: &'a str, heading: &str) -> Vec<&'a str> {
        let from = text.find(heading).unwrap_or_else(|| panic!("no {heading:?}"));
        text[from..]
            .lines()
            .map(|l| l.trim_start_matches("//! "))
            .skip_while(|l| !l.starts_with('|'))
            .take_while(|l| l.starts_with('|'))
            .filter_map(|l| l.strip_prefix("| `")?.split('`').next())
            .collect()
    }

    #[test]
    fn env_contract_tables_list_exactly_the_env_constants() {
        let source = include_str!("mod.rs");
        let consts: Vec<&str> = source
            .lines()
            .filter(|l| l.starts_with("pub const ENV_"))
            .map(|l| l.split('"').nth(1).expect("a string constant"))
            .collect();
        assert_eq!(consts, [ENV_RANK, ENV_SPEC, ENV_ADDR]);
        let process_md = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/PROCESS.md");
        let process_md = std::fs::read_to_string(process_md).expect("docs/PROCESS.md");
        assert_eq!(table_names(&process_md, "rank env contract"), consts, "docs/PROCESS.md");
        assert_eq!(table_names(source, "The env contract:"), consts, "proc/mod.rs module doc");
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
        assert_eq!(
            CrashHook::parse("2:badctl:4"),
            Some(CrashHook {
                rank: 2,
                mode: CrashMode::BadCtl,
                after: 4
            })
        );
        assert_eq!(
            CrashHook::parse("3:badbody:1"),
            Some(CrashHook {
                rank: 3,
                mode: CrashMode::BadBody,
                after: 1
            })
        );
        assert_eq!(
            CrashHook::parse("0:nest:100000:3"),
            Some(CrashHook {
                rank: 0,
                mode: CrashMode::Nest(100_000),
                after: 3
            })
        );
        assert_eq!(CrashHook::parse("1:burn:3"), None);
        assert_eq!(CrashHook::parse("1:exit:3"), None, "exit needs a code and a count");
        assert_eq!(CrashHook::parse("1:close:3:9"), None, "nothing may follow the count");
        assert_eq!(CrashHook::parse(""), None);
    }

    #[test]
    #[should_panic(expected = "\"1:exti:7:50\" is not a crash hook")]
    fn a_misspelt_crash_hook_panics_in_the_parent() {
        let _ = ProcConfig::new(2, "").with_crash("1:exti:7:50");
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
