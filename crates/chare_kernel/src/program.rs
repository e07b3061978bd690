//! Program construction and execution.
//!
//! A [`ProgramBuilder`] registers chare types, branch-office chares and
//! specifically shared variables (mirroring the tables the C kernel's
//! translator emitted) and names the main chare: that is what a program
//! *is*. How it is *run* — the queueing and load-balancing strategies
//! and the six other run-level knobs — is one [`RunOpts`] value beside
//! the registrations. The resulting [`Program`] is immutable and
//! reusable: the same program can be run on the discrete-event simulator
//! at many machine sizes, on the thread and process backends, and under
//! other options ([`Program::with_opts`]), which is exactly how the
//! experiment harness sweeps the paper's parameter spaces.

use std::sync::Arc;
use std::time::Duration;

use multicomputer::{
    imbalance, AbortReason, BacklogSummary, Cost, FaultStats, MachinePreset, NodeFactory, Payload,
    Pe, SimConfig, SimMachine, SimTime, Topology,
};
#[cfg(feature = "threads")]
use multicomputer::{ThreadConfig, ThreadMachine};

use crate::balance::{BalanceStrategy, SeedManager};
use crate::bcast::BroadcastMode;
use crate::boc::BranchInit;
use crate::chare::ChareInit;
use crate::envelope::{MsgBody, SysMsg};
use crate::ids::{Boc, BocId, ChareKind, Kind, RoId};
use crate::metrics::{MetricsConfig, MetricsLog};
use crate::msg::Message;
use crate::node::CkNode;
use crate::probe::{self, Probe};
use crate::queueing::QueueingStrategy;
use crate::registry::{AccEntry, BocEntry, ChareEntry, MainSpec, MonoEntry, Registry, TableEntry};
use crate::reliable::ReliableConfig;
use crate::shared::{Acc, Accum, Mono, MonoVar, ReadOnly, TableRef};
use crate::stats::KernelCounters;
use crate::trace::{TraceConfig, TraceLog};
use crate::transport::Transport;
use crate::wire::WireError;

/// How a program is run, as opposed to what it is: the eight run-level
/// knobs, declared here and nowhere else. A [`ProgramBuilder`] sets them
/// while it registers, [`Program::with_opts`] changes them on a built
/// program, the node factory reads them, and the procs backend ships
/// them whole to every worker — so a knob added here reaches every
/// backend by construction.
#[derive(Clone, Debug, PartialEq)]
pub struct RunOpts {
    /// Scheduler queueing strategy (default FIFO).
    pub queueing: QueueingStrategy,
    /// Dynamic load balancing strategy (default none).
    pub balance: BalanceStrategy,
    /// How kernel broadcasts are distributed (default spanning tree;
    /// `Direct` exists for the ablation experiment).
    pub bcast: BroadcastMode,
    /// Message combining: remote messages produced within one
    /// scheduling step travel as a single batch per destination,
    /// paying the per-message software overhead once. Off by default
    /// (the ablation experiment measures its effect).
    pub combining: bool,
    /// Seed of the kernel's per-PE RNGs (placement randomness). Fixed
    /// by default: runs are deterministic unless reseeded.
    pub rng_seed: u64,
    /// Reliable inter-PE delivery: every remote message travels in a
    /// sequence-numbered frame that is acknowledged, deduplicated and
    /// retransmitted with exponential backoff, and seeds bound for
    /// unresponsive PEs are re-dispatched elsewhere. Needed when the
    /// simulated machine injects faults ([`SimConfig::with_faults`]);
    /// pure overhead (but harmless) on a lossless machine.
    pub reliable: Option<ReliableConfig>,
    /// Kernel event tracing: every node records structured events
    /// (entry begin/end, message send/recv, seed balance decisions,
    /// retransmits, queue samples) into per-PE ring buffers, collected
    /// into [`CkReport::trace`] after the run. Recording is passive —
    /// results and timing are identical with tracing on or off.
    pub tracing: Option<TraceConfig>,
    /// Streaming metrics: every node folds interval time slices,
    /// latency/grain histograms, queue high-watermarks and a flight
    /// recorder online (O(PEs × buckets) memory, independent of run
    /// length), collected into [`CkReport::metrics`] after the run.
    /// Recording is passive — results and timing are identical with
    /// metrics on or off.
    pub metrics: Option<MetricsConfig>,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            queueing: QueueingStrategy::Fifo,
            balance: BalanceStrategy::Local,
            bcast: BroadcastMode::Tree,
            combining: false,
            rng_seed: 0x5EED_CAFE,
            reliable: None,
            tracing: None,
            metrics: None,
        }
    }
}

crate::wire_struct!(RunOpts {
    queueing,
    balance,
    bcast,
    combining,
    rng_seed,
    reliable,
    tracing,
    metrics,
});

/// Builder for a chare-kernel program.
pub struct ProgramBuilder {
    reg: Registry,
    opts: RunOpts,
}

impl Default for ProgramBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ProgramBuilder {
    /// A builder with nothing registered and the default [`RunOpts`]
    /// (FIFO queueing, no load balancing, a fixed RNG seed).
    pub fn new() -> Self {
        ProgramBuilder { reg: Registry::new(), opts: RunOpts::default() }
    }

    /// Register a chare type; the returned [`Kind`] is used with
    /// [`Ctx::create`](crate::ctx::Ctx::create).
    pub fn chare<C: ChareInit>(&mut self) -> Kind<C> {
        let id = ChareKind(self.reg.chares.len() as u32);
        self.reg.chares.push(ChareEntry::of::<C>());
        Kind::new(id)
    }

    /// Register a branch-office chare; one branch is constructed on
    /// every PE at boot from a clone of `cfg`.
    pub fn boc<B: BranchInit>(&mut self, cfg: B::Cfg) -> Boc<B> {
        let id = BocId(self.reg.bocs.len() as u32);
        self.reg.bocs.push(BocEntry::of::<B>(cfg));
        Boc::new(id)
    }

    /// Register a read-only variable, replicated to every PE.
    pub fn read_only<T: Send + Sync + 'static>(&mut self, value: T) -> ReadOnly<T> {
        let id = RoId(self.reg.read_only.len() as u32);
        self.reg.read_only.push(Arc::new(value));
        ReadOnly::new(id)
    }

    /// Register an accumulator variable.
    pub fn accumulator<A: Accum>(&mut self) -> Acc<A> {
        let id = crate::ids::AccId(self.reg.accs.len() as u32);
        self.reg.accs.push(AccEntry::of::<A>());
        Acc::new(id)
    }

    /// Register a monotonic variable.
    pub fn monotonic<M: Mono>(&mut self) -> MonoVar<M> {
        let id = crate::ids::MonoId(self.reg.monos.len() as u32);
        self.reg.monos.push(MonoEntry::of::<M>());
        MonoVar::new(id)
    }

    /// Register a distributed table with values of type `V`.
    pub fn table<V: Clone + Send + 'static>(&mut self) -> TableRef<V> {
        let id = crate::ids::TableId(self.reg.tables.len() as u32);
        self.reg.tables.push(TableEntry::of::<V>());
        TableRef::new(id)
    }

    /// Name the main chare, constructed on PE 0 at boot from `seed`.
    pub fn main<C: ChareInit>(&mut self, kind: Kind<C>, seed: C::Seed)
    where
        C::Seed: Clone + Sync,
    {
        self.reg.main = Some(MainSpec {
            kind: kind.id,
            make_seed: Box::new(move || {
                let s = seed.clone();
                let bytes = s.bytes();
                (MsgBody::new(s), bytes)
            }),
        });
    }

    /// Set [`RunOpts::queueing`].
    pub fn queueing(&mut self, q: QueueingStrategy) -> &mut Self {
        self.opts.queueing = q;
        self
    }

    /// Set [`RunOpts::balance`].
    pub fn balance(&mut self, b: BalanceStrategy) -> &mut Self {
        self.opts.balance = b;
        self
    }

    /// Set [`RunOpts::bcast`].
    pub fn broadcast_mode(&mut self, mode: BroadcastMode) -> &mut Self {
        self.opts.bcast = mode;
        self
    }

    /// Set [`RunOpts::combining`].
    pub fn combining(&mut self, on: bool) -> &mut Self {
        self.opts.combining = on;
        self
    }

    /// Set [`RunOpts::rng_seed`].
    pub fn rng_seed(&mut self, seed: u64) -> &mut Self {
        self.opts.rng_seed = seed;
        self
    }

    /// Set [`RunOpts::reliable`]; a degenerate config panics in
    /// [`build`](Self::build), as in [`Program::with_opts`].
    pub fn reliable(&mut self, cfg: ReliableConfig) -> &mut Self {
        self.opts.reliable = Some(cfg);
        self
    }

    /// Set [`RunOpts::tracing`].
    pub fn tracing(&mut self, cfg: TraceConfig) -> &mut Self {
        self.opts.tracing = Some(cfg);
        self
    }

    /// Set [`RunOpts::metrics`].
    pub fn metrics(&mut self, cfg: MetricsConfig) -> &mut Self {
        self.opts.metrics = Some(cfg);
        self
    }

    /// Register a byte codec for a message-body type that may cross a
    /// process boundary on the [`procs`](Program::run_procs) backend:
    /// chare seeds, entry-method message types, accumulator/monotonic
    /// values, table values, write-once values and `exit` results.
    /// Harmless (a table entry) on the in-process backends. Idempotent;
    /// registration order must match across parent and workers (it does
    /// automatically when both build the program the same way — the
    /// socket handshake verifies a fingerprint of the table).
    pub fn wire<T: crate::wire::Wire + Send + Sync + 'static>(&mut self) -> &mut Self {
        self.reg.wire.register::<T>();
        self
    }

    /// Finalize into an immutable, reusable [`Program`].
    pub fn build(self) -> Program {
        let registered = Program { reg: Arc::new(self.reg), opts: RunOpts::default() };
        registered.with_opts(|o| *o = self.opts)
    }
}

/// An immutable chare-kernel program — its registrations — and the
/// [`RunOpts`] it runs under, runnable on any backend at any machine
/// size.
#[derive(Clone)]
pub struct Program {
    reg: Arc<Registry>,
    opts: RunOpts,
}

impl Program {
    /// How this program is run.
    pub fn opts(&self) -> &RunOpts {
        &self.opts
    }

    /// A copy of this program — the same registrations — run
    /// differently: `change` edits a copy of its [`RunOpts`]. Every way
    /// of setting a run option ends here (the builder's setters through
    /// [`ProgramBuilder::build`], the `with_*` sugar below, a procs
    /// worker installing what its parent shipped), so this is the one
    /// place a [`ReliableConfig`] is checked.
    ///
    /// # Panics
    ///
    /// On a degenerate config ([`ReliableConfig::validate`]): a zero
    /// send window or zero retransmit timeout cannot deliver anything;
    /// failing here beats diagnosing the resulting hang mid-run.
    pub fn with_opts(&self, change: impl FnOnce(&mut RunOpts)) -> Program {
        let mut p = self.clone();
        change(&mut p.opts);
        if let Some(Err(e)) = p.opts.reliable.map(|cfg| cfg.validate()) {
            panic!("{e}");
        }
        p
    }

    /// [`with_opts`](Self::with_opts) setting [`RunOpts::combining`] —
    /// sugar for ablation sweeps over an already-built program.
    pub fn with_combining(&self) -> Program {
        self.with_opts(|o| o.combining = true)
    }

    /// [`with_opts`](Self::with_opts) setting [`RunOpts::reliable`] —
    /// sugar for resilience sweeps over an already-built program.
    pub fn with_reliable(&self, cfg: ReliableConfig) -> Program {
        self.with_opts(|o| o.reliable = Some(cfg))
    }

    /// [`with_opts`](Self::with_opts) setting [`RunOpts::tracing`] —
    /// sugar for post-mortem analysis of an already-built program.
    pub fn with_tracing(&self, cfg: TraceConfig) -> Program {
        self.with_opts(|o| o.tracing = Some(cfg))
    }

    /// [`with_opts`](Self::with_opts) setting [`RunOpts::metrics`] —
    /// sugar for telemetry over an already-built program.
    pub fn with_metrics(&self, cfg: MetricsConfig) -> Program {
        self.with_opts(|o| o.metrics = Some(cfg))
    }

    /// The program's registry (shared with every node built from it).
    pub(crate) fn registry(&self) -> &Arc<Registry> {
        &self.reg
    }

    /// Fingerprint of the wire-table registration sequence. The procs
    /// backend compares the parent's against each worker's at handshake;
    /// exposed so program builders can assert their spec round-trips.
    pub fn wire_fingerprint(&self) -> u64 {
        self.reg.wire.fingerprint()
    }

    /// The body types this program can put on a wire — the kernel's own
    /// and those registered with [`ProgramBuilder::wire`] — by name, in
    /// tag order. A program runs on the procs backend iff every body it
    /// sends between PEs is among them; one that is not panics, naming
    /// the type, where it is first sent.
    pub fn wire_types(&self) -> Vec<&'static str> {
        self.reg.wire.names().collect()
    }

    /// Append `sys` as the body of a procs data frame carries it (after
    /// the frame's `[sent_ns][bytes]` header). With [`Self::decode_frame`],
    /// the codec boundary a hostile-input test drives without sockets.
    pub fn encode_frame(&self, sys: &SysMsg, out: &mut Vec<u8>) {
        crate::wire::encode_frame(&self.reg, sys, out)
    }

    /// The envelope `bytes` encode, as a procs worker of this program
    /// decodes it off a data link — or what is wrong with them. Never
    /// panics, whatever the bytes.
    pub fn decode_frame(&self, bytes: &[u8]) -> Result<SysMsg, WireError> {
        crate::wire::decode_frame(&self.reg, bytes)
    }

    /// The node factory for a run on `topology`, on a machine whose
    /// user and control steps carry the given dispatch overheads (zero on
    /// the thread and process backends, where charges are no-ops): each
    /// recorded `Step` span includes them.
    pub(crate) fn factory(
        &self,
        topology: Topology,
        dispatch_ns: u64,
        ctl_dispatch_ns: u64,
    ) -> CkFactory {
        CkFactory { prog: self.clone(), topology, dispatch_ns, ctl_dispatch_ns }
    }

    /// Run on the discrete-event simulator.
    pub fn run_sim(&self, cfg: SimConfig) -> CkReport {
        let (dispatch, ctl) = (cfg.cost.dispatch.as_nanos(), cfg.cost.ctl_dispatch.as_nanos());
        let factory = self.factory(cfg.topology.clone(), dispatch, ctl);
        let rep = SimMachine::run_factory(cfg, &factory);
        let utilization = rep.utilization();
        let end_ns = rep.end_time.as_nanos();
        let shards = rep.nodes.into_iter().map(CkNode::into_shard);
        let (counters, trace, metrics) = probe::merge(&self.opts, end_ns, shards);
        CkReport {
            time_ns: end_ns,
            result: rep.result,
            counters,
            timed_out: false,
            trace,
            metrics,
            sim: Some(SimDetail {
                end_time: rep.end_time,
                utilization,
                imbalance: imbalance(&rep.busy),
                busy: rep.busy,
                packets: rep.packets,
                bytes: rep.bytes,
                events: rep.events,
                quiesced: rep.quiesced,
                aborted: rep.aborted,
                faults: rep.faults,
                samples: rep.samples,
            }),
            proc: None,
        }
    }

    /// Run on the simulator with a machine preset at `npes` PEs.
    pub fn run_sim_preset(&self, npes: usize, preset: MachinePreset) -> CkReport {
        self.run_sim(SimConfig::preset(npes, preset))
    }

    /// Run on the thread backend with `npes` OS threads and a default
    /// watchdog. The logical topology (used for balancing neighborhoods)
    /// is a hypercube.
    #[cfg(feature = "threads")]
    pub fn run_threads(&self, npes: usize) -> CkReport {
        self.run_threads_cfg(ThreadConfig::new(npes), Topology::Hypercube)
    }

    /// Run on the thread backend with full control.
    #[cfg(feature = "threads")]
    pub fn run_threads_cfg(&self, cfg: ThreadConfig, topology: Topology) -> CkReport {
        let rep = ThreadMachine::run(cfg, &self.factory(topology, 0, 0));
        let wall_ns = rep.wall.as_nanos() as u64;
        let shards = rep.nodes.into_iter().map(CkNode::into_shard);
        let (counters, trace, metrics) = probe::merge(&self.opts, wall_ns, shards);
        CkReport {
            time_ns: wall_ns,
            result: rep.result,
            counters,
            timed_out: rep.timed_out,
            trace,
            metrics,
            sim: None,
            proc: None,
        }
    }

    /// Run on the multi-process backend: one OS process per PE, wired
    /// over Unix-domain (or TCP) sockets. The current binary is
    /// re-invoked once per PE with the `CK_PE_RANK` env contract — the
    /// re-invoked process must call
    /// [`proc::maybe_worker`](crate::proc::maybe_worker) before its
    /// first `run_procs` so it diverts into the worker loop. See
    /// `docs/PROCESS.md` for the wire contract.
    ///
    /// # Panics
    ///
    /// If called from a worker process that failed to divert (a missing
    /// `maybe_worker` call), or if `cfg` injects loss without the
    /// program running reliable delivery.
    pub fn run_procs(&self, cfg: &crate::proc::ProcConfig) -> CkReport {
        crate::proc::run_parent(self, cfg)
    }
}

/// Builds one [`CkNode`] per PE (implements the machine layer's
/// [`NodeFactory`]).
pub struct CkFactory {
    prog: Program,
    topology: Topology,
    dispatch_ns: u64,
    ctl_dispatch_ns: u64,
}

impl NodeFactory for CkFactory {
    type Node = CkNode;

    fn build(&self, pe: Pe, npes: usize) -> CkNode {
        // Neighborhood-based balancing (ACWN, token) needs a *sparse*
        // neighbor set; on dense interconnects (bus, crossbar) the
        // kernel imposes a logical hypercube so load reports and work
        // requests stay O(log P) per PE instead of O(P).
        let mut neighbors = self.topology.neighbors(pe, npes);
        if neighbors.len() > 8 {
            neighbors = Topology::Hypercube.neighbors(pe, npes);
        }
        let opts = &self.prog.opts;
        let balancer = opts.balance.make(pe, npes, neighbors);
        CkNode::new(
            pe,
            npes,
            Arc::clone(&self.prog.reg),
            opts.queueing.make(),
            SeedManager::new(balancer, pe, opts.rng_seed),
            Transport::new(pe, npes, opts.bcast, opts.combining, opts.reliable),
            Probe::for_run(pe, opts, self.dispatch_ns, self.ctl_dispatch_ns),
        )
    }
}

/// Per-run simulator detail.
pub struct SimDetail {
    /// Simulated completion time.
    pub end_time: SimTime,
    /// Per-PE busy time.
    pub busy: Vec<Cost>,
    /// Mean PE utilization over the run.
    pub utilization: f64,
    /// Busy-time imbalance (max / mean; 1.0 = perfect).
    pub imbalance: f64,
    /// Packets delivered.
    pub packets: u64,
    /// Bytes carried.
    pub bytes: u64,
    /// Simulator events processed.
    pub events: u64,
    /// True if the run ended by global quiescence rather than `exit`.
    pub quiesced: bool,
    /// Set if the simulator cut the run short (e.g. event-limit hit).
    pub aborted: Option<AbortReason>,
    /// Fault-injection tallies, when the machine ran with a fault plan.
    pub faults: Option<FaultStats>,
    /// Backlog samples (streaming per-instant aggregates), if sampling
    /// was enabled.
    pub samples: Vec<BacklogSummary>,
}

/// Result of running a program on either backend.
pub struct CkReport {
    /// Completion time in nanoseconds — simulated on the simulator,
    /// wall-clock on threads.
    pub time_ns: u64,
    /// The value passed to [`Ctx::exit`](crate::ctx::Ctx::exit), if any.
    pub result: Option<Payload>,
    /// Every PE's kernel counters, in PE order (none when a procs run
    /// aborted).
    pub counters: Vec<KernelCounters>,
    /// Thread backend only: the watchdog fired before `exit`.
    pub timed_out: bool,
    /// The kernel event log, when the program ran with tracing enabled
    /// (see [`ProgramBuilder::tracing`]).
    pub trace: Option<TraceLog>,
    /// The streaming-metrics snapshot, when the program ran with
    /// metrics enabled (see [`ProgramBuilder::metrics`]).
    pub metrics: Option<MetricsLog>,
    /// Simulator-only detail.
    pub sim: Option<SimDetail>,
    /// Multi-process backend only: launch/teardown detail, including a
    /// structured abort reason when a worker died mid-run.
    pub proc: Option<crate::proc::ProcDetail>,
}

impl CkReport {
    /// Completion time in seconds.
    pub fn time_secs(&self) -> f64 {
        self.time_ns as f64 / 1e9
    }

    /// Completion time as a `Duration`.
    pub fn time(&self) -> Duration {
        Duration::from_nanos(self.time_ns)
    }

    /// Take and downcast the program result.
    pub fn take_result<T: 'static>(&mut self) -> Option<T> {
        multicomputer::program::take_result(&mut self.result)
    }

    /// Borrow and downcast the program result without consuming it —
    /// for shared reports (the bench harness memoizes runs behind `Rc`,
    /// so [`CkReport::take_result`]'s `&mut self` is unavailable).
    pub fn result_ref<T: 'static>(&self) -> Option<&T> {
        multicomputer::program::result_ref(&self.result)
    }

    /// The kernel counters summed over every PE (saturating; see
    /// [`KernelCounters::total`]).
    pub fn total(&self) -> KernelCounters {
        KernelCounters::total(&self.counters)
    }

    /// The counter called `name`, summed over every PE. Prefer a field
    /// read of [`Self::total`], which a misspelling cannot compile.
    ///
    /// # Panics
    ///
    /// If no kernel counter is called `name`.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.total().get(name)
    }
}
