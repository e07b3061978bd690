//! Deterministic discrete-event simulation of a nonshared-memory
//! multicomputer.
//!
//! This is the substitute for the paper's NCUBE/2 and iPSC/2 testbeds: a
//! sequential event-driven simulator that executes a [`NodeProgram`] on
//! `P` simulated PEs, advancing a virtual clock according to the
//! [`CostModel`] and the compute time handlers charge. Because the event
//! order is a pure function of the configuration and the node programs'
//! behavior, runs are exactly reproducible — the property the experiment
//! tables rely on.
//!
//! ## Timing model
//!
//! * Executing a message costs `dispatch + charged` where `charged` is
//!   whatever the handler accumulated through [`NetCtx::charge`]. A PE
//!   executes one message at a time.
//! * A message of `b` bytes from PE `s` to PE `d` at distance `h` departs
//!   when the handler ends and the sender's network interface is free
//!   (back-to-back sends serialize for `injection(b, h)` each), then
//!   arrives `latency(b, h)` later. Messages between the same ordered PE
//!   pair are never reordered.
//! * On a shared-medium topology ([`Topology::Bus`]) all transfers
//!   additionally serialize through one global bus: each message occupies
//!   the bus for its injection time, modeling Sequent-style bus
//!   contention.
//!
//! The simulation ends when a handler calls [`NetCtx::stop`], or when no
//! events remain and no node has work (global quiescence — reported via
//! [`SimReport::quiesced`]).

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::cost::CostModel;
use crate::fault::{FaultPlan, FaultState, FaultStats, LinkVerdict};
use crate::pe::Pe;
use crate::program::{NetCtx, NodeFactory, NodeProgram, Packet, Payload, StepKind};
use crate::stats::BacklogSummary;
use crate::time::{Cost, SimTime};
use crate::topology::Topology;

/// Configuration of a simulated machine.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of processing elements.
    pub npes: usize,
    /// Interconnect topology.
    pub topology: Topology,
    /// Network / dispatch cost model.
    pub cost: CostModel,
    /// If set, sample every PE's backlog at this simulated interval
    /// (drives the load-evolution figures).
    pub sample_interval: Option<Cost>,
    /// Safety valve: abort after this many events (defaults to
    /// `u64::MAX`).
    pub max_events: u64,
    /// Seeded fault plan; `None` (the default) leaves the network
    /// perfect and costs nothing.
    pub fault: Option<FaultPlan>,
}

impl SimConfig {
    /// A machine with `npes` PEs, the given topology and cost model, no
    /// sampling.
    pub fn new(npes: usize, topology: Topology, cost: CostModel) -> Self {
        assert!(npes > 0, "machine needs at least one PE");
        SimConfig {
            npes,
            topology,
            cost,
            sample_interval: None,
            max_events: u64::MAX,
            fault: None,
        }
    }

    /// Preset-based convenience constructor.
    pub fn preset(npes: usize, preset: crate::cost::MachinePreset) -> Self {
        SimConfig::new(npes, preset.topology(npes), preset.cost_model())
    }

    /// Enable backlog sampling at `interval`.
    pub fn with_sampling(mut self, interval: Cost) -> Self {
        assert!(interval > Cost::ZERO, "sampling interval must be positive");
        self.sample_interval = Some(interval);
        self
    }

    /// Does nothing: the machine records no telemetry (a traced
    /// program's kernel records its steps). Kept only because the frozen
    /// `benchmark/` crate still calls it.
    #[doc(hidden)]
    pub fn with_trace(self) -> Self {
        self
    }

    /// Install a fault plan (see [`FaultPlan`]).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Cap events at `limit`; past it the run ends with
    /// [`AbortReason::MaxEvents`] instead of running forever.
    pub fn with_max_events(mut self, limit: u64) -> Self {
        self.max_events = limit;
        self
    }
}

thread_local! {
    /// Events processed by finished runs on this thread since the last
    /// [`take_events_tally`] — host-perf accounting, outside simulated
    /// semantics.
    static EVENTS_TALLY: Cell<u64> = const { Cell::new(0) };
}

/// Drain this thread's cumulative simulator event count. Benchmarks
/// call it around a batch of runs to report host-side events/sec; runs
/// themselves are unaffected.
pub fn take_events_tally() -> u64 {
    EVENTS_TALLY.with(|c| c.replace(0))
}

/// Why a run ended early without stopping or quiescing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbortReason {
    /// The event count exceeded [`SimConfig::max_events`] — a runaway
    /// program, or one stranded by an unrecovered fault.
    MaxEvents {
        /// The configured limit.
        limit: u64,
    },
}

/// Result of a simulated run of `N` nodes.
pub struct SimReport<N> {
    /// Simulated completion time.
    pub end_time: SimTime,
    /// The last payload a handler deposited, if any.
    pub result: Option<Payload>,
    /// The nodes, in PE order, as the run left them.
    pub nodes: Vec<N>,
    /// Per-PE busy time (dispatch + handler execution).
    pub busy: Vec<Cost>,
    /// Total packets delivered.
    pub packets: u64,
    /// Total bytes carried by delivered packets.
    pub bytes: u64,
    /// Total events processed (stable across identical runs —
    /// the determinism tests compare this).
    pub events: u64,
    /// True if the run ended by global quiescence rather than an explicit
    /// `stop`.
    pub quiesced: bool,
    /// Backlog samples (streaming per-instant aggregates) if sampling
    /// was enabled. O(samples) memory regardless of machine size.
    pub samples: Vec<BacklogSummary>,
    /// Set if the run was cut short by a safety valve rather than ending
    /// by `stop` or quiescence.
    pub aborted: Option<AbortReason>,
    /// Fault counters, present iff a [`FaultPlan`] was installed.
    pub faults: Option<FaultStats>,
}

impl<N> SimReport<N> {
    /// Downcast the deposited result.
    pub fn result_as<T: 'static>(&self) -> Option<&T> {
        crate::program::result_ref(&self.result)
    }

    /// Take and downcast the deposited result.
    pub fn take_result<T: 'static>(&mut self) -> Option<T> {
        crate::program::take_result(&mut self.result)
    }

    /// Mean PE utilization: busy time / (P * end_time).
    pub fn utilization(&self) -> f64 {
        let span = self.end_time.as_nanos();
        if span == 0 {
            return 0.0;
        }
        let busy: u64 = self.busy.iter().map(|c| c.as_nanos()).sum();
        busy as f64 / (span as f64 * self.busy.len() as f64)
    }
}

enum EventKind {
    Arrival { to: Pe, pkt: Packet },
    Execute { pe: Pe },
    Alarm { pe: Pe },
    Sample,
}

struct Event {
    time: u64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// `NetCtx` for one handler execution on the simulator: buffers sends,
/// accumulates charged time.
struct SimCtx {
    me: Pe,
    npes: usize,
    now: SimTime,
    charged: Cost,
    outbox: Vec<(Pe, u32, Payload)>,
    stop: bool,
    deposit: Option<Payload>,
    alarm: Option<Cost>,
}

impl SimCtx {
    /// `outbox` is machine-owned scratch: handed in empty (capacity
    /// intact from the previous handler) and handed back after the
    /// sends are routed, so the per-event send buffer is allocated
    /// once per run instead of once per event.
    fn at(me: Pe, npes: usize, now: SimTime, outbox: Vec<(Pe, u32, Payload)>) -> Self {
        debug_assert!(outbox.is_empty());
        SimCtx {
            me,
            npes,
            now,
            charged: Cost::ZERO,
            outbox,
            stop: false,
            deposit: None,
            alarm: None,
        }
    }
}

impl NetCtx for SimCtx {
    fn me(&self) -> Pe {
        self.me
    }
    fn num_pes(&self) -> usize {
        self.npes
    }
    fn now_ns(&self) -> u64 {
        self.now.as_nanos()
    }
    fn send(&mut self, to: Pe, bytes: u32, payload: Payload) {
        assert!(to.index() < self.npes, "send to PE out of range");
        self.outbox.push((to, bytes, payload));
    }
    fn charge(&mut self, cost: Cost) {
        self.charged += cost;
    }
    fn charged_ns(&self) -> u64 {
        self.charged.as_nanos()
    }
    fn stop(&mut self) {
        self.stop = true;
    }
    fn deposit(&mut self, result: Payload) {
        self.deposit = Some(result);
    }
    fn set_alarm(&mut self, after: Cost) {
        self.alarm = Some(after);
    }
}

/// The discrete-event simulated machine.
///
/// Owns the nodes and the event queue; [`SimMachine::run`] drives the
/// simulation to completion and returns a [`SimReport`].
pub struct SimMachine<N: NodeProgram> {
    cfg: SimConfig,
    nodes: Vec<N>,
    heap: BinaryHeap<Reverse<Event>>,
    /// Front slot held out of the heap. Execute events vastly outnumber
    /// everything else and are usually the next event anyway, so the
    /// earliest pending one lives here and the common
    /// schedule-exec-then-pop cycle touches no heap at all.
    /// [`Self::next_event`] compares it against the heap top, keeping
    /// the pop order exactly the total `(time, seq)` order.
    fast: Option<Event>,
    seq: u64,
    /// Reusable send buffer lent to each [`SimCtx`].
    scratch_outbox: Vec<(Pe, u32, Payload)>,
    /// Earliest instant each PE is free to start the next handler.
    busy_until: Vec<SimTime>,
    /// Whether an Execute event is pending for each PE.
    exec_scheduled: Vec<bool>,
    /// Earliest instant each PE's network interface is free.
    nic_free: Vec<SimTime>,
    /// Earliest instant the shared bus is free (Bus topology only).
    bus_free: SimTime,
    busy: Vec<Cost>,
    packets: u64,
    bytes: u64,
    events: u64,
    result: Option<Payload>,
    stopped: bool,
    /// Backlog samples, folded online into per-instant aggregates —
    /// never a per-PE vector, so memory is O(samples) at any scale.
    samples: Vec<BacklogSummary>,
    fault: Option<FaultState>,
    aborted: Option<AbortReason>,
}

impl<N: NodeProgram> SimMachine<N> {
    /// Build the machine, constructing one node per PE from `factory`.
    pub fn new<F: NodeFactory<Node = N>>(cfg: SimConfig, factory: &F) -> Self {
        let npes = cfg.npes;
        let nodes = Pe::all(npes).map(|pe| factory.build(pe, npes)).collect();
        let fault = cfg.fault.clone().map(FaultState::new);
        SimMachine {
            cfg,
            nodes,
            fault,
            aborted: None,
            // Steady state holds roughly one in-flight message plus one
            // pending Execute per PE; pre-size so early growth never
            // reallocates mid-run.
            heap: BinaryHeap::with_capacity(4 * npes + 64),
            fast: None,
            seq: 0,
            scratch_outbox: Vec::new(),
            busy_until: vec![SimTime::ZERO; npes],
            exec_scheduled: vec![false; npes],
            nic_free: vec![SimTime::ZERO; npes],
            bus_free: SimTime::ZERO,
            busy: vec![Cost::ZERO; npes],
            packets: 0,
            bytes: 0,
            events: 0,
            result: None,
            stopped: false,
            samples: Vec::new(),
        }
    }

    /// Convenience: build and run in one call.
    pub fn run_factory<F: NodeFactory<Node = N>>(cfg: SimConfig, factory: &F) -> SimReport<N> {
        SimMachine::new(cfg, factory).run()
    }

    fn push(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Event {
            time: time.as_nanos(),
            seq,
            kind,
        }));
    }

    /// Schedule an Execute event through the front slot: the earliest of
    /// the pending Executes stays in `fast`, the other goes to the heap.
    fn push_exec(&mut self, time: SimTime, pe: Pe) {
        let seq = self.seq;
        self.seq += 1;
        let ev = Event {
            time: time.as_nanos(),
            seq,
            kind: EventKind::Execute { pe },
        };
        match &self.fast {
            None => self.fast = Some(ev),
            Some(f) if (ev.time, ev.seq) < (f.time, f.seq) => {
                let demoted = self.fast.replace(ev).expect("checked above");
                self.heap.push(Reverse(demoted));
            }
            Some(_) => self.heap.push(Reverse(ev)),
        }
    }

    /// Pop the globally next event — the smaller `(time, seq)` of the
    /// front slot and the heap top. Seqs are unique, so the order is
    /// total and identical to a single heap's.
    fn next_event(&mut self) -> Option<Event> {
        match (&self.fast, self.heap.peek()) {
            (Some(f), Some(Reverse(h))) => {
                if (f.time, f.seq) < (h.time, h.seq) {
                    self.fast.take()
                } else {
                    self.heap.pop().map(|Reverse(e)| e)
                }
            }
            (Some(_), None) => self.fast.take(),
            (None, _) => self.heap.pop().map(|Reverse(e)| e),
        }
    }

    fn schedule_exec(&mut self, pe: Pe, not_before: SimTime) {
        if !self.exec_scheduled[pe.index()] && self.nodes[pe.index()].has_work() {
            let at = not_before.max(self.busy_until[pe.index()]);
            self.exec_scheduled[pe.index()] = true;
            self.push_exec(at, pe);
        }
    }

    /// Route a message: compute departure (NIC + bus serialization) and
    /// arrival times, consult the fault plan, then schedule the arrival
    /// event(s).
    fn route(&mut self, from: Pe, to: Pe, bytes: u32, payload: Payload, ready: SimTime) {
        let hops = self.cfg.topology.distance(from, to, self.cfg.npes);
        let inj = self.cfg.cost.injection(bytes, hops);
        let mut depart = ready.max(self.nic_free[from.index()]);
        if hops > 0 && self.cfg.topology.is_shared_medium() {
            depart = depart.max(self.bus_free);
            self.bus_free = depart + inj;
        }
        self.nic_free[from.index()] = depart + inj;
        let mut arrive = depart + self.cfg.cost.latency(bytes, hops);
        // The send occupied the NIC/bus either way; faults act in flight.
        let mut duplicate = false;
        if hops > 0 {
            if let Some(fs) = &mut self.fault {
                match fs.judge(from, to, depart) {
                    LinkVerdict::Drop | LinkVerdict::OutageDrop => return,
                    LinkVerdict::Deliver {
                        extra,
                        duplicate: dup,
                    } => {
                        arrive = arrive + extra;
                        duplicate = dup;
                    }
                }
            }
        }
        if duplicate {
            // Only payloads the node program can copy arrive twice; the
            // copy takes one extra network traversal.
            if let Some(copy) = N::duplicate(&payload) {
                let again = arrive + self.cfg.cost.latency(bytes, hops);
                if let Some(fs) = &mut self.fault {
                    fs.stats.duplicated += 1;
                }
                self.packets += 1;
                self.bytes += bytes as u64;
                self.push(
                    again,
                    EventKind::Arrival {
                        to,
                        pkt: Packet {
                            from,
                            bytes,
                            at_ns: again.as_nanos(),
                            sent_ns: ready.as_nanos(),
                            payload: copy,
                        },
                    },
                );
            }
        }
        self.packets += 1;
        self.bytes += bytes as u64;
        self.push(
            arrive,
            EventKind::Arrival {
                to,
                pkt: Packet {
                    from,
                    bytes,
                    at_ns: arrive.as_nanos(),
                    sent_ns: ready.as_nanos(),
                    payload,
                },
            },
        );
    }

    /// A handler context for `pe` starting at `now`, lending it the
    /// outbox scratch.
    fn ctx(&mut self, pe: Pe, now: SimTime) -> SimCtx {
        SimCtx::at(pe, self.cfg.npes, now, std::mem::take(&mut self.scratch_outbox))
    }

    /// Close a handler that ran on `pe` until `end`, `cost` of it busy:
    /// book the time, keep its deposit and stop, route its sends (they
    /// depart at `end`), take the outbox scratch back and arm the alarm
    /// it asked for.
    fn finish(&mut self, pe: Pe, mut ctx: SimCtx, end: SimTime, cost: Cost) {
        self.busy_until[pe.index()] = end;
        self.busy[pe.index()] += cost;
        if let Some(r) = ctx.deposit {
            self.result = Some(r);
        }
        if ctx.stop {
            self.stopped = true;
        }
        for (to, bytes, payload) in ctx.outbox.drain(..) {
            self.route(pe, to, bytes, payload, end);
        }
        self.scratch_outbox = ctx.outbox;
        if let Some(after) = ctx.alarm {
            self.push(end + after, EventKind::Alarm { pe });
        }
    }

    /// Run the simulation to completion (explicit stop or global
    /// quiescence) and report, handing the nodes back.
    pub fn run(mut self) -> SimReport<N> {
        // Boot every node at t = 0. Boot-time sends depart at t = 0.
        for pe in Pe::all(self.cfg.npes) {
            let mut ctx = self.ctx(pe, SimTime::ZERO);
            self.nodes[pe.index()].boot(&mut ctx);
            let (cost, end) = (ctx.charged, SimTime::ZERO + ctx.charged);
            self.finish(pe, ctx, end, cost);
        }
        for pe in Pe::all(self.cfg.npes) {
            let at = self.busy_until[pe.index()];
            self.schedule_exec(pe, at);
        }
        if let Some(iv) = self.cfg.sample_interval {
            self.push(SimTime::ZERO + iv, EventKind::Sample);
        }

        let mut now = SimTime::ZERO;
        while !self.stopped {
            let Some(ev) = self.next_event() else {
                break;
            };
            self.events += 1;
            if self.events > self.cfg.max_events {
                // Structured abort instead of a panic: the caller gets a
                // full report with `aborted` set and can inspect how far
                // the run got.
                self.aborted = Some(AbortReason::MaxEvents {
                    limit: self.cfg.max_events,
                });
                break;
            }
            now = SimTime(ev.time);
            match ev.kind {
                EventKind::Arrival { to, pkt } => {
                    if let Some(fs) = &mut self.fault {
                        if fs.crashed(to, now) {
                            // A dead PE's NIC accepts nothing.
                            fs.stats.crash_dropped += 1;
                            continue;
                        }
                    }
                    self.nodes[to.index()].incoming(pkt);
                    self.schedule_exec(to, now);
                }
                EventKind::Execute { pe } => {
                    if let Some(fs) = &mut self.fault {
                        if fs.crashed(pe, now) {
                            self.exec_scheduled[pe.index()] = false;
                            continue;
                        }
                        if let Some(until) = fs.stalled_until(pe, now) {
                            // Frozen: hold the dispatch until the PE
                            // resumes (exec_scheduled stays set).
                            fs.stats.stall_deferrals += 1;
                            self.push_exec(until, pe);
                            continue;
                        }
                    }
                    self.exec_scheduled[pe.index()] = false;
                    if !self.nodes[pe.index()].has_work() {
                        continue;
                    }
                    let mut ctx = self.ctx(pe, now);
                    let ran = self.nodes[pe.index()].step(&mut ctx);
                    let cost = match ran {
                        Some(StepKind::User) => self.cfg.cost.dispatch + ctx.charged,
                        Some(StepKind::Control) => self.cfg.cost.ctl_dispatch + ctx.charged,
                        None => ctx.charged,
                    };
                    let end = now + cost;
                    self.finish(pe, ctx, end, cost);
                    if self.stopped {
                        now = end;
                        break;
                    }
                    self.schedule_exec(pe, end);
                }
                EventKind::Alarm { pe } => {
                    if let Some(fs) = &mut self.fault {
                        if fs.crashed(pe, now) {
                            continue;
                        }
                        if let Some(until) = fs.stalled_until(pe, now) {
                            // A frozen PE's timers fire once it thaws.
                            self.push(until, EventKind::Alarm { pe });
                            continue;
                        }
                    }
                    // Serialize with handler execution: the alarm handler
                    // starts once the PE is free.
                    let start = now.max(self.busy_until[pe.index()]);
                    let mut ctx = self.ctx(pe, start);
                    self.nodes[pe.index()].alarm(&mut ctx);
                    let (cost, end) = (ctx.charged, start + ctx.charged);
                    self.finish(pe, ctx, end, cost);
                    if self.stopped {
                        now = end;
                        break;
                    }
                    self.schedule_exec(pe, end);
                }
                EventKind::Sample => {
                    if self.samples.is_empty() {
                        self.samples.reserve(64);
                    }
                    let mut s = BacklogSummary::at(now.as_nanos());
                    for n in &self.nodes {
                        s.push(n.backlog());
                    }
                    self.samples.push(s);
                    // Only keep sampling while there are other events —
                    // otherwise sampling alone would keep the sim alive.
                    if !self.heap.is_empty() || self.fast.is_some() {
                        let iv = self.cfg.sample_interval.expect("sampling enabled");
                        self.push(now + iv, EventKind::Sample);
                    }
                }
            }
        }

        let end_time = self
            .busy_until
            .iter()
            .copied()
            .fold(now, SimTime::max);
        EVENTS_TALLY.with(|c| c.set(c.get() + self.events));
        SimReport {
            end_time,
            result: self.result,
            nodes: self.nodes,
            busy: self.busy,
            packets: self.packets,
            bytes: self.bytes,
            events: self.events,
            quiesced: !self.stopped && self.aborted.is_none(),
            samples: self.samples,
            aborted: self.aborted,
            faults: self.fault.map(|fs| fs.stats),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::MachinePreset;
    use crate::program::FnFactory;
    use std::collections::VecDeque;

    /// Test node: relays a counter around the ring of PEs `laps` times,
    /// then PE 0 deposits the hop count and stops.
    struct Relay {
        pe: Pe,
        npes: usize,
        queue: VecDeque<Packet>,
        laps: u32,
        work: Cost,
        hops_seen: u64,
    }

    impl NodeProgram for Relay {
        fn boot(&mut self, net: &mut dyn NetCtx) {
            if self.pe == Pe::ZERO {
                net.send(Pe::from(1 % self.npes), 8, Box::new(0u64));
            }
        }
        fn incoming(&mut self, pkt: Packet) {
            self.queue.push_back(pkt);
        }
        fn step(&mut self, net: &mut dyn NetCtx) -> Option<StepKind> {
            let pkt = self.queue.pop_front()?;
            let count = *pkt.payload.downcast::<u64>().unwrap();
            self.hops_seen += 1;
            net.charge(self.work);
            let next = (self.pe.index() + 1) % self.npes;
            if self.pe == Pe::ZERO && count + 1 >= (self.laps as u64) * self.npes as u64 {
                net.deposit(Box::new(count + 1));
                net.stop();
            } else {
                net.send(Pe::from(next), 8, Box::new(count + 1));
            }
            Some(StepKind::User)
        }
        fn has_work(&self) -> bool {
            !self.queue.is_empty()
        }
        fn backlog(&self) -> usize {
            self.queue.len()
        }
    }

    fn relay_factory(laps: u32, work: Cost) -> FnFactory<impl Fn(Pe, usize) -> Relay> {
        FnFactory(move |pe, npes| Relay {
            pe,
            npes,
            queue: VecDeque::new(),
            laps,
            work,
            hops_seen: 0,
        })
    }

    fn ring_cfg(npes: usize) -> SimConfig {
        SimConfig::new(npes, Topology::Ring, MachinePreset::NcubeLike.cost_model())
    }

    #[test]
    fn relay_completes_and_deposits() {
        let mut rep = SimMachine::run_factory(ring_cfg(4), &relay_factory(3, Cost::micros(10)));
        assert_eq!(rep.take_result::<u64>(), Some(12));
        assert!(!rep.quiesced, "ended by explicit stop");
    }

    #[test]
    fn simulated_time_accounts_for_latency_and_work() {
        let npes = 4;
        let laps = 2u32;
        let work = Cost::micros(10);
        let rep = SimMachine::run_factory(ring_cfg(npes), &relay_factory(laps, work));
        let model = MachinePreset::NcubeLike.cost_model();
        let hops = (laps as u64) * npes as u64; // messages processed
        let per_hop = (model.latency(8, 1) + model.dispatch + work).as_nanos();
        // Every handler executes after exactly one network hop; end time
        // is hops * (latency + dispatch + work), give or take the final
        // stop handler which sends nothing.
        let expect = hops * per_hop;
        let got = rep.end_time.as_nanos();
        assert!(
            got >= expect - per_hop && got <= expect + per_hop,
            "expected about {expect}, got {got}"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let r1 = SimMachine::run_factory(ring_cfg(8), &relay_factory(5, Cost::micros(3)));
        let r2 = SimMachine::run_factory(ring_cfg(8), &relay_factory(5, Cost::micros(3)));
        assert_eq!(r1.end_time, r2.end_time);
        assert_eq!(r1.events, r2.events);
        assert_eq!(r1.packets, r2.packets);
        assert_eq!(r1.bytes, r2.bytes);
    }

    #[test]
    fn nodes_come_back_in_pe_order() {
        let rep = SimMachine::run_factory(ring_cfg(4), &relay_factory(1, Cost::ZERO));
        let pes: Vec<Pe> = rep.nodes.iter().map(|n| n.pe).collect();
        assert_eq!(pes, Pe::all(4).collect::<Vec<_>>());
        // One handler execution per ring position.
        let hops: Vec<u64> = rep.nodes.iter().map(|n| n.hops_seen).collect();
        assert_eq!(hops, vec![1; 4]);
    }

    #[test]
    fn busy_time_distributed_across_pes() {
        let rep = SimMachine::run_factory(ring_cfg(4), &relay_factory(4, Cost::micros(50)));
        for pe in 0..4 {
            assert!(rep.busy[pe] > Cost::ZERO, "PE{pe} never worked");
        }
    }

    /// A program that never sends anything quiesces immediately.
    struct Inert;
    impl NodeProgram for Inert {
        fn boot(&mut self, _net: &mut dyn NetCtx) {}
        fn incoming(&mut self, _pkt: Packet) {}
        fn step(&mut self, _net: &mut dyn NetCtx) -> Option<StepKind> {
            None
        }
        fn has_work(&self) -> bool {
            false
        }
    }

    #[test]
    fn inert_program_quiesces_at_time_zero() {
        let cfg = SimConfig::preset(4, MachinePreset::Ideal);
        let rep = SimMachine::run_factory(cfg, &FnFactory(|_, _| Inert));
        assert!(rep.quiesced);
        assert_eq!(rep.end_time, SimTime::ZERO);
        assert_eq!(rep.packets, 0);
    }

    #[test]
    fn sampling_records_backlogs() {
        let cfg = ring_cfg(4).with_sampling(Cost::micros(100));
        let rep = SimMachine::run_factory(cfg, &relay_factory(10, Cost::micros(20)));
        assert!(!rep.samples.is_empty());
        for s in &rep.samples {
            assert_eq!(s.npes, 4);
            assert!(s.max >= s.last);
            assert!(s.idle <= s.npes);
        }
    }

    #[test]
    fn bus_topology_serializes_transfers() {
        // Same program, same costs; bus must not finish faster than the
        // fully-connected network.
        let model = MachinePreset::SharedBusLike.cost_model();
        let bus = SimConfig::new(8, Topology::Bus, model);
        let full = SimConfig::new(8, Topology::FullyConnected, model);
        let f = relay_factory(6, Cost::micros(1));
        let t_bus = SimMachine::run_factory(bus, &f).end_time;
        let t_full = SimMachine::run_factory(full, &f).end_time;
        assert!(t_bus >= t_full);
    }

    #[test]
    fn runaway_program_aborts_with_structured_report() {
        let cfg = ring_cfg(2).with_max_events(100);
        // Relay with enormous lap count never finishes within 100 events.
        let rep = SimMachine::run_factory(cfg, &relay_factory(u32::MAX, Cost::ZERO));
        assert_eq!(rep.aborted, Some(AbortReason::MaxEvents { limit: 100 }));
        assert!(!rep.quiesced, "an aborted run did not quiesce");
        assert!(rep.events > 0 && rep.events <= 101);
    }

    #[test]
    fn event_limit_not_hit_reports_none() {
        let rep = SimMachine::run_factory(ring_cfg(4), &relay_factory(2, Cost::ZERO));
        assert_eq!(rep.aborted, None);
        assert!(rep.faults.is_none(), "no plan installed");
    }

    #[test]
    fn utilization_between_zero_and_one() {
        let rep = SimMachine::run_factory(ring_cfg(4), &relay_factory(3, Cost::micros(10)));
        let u = rep.utilization();
        assert!(u > 0.0 && u <= 1.0, "utilization {u}");
    }

    #[test]
    fn faults_off_is_byte_identical_to_no_fault_field() {
        // The zero-cost-when-off claim: a run with `fault: None` must be
        // indistinguishable from the pre-fault-layer simulator.
        let base = SimMachine::run_factory(ring_cfg(8), &relay_factory(4, Cost::micros(2)));
        let mut cfg = ring_cfg(8);
        cfg.fault = None;
        let same = SimMachine::run_factory(cfg, &relay_factory(4, Cost::micros(2)));
        assert_eq!(base.end_time, same.end_time);
        assert_eq!(base.events, same.events);
        assert_eq!(base.packets, same.packets);
        assert_eq!(base.bytes, same.bytes);
    }

    #[test]
    fn noop_fault_plan_changes_nothing_but_reports_stats() {
        let base = SimMachine::run_factory(ring_cfg(8), &relay_factory(4, Cost::micros(2)));
        let cfg = ring_cfg(8).with_faults(crate::fault::FaultPlan::new(1));
        let rep = SimMachine::run_factory(cfg, &relay_factory(4, Cost::micros(2)));
        assert_eq!(base.end_time, rep.end_time);
        assert_eq!(base.events, rep.events);
        let stats = rep.faults.expect("plan installed");
        assert_eq!(stats, FaultStats::default());
    }

    #[test]
    fn same_fault_seed_replays_identically() {
        let cfg = || {
            ring_cfg(8).with_faults(
                crate::fault::FaultPlan::new(0xD00D)
                    .drop(0.0) // drops would strand the unreliable relay
                    .delay(0.3, Cost::micros(40)),
            )
        };
        let a = SimMachine::run_factory(cfg(), &relay_factory(4, Cost::micros(2)));
        let b = SimMachine::run_factory(cfg(), &relay_factory(4, Cost::micros(2)));
        assert_eq!(a.end_time, b.end_time);
        assert_eq!(a.events, b.events);
        assert_eq!(a.faults, b.faults);
        assert!(a.faults.as_ref().unwrap().delayed > 0, "delays fired");
    }

    #[test]
    fn dropped_packet_strands_unreliable_relay() {
        // Drop everything: the boot-time send vanishes, nothing else
        // moves, and the sim quiesces with a drop on the books.
        let cfg = ring_cfg(4).with_faults(crate::fault::FaultPlan::new(3).drop(1.0));
        let rep = SimMachine::run_factory(cfg, &relay_factory(2, Cost::ZERO));
        assert!(rep.quiesced, "nothing left to do once the packet is gone");
        let stats = rep.faults.expect("plan installed");
        assert_eq!(stats.dropped, 1);
    }

    #[test]
    fn stall_defers_execution_but_run_completes() {
        let stall_plan = crate::fault::FaultPlan::new(5).stall(
            Pe(1),
            SimTime::ZERO,
            SimTime(Cost::micros(500).as_nanos()),
        );
        let plain = SimMachine::run_factory(ring_cfg(4), &relay_factory(3, Cost::micros(10)));
        let cfg = ring_cfg(4).with_faults(stall_plan);
        let mut rep = SimMachine::run_factory(cfg, &relay_factory(3, Cost::micros(10)));
        assert_eq!(rep.take_result::<u64>(), Some(12), "stall only delays");
        assert!(rep.end_time > plain.end_time, "the stall cost time");
        assert!(rep.faults.unwrap().stall_deferrals > 0);
    }

    #[test]
    fn crashed_pe_black_holes_the_relay() {
        // PE 1 dies immediately; the token sent to it at boot is lost.
        let cfg =
            ring_cfg(4).with_faults(crate::fault::FaultPlan::new(7).crash(Pe(1), SimTime::ZERO));
        let rep = SimMachine::run_factory(cfg, &relay_factory(2, Cost::ZERO));
        assert!(rep.quiesced);
        assert!(rep.faults.unwrap().crash_dropped >= 1);
    }

    #[test]
    fn outage_window_blocks_the_link() {
        // Ring 0→1 link dead for the whole run: the relay never advances.
        let cfg = ring_cfg(4).with_faults(crate::fault::FaultPlan::new(0).outage(
            Pe(0),
            Pe(1),
            SimTime::ZERO,
            SimTime(u64::MAX),
        ));
        let rep = SimMachine::run_factory(cfg, &relay_factory(2, Cost::ZERO));
        assert!(rep.quiesced);
        assert_eq!(rep.faults.unwrap().outage_dropped, 1);
    }

    /// Node that sends a packet it knows how to copy and counts
    /// deliveries — exercises duplication and the alarm plumbing.
    struct DupCounter {
        pe: Pe,
        got: u64,
        alarms: u64,
        queue: std::collections::VecDeque<Packet>,
    }

    impl NodeProgram for DupCounter {
        fn boot(&mut self, net: &mut dyn NetCtx) {
            if self.pe == Pe::ZERO {
                net.send(Pe(1), 16, Box::new(1u64));
                net.set_alarm(Cost::micros(100));
            }
        }
        fn incoming(&mut self, pkt: Packet) {
            self.queue.push_back(pkt);
        }
        fn step(&mut self, _net: &mut dyn NetCtx) -> Option<StepKind> {
            let pkt = self.queue.pop_front()?;
            let v = *pkt.payload.downcast::<u64>().expect("the u64 that was sent");
            self.got += v;
            Some(StepKind::User)
        }
        fn has_work(&self) -> bool {
            !self.queue.is_empty()
        }
        fn alarm(&mut self, net: &mut dyn NetCtx) {
            self.alarms += 1;
            if self.alarms < 3 {
                net.set_alarm(Cost::micros(100));
            }
        }
        fn duplicate(payload: &Payload) -> Option<Payload> {
            payload.downcast_ref::<u64>().map(|&v| Box::new(v) as Payload)
        }
    }

    fn dup_factory() -> FnFactory<impl Fn(Pe, usize) -> DupCounter> {
        FnFactory(|pe, _| DupCounter {
            pe,
            got: 0,
            alarms: 0,
            queue: std::collections::VecDeque::new(),
        })
    }

    #[test]
    fn replayable_payload_is_materialized_once_without_faults() {
        let cfg = SimConfig::preset(2, MachinePreset::Ideal);
        let rep = SimMachine::run_factory(cfg, &FnFactory(|pe, _| DupCounter {
            pe,
            got: 0,
            alarms: 9, // suppress further alarms
            queue: std::collections::VecDeque::new(),
        }));
        assert_eq!(rep.nodes[1].got, 1);
    }

    #[test]
    fn duplication_delivers_replayable_twice() {
        let cfg = SimConfig::preset(2, MachinePreset::Ideal)
            .with_faults(crate::fault::FaultPlan::new(11).duplicate(1.0));
        let rep = SimMachine::run_factory(cfg, &dup_factory());
        assert_eq!(rep.nodes[1].got, 2, "copy delivered");
        assert_eq!(rep.faults.unwrap().duplicated, 1);
        // A node program that keeps the default hook: every packet is
        // opaque, the same plan duplicates nothing, the relay still ends.
        let cfg = ring_cfg(4).with_faults(crate::fault::FaultPlan::new(11).duplicate(1.0));
        let mut rep = SimMachine::run_factory(cfg, &relay_factory(3, Cost::ZERO));
        assert_eq!(rep.take_result::<u64>(), Some(12));
        assert_eq!(rep.faults.unwrap().duplicated, 0, "opaque payloads are skipped");
    }

    #[test]
    fn alarms_fire_and_reschedule() {
        let cfg = SimConfig::preset(2, MachinePreset::Ideal);
        let rep = SimMachine::run_factory(cfg, &dup_factory());
        assert_eq!(rep.nodes[0].alarms, 3);
        assert!(rep.quiesced, "alarm chain terminates");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn send_to_invalid_pe_panics() {
        struct Bad;
        impl NodeProgram for Bad {
            fn boot(&mut self, net: &mut dyn NetCtx) {
                net.send(Pe(99), 1, Box::new(()));
            }
            fn incoming(&mut self, _pkt: Packet) {}
            fn step(&mut self, _net: &mut dyn NetCtx) -> Option<StepKind> {
                None
            }
            fn has_work(&self) -> bool {
                false
            }
        }
        let cfg = SimConfig::preset(2, MachinePreset::Ideal);
        let _ = SimMachine::run_factory(cfg, &FnFactory(|_, _| Bad));
    }
}
