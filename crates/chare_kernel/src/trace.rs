//! The kernel's event vocabulary and the event log behind the
//! Projections-style post-mortem views.
//!
//! An [`EventKind`] says what the kernel did: each scheduling step or
//! alarm with how long it took, entry-method begin/end, every message
//! send and receive with its class and size, seed load-balancing
//! decisions, reliable-layer retransmissions and queue-length samples.
//! A post-mortem analyzer (the `ck_trace` crate) turns the `Step`
//! events into per-PE execution spans and joins the rest to them:
//! per-entry time breakdowns, grain-size histograms, PE×PE
//! communication matrices and Chrome/Perfetto timelines.
//!
//! This module owns the vocabulary ([`EventKind`], [`TraceEvent`],
//! [`MsgClass`], [`EntryWhat`]), the bounded per-PE ring events are
//! retained in, and the drained [`TraceLog`]. How an event gets from a
//! kernel site into a ring — and into the streaming metrics, which
//! fold the same events — is [`crate::probe`]'s business, as is the
//! cost discipline both share.
//!
//! A tracing PE's ring holds [`TRACE_CAP`] events; the oldest are
//! overwritten, with a drop counter, so tracing a long run costs
//! bounded memory. The same ring's tail is the PE's flight recorder.

use multicomputer::Pe;

use crate::envelope::SysMsg;
use crate::ids::{BocId, ChareKind, EpId};

/// Turns event tracing on, handed to
/// [`ProgramBuilder::tracing`](crate::program::ProgramBuilder::tracing).
/// A marker: every PE's ring holds [`TRACE_CAP`] events.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceConfig;

/// Events a tracing run retains per PE; older events are overwritten
/// (counted in [`TraceLog::dropped`]).
pub const TRACE_CAP: usize = 1 << 20;

/// Broad class of a kernel wire message, for overhead attribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MsgClass {
    /// A new-chare seed (still subject to load balancing, or placed).
    Seed,
    /// A message to an existing chare's entry point.
    Chare,
    /// A message to a branch-office chare's branch.
    Branch,
    /// A spanning-tree broadcast in flight.
    Broadcast,
    /// Specifically-shared-variable traffic (accumulators, monotonics,
    /// tables, write-once replication).
    Shared,
    /// Quiescence-detection waves.
    Qd,
    /// Load-balancing control (load reports, work-request tokens).
    Balance,
    /// Reliable-transport framing (frames and acks).
    Transport,
    /// Message-combining batch wrapper.
    Batch,
}

impl MsgClass {
    /// Classify a kernel envelope.
    pub fn of(sys: &SysMsg) -> MsgClass {
        match sys {
            SysMsg::NewChare { .. } => MsgClass::Seed,
            SysMsg::ChareMsg { .. } => MsgClass::Chare,
            SysMsg::BranchMsg { .. } => MsgClass::Branch,
            SysMsg::TreeCast { .. } => MsgClass::Broadcast,
            SysMsg::AccCollect { .. }
            | SysMsg::AccPart { .. }
            | SysMsg::MonoUpdate { .. }
            | SysMsg::TablePut { .. }
            | SysMsg::TableGet { .. }
            | SysMsg::TableDelete { .. }
            | SysMsg::WoStore { .. }
            | SysMsg::WoAck { .. } => MsgClass::Shared,
            SysMsg::QdStart { .. } | SysMsg::QdPoll { .. } | SysMsg::QdCount { .. } => MsgClass::Qd,
            SysMsg::LoadStatus { .. } | SysMsg::WorkReq { .. } | SysMsg::WorkNack => {
                MsgClass::Balance
            }
            SysMsg::RelData { .. } | SysMsg::RelAck { .. } => MsgClass::Transport,
            SysMsg::Batch(_) => MsgClass::Batch,
        }
    }

    /// Short stable label (used in exported traces).
    pub fn label(self) -> &'static str {
        match self {
            MsgClass::Seed => "seed",
            MsgClass::Chare => "chare",
            MsgClass::Branch => "branch",
            MsgClass::Broadcast => "broadcast",
            MsgClass::Shared => "shared",
            MsgClass::Qd => "qd",
            MsgClass::Balance => "balance",
            MsgClass::Transport => "transport",
            MsgClass::Batch => "batch",
        }
    }
}

/// What kind of object an entry execution ran on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EntryWhat {
    /// A chare constructor (from a seed of the given registered kind).
    Create(ChareKind),
    /// An entry method of the chare in the given local slot.
    Chare(u32),
    /// An entry method of a branch-office chare's local branch.
    Branch(BocId),
}

/// A short label for one entry execution: `create:k3`, `chare:ep1`,
/// `boc2:ep0`, with `?` for an entry point not known.
pub fn entry_label(what: EntryWhat, ep: Option<EpId>) -> String {
    match (what, ep) {
        (EntryWhat::Create(kind), _) => format!("create:k{}", kind.0),
        (EntryWhat::Chare(_), Some(ep)) => format!("chare:ep{}", ep.0),
        (EntryWhat::Chare(_), None) => "chare:?".to_string(),
        (EntryWhat::Branch(boc), Some(ep)) => format!("boc{}:ep{}", boc.0, ep.0),
        (EntryWhat::Branch(boc), None) => format!("boc{}:?", boc.0),
    }
}

/// One structured kernel event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// An entry-method execution is starting.
    EntryBegin {
        /// What is executing.
        what: EntryWhat,
        /// The entry point invoked (`None` for constructors).
        ep: Option<EpId>,
    },
    /// The entry method returned.
    EntryEnd {
        /// Counted user messages the entry produced.
        msgs_sent: u32,
    },
    /// A kernel envelope was posted (before combining/framing).
    MsgSend {
        /// Destination PE (may equal the recording PE).
        to: Pe,
        /// Message class.
        class: MsgClass,
        /// Wire size.
        bytes: u32,
        /// Load-balancer forwards so far for seeds
        /// ([`PLACED`](crate::envelope::PLACED) for pinned seeds);
        /// 0 for everything else.
        hops: u32,
    },
    /// A kernel envelope arrived (after batch/frame unpacking).
    MsgRecv {
        /// Sending PE.
        from: Pe,
        /// Message class.
        class: MsgClass,
        /// Wire size.
        bytes: u32,
    },
    /// The load balancer kept a seed on this PE.
    SeedKept {
        /// Registered chare kind.
        kind: ChareKind,
        /// Forwards the seed had taken when it settled.
        hops: u32,
    },
    /// The load balancer forwarded a seed.
    SeedForwarded {
        /// Registered chare kind.
        kind: ChareKind,
        /// Where it went.
        to: Pe,
        /// Forwards so far (before this one).
        hops: u32,
    },
    /// The reliable layer re-homed a seed away from an unresponsive PE.
    SeedRedirected {
        /// The new destination.
        to: Pe,
    },
    /// The reliable layer retransmitted a frame after an ack timeout.
    Retransmit {
        /// Frame destination.
        to: Pe,
        /// Frame sequence number.
        seq: u64,
    },
    /// The runnable backlog changed between scheduling steps.
    QueueSample {
        /// Queue + seed-pool length after the step.
        len: u32,
    },
    /// A scheduling step or an alarm handler ran, starting at the
    /// event's stamp (recorded when it ends).
    Step {
        /// A user step (it ran one entry); `false` for a control-only
        /// step or an alarm.
        user: bool,
        /// How long the PE was busy: the machine's dispatch charge for
        /// the step (none for an alarm, and none on the thread and
        /// process backends) plus what the node took — charged time on
        /// the simulator, wall time on a real backend.
        span_ns: u64,
    },
}

/// One timestamped event from one PE.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// When it happened (simulated ns on the simulator, elapsed ns on
    /// the thread backend).
    pub at_ns: u64,
    /// The recording PE.
    pub pe: Pe,
    /// What happened.
    pub kind: EventKind,
}

/// Fixed-capacity ring of events; overwrites oldest when full.
#[derive(Debug, Default)]
pub(crate) struct RingLog {
    cap: usize,
    /// Index of the oldest event once the ring has wrapped.
    start: usize,
    events: Vec<TraceEvent>,
    dropped: u64,
}

impl RingLog {
    pub(crate) fn new(cap: usize) -> Self {
        RingLog {
            cap: cap.max(1),
            start: 0,
            events: Vec::new(),
            dropped: 0,
        }
    }

    pub(crate) fn push(&mut self, ev: TraceEvent) {
        if self.events.len() < self.cap {
            self.events.push(ev);
        } else {
            // Compare-and-reset instead of `% cap`: once the ring is
            // full this runs on every push, and an integer division
            // here is measurable against the simulator's event cost.
            self.events[self.start] = ev;
            self.start += 1;
            if self.start == self.cap {
                self.start = 0;
            }
            self.dropped += 1;
        }
    }

    /// Events in arrival order.
    pub(crate) fn drain(&mut self) -> (Vec<TraceEvent>, u64) {
        let mut out = Vec::with_capacity(self.events.len());
        out.extend_from_slice(&self.events[self.start..]);
        out.extend_from_slice(&self.events[..self.start]);
        self.events.clear();
        self.start = 0;
        (out, std::mem::take(&mut self.dropped))
    }
}

/// The post-mortem event log of one run, time-ordered across PEs.
#[derive(Debug, Default)]
pub struct TraceLog {
    /// Machine size the log was recorded on.
    pub npes: usize,
    /// All retained events, sorted by timestamp (stable across equal
    /// timestamps: PE-0-first within each ring drain).
    pub events: Vec<TraceEvent>,
    /// Events lost to ring-buffer overwrites, summed over PEs.
    pub dropped: u64,
}

impl TraceLog {
    /// Events recorded by one PE, in order.
    pub fn events_for(&self, pe: Pe) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.pe == pe)
    }

    /// Number of events matching a predicate.
    pub fn count(&self, mut pred: impl FnMut(&EventKind) -> bool) -> u64 {
        self.events.iter().filter(|e| pred(&e.kind)).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, len: u32) -> TraceEvent {
        TraceEvent {
            at_ns: at,
            pe: Pe(0),
            kind: EventKind::QueueSample { len },
        }
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut r = RingLog::new(3);
        for i in 0..5 {
            r.push(ev(i, i as u32));
        }
        let (evs, dropped) = r.drain();
        assert_eq!(dropped, 2);
        let ats: Vec<u64> = evs.iter().map(|e| e.at_ns).collect();
        assert_eq!(ats, vec![2, 3, 4], "oldest overwritten, order kept");
    }

    #[test]
    fn ring_under_capacity_drops_nothing() {
        let mut r = RingLog::new(8);
        for i in 0..5 {
            r.push(ev(i, 0));
        }
        let (evs, dropped) = r.drain();
        assert_eq!(dropped, 0);
        assert_eq!(evs.len(), 5);
    }

    #[test]
    fn msg_class_covers_the_wire_protocol() {
        assert_eq!(
            MsgClass::of(&SysMsg::QdPoll { wave: 1 }),
            MsgClass::Qd
        );
        assert_eq!(MsgClass::of(&SysMsg::WorkNack), MsgClass::Balance);
        assert_eq!(
            MsgClass::of(&SysMsg::RelAck { seqs: vec![1] }),
            MsgClass::Transport
        );
        assert_eq!(MsgClass::of(&SysMsg::Batch(vec![])), MsgClass::Batch);
        assert_eq!(MsgClass::Qd.label(), "qd");
    }

    #[test]
    fn an_event_stays_forty_bytes() {
        assert_eq!(std::mem::size_of::<TraceEvent>(), 40);
    }

    #[test]
    fn capacity_floor_is_one() {
        let mut r = RingLog::new(0);
        r.push(ev(1, 0));
        r.push(ev(2, 0));
        let (evs, dropped) = r.drain();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].at_ns, 2);
        assert_eq!(dropped, 1);
    }
}
