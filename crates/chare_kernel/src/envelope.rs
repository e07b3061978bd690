//! Kernel-internal message envelopes.
//!
//! Every packet between kernel nodes carries one [`SysMsg`]. User-level
//! traffic (new-chare seeds, chare messages, branch messages, shared-
//! variable operations) is *counted* for quiescence detection; kernel
//! control traffic (QD waves, load reports, work-request tokens) is not.

use std::any::Any;
use std::sync::Arc;

use multicomputer::Pe;

use crate::ids::{AccId, BocId, ChareId, ChareKind, EpId, MonoId, Notify, TableId, WoId};
use crate::priority::Priority;

pub use crate::body::{MsgBody, INLINE_BYTES};

/// Fixed per-envelope header size charged to the network cost model,
/// approximating the C kernel's envelope struct.
pub const ENVELOPE_HEADER: u32 = 24;

/// Hop count marking a seed whose placement was decided explicitly
/// (`create_on`) — load balancers must keep it where it lands.
pub const PLACED: u32 = u32::MAX;

/// Generator of broadcast payload copies: called once per PE reached by
/// a spanning-tree broadcast.
pub type CastGen = Arc<dyn Fn() -> SysMsg + Send + Sync>;

/// Shared payload slot for reliable delivery.
///
/// Message bodies are un-clonable, so retransmission cannot copy them.
/// Instead the sender's retransmit buffer and every wire frame co-own
/// one slot; the receiver atomically `take()`s the body on first
/// delivery. Late duplicates and retransmissions of an already-consumed
/// message find the slot empty — exactly-once delivery even when a
/// timed-out seed has been reclaimed and redirected while the original
/// frame is still in flight.
///
/// That last guarantee needs sender and receiver to share one address
/// space, as on the simulator and the thread backend. Between processes
/// the wire codec encodes what the slot holds and the receiver decodes
/// it into a fresh slot, so reclaiming a seed cannot void a copy that
/// already left: a seed whose acks are all lost can be created twice.
/// docs/PROCESS.md describes the gap ("One caveat worth knowing") and
/// the reliable-delivery model check exhibits it.
pub type RelSlot = Arc<std::sync::Mutex<Option<SysMsg>>>;

/// Extra wire bytes a reliable frame adds to its carried message
/// (sequence number + flags).
pub const REL_HEADER: u32 = 16;

/// An unborn chare: what a creation request turns into, what the load
/// balancer moves between PEs and pools, and what the scheduler finally
/// constructs.
pub struct Seed {
    /// Which registered chare type to instantiate.
    pub kind: ChareKind,
    /// The constructor message.
    pub body: MsgBody,
    /// Wire size of the constructor message.
    pub bytes: u32,
    /// Scheduling priority of the creation.
    pub prio: Priority,
}

/// The kernel-to-kernel wire protocol.
pub enum SysMsg {
    /// Several messages for the same destination PE combined into one
    /// packet (one network alpha instead of one per message). Inner
    /// messages were counted individually at send time; the batch
    /// wrapper itself is not counted.
    Batch(Vec<SysMsg>),
    /// A spanning-tree broadcast in flight: the receiving PE forwards it
    /// to its subtree children, then applies `gen()` locally.
    TreeCast {
        /// Root of the broadcast.
        origin: Pe,
        /// Whether the carried message is user traffic (for quiescence
        /// counting; precomputed so counting never invokes `gen`).
        counted: bool,
        /// Wire size of one carried copy.
        bytes: u32,
        /// Produces the carried message.
        gen: CastGen,
    },
    /// A seed for a new chare, still subject to load balancing (unless
    /// `hops == PLACED`).
    NewChare {
        /// The unborn chare.
        seed: Seed,
        /// Number of load-balancer forwards so far.
        hops: u32,
    },
    /// A message for an existing chare's entry point.
    ChareMsg {
        /// Destination chare (its `pe` equals the packet destination).
        target: ChareId,
        /// Entry point to invoke.
        ep: EpId,
        /// Message body.
        body: MsgBody,
        /// Wire size of the body.
        bytes: u32,
        /// Scheduling priority.
        prio: Priority,
    },
    /// A message for the local branch of a branch-office chare.
    BranchMsg {
        /// Destination BOC.
        boc: BocId,
        /// Entry point to invoke.
        ep: EpId,
        /// Message body.
        body: MsgBody,
        /// Wire size of the body.
        bytes: u32,
        /// Scheduling priority.
        prio: Priority,
    },
    /// Accumulator collect request: every PE must send its (destructively
    /// read) partial to `requester` tagged with `token`.
    AccCollect {
        /// Which accumulator.
        acc: AccId,
        /// Correlation token for this collect.
        token: u64,
        /// PE gathering the partials.
        requester: Pe,
    },
    /// One PE's partial accumulator value.
    AccPart {
        /// Which accumulator.
        acc: AccId,
        /// Correlation token.
        token: u64,
        /// The partial value (an `A::V`).
        part: MsgBody,
    },
    /// A monotonic-variable improvement broadcast.
    MonoUpdate {
        /// Which variable.
        mono: MonoId,
        /// The improved value (an `M::V`).
        value: MsgBody,
    },
    /// Insert into a distributed table shard (the destination PE owns the
    /// key).
    TablePut {
        /// Which table.
        table: TableId,
        /// Key.
        key: u64,
        /// Value (a `V`).
        value: MsgBody,
        /// Wire size of the value.
        bytes: u32,
        /// Optional completion notification.
        notify: Option<Notify>,
    },
    /// Look up a key; the shard replies with a `TableGot<V>` to `notify`.
    TableGet {
        /// Which table.
        table: TableId,
        /// Key.
        key: u64,
        /// Where the reply goes.
        notify: Notify,
    },
    /// Delete a key.
    TableDelete {
        /// Which table.
        table: TableId,
        /// Key.
        key: u64,
        /// Optional completion notification.
        notify: Option<Notify>,
    },
    /// Replicate a write-once value onto the destination PE.
    WoStore {
        /// The variable's id.
        wo: WoId,
        /// The shared value.
        value: Arc<dyn Any + Send + Sync>,
        /// Wire size of the value.
        bytes: u32,
    },
    /// Acknowledge a `WoStore` back to the creator.
    WoAck {
        /// The variable's id.
        wo: WoId,
    },
    /// Ask PE 0 to run quiescence detection and notify `notify` when the
    /// computation quiesces.
    QdStart {
        /// Who to tell.
        notify: Notify,
    },
    /// Coordinator poll: report your counters for `wave`.
    QdPoll {
        /// Wave number.
        wave: u64,
    },
    /// One PE's reply to a poll.
    QdCount {
        /// Wave number this reply answers.
        wave: u64,
        /// Counted user messages sent so far.
        sent: u64,
        /// Counted user messages received so far.
        recv: u64,
        /// Whether the PE had no queued user work at reply time.
        idle: bool,
    },
    /// Load report for the balancing strategies.
    LoadStatus {
        /// Sender's runnable backlog.
        load: u32,
    },
    /// Token-strategy work request from an idle PE. Idle PEs with no
    /// spare work forward the request onward (a random walk over the
    /// neighbor graph) until it finds a busy PE or its TTL expires.
    WorkReq {
        /// The PE that wants work.
        origin: Pe,
        /// Remaining forwarding hops.
        ttl: u8,
    },
    /// Negative response to a `WorkReq`.
    WorkNack,
    /// A sequence-numbered reliable frame carrying one inner message
    /// (or a batch). The receiver acks `seq`, dedups per sender, and
    /// takes the body from the shared slot on first delivery. Counting
    /// for quiescence happens on the *inner* message, so
    /// retransmissions never perturb the QD counters.
    RelData {
        /// Per-(sender, receiver) sequence number, starting at 1.
        seq: u64,
        /// Wire size of the carried message.
        bytes: u32,
        /// Co-owned body; empty once consumed.
        slot: RelSlot,
    },
    /// Acknowledgment of reliable frames: not cumulative, but every seq
    /// the acking PE received on this link since its last scheduler
    /// step, fresh or duplicate, repeats included. Unreliable and
    /// uncounted: a lost ack is repaired by the retransmission it fails
    /// to suppress.
    RelAck {
        /// Sequence numbers being acknowledged, in arrival order.
        seqs: Vec<u64>,
    },
}

impl SysMsg {
    /// Whether this message counts as user activity for quiescence
    /// detection.
    pub fn counted(&self) -> bool {
        match self {
            SysMsg::Batch(_) => false, // inners counted individually
            SysMsg::TreeCast { counted, .. } => *counted,
            SysMsg::QdStart { .. }
            | SysMsg::QdPoll { .. }
            | SysMsg::QdCount { .. }
            | SysMsg::LoadStatus { .. }
            | SysMsg::WorkReq { .. }
            | SysMsg::WorkNack => false,
            // Reliable framing is transport plumbing: the carried message
            // is counted when (and only when) its slot is consumed.
            SysMsg::RelData { .. } | SysMsg::RelAck { .. } => false,
            _ => true,
        }
    }

    /// Wire size charged to the network cost model.
    pub fn wire_bytes(&self) -> u32 {
        ENVELOPE_HEADER
            + match self {
                // One shared header; inner payloads keep their own
                // per-record framing minus the per-message envelope.
                SysMsg::Batch(inner) => inner
                    .iter()
                    .map(|m| m.wire_bytes() - ENVELOPE_HEADER + 2)
                    .sum(),
                SysMsg::TreeCast { bytes, .. } => 8 + bytes,
                SysMsg::NewChare { seed, .. } => 8 + seed.bytes + seed.prio.wire_bytes(),
                SysMsg::ChareMsg { bytes, prio, .. } => 16 + bytes + prio.wire_bytes(),
                SysMsg::BranchMsg { bytes, prio, .. } => 8 + bytes + prio.wire_bytes(),
                SysMsg::AccCollect { .. } => 16,
                SysMsg::AccPart { .. } => 16, // plus value, approximated flat
                SysMsg::MonoUpdate { .. } => 16,
                SysMsg::TablePut { bytes, .. } => 16 + bytes,
                SysMsg::TableGet { .. } => 24,
                SysMsg::TableDelete { .. } => 24,
                SysMsg::WoStore { bytes, .. } => 8 + bytes,
                SysMsg::WoAck { .. } => 8,
                SysMsg::QdStart { .. } => 16,
                SysMsg::QdPoll { .. } => 8,
                SysMsg::QdCount { .. } => 25,
                SysMsg::LoadStatus { .. } => 4,
                SysMsg::WorkReq { .. } => 5,
                SysMsg::WorkNack => 0,
                // The inner `bytes` already include its envelope header;
                // the frame shares it and adds only the reliable header.
                SysMsg::RelData { bytes, .. } => {
                    (bytes + REL_HEADER).saturating_sub(ENVELOPE_HEADER)
                }
                SysMsg::RelAck { seqs } => 4 + 8 * seqs.len() as u32,
            }
    }
}

/// One unit of runnable user work in a PE's scheduler queue.
pub enum WorkItem {
    /// Construct a new chare from its seed.
    NewChare(Seed),
    /// Deliver a message to a local chare.
    ChareMsg {
        /// Slot in the local chare table.
        local: u32,
        /// Entry point.
        ep: EpId,
        /// Message body.
        body: MsgBody,
    },
    /// Deliver a message to the local branch of a BOC.
    BranchMsg {
        /// Which BOC.
        boc: BocId,
        /// Entry point.
        ep: EpId,
        /// Message body.
        body: MsgBody,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_messages_are_not_counted() {
        assert!(!SysMsg::QdPoll { wave: 1 }.counted());
        assert!(!SysMsg::LoadStatus { load: 3 }.counted());
        assert!(!SysMsg::WorkReq {
            origin: Pe(0),
            ttl: 8
        }
        .counted());
        assert!(!SysMsg::WorkNack.counted());
        assert!(!SysMsg::QdCount {
            wave: 1,
            sent: 0,
            recv: 0,
            idle: true
        }
        .counted());
    }

    #[test]
    fn user_messages_are_counted() {
        let m = SysMsg::ChareMsg {
            target: ChareId {
                pe: Pe(0),
                local: 0,
            },
            ep: EpId(0),
            body: MsgBody::new(1u32),
            bytes: 4,
            prio: Priority::None,
        };
        assert!(m.counted());
        let seed = Seed { kind: ChareKind(0), body: MsgBody::new(()), bytes: 0, prio: Priority::None };
        let n = SysMsg::NewChare { seed, hops: 0 };
        assert!(n.counted());
        assert!(SysMsg::MonoUpdate {
            mono: MonoId(0),
            value: MsgBody::new(1u32)
        }
        .counted());
    }

    #[test]
    fn wire_bytes_include_header_and_payload() {
        let m = SysMsg::ChareMsg {
            target: ChareId {
                pe: Pe(0),
                local: 0,
            },
            ep: EpId(0),
            body: MsgBody::new(0u64),
            bytes: 100,
            prio: Priority::None,
        };
        assert_eq!(m.wire_bytes(), ENVELOPE_HEADER + 16 + 100 + 1);
    }

    /// What one message occupies on its way through a PE: a boxed envelope,
    /// a scheduler queue slot, a seed, and the machine's packet around the
    /// box. Each is moved at least once per message, so a size that grows
    /// here costs every message; change the figure only on purpose.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_message_keeps_its_footprint() {
        use std::mem::size_of;
        assert_eq!(size_of::<SysMsg>(), 120);
        assert_eq!(size_of::<WorkItem>(), 104);
        assert_eq!(size_of::<Seed>(), 104);
        assert_eq!(size_of::<multicomputer::Packet>(), 40);
    }
}
