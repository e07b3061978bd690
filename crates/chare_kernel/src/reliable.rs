//! Reliable inter-PE delivery: sequence numbers, acks, retransmission.
//!
//! The simulated multicomputer can be configured to drop, duplicate or
//! delay packets and to stall or crash PEs (see `multicomputer::fault`).
//! The original Chare Kernel assumed a lossless transport; this module
//! restores that guarantee on top of a lossy one, the way the real
//! machines' message layers did:
//!
//! * every remote kernel message is wrapped in a [`SysMsg::RelData`]
//!   frame carrying a per-(sender, receiver) sequence number;
//! * the receiver acknowledges every frame it sees (fresh or duplicate)
//!   and delivers carried messages exactly once and *in sequence order*
//!   per link: out-of-order arrivals wait in a reorder buffer until the
//!   gap below them is filled, preserving the FIFO-channel property
//!   programs could rely on before faults existed (ghost-row exchange,
//!   phased protocols). A shared [`RelSlot`] that the first arrival
//!   empties makes duplicates harmless;
//! * the sender keeps unacknowledged frames in a retransmit buffer and
//!   resends on an alarm-driven timer with exponential backoff — but
//!   only the head-of-line frame per destination, the one the in-order
//!   receiver is actually blocked on; retransmitting the tail too would
//!   multiply the load precisely when the network is already behind;
//! * a per-destination send window caps unacknowledged frames in
//!   flight; excess messages queue FIFO and are released by returning
//!   acks. Without this cap, a burst larger than the timeout's worth of
//!   NIC injections makes every frame in the tail look lost, and the
//!   resulting retransmissions snowball into congestion collapse;
//! * a *seed* (`NewChare` still subject to load balancing) that exhausts
//!   its retry budget is reclaimed from its slot and re-dispatched to a
//!   different PE — this is what lets work scheduled onto a crashed PE
//!   finish elsewhere. The emptied frame keeps retransmitting as a hole
//!   filler so the receiver's in-order window can advance past its seq.
//!   Non-seed messages are pinned to their destination (they address
//!   state that lives there) and retry forever with capped backoff.
//!
//! Quiescence detection stays correct because counting happens on the
//! *inner* messages: the sender counts at the original logical send, the
//! receiver counts when it consumes a delivered body, and
//! retransmissions, duplicates and acks touch neither counter. The
//! kernel additionally refuses to report itself idle to the QD
//! coordinator while any *user-counted* frame is unacknowledged or any
//! arrival waits in a reorder buffer (`RelState::quiet`) — but not
//! while mere control frames (the QD poll itself, load reports) are in
//! flight, which would deadlock detection against its own traffic.
//!
//! This type only does bookkeeping; the send/receive/alarm plumbing
//! lives in `transport.rs`, the one module that names it, so that all
//! network interaction stays in one place.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

use multicomputer::{Cost, Payload, Pe};

use crate::envelope::{RelSlot, SysMsg};

/// Tuning knobs for the reliable-delivery layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReliableConfig {
    /// Base retransmission timeout. Doubled on every retry (capped at
    /// `timeout << 5`). Must comfortably exceed one data + ack round
    /// trip *with a full window queued at the NIC* — the paper-preset
    /// machines serialize injections at ~150–700µs per message, so a
    /// window of frames ahead of the ack inflates the observed RTT by
    /// `window × injection`. A timeout below that triggers spurious
    /// retransmissions which add their own load; without the window cap
    /// that feedback loop is congestion collapse.
    pub timeout: Cost,
    /// Retries before a load-balanceable seed is presumed undeliverable
    /// and re-dispatched to a different PE. Messages that must reach
    /// their destination (chare/branch messages, placed seeds, shared
    /// variable traffic) ignore this and retry indefinitely.
    pub seed_retry_limit: u32,
    /// Flow control: at most this many unacknowledged frames per
    /// destination. Further sends queue FIFO and are released as acks
    /// come back, bounding both the receiver's reorder buffer and the
    /// RTT inflation that feeds retransmit storms.
    pub window: u32,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        ReliableConfig {
            timeout: Cost::millis(5),
            seed_retry_limit: 5,
            window: 32,
        }
    }
}

/// Why a [`ReliableConfig`] cannot work, from
/// [`ReliableConfig::validate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReliableConfigError {
    /// `window == 0`: no frame may ever be in flight, so the first
    /// submitted message queues forever and the run hangs at boot.
    ZeroWindow,
    /// `timeout == 0`: the retransmit alarm would be due the instant a
    /// frame is sent; every frame retransmits on every alarm tick and
    /// seeds exhaust their retry budget before the first copy can even
    /// arrive.
    ZeroTimeout,
}

impl std::fmt::Display for ReliableConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReliableConfigError::ZeroWindow => {
                write!(f, "reliable config: window must be >= 1 (a zero send window can never transmit anything)")
            }
            ReliableConfigError::ZeroTimeout => {
                write!(f, "reliable config: timeout must be nonzero (a zero retransmit timeout expires frames as they are sent)")
            }
        }
    }
}

impl std::error::Error for ReliableConfigError {}

impl ReliableConfig {
    /// Reject configurations that cannot deliver anything: a zero send
    /// window blocks every message forever, a zero timeout expires
    /// frames the moment they are registered. Both would surface as a
    /// hang or a spurious redirect storm deep inside a run; failing
    /// fast at program construction turns that into a diagnosable
    /// error. The desim campaign's scenario generator relies on this to
    /// keep randomized configs inside the deliverable envelope.
    pub fn validate(&self) -> Result<(), ReliableConfigError> {
        if self.window == 0 {
            return Err(ReliableConfigError::ZeroWindow);
        }
        if self.timeout.0 == 0 {
            return Err(ReliableConfigError::ZeroTimeout);
        }
        Ok(())
    }
}

/// Largest backoff shift: retries beyond this reuse `timeout << 5`.
/// Because only the head-of-line frame per destination ever goes back
/// on the wire, the worst-case retransmit load is one injection per
/// destination per capped interval — small enough that the cap can
/// stay low, which keeps hole-repair latency (and thus completion time
/// under sustained loss) proportional to the base timeout rather than
/// to a deep backoff tail.
const MAX_BACKOFF_SHIFT: u32 = 5;

/// One unacknowledged frame in the sender's retransmit buffer.
struct Pending {
    /// Destination PE.
    to: Pe,
    /// Co-owned body slot (shared with every copy of the frame on the
    /// wire; empty once the receiver consumed it).
    slot: RelSlot,
    /// Wire size of the carried message (for re-framing).
    inner_bytes: u32,
    /// Retransmissions so far.
    retries: u32,
    /// Absolute sim time (ns) at which the next retransmission is due.
    deadline: u64,
    /// Whether the body is a balanceable seed (eligible for redirect).
    is_seed: bool,
    /// Whether the body carries quiescence-counted user traffic (gates
    /// the idle report; see [`RelState::quiet`]).
    counted: bool,
}

/// Whether a message carries quiescence-counted user traffic, looking
/// through combining batches (whose wrapper is itself uncounted).
fn carries_user(msg: &SysMsg) -> bool {
    match msg {
        SysMsg::Batch(inner) => inner.iter().any(carries_user),
        other => other.counted(),
    }
}

/// A frame to put on the wire: freshly registered
/// ([`RelState::submit`], [`RelState::take_ready`]) or due again
/// ([`RelState::on_alarm`]).
pub(crate) struct Frame {
    /// Destination PE.
    pub to: Pe,
    /// Per-destination sequence number.
    pub seq: u64,
    /// Wire size of the carried message.
    pub inner_bytes: u32,
    /// Shared body slot.
    pub slot: RelSlot,
}

/// A seed reclaimed after exhausting its retry budget, to be re-sent to
/// a PE other than `suspect`.
pub(crate) struct RedirectSeed {
    /// The unresponsive PE the seed was bound for.
    pub suspect: Pe,
    /// The reclaimed seed message (always `SysMsg::NewChare`).
    pub seed: SysMsg,
}

/// What [`RelState::on_alarm`] decided needs doing.
pub(crate) struct AlarmActions {
    /// Frames to retransmit now.
    pub retransmits: Vec<Frame>,
    /// Seeds to re-dispatch elsewhere.
    pub redirects: Vec<RedirectSeed>,
}

/// Verdict on an incoming reliable frame.
pub(crate) enum Accept {
    /// Already delivered or already buffered — drop (after acking).
    Dup,
    /// The in-order run this arrival released, in sequence order. May be
    /// empty when the frame is ahead of a gap (buffered for later) or
    /// only plugged a hole with a voided body.
    Deliver(Vec<SysMsg>),
}

/// A message waiting for the send window to its destination to open.
struct Waiting {
    msg: SysMsg,
    is_seed: bool,
    counted: bool,
}

/// Per-node reliable-delivery bookkeeping.
pub(crate) struct RelState {
    cfg: ReliableConfig,
    /// Next sequence number per destination PE (starts at 1).
    next_seq: Vec<u64>,
    /// Unacknowledged frames, keyed by (destination, seq). BTreeMap so
    /// timeout scans iterate deterministically.
    outstanding: BTreeMap<(usize, u64), Pending>,
    /// Unacknowledged-frame count per destination (window occupancy).
    in_flight_to: Vec<u32>,
    /// FIFO of messages whose destination window was full at send time.
    wait_q: Vec<VecDeque<Waiting>>,
    /// Destinations that have ever timed a seed out; queued seeds bound
    /// for a suspect are re-dispatched at the next alarm rather than
    /// waiting on a window that may never reopen.
    suspect: Vec<bool>,
    /// Per-source contiguous-delivery watermark: every seq ≤ watermark
    /// has been received and delivered.
    watermark: Vec<u64>,
    /// Per-source out-of-order arrivals waiting for the gap below them
    /// to fill. `None` bodies are voided frames (redirected seeds) that
    /// only advance the watermark.
    reorder: Vec<BTreeMap<u64, Option<SysMsg>>>,
    /// Acks owed per source, flushed at the next scheduler step.
    pending_acks: Vec<Vec<u64>>,
    /// Absolute deadline the machine alarm is currently armed for.
    armed: Option<u64>,
}

/// Wire size of a reliable frame carrying `inner_bytes` of message.
pub(crate) fn frame_wire_bytes(inner_bytes: u32) -> u32 {
    use crate::envelope::{ENVELOPE_HEADER, REL_HEADER};
    ENVELOPE_HEADER + (inner_bytes + REL_HEADER).saturating_sub(ENVELOPE_HEADER)
}

/// Wire size of a `RelAck` carrying `n` sequence numbers, computed
/// without materializing the message.
pub(crate) fn rel_ack_wire_bytes(n: usize) -> u32 {
    crate::envelope::ENVELOPE_HEADER + 4 + 8 * n as u32
}

/// A second copy of a packet, for the simulator's duplication fault
/// (`NodeProgram::duplicate`) — which is what exercises receiver-side
/// dedup. Only this layer's own traffic can be copied: a frame (its
/// copy shares the slot, so whichever arrives first delivers the body)
/// and an ack (idempotent). Anything else travels bare only when
/// reliable delivery is off, where a repeat would be a protocol error.
pub(crate) fn duplicate(payload: &Payload) -> Option<Payload> {
    let copy = match payload.downcast_ref::<SysMsg>()? {
        SysMsg::RelData { seq, bytes, slot } => {
            SysMsg::RelData { seq: *seq, bytes: *bytes, slot: Arc::clone(slot) }
        }
        SysMsg::RelAck { seqs } => {
            let mut copy = crate::pool::seq_vec();
            copy.extend_from_slice(seqs);
            SysMsg::RelAck { seqs: copy }
        }
        _ => return None,
    };
    Some(crate::pool::payload(copy))
}

impl RelState {
    pub(crate) fn new(npes: usize, cfg: ReliableConfig) -> RelState {
        RelState {
            cfg,
            next_seq: vec![1; npes],
            outstanding: BTreeMap::new(),
            in_flight_to: vec![0; npes],
            wait_q: (0..npes).map(|_| VecDeque::new()).collect(),
            suspect: vec![false; npes],
            watermark: vec![0; npes],
            reorder: (0..npes).map(|_| BTreeMap::new()).collect(),
            pending_acks: vec![Vec::new(); npes],
            armed: None,
        }
    }

    // ---- sender side -----------------------------------------------

    /// Submit an outgoing message. If the send window to `to` is open
    /// (and nothing is already queued ahead, preserving FIFO order) the
    /// message is registered for immediate transmission; otherwise it
    /// waits until acks open the window (see [`RelState::take_ready`]).
    pub(crate) fn submit(&mut self, to: Pe, msg: SysMsg, now: u64, is_seed: bool) -> Option<Frame> {
        let i = to.index();
        if self.in_flight_to[i] < self.cfg.window && self.wait_q[i].is_empty() {
            return Some(self.register(to, msg, now, is_seed));
        }
        let counted = carries_user(&msg);
        self.wait_q[i].push_back(Waiting {
            msg,
            is_seed,
            counted,
        });
        None
    }

    /// Pop window-released messages, registering them for transmission.
    /// Called from the scheduler step (acks arrive outside any network
    /// context, so releases are deferred like acks are).
    pub(crate) fn take_ready(&mut self, now: u64) -> Vec<Frame> {
        let mut out = Vec::new();
        for i in 0..self.wait_q.len() {
            while self.in_flight_to[i] < self.cfg.window {
                let Some(w) = self.wait_q[i].pop_front() else {
                    break;
                };
                out.push(self.register(Pe::from(i), w.msg, now, w.is_seed));
            }
        }
        out
    }

    /// Whether any queued message could be transmitted now.
    pub(crate) fn has_ready(&self) -> bool {
        self.wait_q
            .iter()
            .enumerate()
            .any(|(i, q)| !q.is_empty() && self.in_flight_to[i] < self.cfg.window)
    }

    /// Register an outgoing message for reliable delivery; the returned
    /// [`Frame`] is its initial transmission.
    fn register(&mut self, to: Pe, msg: SysMsg, now: u64, is_seed: bool) -> Frame {
        let inner_bytes = msg.wire_bytes();
        let counted = carries_user(&msg);
        let seq = self.next_seq[to.index()];
        self.next_seq[to.index()] += 1;
        self.in_flight_to[to.index()] += 1;
        let slot: RelSlot = Arc::new(Mutex::new(Some(msg)));
        self.outstanding.insert(
            (to.index(), seq),
            Pending {
                to,
                slot: Arc::clone(&slot),
                inner_bytes,
                retries: 0,
                deadline: now + self.cfg.timeout.as_nanos(),
                is_seed,
                counted,
            },
        );
        Frame { to, seq, inner_bytes, slot }
    }

    /// Process an ack from `from`; returns how many frames it retired.
    pub(crate) fn on_ack(&mut self, from: Pe, seqs: &[u64]) -> u64 {
        let mut retired = 0;
        for &seq in seqs {
            if self.outstanding.remove(&(from.index(), seq)).is_some() {
                self.in_flight_to[from.index()] -= 1;
                retired += 1;
            }
        }
        retired
    }

    /// Handle a retransmission alarm: every frame whose deadline has
    /// passed gets its retry count bumped and its next deadline backed
    /// off, and seeds that exhausted their budget are reclaimed — but
    /// only the *head-of-line* frame per destination (lowest outstanding
    /// seq) is put back on the wire. The in-order receiver can deliver
    /// nothing until that frame arrives and has already acked whatever
    /// it buffered above the gap, so retransmitting the tail adds pure
    /// load — the feedback that turns one lost ack into congestion
    /// collapse. Tail frames are repaired one hole at a time as the
    /// head advances (go-back-N probing without the go-back-N resend).
    pub(crate) fn on_alarm(&mut self, now: u64) -> AlarmActions {
        self.armed = None;
        let expired: Vec<(usize, u64)> = self
            .outstanding
            .iter()
            .filter(|(_, p)| p.deadline <= now)
            .map(|(k, _)| *k)
            .collect();
        let mut head: BTreeMap<usize, u64> = BTreeMap::new();
        for &(dst, seq) in self.outstanding.keys() {
            head.entry(dst).or_insert(seq);
        }
        let mut actions = AlarmActions {
            retransmits: Vec::new(),
            redirects: Vec::new(),
        };
        for key in expired {
            let p = self.outstanding.get_mut(&key).unwrap();
            if p.is_seed && p.retries >= self.cfg.seed_retry_limit {
                self.suspect[key.0] = true;
                // Reclaim the body for re-dispatch elsewhere. The frame
                // itself stays in the buffer and keeps retransmitting
                // with an empty slot: the receiver's in-order window
                // must still advance past this seq, or every later
                // frame on the link would be held back forever. An
                // already-empty slot means the body in fact arrived and
                // only the ack was lost — nothing to redirect.
                let taken = p.slot.lock().expect("slot lock").take();
                p.is_seed = false;
                p.counted = false;
                if let Some(seed) = taken {
                    actions.redirects.push(RedirectSeed {
                        suspect: p.to,
                        seed,
                    });
                }
            }
            p.retries += 1;
            let shift = p.retries.min(MAX_BACKOFF_SHIFT);
            p.deadline = now + (self.cfg.timeout.as_nanos() << shift);
            if head.get(&key.0) == Some(&key.1) {
                actions.retransmits.push(Frame {
                    to: p.to,
                    seq: key.1,
                    inner_bytes: p.inner_bytes,
                    slot: Arc::clone(&p.slot),
                });
            }
        }
        // Seeds queued for a suspect destination must not wait on a
        // window that may never reopen (its slots can be permanently
        // held by hole-filler frames to a dead PE): re-dispatch them
        // now. Non-seed traffic stays queued — it addresses state that
        // only exists there.
        for (i, q) in self.wait_q.iter_mut().enumerate() {
            if !self.suspect[i] || q.is_empty() {
                continue;
            }
            let mut keep = VecDeque::with_capacity(q.len());
            for w in q.drain(..) {
                if w.is_seed {
                    actions.redirects.push(RedirectSeed {
                        suspect: Pe::from(i),
                        seed: w.msg,
                    });
                } else {
                    keep.push_back(w);
                }
            }
            *q = keep;
        }
        actions
    }

    /// Earliest pending retransmission deadline, if any.
    fn next_deadline(&self) -> Option<u64> {
        self.outstanding.values().map(|p| p.deadline).min()
    }

    /// Decide whether the machine alarm needs (re)arming, and for what
    /// relative delay. Tracks the currently armed deadline so callers
    /// only rearm when an earlier deadline appears (the machine keeps a
    /// single alarm per PE; spurious fires are cheap no-ops).
    pub(crate) fn rearm(&mut self, now: u64) -> Option<Cost> {
        let next = self.next_deadline()?;
        if self.armed.is_some_and(|a| a <= next) {
            return None;
        }
        self.armed = Some(next);
        Some(Cost(next.saturating_sub(now).max(1)))
    }

    // ---- receiver side ---------------------------------------------

    /// Record receipt of frame `seq` from `from`, queue its ack, and
    /// decide what (if anything) to deliver.
    pub(crate) fn accept(&mut self, from: Pe, seq: u64, slot: &RelSlot) -> Accept {
        let i = from.index();
        self.pending_acks[i].push(seq);
        let w = &mut self.watermark[i];
        let buf = &mut self.reorder[i];
        if seq <= *w || buf.contains_key(&seq) {
            return Accept::Dup;
        }
        // First sight of this seq: pull the body out of the shared slot.
        // `None` means the sender reclaimed it for redirect and the
        // frame now only exists to advance the watermark.
        let body = slot.lock().expect("slot lock").take();
        buf.insert(seq, body);
        let mut run = Vec::new();
        while let Some(body) = buf.remove(&(*w + 1)) {
            *w += 1;
            run.extend(body);
        }
        Accept::Deliver(run)
    }

    /// Drain queued acks, grouped per destination in PE order.
    pub(crate) fn take_acks(&mut self) -> Vec<(Pe, Vec<u64>)> {
        let mut out = Vec::new();
        for (i, acks) in self.pending_acks.iter_mut().enumerate() {
            if !acks.is_empty() {
                out.push((Pe::from(i), std::mem::replace(acks, crate::pool::seq_vec())));
            }
        }
        out
    }

    /// Whether acks are queued (the node has transport work to do even
    /// with no user work).
    pub(crate) fn has_acks(&self) -> bool {
        self.pending_acks.iter().any(|a| !a.is_empty())
    }

    /// Whether this PE may report itself idle to quiescence detection:
    /// no unacknowledged frame carrying *user* traffic. Such a frame may
    /// still inject work somewhere (or be a reclaimed-and-redirected
    /// seed whose receive was never counted), so declaring quiescence
    /// over it would be premature.
    ///
    /// Control frames (QD polls and counts, load reports, work tokens)
    /// deliberately do not gate the report: a poll forwarded down the
    /// broadcast tree is itself an unacked frame at answer time, and
    /// gating on it would make every non-leaf PE permanently busy —
    /// quiescence could never be declared at all. Lost control frames
    /// are repaired by retransmission exactly like user ones; they just
    /// cannot create user work out of nothing, so the four-counter
    /// algorithm stays sound without them.
    ///
    /// A non-empty reorder buffer also blocks the report: messages
    /// parked behind a sequence gap may carry user work this PE has not
    /// consumed (or counted) yet. So do window-queued user messages that
    /// have not even been transmitted.
    pub(crate) fn quiet(&self) -> bool {
        !self.outstanding.values().any(|p| p.counted)
            && self.reorder.iter().all(|b| b.is_empty())
            && !self.wait_q.iter().flatten().any(|w| w.counted)
    }

    /// Destinations that have ever timed a seed out on this PE. Seed
    /// redirection consults this so a reclaimed seed is never re-aimed
    /// at a destination already known not to answer — the set only
    /// grows, so a seed bouncing through slow destinations runs out of
    /// fresh targets after at most `npes - 1` hops and settles locally
    /// instead of circulating forever.
    pub(crate) fn suspects(&self) -> &[bool] {
        &self.suspect
    }

    /// Unacknowledged frames of any kind, control frames included — the
    /// end-of-run snapshot behind the `rel_unacked_end` counter. Only a
    /// frame still in here can be the gap a receiver's reorder buffer
    /// waits on (a parked arrival itself is acked when it is buffered).
    pub(crate) fn in_flight(&self) -> usize {
        self.outstanding.len()
    }

    /// Unacknowledged frames still carrying *counted* user traffic —
    /// the end-of-run snapshot behind the `rel_inflight_end` counter.
    /// Window-queued user messages count too: they are just as
    /// undelivered as a frame on the wire.
    pub(crate) fn counted_inflight(&self) -> usize {
        self.outstanding.values().filter(|p| p.counted).count()
            + self.wait_q.iter().flatten().filter(|w| w.counted).count()
    }

    /// Arrivals parked behind a sequence gap across all reorder
    /// buffers — the end-of-run snapshot behind `rel_reorder_end`.
    pub(crate) fn parked(&self) -> usize {
        self.reorder.iter().map(|b| b.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg() -> SysMsg {
        SysMsg::WoAck {
            wo: crate::ids::WoId(1),
        }
    }

    fn seed_msg() -> SysMsg {
        let seed = crate::envelope::Seed {
            kind: crate::ids::ChareKind(0),
            body: Box::new(7u32),
            bytes: 4,
            prio: crate::priority::Priority::None,
        };
        SysMsg::NewChare { seed, hops: 0 }
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        assert_eq!(ReliableConfig::default().validate(), Ok(()));
        let zero_window = ReliableConfig {
            window: 0,
            ..ReliableConfig::default()
        };
        assert_eq!(
            zero_window.validate(),
            Err(ReliableConfigError::ZeroWindow)
        );
        let zero_timeout = ReliableConfig {
            timeout: Cost(0),
            ..ReliableConfig::default()
        };
        assert_eq!(
            zero_timeout.validate(),
            Err(ReliableConfigError::ZeroTimeout)
        );
        // The minimal working config is fine: retries may be zero
        // (seeds then redirect on the first timeout, which is a
        // legitimate — aggressive — policy).
        let minimal = ReliableConfig {
            timeout: Cost(1),
            seed_retry_limit: 0,
            window: 1,
        };
        assert_eq!(minimal.validate(), Ok(()));
        // Errors render actionable text.
        assert!(ReliableConfigError::ZeroWindow.to_string().contains("window"));
        assert!(ReliableConfigError::ZeroTimeout.to_string().contains("timeout"));
    }

    #[test]
    fn end_state_snapshots_count_counted_traffic_only() {
        let cfg = ReliableConfig {
            window: 1,
            ..ReliableConfig::default()
        };
        let mut r = RelState::new(3, cfg);
        assert_eq!((r.counted_inflight(), r.parked()), (0, 0));
        // A counted user message in flight and one window-queued.
        let s1 = r.submit(Pe(1), seed_msg(), 0, true).expect("window open").seq;
        assert!(r.submit(Pe(1), seed_msg(), 0, true).is_none(), "queued");
        assert_eq!(r.counted_inflight(), 2);
        // An uncounted control frame contributes nothing.
        r.register(Pe(2), SysMsg::WorkNack, 0, false);
        assert_eq!(r.counted_inflight(), 2);
        r.on_ack(Pe(1), &[s1]);
        assert_eq!(r.counted_inflight(), 1, "ack retired the wire copy");
        // A parked out-of-order arrival shows up in `parked`.
        let held = slot_of(msg());
        r.accept(Pe(2), 3, &held);
        assert_eq!(r.parked(), 1);
    }

    #[test]
    fn sequence_numbers_are_per_destination() {
        let mut r = RelState::new(4, ReliableConfig::default());
        let s1 = r.register(Pe(1), msg(), 0, false).seq;
        let s2 = r.register(Pe(2), msg(), 0, false).seq;
        let s3 = r.register(Pe(1), msg(), 0, false).seq;
        assert_eq!((s1, s2, s3), (1, 1, 2));
        assert_eq!(r.in_flight(), 3);
    }

    #[test]
    fn acks_retire_outstanding_frames() {
        let mut r = RelState::new(2, ReliableConfig::default());
        let s1 = r.register(Pe(1), msg(), 0, false).seq;
        let s2 = r.register(Pe(1), msg(), 0, false).seq;
        assert_eq!(r.on_ack(Pe(1), &[s1, s2]), 2);
        assert_eq!(r.on_ack(Pe(1), &[s1]), 0, "double ack is harmless");
        assert!(r.quiet());
    }

    fn slot_of(m: SysMsg) -> RelSlot {
        Arc::new(Mutex::new(Some(m)))
    }

    /// How many messages an `Accept` released, or -1 for a duplicate.
    fn released(a: Accept) -> i32 {
        match a {
            Accept::Dup => -1,
            Accept::Deliver(run) => run.len() as i32,
        }
    }

    #[test]
    fn delivery_is_deduped_and_in_order() {
        let mut r = RelState::new(2, ReliableConfig::default());
        let (s1, s2, s3) = (slot_of(msg()), slot_of(msg()), slot_of(msg()));
        assert_eq!(released(r.accept(Pe(1), 1, &s1)), 1, "in order");
        assert_eq!(released(r.accept(Pe(1), 3, &s3)), 0, "held: gap at 2");
        assert!(!r.quiet(), "parked arrival blocks the idle report");
        assert_eq!(released(r.accept(Pe(1), 1, &s1)), -1, "retransmission");
        assert_eq!(released(r.accept(Pe(1), 3, &s3)), -1, "dup ahead of gap");
        assert_eq!(released(r.accept(Pe(1), 2, &s2)), 2, "gap fill frees both");
        assert_eq!(released(r.accept(Pe(1), 2, &s2)), -1);
        assert!(r.quiet());
        // Every receipt queued an ack, fresh or not.
        let acks = r.take_acks();
        assert_eq!(acks.len(), 1);
        assert_eq!(acks[0].0, Pe(1));
        assert_eq!(acks[0].1, vec![1, 3, 1, 3, 2, 2]);
        assert!(!r.has_acks());
    }

    #[test]
    fn send_window_queues_and_releases_in_order() {
        let cfg = ReliableConfig {
            window: 2,
            ..ReliableConfig::default()
        };
        let mut r = RelState::new(3, cfg);
        let s1 = r.submit(Pe(1), msg(), 0, false).expect("window open").seq;
        let s2 = r.submit(Pe(1), msg(), 0, false).expect("window open").seq;
        assert!(r.submit(Pe(1), msg(), 0, false).is_none(), "window full");
        assert!(r.submit(Pe(1), msg(), 0, false).is_none());
        // Another destination has its own window.
        assert!(r.submit(Pe(2), msg(), 0, false).is_some());
        assert!(!r.has_ready(), "nothing released until acks return");
        r.on_ack(Pe(1), &[s1]);
        assert!(r.has_ready());
        let ready = r.take_ready(5);
        assert_eq!(ready.len(), 1, "one ack frees one slot");
        assert_eq!(ready[0].to, Pe(1));
        assert_eq!(ready[0].seq, s2 + 1, "FIFO: queued before new seqs");
        assert!(!r.has_ready());
        r.on_ack(Pe(1), &[s2, s2 + 1]);
        assert_eq!(r.take_ready(6).len(), 1, "last queued message drains");
        assert!(!r.quiet(), "released frames are outstanding (counted)");
    }

    #[test]
    fn queued_seeds_redirect_once_destination_is_suspect() {
        let cfg = ReliableConfig {
            timeout: Cost(10),
            seed_retry_limit: 0,
            window: 1,
        };
        let mut r = RelState::new(2, cfg);
        assert!(r.submit(Pe(1), seed_msg(), 0, true).is_some());
        assert!(r.submit(Pe(1), seed_msg(), 0, true).is_none(), "queued");
        // First timeout: in-flight seed gives up (budget 0) and marks
        // Pe(1) suspect; the queued seed must come out too instead of
        // waiting behind the hole-filler forever.
        let acts = r.on_alarm(10);
        assert_eq!(acts.redirects.len(), 2);
        assert!(acts
            .redirects
            .iter()
            .all(|rd| rd.suspect == Pe(1) && matches!(rd.seed, SysMsg::NewChare { .. })));
        assert!(!r.has_ready());
    }

    #[test]
    fn voided_frame_fills_the_gap_it_leaves() {
        // A redirected seed's frame arrives with an empty slot; it must
        // advance the watermark so later traffic is not held forever.
        let mut r = RelState::new(2, ReliableConfig::default());
        let hole = slot_of(msg());
        hole.lock().unwrap().take();
        let s2 = slot_of(msg());
        assert_eq!(released(r.accept(Pe(1), 2, &s2)), 0, "held behind hole");
        assert_eq!(released(r.accept(Pe(1), 1, &hole)), 1, "hole filled");
        assert!(r.quiet());
    }

    #[test]
    fn alarm_retransmits_with_backoff() {
        let cfg = ReliableConfig {
            timeout: Cost(100),
            seed_retry_limit: 5,
            ..ReliableConfig::default()
        };
        let mut r = RelState::new(2, cfg);
        r.register(Pe(1), msg(), 0, false);
        assert_eq!(r.rearm(0), Some(Cost(100)));
        // Before the deadline: nothing expires.
        assert!(r.on_alarm(50).retransmits.is_empty());
        // At the deadline: one retransmit, next deadline backed off 2x.
        let acts = r.on_alarm(100);
        assert_eq!(acts.retransmits.len(), 1);
        assert_eq!(r.rearm(100), Some(Cost(200)));
        let acts = r.on_alarm(300);
        assert_eq!(acts.retransmits.len(), 1);
        assert_eq!(r.next_deadline(), Some(300 + 400));
    }

    #[test]
    fn alarm_retransmits_only_the_head_of_line() {
        let cfg = ReliableConfig {
            timeout: Cost(10),
            seed_retry_limit: 5,
            ..ReliableConfig::default()
        };
        let mut r = RelState::new(3, cfg);
        let s1 = r.register(Pe(1), msg(), 0, false).seq;
        let s2 = r.register(Pe(1), msg(), 0, false).seq;
        let s3 = r.register(Pe(2), msg(), 0, false).seq;
        // One retransmit per destination: the lowest outstanding seq is
        // the only frame the in-order receiver can be blocked on.
        let acts = r.on_alarm(10);
        assert_eq!(acts.retransmits.len(), 2);
        assert_eq!(
            (acts.retransmits[0].to, acts.retransmits[0].seq),
            (Pe(1), s1)
        );
        assert_eq!(
            (acts.retransmits[1].to, acts.retransmits[1].seq),
            (Pe(2), s3)
        );
        // The tail frame timed out too (its backoff advanced); once the
        // head retires it becomes the probe target.
        r.on_ack(Pe(1), &[s1]);
        let t = r.next_deadline().unwrap();
        let acts = r.on_alarm(t);
        assert!(acts
            .retransmits
            .iter()
            .any(|rt| rt.to == Pe(1) && rt.seq == s2));
    }

    #[test]
    fn non_seed_messages_never_give_up() {
        let cfg = ReliableConfig {
            timeout: Cost(10),
            seed_retry_limit: 2,
            ..ReliableConfig::default()
        };
        let mut r = RelState::new(2, cfg);
        r.register(Pe(1), msg(), 0, false);
        let mut t = 10;
        for _ in 0..20 {
            let acts = r.on_alarm(t);
            assert_eq!(acts.retransmits.len(), 1);
            assert!(acts.redirects.is_empty());
            t = r.next_deadline().unwrap();
        }
        assert_eq!(r.in_flight(), 1);
    }

    #[test]
    fn seeds_redirect_after_retry_budget() {
        let cfg = ReliableConfig {
            timeout: Cost(10),
            seed_retry_limit: 2,
            ..ReliableConfig::default()
        };
        let mut r = RelState::new(2, cfg);
        r.register(Pe(1), seed_msg(), 0, true);
        let mut t = 10;
        let mut redirected = None;
        for _ in 0..5 {
            let acts = r.on_alarm(t);
            if !acts.redirects.is_empty() {
                redirected = Some(acts.redirects.into_iter().next().unwrap());
                break;
            }
            t = r.next_deadline().unwrap();
        }
        let rd = redirected.expect("seed should be reclaimed");
        assert_eq!(rd.suspect, Pe(1));
        assert!(matches!(rd.seed, SysMsg::NewChare { .. }));
        // The emptied frame stays behind as a hole filler until acked,
        // but no longer gates the idle report.
        assert_eq!(r.in_flight(), 1);
        assert!(r.quiet());
    }

    #[test]
    fn delivered_seed_with_lost_ack_is_not_redirected() {
        let cfg = ReliableConfig {
            timeout: Cost(10),
            seed_retry_limit: 0,
            ..ReliableConfig::default()
        };
        let mut r = RelState::new(2, cfg);
        let reg = r.register(Pe(1), seed_msg(), 0, true);
        // Receiver consumed the body; only the ack went missing.
        reg.slot.lock().unwrap().take();
        let acts = r.on_alarm(10);
        assert!(acts.redirects.is_empty());
        assert_eq!(acts.retransmits.len(), 1, "keeps nudging for the ack");
        assert!(r.quiet());
    }

    #[test]
    fn rearm_only_fires_for_earlier_deadlines() {
        let cfg = ReliableConfig {
            timeout: Cost(100),
            seed_retry_limit: 5,
            ..ReliableConfig::default()
        };
        let mut r = RelState::new(3, cfg);
        r.register(Pe(1), msg(), 0, false); // deadline 100
        assert_eq!(r.rearm(0), Some(Cost(100)));
        r.register(Pe(2), msg(), 50, false); // deadline 150
        assert_eq!(r.rearm(50), None, "already armed earlier");
    }

    #[test]
    fn frame_payload_materializes_shared_slot() {
        let slot: RelSlot = Arc::new(Mutex::new(Some(msg())));
        let frame = SysMsg::RelData { seq: 9, bytes: 32, slot: Arc::clone(&slot) };
        let p = crate::pool::payload(frame);
        let copy = duplicate(&p).expect("a frame can be copied");
        for m in [p, copy] {
            match *m.downcast::<SysMsg>().unwrap() {
                SysMsg::RelData { seq, bytes, slot: shared } => {
                    assert_eq!((seq, bytes), (9, 32));
                    assert!(Arc::ptr_eq(&shared, &slot), "every copy shares the one slot");
                }
                _ => panic!("wrong frame"),
            }
        }
        assert!(slot.lock().unwrap().take().is_some());
        let ack = crate::pool::payload(SysMsg::RelAck { seqs: vec![3, 4] });
        let again = duplicate(&ack).expect("an ack can be copied");
        assert!(matches!(again.downcast_ref(), Some(SysMsg::RelAck { seqs }) if *seqs == [3, 4]));
        assert!(duplicate(&crate::pool::payload(msg())).is_none(), "bare traffic is opaque");
    }
}
