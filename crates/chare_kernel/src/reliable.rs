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
//! The whole protocol is one transition function, `RelState::step`: an
//! event goes in (a post, an arriving frame or ack, a scheduler step,
//! the alarm) and the actions it decides come out in order (send a
//! frame, send acks, deliver, count a duplicate, re-arm the alarm,
//! redirect a seed), appended to a buffer the caller owns. It never
//! touches the network: `transport.rs` interprets the actions, the one
//! place they become sends, alarms, counters and trace events. That is
//! what lets the tests below model-check the protocol — two or three
//! states driven through `step` alone, under every interleaving of
//! loss, duplication, reordering, early timeouts and a dead peer that a
//! fault budget allows.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

use multicomputer::{Cost, Payload, Pe};

use crate::envelope::{RelSlot, SysMsg, PLACED};
use crate::stats::KernelCounters;

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
    /// that feedback loop is congestion collapse. A deadline past the
    /// end of the clock saturates there: such a frame never retransmits.
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

/// Whether a message is a seed still subject to load balancing — the
/// only traffic that may be re-homed if its destination stops
/// answering. Everything else, placed seeds and batches (combined *for*
/// this destination) included, addresses state that lives there and
/// retries forever.
fn is_seed(msg: &SysMsg) -> bool {
    matches!(msg, SysMsg::NewChare { hops, .. } if *hops != PLACED)
}

/// A seed reclaimed after exhausting its retry budget, to be re-sent to
/// a PE other than `suspect`.
pub(crate) struct RedirectSeed {
    /// The unresponsive PE the seed was bound for.
    pub suspect: Pe,
    /// The reclaimed seed message (always `SysMsg::NewChare`).
    pub seed: SysMsg,
}

/// What happened to one PE's reliable-delivery state: the input of
/// [`RelState::step`].
pub(crate) enum RelEvent {
    /// The kernel sends `msg` to the remote PE `to`.
    Post { to: Pe, msg: SysMsg },
    /// Frame `seq` arrived from `from`.
    Frame { from: Pe, seq: u64, slot: RelSlot },
    /// An acknowledgment arrived from `from`.
    Ack { from: Pe, seqs: Vec<u64> },
    /// A scheduler step begins: what arrivals left owing the wire goes
    /// out now.
    Step,
    /// The retransmit alarm fired.
    Alarm,
}

/// What [`RelState::step`] decided, for the transport to carry out in
/// the order given.
pub(crate) enum RelAction {
    /// Put frame `seq`, carrying `bytes` of message in `slot`, on the
    /// wire to `to` — for the first time, or `again`.
    Send { to: Pe, seq: u64, bytes: u32, slot: RelSlot, again: bool },
    /// Acknowledge `seqs` to `to`: every frame received from it since
    /// the last step, fresh or duplicate.
    Ack { to: Pe, seqs: Vec<u64> },
    /// A message released in sequence order, for the scheduler.
    Deliver(SysMsg),
    /// An arrival that was already delivered or buffered was dropped.
    Dup,
    /// (Re)arm the retransmit alarm to fire this long from now.
    Arm(Cost),
    /// A seed reclaimed from an unresponsive destination, to re-home.
    Redirect(RedirectSeed),
}

/// Per-node reliable-delivery state.
pub(crate) struct RelState {
    cfg: ReliableConfig,
    /// Next sequence number per destination PE (starts at 1).
    next_seq: Vec<u64>,
    /// Unacknowledged frames, keyed by (destination, seq). BTreeMap so
    /// timeout scans iterate deterministically, and a destination's
    /// first entry is its head of line.
    outstanding: BTreeMap<(usize, u64), Pending>,
    /// Unacknowledged-frame count per destination (window occupancy).
    in_flight_to: Vec<u32>,
    /// FIFO of messages whose destination window was full at send time.
    wait_q: Vec<VecDeque<SysMsg>>,
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
    /// Acks owed per source, sent at the next scheduler step.
    pending_acks: Vec<Vec<u64>>,
    /// Absolute deadline the machine alarm is currently armed for.
    armed: Option<u64>,
    /// Treat every arrival as fresh: the mutation the model check must
    /// catch.
    #[cfg(test)]
    no_dedup: bool,
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
            #[cfg(test)]
            no_dedup: false,
        }
    }

    /// The protocol's one transition: take `ev` at time `now` (ns) and
    /// append what must happen, in order, to `out`. It only appends, so
    /// a caller that reuses its buffer allocates nothing per event.
    ///
    /// An arrival (`Frame`, `Ack`) decides no wire action and leaves the
    /// alarm alone: arrivals come with no network context, so the acks
    /// they owe and the frames a returning ack releases wait for the
    /// next `Step`. A stalled PE never steps, which is exactly why its
    /// senders start retransmitting.
    pub(crate) fn step(&mut self, now: u64, ev: RelEvent, out: &mut Vec<RelAction>) {
        let timeout = self.cfg.timeout.as_nanos();
        match ev {
            RelEvent::Post { to, msg } => {
                // FIFO: nothing overtakes a message already queued.
                let i = to.index();
                if self.in_flight_to[i] < self.cfg.window && self.wait_q[i].is_empty() {
                    self.register(to, msg, now, out);
                    self.arm(now.saturating_add(timeout), now, out);
                } else {
                    self.wait_q[i].push_back(msg);
                }
            }
            RelEvent::Frame { from, seq, slot } => self.receive(from.index(), seq, &slot, out),
            RelEvent::Ack { from, seqs } => {
                for &seq in &seqs {
                    if self.outstanding.remove(&(from.index(), seq)).is_some() {
                        self.in_flight_to[from.index()] -= 1;
                    }
                }
                crate::pool::recycle_seq_vec(seqs);
            }
            RelEvent::Step => {
                // Owed acks first, then the frames that returning acks
                // released. Acks travel unwrapped (they *are* the
                // acknowledgment machinery) and uncounted; a lost ack is
                // repaired by the retransmission it fails to suppress.
                for (i, acks) in self.pending_acks.iter_mut().enumerate() {
                    if !acks.is_empty() {
                        let seqs = std::mem::replace(acks, crate::pool::seq_vec());
                        out.push(RelAction::Ack { to: Pe::from(i), seqs });
                    }
                }
                let mut released = false;
                for i in 0..self.wait_q.len() {
                    while self.in_flight_to[i] < self.cfg.window {
                        let Some(msg) = self.wait_q[i].pop_front() else {
                            break;
                        };
                        self.register(Pe::from(i), msg, now, out);
                        released = true;
                    }
                }
                if released {
                    self.arm(now.saturating_add(timeout), now, out);
                }
            }
            RelEvent::Alarm => self.expire(now, out),
        }
    }

    /// Give `msg` the next sequence number to `to`, keep it for
    /// retransmission, and send its first copy.
    fn register(&mut self, to: Pe, msg: SysMsg, now: u64, out: &mut Vec<RelAction>) {
        let (bytes, counted, is_seed) = (msg.wire_bytes(), carries_user(&msg), is_seed(&msg));
        let seq = self.next_seq[to.index()];
        self.next_seq[to.index()] += 1;
        self.in_flight_to[to.index()] += 1;
        let slot: RelSlot = Arc::new(Mutex::new(Some(msg)));
        let deadline = now.saturating_add(self.cfg.timeout.as_nanos());
        let pending = Pending {
            to,
            slot: Arc::clone(&slot),
            inner_bytes: bytes,
            retries: 0,
            deadline,
            is_seed,
            counted,
        };
        self.outstanding.insert((to.index(), seq), pending);
        out.push(RelAction::Send { to, seq, bytes, slot, again: false });
    }

    /// Ask for the alarm at `deadline` unless it is already armed no
    /// later. The machine keeps one alarm per PE and the last request a
    /// handler makes; spurious fires are cheap no-ops. Every deadline a
    /// post or release adds is `now + timeout`, and the alarm is always
    /// armed at or before the earliest deadline outstanding, so this
    /// one comparison keeps it there without scanning the buffer.
    fn arm(&mut self, deadline: u64, now: u64, out: &mut Vec<RelAction>) {
        if self.armed.is_none_or(|a| a > deadline) {
            self.armed = Some(deadline);
            out.push(RelAction::Arm(Cost(deadline.saturating_sub(now).max(1))));
        }
    }

    /// The alarm fired: every frame whose deadline has passed gets its
    /// retry count bumped and its next deadline backed off, and seeds
    /// that exhausted their budget are reclaimed — but only the
    /// *head-of-line* frame per destination (lowest outstanding seq) is
    /// put back on the wire. The in-order receiver can deliver nothing
    /// until that frame arrives and has already acked whatever it
    /// buffered above the gap, so retransmitting the tail adds pure
    /// load — the feedback that turns one lost ack into congestion
    /// collapse. Tail frames are repaired one hole at a time as the
    /// head advances (go-back-N probing without the go-back-N resend).
    fn expire(&mut self, now: u64, out: &mut Vec<RelAction>) {
        self.armed = None;
        let mut last_dst = None;
        for (&(dst, seq), p) in self.outstanding.iter_mut() {
            let head = last_dst != Some(dst);
            last_dst = Some(dst);
            if p.deadline > now {
                continue;
            }
            if p.is_seed && p.retries >= self.cfg.seed_retry_limit {
                self.suspect[dst] = true;
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
                    out.push(RelAction::Redirect(RedirectSeed { suspect: p.to, seed }));
                }
            }
            p.retries += 1;
            let shift = p.retries.min(MAX_BACKOFF_SHIFT);
            p.deadline = now.saturating_add(self.cfg.timeout.as_nanos().saturating_mul(1 << shift));
            if head {
                let slot = Arc::clone(&p.slot);
                out.push(RelAction::Send { to: p.to, seq, bytes: p.inner_bytes, slot, again: true });
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
            for msg in q.drain(..) {
                if is_seed(&msg) {
                    let suspect = Pe::from(i);
                    out.push(RelAction::Redirect(RedirectSeed { suspect, seed: msg }));
                } else {
                    keep.push_back(msg);
                }
            }
            *q = keep;
        }
        if let Some(next) = self.outstanding.values().map(|p| p.deadline).min() {
            self.arm(next, now, out);
        }
    }

    /// Record receipt of frame `seq` from PE `from`, owe it an ack, and
    /// release whatever in-order run it completes.
    fn receive(&mut self, from: usize, seq: u64, slot: &RelSlot, out: &mut Vec<RelAction>) {
        self.pending_acks[from].push(seq);
        let w = &mut self.watermark[from];
        let buf = &mut self.reorder[from];
        let dup = seq <= *w || buf.contains_key(&seq);
        #[cfg(test)]
        let dup = dup && !self.no_dedup;
        if dup {
            out.push(RelAction::Dup);
            return;
        }
        // First sight of this seq: pull the body out of the shared slot.
        // `None` means the sender reclaimed it for redirect and the
        // frame now only exists to advance the watermark.
        let body = slot.lock().expect("slot lock").take();
        buf.insert(seq, body);
        while let Some(body) = buf.remove(&(*w + 1)) {
            *w += 1;
            out.extend(body.map(RelAction::Deliver));
        }
    }

    /// Whether the next `Step` has anything to send: owed acks, or a
    /// queued message a reopened window can release.
    pub(crate) fn pending(&self) -> bool {
        self.pending_acks.iter().any(|a| !a.is_empty())
            || self
                .wait_q
                .iter()
                .enumerate()
                .any(|(i, q)| !q.is_empty() && self.in_flight_to[i] < self.cfg.window)
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
            && !self.wait_q.iter().flatten().any(carries_user)
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

    /// End-of-run snapshots of what was still undelivered:
    /// - `rel_inflight_end`: frames still carrying *counted* user
    ///   traffic, window-queued user messages included — they are just
    ///   as undelivered as a frame on the wire;
    /// - `rel_reorder_end`: arrivals parked behind a sequence gap;
    /// - `rel_unacked_end`: unacknowledged frames of any kind, control
    ///   frames included. Only a frame still in here can be the gap a
    ///   receiver's reorder buffer waits on (a parked arrival itself is
    ///   acked when it is buffered).
    pub(crate) fn end_state(&self, c: &mut KernelCounters) {
        c.rel_inflight_end = (self.outstanding.values().filter(|p| p.counted).count()
            + self.wait_q.iter().flatten().filter(|m| carries_user(m)).count())
            as u64;
        c.rel_reorder_end = self.reorder.iter().map(|b| b.len()).sum::<usize>() as u64;
        c.rel_unacked_end = self.outstanding.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::hash_map::DefaultHasher;
    use std::collections::HashMap;
    use std::hash::{Hash, Hasher};

    use super::*;
    use crate::envelope::Seed;
    use crate::ids::{ChareKind, WoId};
    use crate::priority::Priority;

    fn msg() -> SysMsg {
        msg_n(1)
    }

    /// A counted user message that says which one it is.
    fn msg_n(n: u64) -> SysMsg {
        SysMsg::WoAck { wo: WoId(n) }
    }

    fn seed_msg() -> SysMsg {
        message(7, true, 0)
    }

    /// The actions one event decides.
    fn step(r: &mut RelState, now: u64, ev: RelEvent) -> Vec<RelAction> {
        let mut out = Vec::new();
        r.step(now, ev, &mut out);
        out
    }

    fn post(r: &mut RelState, now: u64, to: Pe, msg: SysMsg) -> Vec<RelAction> {
        step(r, now, RelEvent::Post { to, msg })
    }

    fn ack(r: &mut RelState, from: Pe, seqs: &[u64]) {
        assert!(step(r, 0, RelEvent::Ack { from, seqs: seqs.to_vec() }).is_empty());
    }

    fn frame(r: &mut RelState, from: Pe, seq: u64, slot: &RelSlot) -> Vec<RelAction> {
        step(r, 0, RelEvent::Frame { from, seq, slot: Arc::clone(slot) })
    }

    /// (destination, seq) of every frame the actions put on the wire.
    fn sends(acts: &[RelAction]) -> Vec<(Pe, u64)> {
        acts.iter()
            .filter_map(|a| match a {
                RelAction::Send { to, seq, .. } => Some((*to, *seq)),
                _ => None,
            })
            .collect()
    }

    fn redirects(acts: &[RelAction]) -> Vec<&RedirectSeed> {
        acts.iter()
            .filter_map(|a| match a {
                RelAction::Redirect(rd) => Some(rd),
                _ => None,
            })
            .collect()
    }

    /// The delay the actions arm the alarm for, if they do.
    fn armed(acts: &[RelAction]) -> Option<Cost> {
        acts.iter().find_map(|a| match a {
            RelAction::Arm(after) => Some(*after),
            _ => None,
        })
    }

    /// Which messages an arrival released, in order, or `None` for a
    /// duplicate.
    fn released(acts: Vec<RelAction>) -> Option<Vec<u64>> {
        if matches!(acts[..], [RelAction::Dup]) {
            return None;
        }
        let ids = acts.into_iter().map(|a| match a {
            RelAction::Deliver(SysMsg::WoAck { wo }) => wo.0,
            _ => panic!("an arrival only delivers or counts a duplicate"),
        });
        Some(ids.collect())
    }

    fn end(r: &RelState) -> KernelCounters {
        let mut c = KernelCounters::default();
        r.end_state(&mut c);
        c
    }

    fn slot_of(m: SysMsg) -> RelSlot {
        Arc::new(Mutex::new(Some(m)))
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
        assert_eq!((end(&r).rel_inflight_end, end(&r).rel_reorder_end), (0, 0));
        // A counted user message in flight and one window-queued.
        assert_eq!(sends(&post(&mut r, 0, Pe(1), seed_msg())), [(Pe(1), 1)], "window open");
        assert!(sends(&post(&mut r, 0, Pe(1), seed_msg())).is_empty(), "queued");
        assert_eq!(end(&r).rel_inflight_end, 2);
        // An uncounted control frame contributes nothing.
        post(&mut r, 0, Pe(2), SysMsg::WorkNack);
        assert_eq!(end(&r).rel_inflight_end, 2);
        assert_eq!(end(&r).rel_unacked_end, 2, "control frames count as unacked");
        ack(&mut r, Pe(1), &[1]);
        assert_eq!(end(&r).rel_inflight_end, 1, "ack retired the wire copy");
        // A parked out-of-order arrival shows up in `rel_reorder_end`.
        frame(&mut r, Pe(2), 3, &slot_of(msg()));
        assert_eq!(end(&r).rel_reorder_end, 1);
    }

    #[test]
    fn sequence_numbers_are_per_destination() {
        let mut r = RelState::new(4, ReliableConfig::default());
        let mut seqs = Vec::new();
        for to in [Pe(1), Pe(2), Pe(1)] {
            seqs.extend(sends(&post(&mut r, 0, to, msg())));
        }
        assert_eq!(seqs, [(Pe(1), 1), (Pe(2), 1), (Pe(1), 2)]);
        assert_eq!(end(&r).rel_unacked_end, 3);
    }

    #[test]
    fn acks_retire_outstanding_frames() {
        let mut r = RelState::new(2, ReliableConfig::default());
        post(&mut r, 0, Pe(1), msg());
        post(&mut r, 0, Pe(1), msg());
        ack(&mut r, Pe(1), &[1, 2]);
        assert_eq!(end(&r).rel_unacked_end, 0);
        ack(&mut r, Pe(1), &[1]);
        assert_eq!(end(&r).rel_unacked_end, 0, "double ack is harmless");
        assert!(r.quiet());
    }

    #[test]
    fn delivery_is_deduped_and_in_order() {
        let mut r = RelState::new(2, ReliableConfig::default());
        let (s1, s2, s3) = (slot_of(msg_n(1)), slot_of(msg_n(2)), slot_of(msg_n(3)));
        assert_eq!(released(frame(&mut r, Pe(1), 1, &s1)), Some(vec![1]), "in order");
        assert_eq!(released(frame(&mut r, Pe(1), 3, &s3)), Some(vec![]), "held: gap at 2");
        assert!(!r.quiet(), "parked arrival blocks the idle report");
        assert_eq!(released(frame(&mut r, Pe(1), 1, &s1)), None, "retransmission");
        assert_eq!(released(frame(&mut r, Pe(1), 3, &s3)), None, "dup ahead of gap");
        assert_eq!(released(frame(&mut r, Pe(1), 2, &s2)), Some(vec![2, 3]), "gap fill frees both");
        assert_eq!(released(frame(&mut r, Pe(1), 2, &s2)), None);
        assert!(r.quiet());
        // Every receipt owes an ack, fresh or not; the step sends them.
        assert!(r.pending());
        match &step(&mut r, 0, RelEvent::Step)[..] {
            [RelAction::Ack { to, seqs }] => {
                assert_eq!(*to, Pe(1));
                assert_eq!(seqs, &[1, 3, 1, 3, 2, 2]);
            }
            _ => panic!("one ack per source, and nothing else"),
        }
        assert!(!r.pending());
    }

    #[test]
    fn send_window_queues_and_releases_in_order() {
        let cfg = ReliableConfig {
            window: 2,
            ..ReliableConfig::default()
        };
        let mut r = RelState::new(3, cfg);
        assert_eq!(sends(&post(&mut r, 0, Pe(1), msg())), [(Pe(1), 1)]);
        assert_eq!(sends(&post(&mut r, 0, Pe(1), msg())), [(Pe(1), 2)]);
        assert!(post(&mut r, 0, Pe(1), msg()).is_empty(), "window full");
        assert!(post(&mut r, 0, Pe(1), msg()).is_empty());
        // Another destination has its own window.
        assert_eq!(sends(&post(&mut r, 0, Pe(2), msg())), [(Pe(2), 1)]);
        assert!(!r.pending(), "nothing released until acks return");
        ack(&mut r, Pe(1), &[1]);
        assert!(r.pending());
        // One ack frees one slot; FIFO: queued before new seqs.
        assert_eq!(sends(&step(&mut r, 5, RelEvent::Step)), [(Pe(1), 3)]);
        assert!(!r.pending());
        ack(&mut r, Pe(1), &[2, 3]);
        assert_eq!(sends(&step(&mut r, 6, RelEvent::Step)), [(Pe(1), 4)], "last queued message drains");
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
        assert!(!sends(&post(&mut r, 0, Pe(1), seed_msg())).is_empty());
        assert!(post(&mut r, 0, Pe(1), seed_msg()).is_empty(), "queued");
        // First timeout: in-flight seed gives up (budget 0) and marks
        // Pe(1) suspect; the queued seed must come out too instead of
        // waiting behind the hole-filler forever.
        let acts = step(&mut r, 10, RelEvent::Alarm);
        let rds = redirects(&acts);
        assert_eq!(rds.len(), 2);
        assert!(rds.iter().all(|rd| rd.suspect == Pe(1) && matches!(rd.seed, SysMsg::NewChare { .. })));
        assert!(!r.pending());
    }

    #[test]
    fn voided_frame_fills_the_gap_it_leaves() {
        // A redirected seed's frame arrives with an empty slot; it must
        // advance the watermark so later traffic is not held forever.
        let mut r = RelState::new(2, ReliableConfig::default());
        let hole = slot_of(msg_n(1));
        hole.lock().unwrap().take();
        let s2 = slot_of(msg_n(2));
        assert_eq!(released(frame(&mut r, Pe(1), 2, &s2)), Some(vec![]), "held behind hole");
        assert_eq!(released(frame(&mut r, Pe(1), 1, &hole)), Some(vec![2]), "hole filled");
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
        assert_eq!(armed(&post(&mut r, 0, Pe(1), msg())), Some(Cost(100)));
        // Before the deadline: nothing expires; the alarm re-arms.
        let acts = step(&mut r, 50, RelEvent::Alarm);
        assert!(sends(&acts).is_empty());
        assert_eq!(armed(&acts), Some(Cost(50)));
        // At the deadline: one retransmit, next deadline backed off 2x.
        let acts = step(&mut r, 100, RelEvent::Alarm);
        assert_eq!(sends(&acts), [(Pe(1), 1)]);
        assert_eq!(armed(&acts), Some(Cost(200)));
        let acts = step(&mut r, 300, RelEvent::Alarm);
        assert_eq!(sends(&acts), [(Pe(1), 1)]);
        assert_eq!(armed(&acts), Some(Cost(400)));
    }

    #[test]
    fn alarm_retransmits_only_the_head_of_line() {
        let cfg = ReliableConfig {
            timeout: Cost(10),
            seed_retry_limit: 5,
            ..ReliableConfig::default()
        };
        let mut r = RelState::new(3, cfg);
        for to in [Pe(1), Pe(1), Pe(2)] {
            post(&mut r, 0, to, msg());
        }
        // One retransmit per destination: the lowest outstanding seq is
        // the only frame the in-order receiver can be blocked on.
        let acts = step(&mut r, 10, RelEvent::Alarm);
        assert_eq!(sends(&acts), [(Pe(1), 1), (Pe(2), 1)]);
        // The tail frame timed out too (its backoff advanced); once the
        // head retires it becomes the probe target.
        ack(&mut r, Pe(1), &[1]);
        let t = 10 + armed(&acts).expect("frames remain").0;
        assert!(sends(&step(&mut r, t, RelEvent::Alarm)).contains(&(Pe(1), 2)));
    }

    #[test]
    fn non_seed_messages_never_give_up() {
        let cfg = ReliableConfig {
            timeout: Cost(10),
            seed_retry_limit: 2,
            ..ReliableConfig::default()
        };
        let mut r = RelState::new(2, cfg);
        post(&mut r, 0, Pe(1), msg());
        let mut t = 10;
        for _ in 0..20 {
            let acts = step(&mut r, t, RelEvent::Alarm);
            assert_eq!(sends(&acts).len(), 1);
            assert!(redirects(&acts).is_empty());
            t += armed(&acts).expect("still outstanding").0;
        }
        assert_eq!(end(&r).rel_unacked_end, 1);
    }

    #[test]
    fn seeds_redirect_after_retry_budget() {
        let cfg = ReliableConfig {
            timeout: Cost(10),
            seed_retry_limit: 2,
            ..ReliableConfig::default()
        };
        let mut r = RelState::new(2, cfg);
        post(&mut r, 0, Pe(1), seed_msg());
        let mut t = 10;
        let mut redirected = None;
        for _ in 0..5 {
            let mut acts = step(&mut r, t, RelEvent::Alarm);
            t += armed(&acts).expect("the frame stays outstanding").0;
            if let Some(i) = acts.iter().position(|a| matches!(a, RelAction::Redirect(_))) {
                redirected = Some(acts.swap_remove(i));
                break;
            }
        }
        let Some(RelAction::Redirect(rd)) = redirected else {
            panic!("seed should be reclaimed");
        };
        assert_eq!(rd.suspect, Pe(1));
        assert!(matches!(rd.seed, SysMsg::NewChare { .. }));
        // The emptied frame stays behind as a hole filler until acked,
        // but no longer gates the idle report.
        assert_eq!(end(&r).rel_unacked_end, 1);
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
        let acts = post(&mut r, 0, Pe(1), seed_msg());
        let Some(RelAction::Send { slot, .. }) = acts.first() else {
            panic!("the window is open");
        };
        // Receiver consumed the body; only the ack went missing.
        slot.lock().unwrap().take();
        let acts = step(&mut r, 10, RelEvent::Alarm);
        assert!(redirects(&acts).is_empty());
        assert_eq!(sends(&acts).len(), 1, "keeps nudging for the ack");
        assert!(r.quiet());
    }

    #[test]
    fn alarm_is_armed_only_for_earlier_deadlines() {
        let cfg = ReliableConfig {
            timeout: Cost(100),
            seed_retry_limit: 5,
            ..ReliableConfig::default()
        };
        let mut r = RelState::new(3, cfg);
        assert_eq!(armed(&post(&mut r, 0, Pe(1), msg())), Some(Cost(100)));
        assert_eq!(armed(&post(&mut r, 50, Pe(2), msg())), None, "already armed earlier");
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

    // ---- the model check -------------------------------------------
    //
    // An explicit-state check of the protocol: two or three `RelState`s
    // driven through `step` alone, with this module standing in for the
    // transport and the network. Every message is posted at the start,
    // so send windows hold some back. From each reachable state it tries
    // every move — any packet on the wire arrives next (reorder), a PE
    // steps or takes its alarm, and, within a fault budget, a packet is
    // lost or duplicated, an alarm fires before the round trip it times
    // is over, or a PE stops answering — and asserts after every move:
    //
    // - exactly-once, in-order delivery: no message is delivered twice
    //   anywhere, and on each link deliveries follow posting order;
    // - retransmissions to live PEs are bounded by the losses (a lost
    //   ack counts each frame it would have retired) plus `npes - 1`
    //   per early alarm, one head-of-line frame per destination;
    // - no redirect cycle: a seed is redirected at most `npes - 1` times;
    // - quiescence soundness: while every live PE reports `quiet()`, no
    //   undelivered message sits in a live PE's retransmit buffer, send
    //   window or reorder buffer, or on the wire in a full slot; and once
    //   the wire is empty and no PE owes it anything, every message was
    //   delivered (or died with the PE that held it).
    //
    // Time is discrete: a PE's clock advances only when its alarm fires,
    // to the instant it was armed for. The PEs' clocks are independent,
    // as nothing in the protocol compares two of them.
    //
    // Bodies cannot be cloned, so neither can a state: the search is
    // breadth-first over move sequences, rebuilding each state by
    // replaying its sequence from the start, and stops at a state whose
    // fingerprint it has met before. A violation therefore comes with a
    // shortest run that reaches it.

    /// A fault a model run may inject, each costing one unit of budget.
    #[derive(Clone, Copy, PartialEq)]
    enum Fault {
        /// Lose one packet on the wire.
        Drop,
        /// Deliver one packet twice.
        Dup,
        /// Fire an alarm while a frame it times, or an ack of one, is
        /// still in flight or owed: a timeout shorter than the round trip.
        Early,
        /// This PE stops answering: it never steps or takes an alarm
        /// again, and what is sent to it is lost.
        Die(usize),
    }

    /// How a frame's body crosses the wire.
    #[derive(Clone, Copy, PartialEq)]
    enum Slots {
        /// Every copy co-owns the sender's slot: one address space, as
        /// on the simulator and the thread backend.
        Shared,
        /// Each copy carries what the slot held when it was sent, in a
        /// slot of its own — what the envelope codec in `wire.rs`
        /// gives it on the process backend.
        Socket,
    }

    struct Scenario {
        npes: usize,
        cfg: ReliableConfig,
        /// The messages posted at the start, in order: (from, to,
        /// whether a seed). Message `i` is the i-th.
        posts: Vec<(usize, usize, bool)>,
        faults: Vec<Fault>,
        budget: u32,
        slots: Slots,
        no_dedup: bool,
    }

    /// One move of the explorer.
    #[derive(Clone, Copy)]
    enum Choice {
        /// The i-th packet on the wire arrives.
        Deliver(usize),
        Drop(usize),
        Dup(usize),
        /// The PE runs a scheduler step.
        Step(usize),
        /// The PE's alarm fires.
        Alarm(usize),
        Die(usize),
    }

    /// The model's messages: message `id` is a counted `WoAck`, or a
    /// balanceable seed of chare kind `id`.
    fn message(id: u32, seed: bool, hops: u32) -> SysMsg {
        if seed {
            let seed = Seed { kind: ChareKind(id), body: Box::new(()), bytes: 0, prio: Priority::None };
            SysMsg::NewChare { seed, hops }
        } else {
            SysMsg::WoAck { wo: WoId(id.into()) }
        }
    }

    fn id_of(m: &SysMsg) -> u32 {
        match m {
            SysMsg::WoAck { wo } => wo.0 as u32,
            SysMsg::NewChare { seed, .. } => seed.kind.0,
            _ => unreachable!("the model posts only WoAck and seeds"),
        }
    }

    fn content(slot: &RelSlot) -> Option<u32> {
        slot.lock().expect("slot lock").as_ref().map(id_of)
    }

    /// Every message `r` holds, and where.
    fn holdings(r: &RelState) -> Vec<(u32, &'static str)> {
        let mut held: Vec<_> =
            r.outstanding.values().filter_map(|p| content(&p.slot)).map(|id| (id, "unacknowledged")).collect();
        held.extend(r.wait_q.iter().flatten().map(|m| (id_of(m), "window-queued")));
        held.extend(r.reorder.iter().flat_map(|b| b.values().flatten()).map(|m| (id_of(m), "parked")));
        held
    }

    impl RelState {
        /// Everything this state's future depends on but the acks it
        /// owes (which only the sender can judge). Times are taken
        /// relative to `now`, and a deadline already passed counts as
        /// zero: the protocol only compares deadlines with the clock and
        /// adds intervals to it, so neither a shift in time nor how long
        /// ago a deadline passed changes what it does next. Retries
        /// matter only up to the backoff cap and the seed budget.
        fn fingerprint(&self, now: u64, h: &mut DefaultHasher) {
            let cap = MAX_BACKOFF_SHIFT.max(self.cfg.seed_retry_limit);
            self.outstanding.len().hash(h);
            for (key, p) in &self.outstanding {
                let deadline = p.deadline.saturating_sub(now);
                (key, content(&p.slot), p.retries.min(cap), deadline, p.is_seed, p.counted).hash(h);
            }
            for q in &self.wait_q {
                q.iter().map(|m| (id_of(m), is_seed(m))).collect::<Vec<_>>().hash(h);
            }
            for b in &self.reorder {
                b.iter().map(|(s, m)| (*s, m.as_ref().map(id_of))).collect::<Vec<_>>().hash(h);
            }
            (&self.next_seq, &self.in_flight_to, &self.suspect, &self.watermark).hash(h);
            self.armed.map(|a| a.saturating_sub(now)).hash(h);
        }
    }

    enum Body {
        Data { seq: u64, slot: RelSlot },
        Ack(Vec<u64>),
    }

    struct Packet {
        from: usize,
        to: usize,
        body: Body,
    }

    /// A packet as far as the protocol can tell: packets with equal keys
    /// are interchangeable.
    type PacketKey = (usize, usize, Option<(u64, Option<u32>)>, Vec<u64>);

    impl std::fmt::Display for Packet {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "PE{}->PE{} ", self.from, self.to)?;
            match &self.body {
                Body::Data { seq, slot } => match content(slot) {
                    Some(id) => write!(f, "frame {seq} (message {id})"),
                    None => write!(f, "frame {seq} (empty)"),
                },
                Body::Ack(seqs) => write!(f, "ack {seqs:?}"),
            }
        }
    }

    /// The PEs, the wire between them, and what the checker knows
    /// about every message.
    struct World<'s> {
        sc: &'s Scenario,
        rel: Vec<RelState>,
        /// Each PE's clock.
        now: Vec<u64>,
        /// When each PE's machine alarm fires, as the last `Arm` set it.
        alarm: Vec<Option<u64>>,
        wire: Vec<Packet>,
        dead: Option<usize>,
        /// Per message: times delivered, times redirected.
        delivered: Vec<u32>,
        redirected: Vec<u32>,
        /// Per link `[from][to]`: messages in the order they were posted
        /// on it, and how far into that order delivery has got.
        order: Vec<Vec<Vec<u32>>>,
        passed: Vec<Vec<usize>>,
        faults: u32,
        /// Losses plus `npes - 1` per early alarm, minus retransmissions
        /// to live PEs: the retransmit bound holds while this is ≥ 0.
        slack: i64,
        /// Retransmissions so far, to show what a search exercised.
        retransmits: u32,
        acts: Vec<RelAction>,
    }

    impl<'s> World<'s> {
        fn new(sc: &'s Scenario) -> Self {
            let n = sc.npes;
            let mut w = World {
                sc,
                rel: (0..n).map(|_| RelState { no_dedup: sc.no_dedup, ..RelState::new(n, sc.cfg) }).collect(),
                now: vec![0; n],
                alarm: vec![None; n],
                wire: Vec::new(),
                dead: None,
                delivered: vec![0; sc.posts.len()],
                redirected: vec![0; sc.posts.len()],
                order: vec![vec![Vec::new(); n]; n],
                passed: vec![vec![0; n]; n],
                faults: 0,
                slack: 0,
                retransmits: 0,
                acts: Vec::new(),
            };
            for (id, &(from, to, seed)) in sc.posts.iter().enumerate() {
                w.post(from, to, message(id as u32, seed, 0)).expect("posting delivers nothing");
            }
            w
        }

        fn replay(sc: &'s Scenario, path: &[Choice]) -> Self {
            let mut w = World::new(sc);
            for &c in path {
                w.apply(c).expect("a replayed prefix was checked when first reached");
            }
            w
        }

        fn alive(&self, p: usize) -> bool {
            self.dead != Some(p)
        }

        fn live(&self) -> impl Iterator<Item = &RelState> {
            self.rel.iter().enumerate().filter(|&(p, _)| self.alive(p)).map(|(_, r)| r)
        }

        fn can(&self, f: Fault) -> bool {
            self.faults < self.sc.budget && self.sc.faults.contains(&f)
        }

        /// Whether PE `p` still waits for an ack of its frame `seq` to
        /// `to`.
        fn unacked(&self, p: usize, to: usize, seq: u64) -> bool {
            self.rel[p].outstanding.contains_key(&(to, seq))
        }

        /// The seqs of an ack from `from` to `to` that still retire a
        /// frame, sorted and without repeats: all the sender can tell.
        fn live_acks(&self, from: usize, to: usize, seqs: &[u64]) -> Vec<u64> {
            let mut live: Vec<u64> = seqs.iter().copied().filter(|&s| self.unacked(to, from, s)).collect();
            live.sort_unstable();
            live.dedup();
            live
        }

        fn key(&self, k: &Packet) -> PacketKey {
            match &k.body {
                Body::Data { seq, slot } => (k.from, k.to, Some((*seq, content(slot))), Vec::new()),
                Body::Ack(seqs) => (k.from, k.to, None, self.live_acks(k.from, k.to, seqs)),
            }
        }

        /// Whether PE `p`'s alarm firing now beats a round trip still
        /// under way: a frame it waits on is in flight, or an ack of one
        /// is in flight or owed.
        fn early(&self, p: usize) -> bool {
            let in_flight = self.wire.iter().any(|k| match &k.body {
                Body::Data { seq, .. } => k.from == p && self.unacked(p, k.to, *seq),
                Body::Ack(seqs) => k.to == p && !self.live_acks(k.from, p, seqs).is_empty(),
            });
            let owed = (0..self.sc.npes)
                .any(|q| self.alive(q) && !self.live_acks(q, p, &self.rel[q].pending_acks[p]).is_empty());
            in_flight || owed
        }

        fn choices(&self) -> Vec<Choice> {
            let n = self.sc.npes;
            let mut cs = Vec::new();
            let keys: Vec<PacketKey> = self.wire.iter().map(|k| self.key(k)).collect();
            for i in (0..keys.len()).filter(|&i| !keys[..i].contains(&keys[i])) {
                cs.push(Choice::Deliver(i));
                if self.can(Fault::Drop) {
                    cs.push(Choice::Drop(i));
                }
                if self.can(Fault::Dup) {
                    cs.push(Choice::Dup(i));
                }
            }
            cs.extend((0..n).filter(|&p| self.alive(p) && self.rel[p].pending()).map(Choice::Step));
            let timely = |p: usize| !self.early(p) || self.can(Fault::Early);
            cs.extend((0..n).filter(|&p| self.alive(p) && self.alarm[p].is_some() && timely(p)).map(Choice::Alarm));
            for &f in &self.sc.faults {
                if let Fault::Die(p) = f {
                    if self.dead.is_none() && self.can(f) {
                        cs.push(Choice::Die(p));
                    }
                }
            }
            cs
        }

        fn describe(&self, c: Choice) -> String {
            match c {
                Choice::Deliver(i) => format!("deliver {}", self.wire[i]),
                Choice::Drop(i) => format!("drop {}", self.wire[i]),
                Choice::Dup(i) => format!("duplicate {}", self.wire[i]),
                Choice::Step(p) => format!("PE{p} steps"),
                Choice::Alarm(p) if self.early(p) => format!("PE{p}'s alarm fires early"),
                Choice::Alarm(p) => format!("PE{p}'s alarm fires"),
                Choice::Die(p) => format!("PE{p} stops answering"),
            }
        }

        /// Make one move; `Err` names a property it broke on the way.
        fn apply(&mut self, c: Choice) -> Result<(), String> {
            let verdict = match c {
                Choice::Deliver(i) => {
                    let Packet { from, to, body } = self.wire.remove(i);
                    let ev = match body {
                        Body::Data { seq, slot } => RelEvent::Frame { from: Pe::from(from), seq, slot },
                        Body::Ack(seqs) => RelEvent::Ack { from: Pe::from(from), seqs },
                    };
                    self.run(to, Some(from), ev)
                }
                Choice::Drop(i) => {
                    self.faults += 1;
                    let k = &self.wire[i];
                    self.slack += match &k.body {
                        Body::Data { seq, .. } => i64::from(self.unacked(k.from, k.to, *seq)),
                        Body::Ack(seqs) => self.live_acks(k.from, k.to, seqs).len() as i64,
                    };
                    self.wire.remove(i);
                    Ok(())
                }
                Choice::Dup(i) => {
                    self.faults += 1;
                    let k = &self.wire[i];
                    let body = match &k.body {
                        Body::Data { seq, slot } => Body::Data { seq: *seq, slot: self.carry(slot) },
                        Body::Ack(seqs) => Body::Ack(seqs.clone()),
                    };
                    self.wire.push(Packet { from: k.from, to: k.to, body });
                    Ok(())
                }
                Choice::Step(p) => self.run(p, None, RelEvent::Step),
                Choice::Alarm(p) => {
                    if self.early(p) {
                        self.faults += 1;
                        self.slack += self.sc.npes as i64 - 1;
                    }
                    let at = self.alarm[p].take().expect("only an armed alarm fires");
                    self.now[p] = self.now[p].max(at);
                    self.run(p, None, RelEvent::Alarm)
                }
                Choice::Die(p) => {
                    self.faults += 1;
                    self.dead = Some(p);
                    self.alarm[p] = None;
                    self.wire.retain(|k| k.to != p);
                    Ok(())
                }
            };
            // An ack that retires nothing any more is inert: the sender
            // ignores it, so it leaves the wire.
            let inert: Vec<bool> = self
                .wire
                .iter()
                .map(|k| matches!(&k.body, Body::Ack(seqs) if self.live_acks(k.from, k.to, seqs).is_empty()))
                .collect();
            let mut inert = inert.into_iter();
            self.wire.retain(|_| !inert.next().expect("one flag per packet"));
            verdict
        }

        /// A copy of a frame's slot, as the wire carries it.
        fn carry(&self, slot: &RelSlot) -> RelSlot {
            match self.sc.slots {
                Slots::Shared => Arc::clone(slot),
                Slots::Socket => {
                    let copy = slot.lock().expect("slot lock").as_ref().map(|m| match m {
                        SysMsg::NewChare { hops, .. } => message(id_of(m), true, *hops),
                        _ => message(id_of(m), false, 0),
                    });
                    Arc::new(Mutex::new(copy))
                }
            }
        }

        fn post(&mut self, p: usize, to: usize, msg: SysMsg) -> Result<(), String> {
            self.order[p][to].push(id_of(&msg));
            self.run(p, None, RelEvent::Post { to: Pe::from(to), msg })
        }

        /// Feed PE `p` one event (an arrival from `from`, if any) and
        /// carry out what it decides, as the transport and the node
        /// would.
        fn run(&mut self, p: usize, from: Option<usize>, ev: RelEvent) -> Result<(), String> {
            let mut acts = std::mem::take(&mut self.acts);
            self.rel[p].step(self.now[p], ev, &mut acts);
            let mut verdict = Ok(());
            let mut redirects = Vec::new();
            for act in acts.drain(..) {
                match act {
                    RelAction::Send { to, seq, slot, again, .. } if self.alive(to.index()) => {
                        self.slack -= i64::from(again);
                        self.retransmits += u32::from(again);
                        let slot = self.carry(&slot);
                        let body = Body::Data { seq, slot };
                        self.wire.push(Packet { from: p, to: to.index(), body });
                    }
                    RelAction::Ack { to, seqs } if self.alive(to.index()) => {
                        self.wire.push(Packet { from: p, to: to.index(), body: Body::Ack(seqs) });
                    }
                    RelAction::Send { .. } | RelAction::Ack { .. } | RelAction::Dup => {}
                    RelAction::Arm(after) => self.alarm[p] = Some(self.now[p] + after.0),
                    RelAction::Deliver(m) => verdict = verdict.and_then(|()| self.deliver(p, from, id_of(&m))),
                    RelAction::Redirect(rd) => redirects.push(rd),
                }
            }
            self.acts = acts;
            verdict?;
            redirects.into_iter().try_for_each(|rd| self.rehome(p, rd))
        }

        fn deliver(&mut self, p: usize, from: Option<usize>, id: u32) -> Result<(), String> {
            self.delivered[id as usize] += 1;
            if self.delivered[id as usize] > 1 {
                return Err(format!("message {id} delivered twice, the second time on PE{p}"));
            }
            let Some(from) = from else {
                return Ok(());
            };
            let (order, passed) = (&self.order[from][p], &mut self.passed[from][p]);
            match order[*passed..].iter().position(|&m| m == id) {
                Some(k) => *passed += k + 1,
                None => return Err(format!("message {id} overtook a later one on PE{from}->PE{p}")),
            }
            Ok(())
        }

        /// What the node does with a reclaimed seed: send it to a PE
        /// that is neither this one nor suspect, or settle it here.
        fn rehome(&mut self, p: usize, rd: RedirectSeed) -> Result<(), String> {
            let id = id_of(&rd.seed);
            self.redirected[id as usize] += 1;
            if self.redirected[id as usize] as usize >= self.sc.npes {
                return Err(format!("seed {id} redirected {} times", self.redirected[id as usize]));
            }
            let suspects = self.rel[p].suspects();
            let ok = |t: usize| t != p && t != rd.suspect.index() && !suspects[t];
            let SysMsg::NewChare { seed, .. } = rd.seed else {
                unreachable!("only seeds are reclaimed");
            };
            match (0..self.sc.npes).find(|&t| ok(t)) {
                Some(t) => self.post(p, t, SysMsg::NewChare { seed, hops: 1 }),
                None => self.deliver(p, None, id),
            }
        }

        /// The properties every reached state must have.
        fn check(&self) -> Result<(), String> {
            if self.slack < 0 {
                return Err("more retransmissions than losses and early alarms explain".into());
            }
            if !self.live().all(RelState::quiet) {
                return Ok(());
            }
            let fresh = |&(id, _): &(u32, _)| self.delivered[id as usize] == 0;
            for (p, r) in self.rel.iter().enumerate().filter(|&(p, _)| self.alive(p)) {
                if let Some((id, at)) = holdings(r).into_iter().find(fresh) {
                    return Err(format!("every PE reports quiet while message {id} is {at} on PE{p}"));
                }
            }
            for k in &self.wire {
                if let Body::Data { slot, .. } = &k.body {
                    if let Some(id) = content(slot).filter(|&id| self.delivered[id as usize] == 0) {
                        return Err(format!("every PE reports quiet while message {id} is on the wire: {k}"));
                    }
                }
            }
            if !self.wire.is_empty() || self.live().any(RelState::pending) {
                return Ok(());
            }
            let died_with = |id: u32| self.dead.is_some_and(|d| holdings(&self.rel[d]).iter().any(|h| h.0 == id));
            match (0..self.delivered.len() as u32).find(|&id| self.delivered[id as usize] == 0 && !died_with(id)) {
                Some(id) => Err(format!("the wire settled with every PE quiet, but message {id} was lost")),
                None => Ok(()),
            }
        }

        fn fingerprint(&self) -> u64 {
            let mut h = DefaultHasher::new();
            for (p, r) in self.rel.iter().enumerate() {
                r.fingerprint(self.now[p], &mut h);
                for q in 0..self.sc.npes {
                    self.live_acks(p, q, &r.pending_acks[q]).hash(&mut h);
                }
                self.alarm[p].map(|a| a.saturating_sub(self.now[p])).hash(&mut h);
            }
            let mut wire: Vec<PacketKey> = self.wire.iter().map(|k| self.key(k)).collect();
            wire.sort();
            (wire, self.dead, &self.delivered, &self.redirected, &self.order, &self.passed).hash(&mut h);
            h.finish()
        }
    }

    /// A broken property and a shortest run that breaks it.
    struct Found {
        what: String,
        /// What was posted at the start, then one line per move.
        posts: String,
        trace: Vec<String>,
    }

    impl Found {
        fn new(sc: &Scenario, path: &[Choice], what: String) -> Found {
            let posts = sc.posts.iter().enumerate().map(|(id, &(from, to, seed))| {
                let what = if seed { "seed" } else { "message" };
                format!("{what} {id} PE{from}->PE{to}")
            });
            let posts = posts.collect::<Vec<_>>().join(", ");
            let mut w = World::new(sc);
            let trace = path
                .iter()
                .map(|&c| {
                    let line = w.describe(c);
                    let _ = w.apply(c);
                    line
                })
                .collect();
            Found { what, posts, trace }
        }
    }

    impl std::fmt::Display for Found {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            writeln!(f, "{}, after posting {}, then:", self.what, self.posts)?;
            for (i, line) in self.trace.iter().enumerate() {
                writeln!(f, "  {:>2}. {line}", i + 1)?;
            }
            Ok(())
        }
    }

    /// What a search covered: its distinct states, and the most
    /// retransmissions and redirects of one seed along any run.
    struct Explored {
        states: usize,
        retransmits: u32,
        redirects: u32,
    }

    /// Explore every run of `sc` breadth-first. Returns what it covered,
    /// or the first broken property with a shortest run to it. A state
    /// met again is explored again only if it now has more budget left
    /// or less retransmit slack than every earlier visit — the two
    /// things its future's verdict depends on that its fingerprint
    /// leaves out.
    fn check(sc: &Scenario) -> Result<Explored, Found> {
        // Every state but the start, as (parent, move); `None` = start.
        let mut moves: Vec<(Option<usize>, Choice)> = Vec::new();
        let start = World::new(sc);
        let mut seen: HashMap<u64, Vec<(u32, i64)>> = HashMap::from([(start.fingerprint(), vec![(0, 0)])]);
        let mut explored = Explored { states: 1, retransmits: 0, redirects: 0 };
        let mut queue: VecDeque<Option<usize>> = VecDeque::from([None]);
        while let Some(node) = queue.pop_front() {
            let mut path = Vec::new();
            let mut at = node;
            while let Some(i) = at {
                path.push(moves[i].1);
                at = moves[i].0;
            }
            path.reverse();
            let mut here = Some(World::replay(sc, &path));
            let choices = here.as_ref().expect("just built").choices();
            if choices.is_empty() && !here.as_ref().expect("just built").live().all(RelState::quiet) {
                let what = "stuck: nothing is left to happen, yet a PE is not quiet".to_string();
                return Err(Found::new(sc, &path, what));
            }
            for c in choices {
                let mut w = here.take().unwrap_or_else(|| World::replay(sc, &path));
                if let Err(what) = w.apply(c).and_then(|()| w.check()) {
                    path.push(c);
                    return Err(Found::new(sc, &path, what));
                }
                let known = seen.entry(w.fingerprint()).or_default();
                if known.iter().any(|&(f, s)| f <= w.faults && s <= w.slack) {
                    continue;
                }
                known.push((w.faults, w.slack));
                explored.retransmits = explored.retransmits.max(w.retransmits);
                explored.redirects = explored.redirects.max(w.redirected.iter().copied().max().unwrap_or(0));
                moves.push((node, c));
                queue.push_back(Some(moves.len() - 1));
            }
        }
        explored.states = seen.len();
        Ok(explored)
    }

    /// Scenario (a), one direction: PE `from` sends PE `to` three
    /// counted messages through a window of two, under loss,
    /// duplication and early alarms.
    fn one_way(from: usize, to: usize, no_dedup: bool) -> Scenario {
        Scenario {
            npes: 2,
            cfg: ReliableConfig { timeout: Cost(100), seed_retry_limit: 5, window: 2 },
            posts: vec![(from, to, false); 3],
            faults: vec![Fault::Drop, Fault::Dup, Fault::Early],
            budget: 3,
            slots: Slots::Shared,
            no_dedup,
        }
    }

    /// Scenario (b): three PEs. PE0 sends PE1 two balanceable seeds
    /// through a window of one, and a seed is reclaimed on its first
    /// timeout; PE2 sends PE0 a counted message.
    fn three_pes(faults: Vec<Fault>, slots: Slots) -> Scenario {
        Scenario {
            npes: 3,
            cfg: ReliableConfig { timeout: Cost(100), seed_retry_limit: 0, window: 1 },
            posts: vec![(0, 1, true), (0, 1, true), (2, 0, false)],
            faults,
            budget: 2,
            slots,
            no_dedup: false,
        }
    }

    /// Scenario (a), each direction checked on its own. That covers
    /// both at once: a step's acks and the frames it releases touch
    /// disjoint halves of a `RelState`, each PE's clock serves only its
    /// own frames, and every property is one per direction — so a run
    /// with traffic both ways is, seen from either link, a run of that
    /// link alone. Checking them together would only multiply the
    /// states of the two.
    #[test]
    fn model_check_two_pes_under_loss_duplication_reorder_and_early_alarms() {
        for (from, to) in [(0, 1), (1, 0)] {
            let explored = check(&one_way(from, to, false)).unwrap_or_else(|found| panic!("{found}"));
            assert!(explored.retransmits >= 3, "the faults did force retransmissions");
            println!(
                "model check (a), PE{from}->PE{to}, window 2 x 3 frames, fault budget 3: {} distinct states",
                explored.states
            );
        }
    }

    #[test]
    fn model_check_three_pes_with_a_dead_peer_reclaims_and_redirects_seeds() {
        let faults = vec![Fault::Drop, Fault::Dup, Fault::Early, Fault::Die(1)];
        let explored = check(&three_pes(faults, Slots::Shared)).unwrap_or_else(|found| panic!("{found}"));
        assert_eq!(explored.redirects, 2, "a seed was redirected as often as three PEs allow");
        println!(
            "model check (b), 3 PEs, seeds reclaimed at once, PE1 may die, fault budget 2: {} distinct states",
            explored.states
        );
    }

    /// The gap docs/PROCESS.md describes ("One caveat worth knowing"):
    /// on the process backend a frame's copies do not share the
    /// sender's slot, so reclaiming a seed cannot void a copy that
    /// already arrived. With acks the only thing lost, the checker finds
    /// a seed delivered, its ack dropped, the seed reclaimed by the
    /// alarm and created a second time elsewhere. This records the
    /// limit; a fix must flip this test on purpose.
    #[test]
    fn model_check_finds_the_double_creation_socket_slots_allow() {
        let found = check(&three_pes(vec![Fault::Drop], Slots::Socket))
            .err()
            .expect("socket slots let a reclaimed seed be created twice");
        println!("model check under socket slots: {found}");
        assert!(found.what.contains("delivered twice"), "{found}");
        assert!(found.trace.iter().any(|l| l.starts_with("drop") && l.contains("ack")), "{found}");
        // The same runs with one shared slot per frame are sound.
        check(&three_pes(vec![Fault::Drop], Slots::Shared)).unwrap_or_else(|found| panic!("{found}"));
    }

    #[test]
    fn model_check_finds_a_receiver_without_dedup() {
        let found = check(&one_way(0, 1, true)).err().expect("a receiver without dedup breaks a property");
        println!("model check with dedup disabled: {found}");
    }
}
