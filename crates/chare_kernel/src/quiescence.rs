//! Quiescence detection.
//!
//! A message-driven computation is *quiescent* when no PE has runnable
//! work and no user message is in flight. Detecting this is how Chare
//! Kernel programs without an obvious "last message" (tree searches,
//! data-driven relaxations) know they are done.
//!
//! We implement the classic **four-counter wave algorithm**: PE 0
//! coordinates waves; in each wave every PE reports its cumulative
//! user-messages-sent and -received counters plus an idle flag.
//! Quiescence is declared when two consecutive waves report identical
//! counter totals, the totals balance (`sent == recv`), and every PE was
//! idle in both waves. The two-wave stability requirement is what defeats
//! the classic race of a message crossing the wave front: any message
//! sent or delivered between the waves perturbs the totals.
//!
//! Counter discipline (enforced in the transport): `sent` increments at
//! send time, `recv` at packet arrival, and only *user* messages count —
//! QD control traffic and load reports are excluded, so the detection
//! machinery cannot keep itself alive.
//!
//! As a stratum this is a service above the transport: it **owns** PE
//! 0's `QdCoordinator` and the handler for the `Qd*` kernel messages
//! (`handle`), and **may call** only the transport, through the `Port`
//! it is handed. Whether the PE is busy arrives as an argument.

use std::sync::Arc;

use multicomputer::Pe;

use crate::envelope::{MsgBody, SysMsg};
use crate::ids::Notify;
use crate::msg::Message;
use crate::shared::QuiescenceMsg;
use crate::transport::Port;

/// What the coordinator should do after an input.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum QdAction {
    /// Nothing to do yet.
    None,
    /// Broadcast a poll for the given wave to all PEs.
    Poll(u64),
    /// Quiescence: deliver a notification to each target, in request
    /// order.
    Declare(Vec<Notify>),
}

/// Coordinator state, held by PE 0.
pub(crate) struct QdCoordinator {
    npes: usize,
    pending: Vec<Notify>,
    active: bool,
    wave: u64,
    replies: usize,
    sum_sent: u64,
    sum_recv: u64,
    all_idle: bool,
    /// Totals of the previous completed wave: `(sent, recv, all_idle)`.
    prev: Option<(u64, u64, bool)>,
}

impl QdCoordinator {
    pub(crate) fn new(npes: usize) -> Self {
        QdCoordinator {
            npes,
            pending: Vec::new(),
            active: false,
            wave: 0,
            replies: 0,
            sum_sent: 0,
            sum_recv: 0,
            all_idle: true,
            prev: None,
        }
    }

    /// Register a quiescence request. Starts wave polling if idle.
    pub(crate) fn request(&mut self, notify: Notify) -> QdAction {
        self.pending.push(notify);
        if self.active {
            QdAction::None
        } else {
            self.active = true;
            self.prev = None;
            self.begin_wave()
        }
    }

    fn begin_wave(&mut self) -> QdAction {
        self.wave += 1;
        self.replies = 0;
        self.sum_sent = 0;
        self.sum_recv = 0;
        self.all_idle = true;
        QdAction::Poll(self.wave)
    }

    /// Incorporate one PE's reply. Replies to stale waves are ignored.
    pub(crate) fn on_count(&mut self, wave: u64, sent: u64, recv: u64, idle: bool) -> QdAction {
        if !self.active || wave != self.wave {
            return QdAction::None;
        }
        self.replies += 1;
        self.sum_sent += sent;
        self.sum_recv += recv;
        self.all_idle &= idle;
        if self.replies < self.npes {
            return QdAction::None;
        }
        // Wave complete.
        let cur = (self.sum_sent, self.sum_recv, self.all_idle);
        let stable = self.prev == Some(cur);
        let balanced = self.all_idle && self.sum_sent == self.sum_recv;
        if stable && balanced {
            self.active = false;
            self.prev = None;
            QdAction::Declare(std::mem::take(&mut self.pending))
        } else {
            self.prev = Some(cur);
            self.begin_wave()
        }
    }

    /// Whether detection is currently running.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn active(&self) -> bool {
        self.active
    }
}

/// Handle one quiescence kernel message. `qd` is this PE's coordinator
/// (PE 0 only); `busy` is whether user work is runnable or waiting
/// unplaced on this PE.
pub(crate) fn handle(qd: &mut Option<QdCoordinator>, port: &mut Port, busy: bool, sys: SysMsg) {
    const PE0: &str = "QdStart and QdCount must be addressed to PE 0";
    let action = match sys {
        SysMsg::QdStart { notify } => qd.as_mut().expect(PE0).request(notify),
        SysMsg::QdCount { wave, sent, recv, idle } => {
            qd.as_mut().expect(PE0).on_count(wave, sent, recv, idle)
        }
        SysMsg::QdPoll { wave } => {
            port.counters.qd_replies += 1;
            let (sent, recv) = (port.counters.user_sent, port.counters.user_recv);
            let idle = !busy && port.t.quiet();
            port.post(Pe::ZERO, SysMsg::QdCount { wave, sent, recv, idle });
            return;
        }
        _ => unreachable!("not a quiescence message"),
    };
    match action {
        QdAction::None => {}
        QdAction::Poll(wave) => {
            port.post_broadcast(true, Arc::new(move || SysMsg::QdPoll { wave }))
        }
        QdAction::Declare(notifies) => {
            port.counters.qd_declares += 1;
            for n in notifies {
                port.notify(n, MsgBody::new(QuiescenceMsg), QuiescenceMsg.bytes());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ChareId, EpId};
    use multicomputer::Pe;

    fn notify() -> Notify {
        Notify::Chare(
            ChareId {
                pe: Pe(0),
                local: 0,
            },
            EpId(9),
        )
    }

    /// Feed a full wave with uniform per-PE counters.
    fn wave(c: &mut QdCoordinator, wave: u64, sent: u64, recv: u64, idle: bool) -> QdAction {
        let mut last = QdAction::None;
        for _ in 0..c.npes {
            last = c.on_count(wave, sent, recv, idle);
        }
        last
    }

    #[test]
    fn declares_after_two_stable_idle_waves() {
        let mut c = QdCoordinator::new(4);
        assert_eq!(c.request(notify()), QdAction::Poll(1));
        // Wave 1: balanced and idle, but no previous wave to compare.
        assert_eq!(wave(&mut c, 1, 10, 10, true), QdAction::Poll(2));
        // Wave 2: identical → declare.
        match wave(&mut c, 2, 10, 10, true) {
            QdAction::Declare(v) => assert_eq!(v.len(), 1),
            a => panic!("expected Declare, got {a:?}"),
        }
        assert!(!c.active());
    }

    #[test]
    fn activity_between_waves_resets_stability() {
        let mut c = QdCoordinator::new(2);
        c.request(notify());
        assert_eq!(wave(&mut c, 1, 5, 5, true), QdAction::Poll(2));
        // Counters moved: not stable, poll again.
        assert_eq!(wave(&mut c, 2, 6, 6, true), QdAction::Poll(3));
        assert_eq!(wave(&mut c, 3, 6, 6, true), QdAction::Declare(vec![notify()]));
    }

    #[test]
    fn in_flight_message_blocks_declaration() {
        let mut c = QdCoordinator::new(2);
        c.request(notify());
        // sent > recv: a message is in flight; never declare even if
        // stable.
        assert_eq!(wave(&mut c, 1, 7, 6, true), QdAction::Poll(2));
        assert_eq!(wave(&mut c, 2, 7, 6, true), QdAction::Poll(3));
        // The message lands, counters stabilize balanced.
        assert_eq!(wave(&mut c, 3, 7, 7, true), QdAction::Poll(4));
        assert!(matches!(wave(&mut c, 4, 7, 7, true), QdAction::Declare(_)));
    }

    #[test]
    fn busy_pe_blocks_declaration() {
        let mut c = QdCoordinator::new(2);
        c.request(notify());
        assert_eq!(wave(&mut c, 1, 4, 4, false), QdAction::Poll(2));
        assert_eq!(wave(&mut c, 2, 4, 4, false), QdAction::Poll(3));
        assert_eq!(wave(&mut c, 3, 4, 4, true), QdAction::Poll(4));
        assert!(matches!(wave(&mut c, 4, 4, 4, true), QdAction::Declare(_)));
    }

    #[test]
    fn stale_wave_replies_ignored() {
        let mut c = QdCoordinator::new(2);
        c.request(notify());
        assert_eq!(c.on_count(99, 1, 1, true), QdAction::None);
        assert_eq!(c.on_count(1, 1, 1, true), QdAction::None);
        // Duplicate stale reply doesn't complete the wave early.
        assert_eq!(c.on_count(0, 1, 1, true), QdAction::None);
        assert_eq!(c.on_count(1, 1, 1, true), QdAction::Poll(2));
    }

    #[test]
    fn multiple_requests_notified_together() {
        let mut c = QdCoordinator::new(1);
        c.request(notify());
        assert_eq!(c.request(notify()), QdAction::None); // already active
        wave(&mut c, 1, 0, 0, true);
        match wave(&mut c, 2, 0, 0, true) {
            QdAction::Declare(v) => assert_eq!(v.len(), 2),
            a => panic!("expected Declare, got {a:?}"),
        }
    }

    #[test]
    fn reusable_after_declaration() {
        let mut c = QdCoordinator::new(1);
        c.request(notify());
        wave(&mut c, 1, 3, 3, true);
        assert!(matches!(wave(&mut c, 2, 3, 3, true), QdAction::Declare(_)));
        // Second detection session.
        assert_eq!(c.request(notify()), QdAction::Poll(3));
        wave(&mut c, 3, 8, 8, true);
        assert!(matches!(wave(&mut c, 4, 8, 8, true), QdAction::Declare(_)));
    }
}
