//! The send side both real backends share: one [`NetCtx`], one flush rule.
//!
//! The thread machine ([`crate::thread`]) and the process machine
//! (`chare_kernel::proc`) differ only in how a packet reaches another PE:
//! an inbox in shared memory, or an encoded frame on a socket. Each says
//! that much as a [`Link`], and [`RealCtx`] does the rest the same way on
//! both — the clock, the loopback queue for self-sends, and when a held
//! packet leaves. This is the paper's thin machine layer, retargeted per
//! port while the kernel above it stays one program.
//!
//! # When held packets leave
//!
//! A remote send is held per destination, because each push costs a
//! lock and a fence (threads) or a `write` (processes). A destination's
//! held packets are pushed, whole and in send order:
//!
//! * (a) when it holds `max_packets` packets or `max_bytes` bytes (as
//!   [`Link::hold`] counts them);
//! * (b) when the destination is [hungry](Link::hungry), checked at the
//!   send and again at the end of every step for each destination that
//!   holds something;
//! * (c) every [`FLUSH_EVERY_STEPS`] steps, with every other destination;
//! * (d) at [`RealCtx::flush_all`], which a backend calls before its PE
//!   waits for work, so an idle PE holds nothing.
//!
//! (c) bounds a hold by [`FLUSH_EVERY_STEPS`] steps of a busy sender and
//! (d) empties an idle one, so every packet leaves; hungry is only a hint,
//! and a stale read of it delays a packet within that bound. A self-send
//! is never held: it waits in the loopback queue until the backend's loop
//! takes it with [`RealCtx::pop_local`].

use std::collections::VecDeque;
use std::time::Instant;

use crate::pe::Pe;
use crate::program::{NetCtx, Packet, Payload};
use crate::time::Cost;
use crate::FLUSH_EVERY_STEPS;

/// What a real backend supplies to [`RealCtx`]: where held packets wait,
/// how they leave, and the machine-wide effects of a handler.
pub trait Link {
    /// Keep `pkt` for PE `to` (never this PE) until the next
    /// [`push`](Link::push) to `to`. Returns the bytes it adds toward the
    /// `max_bytes` cap.
    fn hold(&mut self, to: Pe, pkt: Packet) -> usize;

    /// Send everything held for `to`, whole and in order.
    fn push(&mut self, to: Pe);

    /// Whether `to` has said it is waiting for work: a hint, read at each
    /// send and step end. Default: never.
    fn hungry(&self, _to: Pe) -> bool {
        false
    }

    /// [`NetCtx::stop`].
    fn stop(&mut self);

    /// [`NetCtx::deposit`].
    fn deposit(&mut self, result: Payload);

    /// [`NetCtx::set_alarm`], as a deadline on this context's clock.
    /// Default: ignored.
    fn set_alarm(&mut self, _at_ns: u64) {}
}

/// What one destination holds, as the caps count it.
#[derive(Clone, Copy, Default)]
struct Held {
    packets: usize,
    bytes: usize,
}

/// A real backend's [`NetCtx`] for one PE: everything but the [`Link`].
pub struct RealCtx<L> {
    me: Pe,
    /// The instant [`NetCtx::now_ns`] counts from.
    pub start: Instant,
    /// The node's [`stamps`](crate::NodeProgram::stamps): if false, no
    /// send reads the clock and packets carry 0.
    pub stamps: bool,
    /// The backend's half.
    pub link: L,
    loopback: VecDeque<Packet>,
    /// Per PE of the machine, this one's included.
    held: Box<[Held]>,
    max_packets: usize,
    max_bytes: usize,
    /// Steps since the last [`flush_all`](Self::flush_all).
    pub(crate) unflushed_steps: u32,
}

impl<L: Link> RealCtx<L> {
    /// PE `me` of `npes`, pushing a destination at `max_packets` packets
    /// or `max_bytes` bytes; it stamps until told otherwise.
    pub fn with_link(
        me: Pe, npes: usize, start: Instant, link: L, max_packets: usize, max_bytes: usize,
    ) -> Self {
        RealCtx {
            me,
            start,
            stamps: true,
            link,
            loopback: VecDeque::new(),
            held: vec![Held::default(); npes].into(),
            max_packets,
            max_bytes,
            unflushed_steps: 0,
        }
    }

    fn push(&mut self, to: usize) {
        self.link.push(Pe::from(to));
        self.held[to] = Held::default();
    }

    /// Push every destination that holds something: (c) and (d).
    pub fn flush_all(&mut self) {
        for to in 0..self.held.len() {
            if self.held[to].packets > 0 {
                self.push(to);
            }
        }
        self.unflushed_steps = 0;
    }

    /// A step ended: push what a hungry PE is waiting for (b), and
    /// everything every [`FLUSH_EVERY_STEPS`] steps (c).
    pub fn step_done(&mut self) {
        self.unflushed_steps += 1;
        if self.unflushed_steps >= FLUSH_EVERY_STEPS {
            self.flush_all();
            return;
        }
        for to in 0..self.held.len() {
            if self.held[to].packets > 0 && self.link.hungry(Pe::from(to)) {
                self.push(to);
            }
        }
    }

    /// The oldest self-send not yet delivered.
    pub fn pop_local(&mut self) -> Option<Packet> {
        self.loopback.pop_front()
    }
}

impl<L: Link> NetCtx for RealCtx<L> {
    fn me(&self) -> Pe {
        self.me
    }
    fn num_pes(&self) -> usize {
        self.held.len()
    }
    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
    fn send(&mut self, to: Pe, bytes: u32, payload: Payload) {
        assert!(to.index() < self.held.len(), "send to PE out of range");
        let now = if self.stamps { self.now_ns() } else { 0 };
        // The receiver stamps a remote packet's arrival; a self-send
        // keeps this one.
        let pkt = Packet { from: self.me, bytes, at_ns: now, sent_ns: now, payload };
        if to == self.me {
            self.loopback.push_back(pkt);
            return;
        }
        let added = self.link.hold(to, pkt);
        let held = &mut self.held[to.index()];
        held.packets += 1;
        held.bytes += added;
        // A link that counts no bytes (threads) compiles the byte cap away.
        let full = held.packets >= self.max_packets || (added > 0 && held.bytes >= self.max_bytes);
        if full || self.link.hungry(to) {
            self.push(to.index());
        }
    }
    fn charge(&mut self, _cost: Cost) {
        // Real work takes real time on these backends.
    }
    fn stop(&mut self) {
        self.link.stop();
    }
    fn deposit(&mut self, result: Payload) {
        self.link.deposit(result);
    }
    fn set_alarm(&mut self, after: Cost) {
        let at = self.now_ns().saturating_add(after.as_nanos().max(1));
        self.link.set_alarm(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records each push as (destination, packets it carried); `bytes`
    /// is what each hold claims, and `hungry` which PEs say they wait.
    #[derive(Default)]
    struct Tape {
        held: Vec<Vec<Packet>>,
        pushes: Vec<(usize, usize)>,
        bytes: usize,
        hungry: Vec<bool>,
    }

    impl Link for Tape {
        fn hold(&mut self, to: Pe, pkt: Packet) -> usize {
            self.held[to.index()].push(pkt);
            self.bytes
        }
        fn push(&mut self, to: Pe) {
            let n = std::mem::take(&mut self.held[to.index()]).len();
            self.pushes.push((to.index(), n));
        }
        fn hungry(&self, to: Pe) -> bool {
            self.hungry[to.index()]
        }
        fn stop(&mut self) {}
        fn deposit(&mut self, _result: Payload) {}
    }

    /// PE 0 of `npes`, capped at `max_packets` and `max_bytes`, each hold
    /// claiming `bytes`.
    fn ctx(npes: usize, max_packets: usize, max_bytes: usize, bytes: usize) -> RealCtx<Tape> {
        let tape = Tape {
            held: (0..npes).map(|_| Vec::new()).collect(),
            bytes,
            hungry: vec![false; npes],
            ..Tape::default()
        };
        RealCtx::with_link(Pe::ZERO, npes, Instant::now(), tape, max_packets, max_bytes)
    }

    fn send(ctx: &mut RealCtx<Tape>, to: usize) {
        ctx.send(Pe::from(to), 8, Box::new(()));
    }

    fn pushes(ctx: &mut RealCtx<Tape>) -> Vec<(usize, usize)> {
        std::mem::take(&mut ctx.link.pushes)
    }

    #[test]
    fn a_destination_leaves_at_max_packets() {
        let mut ctx = ctx(2, 4, usize::MAX, 0);
        for _ in 0..3 {
            send(&mut ctx, 1);
        }
        assert_eq!(pushes(&mut ctx), []);
        send(&mut ctx, 1);
        assert_eq!(pushes(&mut ctx), [(1, 4)]);
        send(&mut ctx, 1);
        assert_eq!(pushes(&mut ctx), [], "the count starts again after a push");
    }

    #[test]
    fn a_destination_leaves_at_max_bytes_before_max_packets() {
        let mut ctx = ctx(2, 64, 100, 30);
        for _ in 0..3 {
            send(&mut ctx, 1);
        }
        assert_eq!(pushes(&mut ctx), [], "90 bytes is below the cap");
        send(&mut ctx, 1);
        assert_eq!(pushes(&mut ctx), [(1, 4)], "120 bytes reaches it");
        for _ in 0..3 {
            send(&mut ctx, 1);
        }
        assert_eq!(pushes(&mut ctx), [], "the bytes start again after a push");
    }

    #[test]
    fn a_hungry_destination_gets_a_packet_at_the_send() {
        let mut ctx = ctx(3, 64, usize::MAX, 0);
        ctx.link.hungry[2] = true;
        send(&mut ctx, 1);
        send(&mut ctx, 2);
        assert_eq!(pushes(&mut ctx), [(2, 1)]);
    }

    #[test]
    fn step_end_pushes_only_hungry_destinations_that_hold_something() {
        let mut ctx = ctx(4, 64, usize::MAX, 0);
        send(&mut ctx, 1);
        send(&mut ctx, 2);
        // PE 3 is hungry but holds nothing; PE 2 holds but is busy.
        ctx.link.hungry[1] = true;
        ctx.link.hungry[3] = true;
        ctx.step_done();
        assert_eq!(pushes(&mut ctx), [(1, 1)]);
        ctx.step_done();
        assert_eq!(pushes(&mut ctx), [], "nothing held for a hungry PE");
    }

    #[test]
    fn every_destination_leaves_at_step_16() {
        let mut ctx = ctx(3, 64, usize::MAX, 0);
        send(&mut ctx, 1);
        send(&mut ctx, 2);
        send(&mut ctx, 2);
        for step in 1..FLUSH_EVERY_STEPS {
            ctx.step_done();
            assert_eq!(pushes(&mut ctx), [], "held after step {step}");
        }
        ctx.step_done();
        assert_eq!(pushes(&mut ctx), [(1, 1), (2, 2)]);
        assert_eq!(ctx.unflushed_steps, 0);
    }

    #[test]
    fn flush_all_pushes_each_destination_that_holds_once() {
        let mut ctx = ctx(4, 64, usize::MAX, 0);
        send(&mut ctx, 3);
        send(&mut ctx, 1);
        send(&mut ctx, 3);
        ctx.step_done();
        ctx.flush_all();
        assert_eq!(pushes(&mut ctx), [(1, 1), (3, 2)]);
        assert_eq!(ctx.unflushed_steps, 0);
        ctx.flush_all();
        assert_eq!(pushes(&mut ctx), [], "nothing is held twice");
    }

    #[test]
    fn a_self_send_is_never_held_or_pushed() {
        let mut ctx = ctx(2, 1, 0, 0);
        ctx.link.hungry[0] = true;
        send(&mut ctx, 0);
        send(&mut ctx, 0);
        for _ in 0..FLUSH_EVERY_STEPS {
            ctx.step_done();
        }
        ctx.flush_all();
        assert_eq!(pushes(&mut ctx), []);
        assert!(ctx.link.held.iter().all(Vec::is_empty));
        assert!(ctx.pop_local().is_some_and(|pkt| pkt.from == Pe::ZERO));
        assert!(ctx.pop_local().is_some());
        assert!(ctx.pop_local().is_none());
    }
}
