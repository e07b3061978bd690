//! Real-parallel backend: one OS thread per PE.
//!
//! This is the stand-in for the paper's shared-memory ports (Sequent
//! Symmetry, Encore Multimax): every PE is an OS thread, the
//! interconnect is one [`Inbox`] of packets per PE in shared memory, and
//! wall-clock time is the metric. The same [`NodeProgram`] that runs on
//! the simulator runs here unchanged — the machine-independence the paper
//! demonstrates by porting one kernel across machines.
//!
//! Everything but the [`Link`] is [`crate::real`]'s: the PE loop, the
//! inbox and its park/wake handshake, and the flush rule. This backend's
//! `Link`, `Inboxes`, holds a `Vec<Packet>` per destination, capped at
//! [`BATCH_PACKETS`] packets and never by bytes, and pushes it whole into
//! the destination's inbox: one short critical section, and a syscall
//! only if the owner has parked. A self-send never touches shared memory.
//! An idle PE spins before it parks, provided every PE can have a core to
//! itself (`npes <= available_parallelism()`).
//!
//! # Hungry
//!
//! The one flush trigger of this backend's own is *hungry*: an owner
//! publishes it while it idles on its inbox, so a PE with no work waits
//! at most for the end of one sender step. The flag shares the inbox's
//! cache line. A busy owner writes that line only when it takes mail, at
//! most once per push, so the read on every send misses at most once per
//! push; and a sender that finds the owner hungry is about to push, so it
//! needs the line anyway. (On a line of its own the flag measured no
//! faster end to end and added about 100 ns to a ring hop, docs/PERF.md.)
//! Combining adds no ordering obligation: every push still ends with the
//! waker's half of the handshake. A stop drops held packets exactly as it
//! drops packets already queued in an inbox.
//!
//! Unlike the simulator, the thread machine cannot observe global
//! quiescence for free; programs end by calling
//! [`NetCtx::stop`](crate::program::NetCtx::stop) (the
//! kernel's `CkExit`, possibly triggered by its quiescence-detection
//! module), which unparks every PE and the launching thread. A watchdog
//! deadline ([`ThreadConfig::watchdog`]) guards tests and benchmarks
//! against programs that never stop.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Thread;
use std::time::{Duration, Instant};

use crate::pe::Pe;
use crate::program::{NodeFactory, NodeProgram, Packet, Payload};
use crate::real::{Inbox, Link, RealCtx};
use crate::BATCH_PACKETS;

/// Configuration of the thread-parallel machine.
#[derive(Clone, Debug)]
pub struct ThreadConfig {
    /// Number of PEs (threads).
    pub npes: usize,
    /// Abort the run after this much wall time if the program has not
    /// stopped itself.
    pub watchdog: Duration,
}

impl ThreadConfig {
    /// `npes` threads with a 60-second watchdog.
    pub fn new(npes: usize) -> Self {
        assert!(npes > 0, "machine needs at least one PE");
        ThreadConfig {
            npes,
            watchdog: Duration::from_secs(60),
        }
    }

    /// Override the watchdog deadline.
    pub fn with_watchdog(mut self, watchdog: Duration) -> Self {
        self.watchdog = watchdog;
        self
    }
}

/// Result of a thread-machine run of `N` nodes.
pub struct ThreadReport<N> {
    /// Wall-clock duration from launch to last thread exit.
    pub wall: Duration,
    /// The last payload a handler deposited, if any.
    pub result: Option<Payload>,
    /// The nodes, in PE order, as their threads left them.
    pub nodes: Vec<N>,
    /// True if the watchdog fired before the program stopped.
    pub timed_out: bool,
}

impl<N> ThreadReport<N> {
    /// Downcast the deposited result.
    pub fn result_as<T: 'static>(&self) -> Option<&T> {
        crate::program::result_ref(&self.result)
    }

    /// Take and downcast the deposited result.
    pub fn take_result<T: 'static>(&mut self) -> Option<T> {
        crate::program::take_result(&mut self.result)
    }
}

struct Shared {
    stop: AtomicBool,
    result: Mutex<Option<Payload>>,
    start: Instant,
    inboxes: Box<[Inbox<Packet>]>,
    /// The thread that called [`ThreadMachine::run`], parked until stop.
    launcher: Thread,
}

impl Shared {
    fn new(npes: usize) -> Self {
        Shared {
            stop: AtomicBool::new(false),
            result: Mutex::new(None),
            start: Instant::now(),
            inboxes: (0..npes).map(|_| Inbox::default()).collect(),
            launcher: std::thread::current(),
        }
    }

    fn halt(&self) {
        self.stop.store(true, Ordering::Release);
        for inbox in self.inboxes.iter() {
            inbox.wake_if_parked();
        }
        self.launcher.unpark();
    }
}

/// A PE's [`Link`] on this machine: the inboxes, and one reused buffer
/// per destination of the packets not yet pushed (its own stays empty).
struct Inboxes {
    me: usize,
    shared: Arc<Shared>,
    held: Box<[Vec<Packet>]>,
}

impl Link for Inboxes {
    type Mail = Packet;
    fn hold(&mut self, to: Pe, pkt: Packet) -> usize {
        self.held[to.index()].push(pkt);
        0
    }
    fn push(&mut self, to: Pe) {
        self.shared.inboxes[to.index()].push(&mut self.held[to.index()]);
    }
    fn hungry(&self, to: Pe) -> bool {
        self.shared.inboxes[to.index()].hungry.load(Ordering::Relaxed)
    }
    fn stop(&mut self) {
        self.shared.halt();
    }
    fn deposit(&mut self, result: Payload) {
        *self.shared.result.lock().expect("a PE panicked mid-deposit") = Some(result);
    }
    fn stopped(&self) -> bool {
        self.shared.stop.load(Ordering::Acquire)
    }
    fn inbox(&self) -> &Inbox<Packet> {
        &self.shared.inboxes[self.me]
    }
    fn open(&mut self, mut pkt: Packet, at_ns: u64, node: &mut impl NodeProgram) {
        pkt.at_ns = at_ns;
        node.incoming(pkt);
    }
}

type ThreadCtx = RealCtx<Inboxes>;

impl ThreadCtx {
    fn new(me: Pe, shared: Arc<Shared>) -> Self {
        let (npes, start) = (shared.inboxes.len(), shared.start);
        let held = (0..npes).map(|_| Vec::new()).collect();
        let link = Inboxes { me: me.index(), shared, held };
        RealCtx::with_link(me, npes, start, link, BATCH_PACKETS, usize::MAX)
    }
}

fn pe_loop<N: NodeProgram>(mut node: N, mut ctx: ThreadCtx, spin: bool) -> N {
    ctx.stamps = node.stamps();
    node.boot(&mut ctx);
    while !ctx.link.stopped() {
        ctx.turn(&mut node, spin);
    }
    node
}

/// The thread-parallel machine.
pub struct ThreadMachine;

impl ThreadMachine {
    /// Run `factory`'s node program on `cfg.npes` OS threads until a
    /// handler calls [`NetCtx::stop`](crate::program::NetCtx::stop) or the
    /// watchdog fires, and hand the nodes back.
    pub fn run<F>(cfg: ThreadConfig, factory: &F) -> ThreadReport<F::Node>
    where
        F: NodeFactory,
        F::Node: 'static,
    {
        let npes = cfg.npes;
        let shared = Arc::new(Shared::new(npes));
        // Spinning only pays while every PE can hold a core; beyond that
        // a spinner burns the time slice the sender needs.
        let spin = npes <= std::thread::available_parallelism().map_or(1, |n| n.get());

        let mut handles = Vec::with_capacity(npes);
        for i in 0..npes {
            let pe = Pe::from(i);
            let node = factory.build(pe, npes);
            let ctx = ThreadCtx::new(pe, Arc::clone(&shared));
            handles.push(
                std::thread::Builder::new()
                    .name(format!("pe-{i}"))
                    .spawn(move || pe_loop(node, ctx, spin))
                    .expect("spawn PE thread"),
            );
        }

        // Watchdog: park until `halt` unparks us or the deadline passes.
        let mut timed_out = false;
        while !shared.stop.load(Ordering::Acquire) {
            let left = cfg.watchdog.saturating_sub(shared.start.elapsed());
            if left.is_zero() {
                timed_out = true;
                shared.halt();
                break;
            }
            std::thread::park_timeout(left);
        }
        let nodes: Vec<F::Node> = handles
            .into_iter()
            .map(|h| h.join().expect("PE thread panicked"))
            .collect();
        let wall = shared.start.elapsed();
        let result = shared
            .result
            .lock()
            .expect("a PE panicked mid-deposit")
            .take();
        ThreadReport {
            wall,
            result,
            nodes,
            timed_out,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{FnFactory, NetCtx, StepKind};
    use crate::real::IDLE_PARK;
    use crate::time::Cost;
    use crate::FLUSH_EVERY_STEPS;
    use std::collections::VecDeque;

    /// Token ring: passes a counter around all PEs `laps` times, then
    /// PE 0 deposits and stops — same program as the simulator test,
    /// proving backend-independence at this layer.
    struct Relay {
        pe: Pe,
        npes: usize,
        queue: VecDeque<Packet>,
        laps: u32,
        seen: u64,
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
            self.seen += 1;
            let count = *pkt.payload.downcast::<u64>().unwrap();
            if self.pe == Pe::ZERO && count + 1 >= (self.laps as u64) * self.npes as u64 {
                net.deposit(Box::new(count + 1));
                net.stop();
            } else {
                let next = (self.pe.index() + 1) % self.npes;
                net.send(Pe::from(next), 8, Box::new(count + 1));
            }
            Some(StepKind::User)
        }
        fn has_work(&self) -> bool {
            !self.queue.is_empty()
        }
    }

    fn relay(laps: u32) -> FnFactory<impl Fn(Pe, usize) -> Relay> {
        FnFactory(move |pe, npes| Relay {
            pe,
            npes,
            queue: VecDeque::new(),
            laps,
            seen: 0,
        })
    }

    #[test]
    fn ring_completes_on_threads() {
        let mut rep = ThreadMachine::run(ThreadConfig::new(4), &relay(3));
        assert!(!rep.timed_out);
        assert_eq!(rep.take_result::<u64>(), Some(12));
    }

    #[test]
    fn single_pe_machine_works() {
        let mut rep = ThreadMachine::run(ThreadConfig::new(1), &relay(5));
        assert!(!rep.timed_out);
        assert_eq!(rep.take_result::<u64>(), Some(5));
    }

    #[test]
    fn stats_are_collected_per_pe() {
        let rep = ThreadMachine::run(ThreadConfig::new(4), &relay(2));
        let pes: Vec<Pe> = rep.nodes.iter().map(|n| n.pe).collect();
        assert_eq!(pes, Pe::all(4).collect::<Vec<_>>());
        // One handler execution per hop: 2 laps of 4 PEs. The stop
        // leaves nothing queued behind the token.
        let seen: Vec<u64> = rep.nodes.iter().map(|n| n.seen).collect();
        assert_eq!(seen, vec![2; 4]);
    }

    #[test]
    fn watchdog_fires_on_nonterminating_program() {
        struct Forever;
        impl NodeProgram for Forever {
            fn boot(&mut self, _net: &mut dyn NetCtx) {}
            fn incoming(&mut self, _pkt: Packet) {}
            fn step(&mut self, _net: &mut dyn NetCtx) -> Option<StepKind> {
                None
            }
            fn has_work(&self) -> bool {
                false
            }
        }
        let cfg = ThreadConfig::new(2).with_watchdog(Duration::from_millis(50));
        let rep = ThreadMachine::run(cfg, &FnFactory(|_, _| Forever));
        assert!(rep.timed_out);
        assert!(rep.result.is_none());
    }

    /// A ring hands one token round, so every hop depends on the wake of
    /// the one before: a lost wake-up costs a whole [`IDLE_PARK`], and a
    /// score of them would push the run past the bound.
    fn ring_finishes_promptly(npes: usize) {
        let laps = (20_000 / npes) as u32;
        let mut rep = ThreadMachine::run(ThreadConfig::new(npes), &relay(laps));
        assert!(!rep.timed_out);
        assert_eq!(rep.take_result::<u64>(), Some(laps as u64 * npes as u64));
        assert!(
            rep.wall < Duration::from_secs(15),
            "{npes}-PE ring took {:?}",
            rep.wall
        );
    }

    #[test]
    fn no_wakeup_is_lost_on_a_two_pe_ring() {
        ring_finishes_promptly(2);
    }

    #[test]
    fn no_wakeup_is_lost_when_oversubscribed() {
        // More PEs than cores: nobody spins, every hop is a park and a wake.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        ring_finishes_promptly(4 * cores);
    }

    #[test]
    fn stop_rouses_parked_pes() {
        /// PE 0 keeps itself busy long enough for the idle PEs to have
        /// parked, then stops the machine.
        struct BusyThenStop {
            busy: bool,
            began: Instant,
        }
        const BUSY: Duration = Duration::from_millis(30);
        impl NodeProgram for BusyThenStop {
            fn boot(&mut self, _net: &mut dyn NetCtx) {}
            fn incoming(&mut self, _pkt: Packet) {}
            fn step(&mut self, net: &mut dyn NetCtx) -> Option<StepKind> {
                if self.began.elapsed() >= BUSY {
                    self.busy = false;
                    net.stop();
                }
                Some(StepKind::User)
            }
            fn has_work(&self) -> bool {
                self.busy
            }
        }
        let began = Instant::now();
        let factory = FnFactory(move |pe, _| BusyThenStop {
            busy: pe == Pe::ZERO,
            began,
        });
        let rep = ThreadMachine::run(ThreadConfig::new(4), &factory);
        assert!(!rep.timed_out);
        // Woken, not timed out of the park: the backstop alone would
        // hold the join for the rest of IDLE_PARK.
        assert!(
            rep.wall < IDLE_PARK / 2,
            "stop took {:?} to reach parked PEs",
            rep.wall
        );
    }

    #[test]
    fn an_alarm_fires_on_threads() {
        /// Sets a 1 ms alarm at boot and stops the machine when it fires.
        struct Wake;
        impl NodeProgram for Wake {
            fn boot(&mut self, net: &mut dyn NetCtx) {
                net.set_alarm(Cost::millis(1));
            }
            fn incoming(&mut self, _pkt: Packet) {}
            fn step(&mut self, _net: &mut dyn NetCtx) -> Option<StepKind> {
                None
            }
            fn has_work(&self) -> bool {
                false
            }
            fn alarm(&mut self, net: &mut dyn NetCtx) {
                net.stop();
            }
        }
        let cfg = ThreadConfig::new(1).with_watchdog(Duration::from_secs(5));
        let rep = ThreadMachine::run(cfg, &FnFactory(|_, _| Wake));
        assert!(!rep.timed_out, "the alarm never fired");
        assert!(rep.wall < IDLE_PARK / 2, "the alarm waited for the backstop: {:?}", rep.wall);
    }

    #[test]
    fn self_sends_stay_off_the_shared_inbox() {
        let shared = Arc::new(Shared::new(1));
        let mut ctx = ThreadCtx::new(Pe::ZERO, Arc::clone(&shared));
        ctx.send(Pe::ZERO, 8, Box::new(7u64));
        let inbox = &shared.inboxes[0];
        assert!(!inbox.has_mail.load(Ordering::Relaxed));
        let queue = inbox.queue.lock().unwrap();
        assert_eq!((queue.len(), queue.capacity()), (0, 0));
        drop(queue);
        assert!(ctx.link.held[0].is_empty());
        assert!(ctx.pop_local().is_some_and(|pkt| pkt.from == Pe::ZERO));

        let mut rep = ThreadMachine::run(ThreadConfig::new(1), &relay(20_000));
        assert!(!rep.timed_out);
        assert_eq!(rep.take_result::<u64>(), Some(20_000));
    }

    /// How many packets PE 1's inbox has received since the last call.
    fn arrived(shared: &Shared) -> usize {
        let mut batch = Vec::new();
        shared.inboxes[1].take(&mut batch);
        batch.len()
    }

    #[test]
    fn each_trigger_pushes_what_is_held_and_nothing_else_does() {
        let shared = Arc::new(Shared::new(2));
        let mut ctx = ThreadCtx::new(Pe::ZERO, Arc::clone(&shared));
        let hungry = |on: bool| shared.inboxes[1].hungry.store(on, Ordering::Relaxed);
        let send = |ctx: &mut ThreadCtx| ctx.send(Pe::from(1), 8, Box::new(0u64));

        // (c): a lone packet to a busy PE leaves at the 16th step.
        send(&mut ctx);
        for step in 1..=FLUSH_EVERY_STEPS {
            assert_eq!(arrived(&shared), 0, "held before step {step}");
            ctx.step_done();
        }
        assert_eq!(arrived(&shared), 1);

        // (a): the 64th packet sends all 64.
        for _ in 1..BATCH_PACKETS {
            send(&mut ctx);
        }
        assert_eq!(arrived(&shared), 0);
        send(&mut ctx);
        assert_eq!(arrived(&shared), BATCH_PACKETS);

        // (b) at the send: a hungry PE gets each packet at once.
        hungry(true);
        send(&mut ctx);
        assert_eq!(arrived(&shared), 1);

        // (b) at the end of a step: the PE went hungry after the send.
        hungry(false);
        send(&mut ctx);
        hungry(true);
        assert_eq!(arrived(&shared), 0);
        ctx.step_done();
        assert_eq!(arrived(&shared), 1);

        // (d): everything leaves before this PE idles.
        hungry(false);
        send(&mut ctx);
        send(&mut ctx);
        ctx.flush_all();
        assert_eq!(arrived(&shared), 2);
        assert_eq!(ctx.unflushed_steps, 0);
    }

    /// Keeps a token circulating through its own loopback, so it never
    /// idles; PE 0 also streams [`STREAM`] numbered packets to PE 1, one
    /// per token step, and PE 1 checks their order.
    struct BusyStream {
        pe: Pe,
        queue: VecDeque<Packet>,
        sent: u64,
        got: u64,
    }

    const STREAM: u64 = 10_000;

    impl NodeProgram for BusyStream {
        fn boot(&mut self, net: &mut dyn NetCtx) {
            net.send(self.pe, 0, Box::new(()));
        }
        fn incoming(&mut self, pkt: Packet) {
            self.queue.push_back(pkt);
        }
        fn step(&mut self, net: &mut dyn NetCtx) -> Option<StepKind> {
            let pkt = self.queue.pop_front()?;
            if pkt.from == self.pe {
                net.send(self.pe, 0, pkt.payload);
                if self.pe == Pe::ZERO && self.sent < STREAM {
                    net.send(Pe::from(1), 8, Box::new(self.sent));
                    self.sent += 1;
                }
            } else {
                let i = *pkt.payload.downcast::<u64>().expect("a numbered packet");
                assert_eq!(i, self.got, "lost, duplicated or reordered");
                self.got += 1;
                if self.got == STREAM {
                    net.stop();
                }
            }
            Some(StepKind::User)
        }
        fn has_work(&self) -> bool {
            !self.queue.is_empty()
        }
    }

    #[test]
    fn held_packets_stay_ordered_and_leave_when_no_pe_idles() {
        // Neither PE ever idles, so neither is hungry and nothing is
        // flushed before a wait: only (a) and (c) send. 10 000 is not a
        // multiple of 64, so the last packets leave by (c) alone.
        let factory = FnFactory(|pe, _| BusyStream {
            pe,
            queue: VecDeque::new(),
            sent: 0,
            got: 0,
        });
        let cfg = ThreadConfig::new(2).with_watchdog(Duration::from_secs(20));
        let rep = ThreadMachine::run(cfg, &factory);
        assert!(!rep.timed_out, "held packets never left a busy sender");
        assert_eq!(rep.nodes[0].sent, STREAM);
        assert_eq!(rep.nodes[1].got, STREAM);
    }

    #[test]
    fn a_busy_sender_does_not_starve_an_idle_pe() {
        /// PE 1 tells PE 0 it has booted, then idles. PE 0 gives it time
        /// to park, then sends it one packet at the start of a 50 ms
        /// step. PE 1 deposits that packet's send-to-drain latency.
        enum Cue {
            Ready,
            Go,
            Parcel,
        }
        struct Starve {
            pe: Pe,
            queue: VecDeque<Packet>,
        }
        const STEP: Duration = Duration::from_millis(50);
        impl NodeProgram for Starve {
            fn boot(&mut self, net: &mut dyn NetCtx) {
                if self.pe != Pe::ZERO {
                    net.send(Pe::ZERO, 8, Box::new(Cue::Ready));
                }
            }
            fn incoming(&mut self, pkt: Packet) {
                self.queue.push_back(pkt);
            }
            fn step(&mut self, net: &mut dyn NetCtx) -> Option<StepKind> {
                let pkt = self.queue.pop_front()?;
                let (at_ns, sent_ns) = (pkt.at_ns, pkt.sent_ns);
                match *pkt.payload.downcast::<Cue>().expect("a cue") {
                    Cue::Ready => {
                        std::thread::sleep(Duration::from_millis(10));
                        net.send(Pe::ZERO, 0, Box::new(Cue::Go));
                    }
                    Cue::Go => {
                        let began = Instant::now();
                        net.send(Pe::from(1), 8, Box::new(Cue::Parcel));
                        while began.elapsed() < STEP {
                            std::hint::spin_loop();
                        }
                    }
                    Cue::Parcel => {
                        net.deposit(Box::new(at_ns - sent_ns));
                        net.stop();
                    }
                }
                Some(StepKind::User)
            }
            fn has_work(&self) -> bool {
                !self.queue.is_empty()
            }
        }
        let factory = FnFactory(|pe, _| Starve {
            pe,
            queue: VecDeque::new(),
        });
        let mut rep = ThreadMachine::run(ThreadConfig::new(2), &factory);
        assert!(!rep.timed_out);
        let waited = Duration::from_nanos(rep.take_result::<u64>().expect("PE 1 got the parcel"));
        assert!(
            waited < Duration::from_millis(10),
            "an idle PE waited {waited:?} for a packet sent at the start of a {STEP:?} step"
        );
    }

    /// Passes a countdown between two PEs, each hop followed by one
    /// through the receiver's loopback, and keeps every packet's
    /// `(at_ns, sent_ns)`.
    struct Stamps {
        pe: Pe,
        stamps: bool,
        queue: VecDeque<Packet>,
        seen: Vec<(u64, u64)>,
    }

    impl NodeProgram for Stamps {
        fn boot(&mut self, net: &mut dyn NetCtx) {
            if self.pe == Pe::ZERO {
                net.send(Pe::from(1), 8, Box::new(400u32));
            }
        }
        fn incoming(&mut self, pkt: Packet) {
            self.seen.push((pkt.at_ns, pkt.sent_ns));
            self.queue.push_back(pkt);
        }
        fn step(&mut self, net: &mut dyn NetCtx) -> Option<StepKind> {
            let pkt = self.queue.pop_front()?;
            let left = *pkt.payload.downcast::<u32>().expect("a countdown");
            if left == 0 {
                net.stop();
            } else if pkt.from == self.pe {
                net.send(Pe::from(1 - self.pe.index()), 8, Box::new(left - 1));
            } else {
                net.send(self.pe, 8, Box::new(left - 1));
            }
            Some(StepKind::User)
        }
        fn has_work(&self) -> bool {
            !self.queue.is_empty()
        }
        fn stamps(&self) -> bool {
            self.stamps
        }
    }

    fn stamps_seen(stamps: bool) -> Vec<(u64, u64)> {
        let factory = FnFactory(move |pe, _| Stamps {
            pe,
            stamps,
            queue: VecDeque::new(),
            seen: Vec::new(),
        });
        let rep = ThreadMachine::run(ThreadConfig::new(2), &factory);
        assert!(!rep.timed_out);
        let seen: Vec<(u64, u64)> = rep.nodes.into_iter().flat_map(|n| n.seen).collect();
        assert_eq!(seen.len(), 401, "one packet per hop and per loopback, and the first");
        seen
    }

    #[test]
    fn a_node_that_does_not_stamp_gets_packets_stamped_zero() {
        assert!(stamps_seen(false).iter().all(|&stamps| stamps == (0, 0)));
    }

    #[test]
    fn a_stamping_node_gets_each_packet_sent_before_it_arrived() {
        let seen = stamps_seen(true);
        assert!(seen.iter().all(|&(at_ns, sent_ns)| sent_ns <= at_ns));
        assert!(seen.iter().any(|&(at_ns, _)| at_ns > 0), "the clock was read");
    }

    #[test]
    fn result_downcast_mismatch_is_none() {
        let mut rep = ThreadMachine::run(ThreadConfig::new(2), &relay(1));
        assert!(rep.result_as::<String>().is_none());
        assert_eq!(rep.take_result::<String>(), None);
        // The payload survives a failed take.
        assert_eq!(rep.take_result::<u64>(), Some(2));
    }
}
