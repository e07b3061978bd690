//! The benchmark's own kernel programs, and the spec-string builder the
//! procs backend's workers re-enter.
//!
//! Four small programs measure what no `ck_apps` program isolates:
//!
//! | spec                                   | measures                               |
//! |----------------------------------------|----------------------------------------|
//! | `pingpong:rounds=R,bytes=B,seed=S`     | one message in flight: per-round RTT   |
//! | `selfsend:count=N`                     | a chare messaging itself: no transport |
//! | `grain:n=N,iters=I,seed=S[,wrong=1]`   | N independent tasks of calibrated size |
//! | `tableops:n=N`                         | table put/get and accumulator adds     |
//!
//! Unlike `ck_apps::baseline::kernel_pingpong` they register
//! `wire_struct!` codecs for everything that crosses a PE boundary, so
//! they run on the procs backend too. Any other spec falls through to
//! [`ck_apps::spec::build_spec`].

use std::time::Instant;

use chare_kernel::prelude::*;
use chare_kernel::Program;

use crate::host::spin;
use crate::stats::XorShift;

/// Build the program `spec` describes: one of the benchmark's own, or
/// anything `ck_apps` knows. Parent and workers both call this, so a
/// malformed spec is a bug in the benchmark and panics.
pub fn build(spec: &str) -> Program {
    let (app, rest) = spec.split_once(':').unwrap_or((spec, ""));
    match app {
        "pingpong" => pingpong::build(&Keys::parse(spec, rest, &["rounds", "bytes", "seed"])),
        "selfsend" => selfsend::build(&Keys::parse(spec, rest, &["count"])),
        "grain" => grain::build(&Keys::parse(spec, rest, &["n", "iters", "seed", "wrong"])),
        "tableops" => tableops::build(&Keys::parse(spec, rest, &["n"])),
        _ => ck_apps::spec::build_spec(spec),
    }
}

/// The `key=val,...` tail of a spec string, checked against the keys the
/// app knows.
struct Keys<'a> {
    spec: &'a str,
    pairs: Vec<(&'a str, u64)>,
}

impl<'a> Keys<'a> {
    fn parse(spec: &'a str, rest: &'a str, known: &[&str]) -> Self {
        let pairs = rest
            .split(',')
            .filter(|p| !p.is_empty())
            .map(|pair| {
                let (k, v) = pair
                    .split_once('=')
                    .unwrap_or_else(|| panic!("bad spec pair {pair:?} in {spec:?}"));
                assert!(known.contains(&k), "unknown key {k:?} in spec {spec:?}");
                let v = v
                    .parse()
                    .unwrap_or_else(|_| panic!("bad number {v:?} for {k:?} in {spec:?}"));
                (k, v)
            })
            .collect();
        Keys { spec, pairs }
    }

    fn get(&self, key: &str) -> Option<u64> {
        self.pairs.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v)
    }

    fn need(&self, key: &str) -> u64 {
        self.get(key)
            .unwrap_or_else(|| panic!("spec {:?} needs key {key:?}", self.spec))
    }
}

/// Ping-pong between PE 0 and PE 1 with the serving chare timing every
/// round trip.
pub mod pingpong {
    use super::*;

    const EP_BALL: EpId = EpId(1);
    const EP_HELLO: EpId = EpId(2);

    /// The payload both sides expect: `bytes` pseudo-random bytes from
    /// `seed`.
    pub fn payload(bytes: u32, seed: u64) -> Vec<u8> {
        let mut rng = XorShift::new(seed);
        (0..bytes).map(|_| rng.next_u64() as u8).collect()
    }

    #[derive(Clone)]
    pub struct PingSeed {
        rounds: u32,
        bytes: u32,
        seed: u64,
        pong: Kind<Pong>,
    }
    message!(PingSeed);

    #[derive(Clone, Copy)]
    pub struct PongSeed {
        ping: ChareId,
    }
    message!(PongSeed);

    pub struct Ball {
        payload: Vec<u8>,
    }
    impl Message for Ball {
        fn bytes(&self) -> u32 {
            self.payload.len() as u32
        }
    }

    /// What the serving chare exits with.
    #[derive(Clone, Debug, PartialEq)]
    pub struct PingResult {
        /// Wall-clock nanoseconds of each round trip, in order.
        pub rtt_ns: Vec<u64>,
        /// Rounds whose returned payload differed from the one served.
        pub corrupt: u64,
    }

    wire_struct!(PingSeed {
        rounds,
        bytes,
        seed,
        pong
    });
    wire_struct!(PongSeed { ping });
    wire_struct!(Ball { payload });
    wire_struct!(PingResult { rtt_ns, corrupt });

    pub struct Ping {
        rounds: u32,
        expect: Vec<u8>,
        pong: Option<ChareId>,
        served_at: Instant,
        result: PingResult,
    }

    impl ChareInit for Ping {
        type Seed = PingSeed;
        fn create(seed: PingSeed, ctx: &mut Ctx) -> Self {
            let me = ctx.self_id();
            let target = Pe::from(1 % ctx.npes());
            ctx.create_on(target, seed.pong, PongSeed { ping: me });
            Ping {
                rounds: seed.rounds,
                expect: payload(seed.bytes, seed.seed),
                pong: None,
                served_at: Instant::now(),
                result: PingResult {
                    rtt_ns: Vec::with_capacity(seed.rounds as usize),
                    corrupt: 0,
                },
            }
        }
    }

    impl Ping {
        fn serve(&mut self, payload: Vec<u8>, ctx: &mut Ctx) {
            self.served_at = Instant::now();
            ctx.send(
                self.pong.expect("rally implies hello"),
                EP_BALL,
                Ball { payload },
            );
        }
    }

    impl Chare for Ping {
        fn entry(&mut self, ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
            match ep {
                EP_HELLO => {
                    self.pong = Some(cast::<ChareId>(msg));
                    let first = self.expect.clone();
                    self.serve(first, ctx);
                }
                EP_BALL => {
                    let rtt = self.served_at.elapsed().as_nanos() as u64;
                    let ball = cast::<Ball>(msg);
                    self.result.rtt_ns.push(rtt);
                    self.result.corrupt += u64::from(ball.payload != self.expect);
                    if self.result.rtt_ns.len() == self.rounds as usize {
                        let result = std::mem::replace(
                            &mut self.result,
                            PingResult {
                                rtt_ns: Vec::new(),
                                corrupt: 0,
                            },
                        );
                        ctx.exit(result);
                    } else {
                        self.serve(ball.payload, ctx);
                    }
                }
                _ => unreachable!("unknown entry point {ep:?}"),
            }
        }
    }

    pub struct Pong {
        ping: ChareId,
    }

    impl ChareInit for Pong {
        type Seed = PongSeed;
        fn create(seed: PongSeed, ctx: &mut Ctx) -> Self {
            let me = ctx.self_id();
            ctx.send(seed.ping, EP_HELLO, me);
            Pong { ping: seed.ping }
        }
    }

    impl Chare for Pong {
        fn entry(&mut self, ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
            debug_assert_eq!(ep, EP_BALL);
            ctx.send(self.ping, EP_BALL, cast::<Ball>(msg));
        }
    }

    pub(super) fn build(keys: &Keys) -> Program {
        let rounds = keys.need("rounds") as u32;
        assert!(rounds >= 1, "pingpong needs rounds >= 1");
        let seed = keys.get("seed").unwrap_or(1);
        let mut b = ProgramBuilder::new();
        let pong = b.chare::<Pong>();
        let ping = b.chare::<Ping>();
        b.wire::<PingSeed>();
        b.wire::<PongSeed>();
        b.wire::<ChareId>();
        b.wire::<Ball>();
        b.wire::<PingResult>();
        b.rng_seed(seed);
        b.main(
            ping,
            PingSeed {
                rounds,
                bytes: keys.need("bytes") as u32,
                seed,
                pong,
            },
        );
        b.build()
    }
}

/// One chare sending itself `count` messages: the kernel's send,
/// enqueue, dequeue and dispatch with no transport underneath.
pub mod selfsend {
    use super::*;

    const EP_NEXT: EpId = EpId(1);

    pub struct SelfSend {
        left: u64,
        count: u64,
    }

    impl ChareInit for SelfSend {
        type Seed = u64;
        fn create(count: u64, ctx: &mut Ctx) -> Self {
            let me = ctx.self_id();
            ctx.send(me, EP_NEXT, 0u64);
            SelfSend { left: count, count }
        }
    }

    impl Chare for SelfSend {
        fn entry(&mut self, _ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
            let hops = cast::<u64>(msg) + 1;
            self.left -= 1;
            if self.left == 0 {
                debug_assert_eq!(hops, self.count);
                ctx.exit(hops);
            } else {
                let me = ctx.self_id();
                ctx.send(me, EP_NEXT, hops);
            }
        }
    }

    pub(super) fn build(keys: &Keys) -> Program {
        let count = keys.need("count");
        assert!(count >= 1, "selfsend needs count >= 1");
        let mut b = ProgramBuilder::new();
        let kind = b.chare::<SelfSend>();
        b.wire::<u64>();
        b.main(kind, count);
        b.build()
    }
}

/// Task-Bench-style grain program: `n` independent task chares placed
/// at random, each spinning a calibrated number of iterations.
pub mod grain {
    use super::*;

    const EP_QUIESCENT: EpId = EpId(1);
    const EP_TOTAL: EpId = EpId(2);

    /// Per-task iteration counts: `iters` with a ±25% jitter drawn from
    /// `seed`. The main chare and the harness's oracle both call this.
    pub fn task_iters(n: u64, iters: u64, seed: u64) -> impl Iterator<Item = u64> {
        let mut rng = XorShift::new(seed);
        (0..n).map(move |_| (iters as f64 * (0.75 + 0.5 * rng.next_f64())).round() as u64)
    }

    #[derive(Clone)]
    pub struct MainSeed {
        n: u64,
        iters: u64,
        seed: u64,
        wrong: u64,
        task: Kind<Task>,
        acc: Acc<SumU64>,
    }
    message!(MainSeed);

    #[derive(Clone, Copy)]
    pub struct TaskSeed {
        iters: u64,
        acc: Acc<SumU64>,
    }
    message!(TaskSeed);

    /// What the main chare exits with.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct GrainResult {
        /// Tasks that ran (each adds one to the accumulator).
        pub tasks: u64,
        /// Spin iterations handed out, summed over tasks.
        pub iters: u64,
    }

    wire_struct!(MainSeed {
        n,
        iters,
        seed,
        wrong,
        task,
        acc
    });
    wire_struct!(TaskSeed { iters, acc });
    wire_struct!(GrainResult { tasks, iters });

    pub struct Main {
        acc: Acc<SumU64>,
        iters: u64,
        wrong: u64,
    }

    impl ChareInit for Main {
        type Seed = MainSeed;
        fn create(seed: MainSeed, ctx: &mut Ctx) -> Self {
            let me = ctx.self_id();
            ctx.start_quiescence(Notify::Chare(me, EP_QUIESCENT));
            let mut total = 0;
            for iters in task_iters(seed.n, seed.iters, seed.seed) {
                total += iters;
                ctx.create(
                    seed.task,
                    TaskSeed {
                        iters,
                        acc: seed.acc,
                    },
                );
            }
            Main {
                acc: seed.acc,
                iters: total,
                wrong: seed.wrong,
            }
        }
    }

    impl Chare for Main {
        fn entry(&mut self, ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
            match ep {
                EP_QUIESCENT => {
                    let _ = cast::<QuiescenceMsg>(msg);
                    let me = ctx.self_id();
                    ctx.acc_collect(self.acc, Notify::Chare(me, EP_TOTAL));
                }
                EP_TOTAL => {
                    let total = cast::<AccResult<u64>>(msg);
                    // `wrong` is the benchmark's test hook: a deliberately
                    // bad answer its checker must count as a failure.
                    ctx.exit(GrainResult {
                        tasks: total.value + self.wrong,
                        iters: self.iters,
                    });
                }
                _ => unreachable!("unknown entry point {ep:?}"),
            }
        }
    }

    pub struct Task;

    impl ChareInit for Task {
        type Seed = TaskSeed;
        fn create(seed: TaskSeed, ctx: &mut Ctx) -> Self {
            std::hint::black_box(spin(seed.iters, seed.iters));
            ctx.acc_add(seed.acc, 1);
            ctx.destroy_self();
            Task
        }
    }

    impl Chare for Task {
        fn entry(&mut self, _ep: EpId, _msg: MsgBody, _ctx: &mut Ctx) {
            unreachable!("Task receives no messages")
        }
    }

    pub(super) fn build(keys: &Keys) -> Program {
        let seed = keys.get("seed").unwrap_or(1);
        let mut b = ProgramBuilder::new();
        let task = b.chare::<Task>();
        let main = b.chare::<Main>();
        let acc = b.accumulator::<SumU64>();
        b.wire::<MainSeed>();
        b.wire::<TaskSeed>();
        b.wire::<AccResult<u64>>();
        b.wire::<GrainResult>();
        b.balance(BalanceStrategy::Random);
        b.rng_seed(seed);
        b.main(
            main,
            MainSeed {
                n: keys.need("n"),
                iters: keys.need("iters"),
                seed,
                wrong: keys.get("wrong").unwrap_or(0),
                task,
                acc,
            },
        );
        b.build()
    }
}

/// `n` table inserts, then `n` finds, then `n` accumulator adds, each
/// phase timed by the one chare that drives it.
pub mod tableops {
    use super::*;

    const EP_ACK: EpId = EpId(1);
    const EP_GOT: EpId = EpId(2);
    const EP_TOTAL: EpId = EpId(3);

    fn key_of(i: u64) -> u64 {
        i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    fn value_of(key: u64) -> u64 {
        key ^ 0x5EED
    }

    #[derive(Clone)]
    pub struct MainSeed {
        n: u64,
        table: TableRef<u64>,
        acc: Acc<SumU64>,
    }
    message!(MainSeed);

    /// What the driving chare exits with.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct TableOpsResult {
        /// Nanoseconds from the first put to the last put ack.
        pub put_ns: u64,
        /// Nanoseconds from the first get to the last reply.
        pub get_ns: u64,
        /// Nanoseconds spent in the `n` accumulator adds.
        pub acc_ns: u64,
        /// Finds that returned a missing or wrong value.
        pub wrong: u64,
        /// The collected accumulator (must equal `n`).
        pub total: u64,
    }

    wire_struct!(MainSeed { n, table, acc });
    wire_struct!(TableOpsResult {
        put_ns,
        get_ns,
        acc_ns,
        wrong,
        total
    });

    pub struct Main {
        seed: MainSeed,
        pending: u64,
        phase_start: Instant,
        result: TableOpsResult,
    }

    impl ChareInit for Main {
        type Seed = MainSeed;
        fn create(seed: MainSeed, ctx: &mut Ctx) -> Self {
            let me = ctx.self_id();
            let phase_start = Instant::now();
            for i in 0..seed.n {
                let key = key_of(i);
                ctx.table_put(
                    seed.table,
                    key,
                    value_of(key),
                    Some(Notify::Chare(me, EP_ACK)),
                );
            }
            Main {
                pending: seed.n,
                seed,
                phase_start,
                result: TableOpsResult {
                    put_ns: 0,
                    get_ns: 0,
                    acc_ns: 0,
                    wrong: 0,
                    total: 0,
                },
            }
        }
    }

    impl Chare for Main {
        fn entry(&mut self, ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
            let me = ctx.self_id();
            match ep {
                EP_ACK => {
                    let _ = cast::<TableAck>(msg);
                    self.pending -= 1;
                    if self.pending == 0 {
                        self.result.put_ns = self.phase_start.elapsed().as_nanos() as u64;
                        self.pending = self.seed.n;
                        self.phase_start = Instant::now();
                        for i in 0..self.seed.n {
                            ctx.table_get(self.seed.table, key_of(i), Notify::Chare(me, EP_GOT));
                        }
                    }
                }
                EP_GOT => {
                    let got = cast::<TableGot<u64>>(msg);
                    self.result.wrong += u64::from(got.value != Some(value_of(got.key)));
                    self.pending -= 1;
                    if self.pending == 0 {
                        self.result.get_ns = self.phase_start.elapsed().as_nanos() as u64;
                        let start = Instant::now();
                        for _ in 0..self.seed.n {
                            ctx.acc_add(self.seed.acc, 1);
                        }
                        self.result.acc_ns = start.elapsed().as_nanos() as u64;
                        ctx.acc_collect(self.seed.acc, Notify::Chare(me, EP_TOTAL));
                    }
                }
                EP_TOTAL => {
                    self.result.total = cast::<AccResult<u64>>(msg).value;
                    ctx.exit(self.result);
                }
                _ => unreachable!("unknown entry point {ep:?}"),
            }
        }
    }

    pub(super) fn build(keys: &Keys) -> Program {
        let n = keys.need("n");
        assert!(n >= 1, "tableops needs n >= 1");
        let mut b = ProgramBuilder::new();
        let main = b.chare::<Main>();
        let table = b.table::<u64>();
        let acc = b.accumulator::<SumU64>();
        b.wire::<MainSeed>();
        b.wire::<u64>();
        b.wire::<TableAck>();
        b.wire::<TableGot<u64>>();
        b.wire::<AccResult<u64>>();
        b.wire::<TableOpsResult>();
        b.main(main, MainSeed { n, table, acc });
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OWN_SPECS: [&str; 4] = [
        "pingpong:rounds=8,bytes=64,seed=3",
        "selfsend:count=100",
        "grain:n=50,iters=10,seed=3",
        "tableops:n=40",
    ];

    #[test]
    fn two_builds_of_each_own_spec_share_a_fingerprint() {
        // The procs handshake compares the parent's wire-table
        // fingerprint with each worker's build of the same string.
        let mut seen = Vec::new();
        for spec in OWN_SPECS {
            let (a, b) = (build(spec), build(spec));
            assert_eq!(a.wire_fingerprint(), b.wire_fingerprint(), "{spec}");
            seen.push(a.wire_fingerprint());
        }
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(
            seen.len(),
            OWN_SPECS.len(),
            "distinct apps, distinct tables"
        );
    }

    #[test]
    fn other_specs_fall_through_to_ck_apps() {
        let mut rep = build("fib:n=14,grain=8").run_sim_preset(2, MachinePreset::NcubeLike);
        assert_eq!(rep.take_result::<u64>(), Some(ck_apps::fib::fib_seq(14)));
        assert_eq!(
            build("primes:limit=500,chunks=4").wire_fingerprint(),
            ck_apps::spec::build_spec("primes:limit=500,chunks=4").wire_fingerprint()
        );
    }

    #[test]
    #[should_panic(expected = "unknown app")]
    fn unknown_app_panics_in_ck_apps() {
        build("sudoku:n=9");
    }

    #[test]
    #[should_panic(expected = "unknown key")]
    fn unknown_key_panics() {
        build("grain:n=5,iters=1,grian=2");
    }

    #[test]
    fn pingpong_times_every_round_and_checks_payloads() {
        let mut rep = build(OWN_SPECS[0]).run_threads(2);
        assert!(!rep.timed_out);
        let got = rep
            .take_result::<pingpong::PingResult>()
            .expect("ping result");
        assert_eq!(got.rtt_ns.len(), 8);
        assert_eq!(got.corrupt, 0);
        assert_ne!(pingpong::payload(64, 3), pingpong::payload(64, 4));
    }

    #[test]
    fn selfsend_counts_its_hops() {
        let mut rep = build(OWN_SPECS[1]).run_sim_preset(1, MachinePreset::NcubeLike);
        assert_eq!(rep.take_result::<u64>(), Some(100));
    }

    #[test]
    fn grain_counts_tasks_and_reports_jittered_iters() {
        let want: u64 = grain::task_iters(50, 10, 3).sum();
        assert!(grain::task_iters(50, 10, 3).all(|i| (7..=13).contains(&i)));
        assert_ne!(want, grain::task_iters(50, 10, 4).sum::<u64>());
        let mut rep = build(OWN_SPECS[2]).run_threads(2);
        assert!(!rep.timed_out);
        assert_eq!(
            rep.take_result::<grain::GrainResult>(),
            Some(grain::GrainResult {
                tasks: 50,
                iters: want
            })
        );
        let mut rep =
            build("grain:n=50,iters=10,seed=3,wrong=1").run_sim_preset(2, MachinePreset::NcubeLike);
        assert_eq!(
            rep.take_result::<grain::GrainResult>().map(|r| r.tasks),
            Some(51)
        );
    }

    #[test]
    fn tableops_finds_what_it_inserted() {
        let mut rep = build(OWN_SPECS[3]).run_threads(1);
        assert!(!rep.timed_out);
        let got = rep
            .take_result::<tableops::TableOpsResult>()
            .expect("tableops result");
        assert_eq!((got.wrong, got.total), (0, 40));
    }
}
