//! Parallel Fibonacci — the canonical adaptive tree computation.
//!
//! Every node of the recursion above the grain threshold becomes a
//! chare; below it the subtree is evaluated sequentially inside one
//! entry method. The value of fib is irrelevant (it's the classic
//! exponential recursion); what the benchmark measures is the kernel's
//! ability to spread an *unpredictable* tree of small tasks across PEs —
//! the workload the paper's load-balancing experiments are built on.

use chare_kernel::prelude::*;

use crate::costs::{work, FIB_NODE_NS};
use crate::registry::{Answer, App};
use crate::spec::{Args, SpecError};

/// Entry point: a child reports its subtree's value.
pub const EP_RESULT: EpId = EpId(1);

/// Parameters of a fib run.
#[derive(Clone, Copy, Debug)]
pub struct FibParams {
    /// Argument.
    pub n: u32,
    /// Subtrees with `n < grain` are evaluated sequentially.
    pub grain: u32,
}

impl Default for FibParams {
    fn default() -> Self {
        FibParams { n: 25, grain: 16 }
    }
}

/// Sequential fib (u64; exact for n ≤ 93).
pub fn fib_seq(n: u32) -> u64 {
    let (mut a, mut b) = (0u64, 1u64);
    for _ in 0..n {
        let c = a + b;
        a = b;
        b = c;
    }
    a
}

/// Number of calls the naive recursion performs for `n` — the work
/// model for charging simulated time.
pub fn fib_calls(n: u32) -> u64 {
    // calls(n) = 1 + calls(n-1) + calls(n-2); calls(0) = calls(1) = 1
    // which solves to 2 * fib(n+1) - 1.
    2 * fib_seq(n + 1) - 1
}

/// Seed of the main chare.
#[derive(Clone)]
pub struct MainSeed {
    /// Parameters.
    pub params: FibParams,
    /// Kind handle for spawning the tree.
    pub fib: Kind<FibChare>,
}
message!(MainSeed);

/// Seed of a tree-node chare.
#[derive(Clone)]
pub struct FibSeed {
    n: u32,
    grain: u32,
    parent: ChareId,
    fib: Kind<FibChare>,
}
message!(FibSeed);

// Wire codecs for the multi-process backend (positional field lists).
wire_struct!(FibParams { n, grain });
wire_struct!(MainSeed { params, fib });
wire_struct!(FibSeed { n, grain, parent, fib });

/// The main chare: spawns the root and exits with its result.
pub struct FibMain;

impl ChareInit for FibMain {
    type Seed = MainSeed;
    fn create(seed: MainSeed, ctx: &mut Ctx) -> Self {
        let me = ctx.self_id();
        ctx.create(
            seed.fib,
            FibSeed {
                n: seed.params.n,
                grain: seed.params.grain,
                parent: me,
                fib: seed.fib,
            },
        );
        FibMain
    }
}

impl Chare for FibMain {
    fn entry(&mut self, ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
        debug_assert_eq!(ep, EP_RESULT);
        let value = cast::<u64>(msg);
        ctx.exit(value);
    }
}

/// One node of the fib tree.
pub struct FibChare {
    parent: ChareId,
    pending: u8,
    sum: u64,
}

impl ChareInit for FibChare {
    type Seed = FibSeed;
    fn create(seed: FibSeed, ctx: &mut Ctx) -> Self {
        if seed.n < seed.grain {
            // Sequential leaf: charge the cost of the whole subtree.
            ctx.charge(work(fib_calls(seed.n), FIB_NODE_NS));
            ctx.send(seed.parent, EP_RESULT, fib_seq(seed.n));
            ctx.destroy_self();
            return FibChare {
                parent: seed.parent,
                pending: 0,
                sum: 0,
            };
        }
        ctx.charge(work(1, FIB_NODE_NS));
        let me = ctx.self_id();
        for d in [1, 2] {
            ctx.create(
                seed.fib,
                FibSeed {
                    n: seed.n - d,
                    grain: seed.grain,
                    parent: me,
                    fib: seed.fib,
                },
            );
        }
        FibChare {
            parent: seed.parent,
            pending: 2,
            sum: 0,
        }
    }
}

impl Chare for FibChare {
    fn entry(&mut self, ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
        debug_assert_eq!(ep, EP_RESULT);
        self.sum += cast::<u64>(msg);
        self.pending -= 1;
        if self.pending == 0 {
            ctx.charge(work(1, FIB_NODE_NS));
            ctx.send(self.parent, EP_RESULT, self.sum);
            ctx.destroy_self();
        }
    }
}

/// Build the fib program, to run under [`APP`]'s strategies (FIFO + ACWN)
/// unless told otherwise ([`Program::with_opts`]).
pub fn build(params: FibParams) -> Program {
    let mut b = ProgramBuilder::new();
    let fib = b.chare::<FibChare>();
    let main = b.chare::<FibMain>();
    b.wire::<MainSeed>();
    b.wire::<FibSeed>();
    b.queueing(APP.queueing).balance(APP.balance);
    b.main(main, MainSeed { params, fib });
    b.build()
}

/// Spec keys: `n`, `grain`.
pub fn params(a: &mut Args) -> Result<FibParams, SpecError> {
    let d = FibParams::default();
    Ok(FibParams { n: a.key("n", d.n)?, grain: a.key("grain", d.grain)? })
}

/// The registry entry.
pub const APP: App = App {
    name: "fib",
    queueing: QueueingStrategy::Fifo,
    balance: BalanceStrategy::acwn(),
    ends_by_qd: false,
    test_spec: "fib:n=18,grain=10",
    params: |a| params(a).map(drop),
    build: |a| Ok(build(params(a)?)),
    oracle: |a, _| Ok(Answer::Int(fib_seq(params(a)?.n))),
    answer: |rep| rep.result_ref::<u64>().map(|&v| Answer::Int(v)),
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_values() {
        assert_eq!(fib_seq(0), 0);
        assert_eq!(fib_seq(1), 1);
        assert_eq!(fib_seq(10), 55);
        assert_eq!(fib_seq(25), 75025);
    }

    #[test]
    fn calls_recurrence_holds() {
        fn naive(n: u32) -> u64 {
            if n < 2 {
                1
            } else {
                1 + naive(n - 1) + naive(n - 2)
            }
        }
        for n in 0..15 {
            assert_eq!(fib_calls(n), naive(n), "n={n}");
        }
    }

    #[test]
    fn computes_fib_on_sim() {
        let params = FibParams { n: 18, grain: 10 };
        for balance in [
            BalanceStrategy::Local,
            BalanceStrategy::Random,
            BalanceStrategy::acwn(),
        ] {
            let prog = build(params).with_opts(|o| o.balance = balance.clone());
            let mut rep = prog.run_sim_preset(8, MachinePreset::NcubeLike);
            assert_eq!(
                rep.take_result::<u64>(),
                Some(fib_seq(18)),
                "balance {balance:?}"
            );
        }
    }

    #[test]
    fn computes_fib_with_token_and_central() {
        let params = FibParams { n: 16, grain: 8 };
        for balance in [BalanceStrategy::TokenIdle, BalanceStrategy::CentralManager] {
            let prog = build(params).with_opts(|o| o.balance = balance.clone());
            let mut rep = prog.run_sim_preset(4, MachinePreset::NcubeLike);
            assert_eq!(
                rep.take_result::<u64>(),
                Some(fib_seq(16)),
                "balance {balance:?}"
            );
        }
    }

    #[test]
    fn grain_equal_n_is_fully_sequential() {
        let prog = build(FibParams { n: 15, grain: 16 });
        let mut rep = prog.run_sim_preset(4, MachinePreset::NcubeLike);
        assert_eq!(rep.take_result::<u64>(), Some(fib_seq(15)));
        // Only the main chare and one leaf chare were created.
        assert_eq!(rep.total().chares_created, 2);
    }

    #[test]
    fn parallel_run_beats_one_pe() {
        let params = FibParams { n: 22, grain: 12 };
        let prog = build(params);
        let t1 = prog.run_sim_preset(1, MachinePreset::NcubeLike).time_ns;
        let t16 = prog.run_sim_preset(16, MachinePreset::NcubeLike).time_ns;
        assert!(
            t16 * 3 < t1 * 2,
            "expected >1.5x speedup on 16 PEs: t1={t1} t16={t16}"
        );
    }

    #[test]
    fn works_on_threads() {
        let params = FibParams { n: 20, grain: 14 };
        let prog = build(params);
        let mut rep = prog.run_threads(4);
        assert!(!rep.timed_out);
        assert_eq!(rep.take_result::<u64>(), Some(fib_seq(20)));
    }

    #[test]
    fn deterministic_on_sim() {
        let params = FibParams { n: 18, grain: 10 };
        let prog = build(params).with_opts(|o| o.balance = BalanceStrategy::Random);
        let a = prog.run_sim_preset(8, MachinePreset::NcubeLike);
        let b = prog.run_sim_preset(8, MachinePreset::NcubeLike);
        assert_eq!(a.time_ns, b.time_ns);
        assert_eq!(
            a.total().chares_created,
            b.total().chares_created
        );
    }
}
