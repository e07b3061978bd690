//! N-queens: count all solutions with speculative tree parallelism.
//!
//! The search tree is expanded as chares down to a grain depth, below
//! which subtrees are counted sequentially inside one entry method.
//! Solution counts flow into an *accumulator* variable (PE-local adds,
//! one collect at the end), and the end itself is detected by the
//! kernel's *quiescence detection* — there is no natural "last message"
//! in an unbalanced search tree, which is exactly why the kernel has a
//! QD module.

use chare_kernel::prelude::*;

use crate::costs::{work, QUEENS_NODE_NS};
use crate::registry::{Answer, App};
use crate::spec::{Args, SpecError};

/// Entry point on the main chare: quiescence notification.
pub const EP_QUIESCENT: EpId = EpId(1);
/// Entry point on the main chare: collected total.
pub const EP_TOTAL: EpId = EpId(2);

/// Parameters of an N-queens run.
#[derive(Clone, Copy, Debug)]
pub struct QueensParams {
    /// Board size.
    pub n: u8,
    /// Subtrees with fewer than `grain` remaining rows are counted
    /// sequentially.
    pub grain: u8,
}

impl Default for QueensParams {
    fn default() -> Self {
        QueensParams { n: 10, grain: 6 }
    }
}

/// Sequential solution count from a partial position, also reporting
/// nodes visited (the work model). `cols`/`dl`/`dr` are the standard
/// bitmask encodings of attacked columns and diagonals.
pub fn count_from(n: u8, cols: u32, dl: u32, dr: u32) -> (u64, u64) {
    let full = (1u32 << n) - 1;
    if cols == full {
        return (1, 1);
    }
    let mut solutions = 0;
    let mut nodes = 1;
    let mut free = full & !(cols | dl | dr);
    while free != 0 {
        let bit = free & free.wrapping_neg();
        free -= bit;
        let (s, v) = count_from(n, cols | bit, (dl | bit) << 1, (dr | bit) >> 1);
        solutions += s;
        nodes += v;
    }
    (solutions, nodes)
}

/// Sequential N-queens solution count.
pub fn nqueens_seq(n: u8) -> u64 {
    count_from(n, 0, 0, 0).0
}

/// Seed of the main chare.
#[derive(Clone)]
pub struct MainSeed {
    /// Parameters.
    pub params: QueensParams,
    /// Kind handle for tree nodes.
    pub node: Kind<QueensChare>,
    /// Solution-count accumulator.
    pub acc: Acc<SumU64>,
}
message!(MainSeed);

/// Seed of a tree-node chare.
#[derive(Clone)]
pub struct NodeSeed {
    n: u8,
    grain: u8,
    row: u8,
    cols: u32,
    dl: u32,
    dr: u32,
    node: Kind<QueensChare>,
    acc: Acc<SumU64>,
}
message!(NodeSeed);

// Wire codecs for the multi-process backend.
wire_struct!(QueensParams { n, grain });
wire_struct!(MainSeed { params, node, acc });
wire_struct!(NodeSeed { n, grain, row, cols, dl, dr, node, acc });

/// The main chare: seeds the root, waits for quiescence, collects.
pub struct QueensMain {
    acc: Acc<SumU64>,
}

impl ChareInit for QueensMain {
    type Seed = MainSeed;
    fn create(seed: MainSeed, ctx: &mut Ctx) -> Self {
        let me = ctx.self_id();
        ctx.start_quiescence(Notify::Chare(me, EP_QUIESCENT));
        ctx.create(
            seed.node,
            NodeSeed {
                n: seed.params.n,
                grain: seed.params.grain,
                row: 0,
                cols: 0,
                dl: 0,
                dr: 0,
                node: seed.node,
                acc: seed.acc,
            },
        );
        QueensMain { acc: seed.acc }
    }
}

impl Chare for QueensMain {
    fn entry(&mut self, ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
        match ep {
            EP_QUIESCENT => {
                let _ = cast::<QuiescenceMsg>(msg);
                let me = ctx.self_id();
                ctx.acc_collect(self.acc, Notify::Chare(me, EP_TOTAL));
            }
            EP_TOTAL => {
                let total = cast::<AccResult<u64>>(msg);
                ctx.exit(total.value);
            }
            _ => unreachable!("unknown entry point {ep:?}"),
        }
    }
}

/// One node of the search tree. Does all its work in the constructor
/// and destroys itself — the pure "seed computation" pattern.
pub struct QueensChare;

impl ChareInit for QueensChare {
    type Seed = NodeSeed;
    fn create(seed: NodeSeed, ctx: &mut Ctx) -> Self {
        let full = (1u32 << seed.n) - 1;
        if seed.n - seed.row <= seed.grain {
            let (solutions, nodes) = count_from(seed.n, seed.cols, seed.dl, seed.dr);
            ctx.charge(work(nodes, QUEENS_NODE_NS));
            if solutions > 0 {
                ctx.acc_add(seed.acc, solutions);
            }
        } else {
            ctx.charge(work(1, QUEENS_NODE_NS));
            let mut free = full & !(seed.cols | seed.dl | seed.dr);
            while free != 0 {
                let bit = free & free.wrapping_neg();
                free -= bit;
                ctx.create(
                    seed.node,
                    NodeSeed {
                        n: seed.n,
                        grain: seed.grain,
                        row: seed.row + 1,
                        cols: seed.cols | bit,
                        dl: (seed.dl | bit) << 1,
                        dr: (seed.dr | bit) >> 1,
                        node: seed.node,
                        acc: seed.acc,
                    },
                );
            }
        }
        ctx.destroy_self();
        QueensChare
    }
}

impl Chare for QueensChare {
    fn entry(&mut self, _ep: EpId, _msg: MsgBody, _ctx: &mut Ctx) {
        unreachable!("QueensChare receives no messages")
    }
}

/// Build the N-queens program, to run under [`APP`]'s strategies (FIFO +
/// ACWN; the speedup tables run this app under `Random` instead, see
/// `ck_bench`) unless told otherwise ([`Program::with_opts`]).
pub fn build(params: QueensParams) -> Program {
    let mut b = ProgramBuilder::new();
    let node = b.chare::<QueensChare>();
    let main = b.chare::<QueensMain>();
    let acc = b.accumulator::<SumU64>();
    b.wire::<MainSeed>();
    b.wire::<NodeSeed>();
    b.wire::<AccResult<u64>>();
    b.queueing(APP.queueing).balance(APP.balance);
    b.main(main, MainSeed { params, node, acc });
    b.build()
}

/// Spec keys: `n`, `grain`.
pub fn params(a: &mut Args) -> Result<QueensParams, SpecError> {
    let d = QueensParams::default();
    Ok(QueensParams { n: a.key("n", d.n)?, grain: a.key("grain", d.grain)? })
}

/// The registry entry.
pub const APP: App = App {
    name: "nqueens",
    queueing: QueueingStrategy::Fifo,
    balance: BalanceStrategy::acwn(),
    ends_by_qd: true,
    test_spec: "nqueens:n=8,grain=4",
    params: |a| params(a).map(drop),
    build: |a| Ok(build(params(a)?)),
    oracle: |a, _| Ok(Answer::Int(nqueens_seq(params(a)?.n))),
    answer: |rep| rep.result_ref::<u64>().map(|&v| Answer::Int(v)),
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_known_values() {
        assert_eq!(nqueens_seq(4), 2);
        assert_eq!(nqueens_seq(6), 4);
        assert_eq!(nqueens_seq(8), 92);
        assert_eq!(nqueens_seq(10), 724);
    }

    #[test]
    fn parallel_count_matches_sequential() {
        let params = QueensParams { n: 8, grain: 4 };
        for balance in [
            BalanceStrategy::Local,
            BalanceStrategy::Random,
            BalanceStrategy::acwn(),
            BalanceStrategy::CentralManager,
            BalanceStrategy::TokenIdle,
        ] {
            let prog = build(params).with_opts(|o| o.balance = balance.clone());
            let mut rep = prog.run_sim_preset(8, MachinePreset::NcubeLike);
            assert_eq!(rep.take_result::<u64>(), Some(92), "balance {balance:?}");
        }
    }

    #[test]
    fn lifo_queueing_also_correct() {
        let prog = build(QueensParams { n: 8, grain: 4 }).with_opts(|o| {
            o.queueing = QueueingStrategy::Lifo;
            o.balance = BalanceStrategy::Random;
        });
        let mut rep = prog.run_sim_preset(4, MachinePreset::IpscLike);
        assert_eq!(rep.take_result::<u64>(), Some(92));
    }

    #[test]
    fn speedup_on_many_pes() {
        let params = QueensParams { n: 10, grain: 5 };
        let prog = build(params);
        let t1 = prog.run_sim_preset(1, MachinePreset::NcubeLike).time_ns;
        let t16 = prog.run_sim_preset(16, MachinePreset::NcubeLike).time_ns;
        assert!(t16 * 2 < t1, "expected >2x speedup: t1={t1} t16={t16}");
    }

    #[test]
    fn works_on_threads() {
        let prog = build(QueensParams { n: 9, grain: 5 });
        let mut rep = prog.run_threads(4);
        assert!(!rep.timed_out);
        assert_eq!(rep.take_result::<u64>(), Some(352));
    }
}
