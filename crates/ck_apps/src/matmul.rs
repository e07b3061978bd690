//! Dense matrix multiply by Cannon's algorithm on a logical q×q mesh of
//! branch-office chares.
//!
//! The bulk-data benchmark: each of the q² active PEs holds one block of
//! A, B and C; after an initial skew, q multiply-shift rounds rotate the
//! A blocks left and the B blocks up. Messages here are kilobytes, not
//! the searches' tens of bytes, exercising the bandwidth term of the
//! cost model.
//!
//! Matrix entries are small integers (stored as `f64`), so every product
//! and partial sum is exact and the parallel checksum equals the
//! sequential one bit-for-bit regardless of accumulation order.

use chare_kernel::prelude::*;

use crate::costs::work;
use crate::registry::{Answer, App};
use crate::spec::{Args, SpecError};

/// Cost of one multiply-accumulate (late-1980s FPU).
pub const MATMUL_MAC_NS: u64 = 400;

/// Entry point on each branch: an A block arriving.
pub const EP_A: EpId = EpId(1);
/// Entry point on each branch: a B block arriving.
pub const EP_B: EpId = EpId(2);
/// Entry point on the main chare: quiescence notification.
pub const EP_QUIESCENT: EpId = EpId(3);
/// Entry point on the main chare: collected checksum.
pub const EP_SUM: EpId = EpId(4);

/// Parameters of a matmul run.
#[derive(Clone, Copy, Debug)]
pub struct MatmulParams {
    /// Matrix dimension (must be divisible by the mesh side; the branch
    /// rounds down the mesh side until it divides).
    pub n: usize,
}

impl Default for MatmulParams {
    fn default() -> Self {
        MatmulParams { n: 96 }
    }
}

/// Deterministic matrix entries: small integers, so all arithmetic is
/// exact in `f64`.
pub fn a_elem(i: usize, j: usize) -> f64 {
    ((i.wrapping_mul(31) + j.wrapping_mul(17)) % 23) as f64 - 11.0
}

/// Entries of B.
pub fn b_elem(i: usize, j: usize) -> f64 {
    ((i.wrapping_mul(13) + j.wrapping_mul(29)) % 19) as f64 - 9.0
}

/// Mesh side for `npes` PEs: the largest q with q² ≤ npes that divides
/// `n`.
pub fn mesh_side(n: usize, npes: usize) -> usize {
    let mut q = (npes as f64).sqrt() as usize;
    while q > 1 && (q * q > npes || !n.is_multiple_of(q)) {
        q -= 1;
    }
    q.max(1)
}

/// Sequential reference: full multiply, returning the checksum
/// (sum of all elements of C).
pub fn matmul_seq(n: usize) -> f64 {
    let mut checksum = 0.0;
    for i in 0..n {
        for j in 0..n {
            let mut c = 0.0;
            for k in 0..n {
                c += a_elem(i, k) * b_elem(k, j);
            }
            checksum += c;
        }
    }
    checksum
}

/// One block in flight.
pub struct BlockMsg {
    /// Round the block is for (consistency checks).
    pub round: u32,
    /// Row-major block data.
    pub data: Vec<f64>,
}

impl Message for BlockMsg {
    fn bytes(&self) -> u32 {
        4 + (self.data.len() * 8) as u32
    }
}

// Wire codecs for the multi-process backend.
wire_struct!(BlockMsg { round, data });
wire_struct!(MainSeed { acc });

/// BOC configuration.
#[derive(Clone)]
pub struct MatmulCfg {
    /// Parameters.
    pub params: MatmulParams,
    /// Checksum accumulator.
    pub acc: Acc<SumF64>,
}

/// One PE's blocks and round state.
pub struct MatmulBranch {
    cfg: MatmulCfg,
    q: usize,
    bs: usize,
    bi: usize,
    bj: usize,
    active: bool,
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    rounds_done: usize,
    /// Blocks keyed by the round they belong to. Round 0 comes from the
    /// skew source, later rounds from the rotation neighbor — two
    /// different senders, so arrival order across them is not guaranteed
    /// (FIFO holds only per ordered PE pair).
    pending_a: std::collections::HashMap<u32, Vec<f64>>,
    pending_b: std::collections::HashMap<u32, Vec<f64>>,
}

impl MatmulBranch {
    fn pe_of(&self, bi: usize, bj: usize) -> Pe {
        Pe::from(bi * self.q + bj)
    }

    /// Generate this branch's initial (unskewed) block of A or B.
    fn gen_block(&self, which_a: bool) -> Vec<f64> {
        let bs = self.bs;
        let mut out = vec![0.0; bs * bs];
        for r in 0..bs {
            for c in 0..bs {
                let gi = self.bi * bs + r;
                let gj = self.bj * bs + c;
                out[r * bs + c] = if which_a {
                    a_elem(gi, gj)
                } else {
                    b_elem(gi, gj)
                };
            }
        }
        out
    }

    /// Multiply-accumulate while blocks for the current round are
    /// available; send them onward for the next round.
    fn advance(&mut self, ctx: &mut Ctx) {
        let q = self.q;
        let bs = self.bs;
        loop {
            if self.rounds_done >= q {
                return;
            }
            let round = self.rounds_done as u32;
            if !self.pending_a.contains_key(&round) || !self.pending_b.contains_key(&round) {
                return;
            }
            let a = self.pending_a.remove(&round).expect("checked");
            let b = self.pending_b.remove(&round).expect("checked");
            for i in 0..bs {
                for k in 0..bs {
                    let aik = a[i * bs + k];
                    for j in 0..bs {
                        self.c[i * bs + j] += aik * b[k * bs + j];
                    }
                }
            }
            ctx.charge(work((bs * bs * bs) as u64, MATMUL_MAC_NS));
            self.rounds_done += 1;
            let round = self.rounds_done as u32;
            if self.rounds_done < q {
                // Rotate: A one step left, B one step up.
                let boc = ctx.self_boc::<MatmulBranch>();
                let left = self.pe_of(self.bi, (self.bj + q - 1) % q);
                let up = self.pe_of((self.bi + q - 1) % q, self.bj);
                ctx.send_branch(boc, left, EP_A, BlockMsg { round, data: a });
                ctx.send_branch(boc, up, EP_B, BlockMsg { round, data: b });
            } else {
                let sum: f64 = self.c.iter().sum();
                ctx.acc_add(self.cfg.acc, sum);
            }
        }
    }
}

impl BranchInit for MatmulBranch {
    type Cfg = MatmulCfg;
    fn create(cfg: MatmulCfg, ctx: &mut Ctx) -> Self {
        let n = cfg.params.n;
        let q = mesh_side(n, ctx.npes());
        let pe = ctx.pe().index();
        let active = pe < q * q;
        let (bi, bj) = (pe / q, pe % q);
        let bs = n / q;
        let mut branch = MatmulBranch {
            cfg,
            q,
            bs,
            bi,
            bj,
            active,
            a: Vec::new(),
            b: Vec::new(),
            c: vec![0.0; if active { bs * bs } else { 0 }],
            rounds_done: 0,
            pending_a: Default::default(),
            pending_b: Default::default(),
        };
        if branch.active {
            // Initial skew: my A block goes q-steps left by bi, my B
            // block up by bj (Cannon's alignment).
            branch.a = branch.gen_block(true);
            branch.b = branch.gen_block(false);
            let boc = ctx.self_boc::<MatmulBranch>();
            let a_dst = branch.pe_of(bi, (bj + q - bi % q) % q);
            let b_dst = branch.pe_of((bi + q - bj % q) % q, bj);
            let a = std::mem::take(&mut branch.a);
            let b = std::mem::take(&mut branch.b);
            ctx.send_branch(boc, a_dst, EP_A, BlockMsg { round: 0, data: a });
            ctx.send_branch(boc, b_dst, EP_B, BlockMsg { round: 0, data: b });
        }
        branch
    }
}

impl Branch for MatmulBranch {
    fn entry(&mut self, ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
        let block = cast::<BlockMsg>(msg);
        match ep {
            EP_A => self.pending_a.insert(block.round, block.data),
            EP_B => self.pending_b.insert(block.round, block.data),
            _ => unreachable!("unknown entry point {ep:?}"),
        };
        self.advance(ctx);
    }
}

/// Seed of the main chare.
#[derive(Clone)]
pub struct MainSeed {
    /// Checksum accumulator (shared with the branches).
    pub acc: Acc<SumF64>,
}
message!(MainSeed);

/// The main chare: waits for quiescence, collects the checksum.
pub struct MatmulMain {
    acc: Acc<SumF64>,
}

impl ChareInit for MatmulMain {
    type Seed = MainSeed;
    fn create(seed: MainSeed, ctx: &mut Ctx) -> Self {
        let me = ctx.self_id();
        ctx.start_quiescence(Notify::Chare(me, EP_QUIESCENT));
        MatmulMain { acc: seed.acc }
    }
}

impl Chare for MatmulMain {
    fn entry(&mut self, ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
        match ep {
            EP_QUIESCENT => {
                let _ = cast::<QuiescenceMsg>(msg);
                let me = ctx.self_id();
                ctx.acc_collect(self.acc, Notify::Chare(me, EP_SUM));
            }
            EP_SUM => {
                let sum = cast::<AccResult<f64>>(msg);
                ctx.exit(sum.value);
            }
            _ => unreachable!("unknown entry point {ep:?}"),
        }
    }
}

/// Build the matmul program, to run under [`APP`]'s strategies (FIFO, no
/// balancing — placement is fixed by the algorithm: Cannon's placement is
/// the whole point) unless told otherwise ([`Program::with_opts`]).
pub fn build(params: MatmulParams) -> Program {
    let mut b = ProgramBuilder::new();
    let acc = b.accumulator::<SumF64>();
    let main = b.chare::<MatmulMain>();
    let _boc = b.boc::<MatmulBranch>(MatmulCfg { params, acc });
    b.wire::<MainSeed>();
    b.wire::<BlockMsg>();
    b.wire::<AccResult<f64>>();
    b.queueing(APP.queueing).balance(APP.balance);
    b.main(main, MainSeed { acc });
    b.build()
}

/// Spec keys: `n`.
pub fn params(a: &mut Args) -> Result<MatmulParams, SpecError> {
    Ok(MatmulParams { n: a.key("n", MatmulParams::default().n)? })
}

/// The registry entry.
pub const APP: App = App {
    name: "matmul",
    queueing: QueueingStrategy::Fifo,
    balance: BalanceStrategy::Local,
    ends_by_qd: true,
    test_spec: "matmul:n=32",
    params: |a| params(a).map(drop),
    build: |a| Ok(build(params(a)?)),
    oracle: |a, _| Ok(Answer::Float(matmul_seq(params(a)?.n))),
    answer: |rep| rep.result_ref::<f64>().map(|&v| Answer::Float(v)),
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_side_divides_and_fits() {
        assert_eq!(mesh_side(96, 1), 1);
        assert_eq!(mesh_side(96, 4), 2);
        assert_eq!(mesh_side(96, 16), 4);
        assert_eq!(mesh_side(96, 17), 4);
        assert_eq!(mesh_side(96, 9), 3);
        // 10 is not a divisor-friendly side for 96: falls back to 8.
        assert_eq!(mesh_side(96, 100), 8);
    }

    #[test]
    fn entries_are_small_integers() {
        for i in 0..40 {
            for j in 0..40 {
                let a = a_elem(i, j);
                assert_eq!(a, a.round());
                assert!((-11.0..=11.0).contains(&a));
            }
        }
    }

    #[test]
    fn parallel_checksum_is_exact() {
        let n = 48;
        let want = matmul_seq(n);
        for npes in [1usize, 4, 9, 16, 20] {
            let prog = build(MatmulParams { n });
            let mut rep = prog.run_sim_preset(npes, MachinePreset::NcubeLike);
            let got = rep.take_result::<f64>().expect("checksum");
            assert_eq!(got, want, "npes={npes} (exact integer arithmetic)");
        }
    }

    #[test]
    fn speedup_with_enough_pes() {
        let prog = build(MatmulParams { n: 96 });
        let t1 = prog.run_sim_preset(1, MachinePreset::NcubeLike).time_ns;
        let t16 = prog.run_sim_preset(16, MachinePreset::NcubeLike).time_ns;
        let speedup = t1 as f64 / t16 as f64;
        assert!(speedup > 4.0, "expected >4x on a 4x4 mesh, got {speedup:.2}");
    }

    #[test]
    fn works_on_threads() {
        let n = 32;
        let want = matmul_seq(n);
        let prog = build(MatmulParams { n });
        let mut rep = prog.run_threads(4);
        assert!(!rep.timed_out);
        assert_eq!(rep.take_result::<f64>(), Some(want));
    }
}
