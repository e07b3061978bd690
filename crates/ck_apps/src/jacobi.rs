//! Jacobi relaxation on a 2-D grid — the regular, communication-bound
//! benchmark, built on **branch-office chares**.
//!
//! The `(n+2) x (n+2)` grid (fixed boundary) is split into horizontal
//! blocks, one per PE, each held by that PE's branch of a single BOC.
//! Every iteration a branch exchanges ghost rows with its neighbors and
//! applies the 5-point stencil to its block. Jacobi (as opposed to
//! Gauss-Seidel) reads only the previous iteration, so the parallel
//! computation is bitwise identical to the sequential one regardless of
//! partitioning — only the final checksum summation order differs.
//!
//! `Block` is the whole of the numerics, written once: one PE's rows
//! plus its two ghost rows. It sets the grid up, hands out the edge
//! rows its neighbours need, files each arriving ghost row under the
//! sweep it belongs to, sweeps, and sums. The sequential references
//! ([`jacobi_seq`], [`crate::jacobi_conv::jacobi_conv_seq`]) are one
//! whole-grid block; the branches here and in [`crate::jacobi_conv`]
//! and the hand-coded node in [`crate::baseline`] add only messaging.
//! Filing by sweep is what keeps the answer independent of the
//! queueing strategy: a neighbour may run one sweep ahead, and under
//! LIFO its two rows can be handled newest first.
//!
//! Termination: after `iters` sweeps every branch contributes its block
//! checksum to an accumulator and goes quiet; quiescence detection then
//! triggers the collect.

use chare_kernel::prelude::*;

use crate::costs::{work, JACOBI_CELL_NS};
use crate::registry::{Answer, App};
use crate::spec::{Args, SpecError};

/// Entry point on each branch: a ghost row from a neighbor.
pub const EP_GHOST: EpId = EpId(1);
/// Entry point on the main chare: quiescence notification.
pub const EP_QUIESCENT: EpId = EpId(2);
/// Entry point on the main chare: collected checksum.
pub const EP_SUM: EpId = EpId(3);

/// Parameters of a Jacobi run.
#[derive(Clone, Copy, Debug)]
pub struct JacobiParams {
    /// Interior grid size (the full grid is `(n+2)^2`).
    pub n: usize,
    /// Number of sweeps.
    pub iters: u32,
}

impl Default for JacobiParams {
    fn default() -> Self {
        JacobiParams { n: 128, iters: 20 }
    }
}

/// Sequential reference: run `iters` sweeps, return the interior sum.
pub fn jacobi_seq(params: JacobiParams) -> f64 {
    let mut grid = Block::whole(params.n);
    for _ in 0..params.iters {
        grid.sweep();
    }
    grid.checksum()
}

/// Interior rows assigned to block `b` of `nblocks` over `n` rows:
/// `[start, start + len)`, 1-based (row 0 is the boundary).
pub fn block_rows(n: usize, nblocks: usize, b: usize) -> (usize, usize) {
    let base = n / nblocks;
    let extra = n % nblocks;
    let len = base + usize::from(b < extra);
    let start = 1 + b * base + b.min(extra);
    (start, len)
}

/// Fixed value of the top boundary row (heat source); every other
/// boundary and interior cell starts at 0.
const TOP: f64 = 1.0;

/// One PE's rows of the grid plus its two ghost rows.
///
/// Block `b` of `nblocks` holds [`block_rows`]`(n, nblocks, b)`. Its
/// ghost rows are its neighbours' edge rows, or the fixed boundary at
/// the grid's top (block 0, hot) and bottom (the last block, cold).
pub(crate) struct Block {
    /// Interior columns.
    n: usize,
    /// Interior rows held.
    rows: usize,
    /// This block's index, and how many blocks share the grid.
    b: usize,
    nblocks: usize,
    /// `(rows + 2) x (n + 2)`, row-major; rows 0 and `rows + 1` are the
    /// ghost rows.
    cur: Vec<f64>,
    next: Vec<f64>,
    /// Sweeps run.
    sweeps: u32,
    /// Ghost rows waiting for their sweep: `[from above, from below]`,
    /// each indexed by sweep parity. A neighbour runs at most one sweep
    /// ahead, so two slots a side hold every row that can wait.
    waiting: [[Option<Vec<f64>>; 2]; 2],
}

/// An edge row on its way to the neighbouring block.
pub(crate) struct Edge {
    /// The neighbour's PE (block index and PE index coincide).
    pub to: Pe,
    /// True if the row goes down, so the neighbour files it as coming
    /// from above.
    pub from_above: bool,
    /// The row values (interior columns plus the two side boundary
    /// cells).
    pub row: Vec<f64>,
}

impl Block {
    /// Block `b` of `nblocks` over an `n x n` interior, set up: the
    /// top boundary row hot, everything else 0.
    fn new(n: usize, nblocks: usize, b: usize) -> Block {
        let rows = block_rows(n, nblocks, b).1;
        let w = n + 2;
        let mut cur = vec![0.0; (rows + 2) * w];
        if b == 0 {
            cur[..w].fill(TOP);
        }
        let next = cur.clone();
        Block {
            n,
            rows,
            b,
            nblocks,
            cur,
            next,
            sweeps: 0,
            waiting: Default::default(),
        }
    }

    /// The whole grid as one block: the sequential references.
    pub fn whole(n: usize) -> Block {
        Block::new(n, 1, 0)
    }

    /// PE `pe`'s block of a grid split over `npes` PEs, one block per
    /// PE while rows last; `None` on a PE left without rows.
    pub fn for_pe(n: usize, npes: usize, pe: Pe) -> Option<Block> {
        let nblocks = npes.min(n);
        (pe.index() < nblocks).then(|| Block::new(n, nblocks, pe.index()))
    }

    /// Sweeps run so far; also the sweep the next one will be.
    pub fn sweeps(&self) -> u32 {
        self.sweeps
    }

    /// Interior cells held: the work of one sweep.
    pub fn cells(&self) -> u64 {
        (self.rows * self.n) as u64
    }

    /// The edge rows the neighbours need for their next sweep, in send
    /// order: the first row up, then the last row down.
    pub fn edges(&self) -> impl Iterator<Item = Edge> {
        let w = self.n + 2;
        let up = (self.b > 0).then(|| Edge {
            to: Pe::from(self.b - 1),
            from_above: false,
            row: self.cur[w..2 * w].to_vec(),
        });
        let down = (self.b + 1 < self.nblocks).then(|| Edge {
            to: Pe::from(self.b + 1),
            from_above: true,
            row: self.cur[self.rows * w..(self.rows + 1) * w].to_vec(),
        });
        [up, down].into_iter().flatten()
    }

    /// File a neighbour's edge row under the sweep it belongs to: this
    /// block's next sweep or, from a neighbour one sweep ahead, the one
    /// after.
    pub fn file(&mut self, sweep: u32, from_above: bool, row: Vec<f64>) {
        debug_assert!(
            sweep.wrapping_sub(self.sweeps) < 2,
            "ghost row for sweep {sweep} at sweep {}",
            self.sweeps
        );
        let slot = &mut self.waiting[usize::from(!from_above)][(sweep % 2) as usize];
        debug_assert!(slot.is_none(), "two ghost rows for sweep {sweep}");
        *slot = Some(row);
    }

    /// True once every ghost row the next sweep needs is filed.
    pub fn ready(&self) -> bool {
        let slot = (self.sweeps % 2) as usize;
        (self.b == 0 || self.waiting[0][slot].is_some())
            && (self.b + 1 == self.nblocks || self.waiting[1][slot].is_some())
    }

    /// Run the next sweep: install its ghost rows, apply the 5-point
    /// update, swap buffers. Returns the largest cell change.
    pub fn sweep(&mut self) -> f64 {
        debug_assert!(self.ready(), "sweep {} before its ghost rows", self.sweeps);
        let (n, w, rows) = (self.n, self.n + 2, self.rows);
        let slot = (self.sweeps % 2) as usize;
        if let Some(row) = self.waiting[0][slot].take() {
            self.cur[..w].copy_from_slice(&row);
        }
        if let Some(row) = self.waiting[1][slot].take() {
            self.cur[(rows + 1) * w..].copy_from_slice(&row);
        }
        let mut change = 0.0f64;
        for r in 1..=rows {
            // Equal-length views of the four neighbours, so the update
            // vectorizes.
            let here = &self.cur[r * w..(r + 1) * w];
            let up = &self.cur[(r - 1) * w + 1..r * w - 1];
            let down = &self.cur[(r + 1) * w + 1..(r + 2) * w - 1];
            let (left, right) = (&here[..n], &here[2..]);
            let out = &mut self.next[r * w + 1..(r + 1) * w - 1];
            for c in 0..n {
                out[c] = 0.25 * (up[c] + down[c] + left[c] + right[c]);
            }
            change = change.max(max_change(out, &here[1..=n]));
        }
        std::mem::swap(&mut self.cur, &mut self.next);
        self.sweeps += 1;
        change
    }

    /// Sum of the interior cells, row by row.
    pub fn checksum(&self) -> f64 {
        let w = self.n + 2;
        let mut s = 0.0;
        for r in 1..=self.rows {
            for c in 1..=self.n {
                s += self.cur[r * w + c];
            }
        }
        s
    }
}

/// The largest `|new[i] - old[i]|`, kept in eight lanes so the loop
/// vectorizes; `max` is exact, so the lane order cannot change it.
fn max_change(new: &[f64], old: &[f64]) -> f64 {
    let (new8, old8) = (new.chunks_exact(8), old.chunks_exact(8));
    let tail = new8.remainder().iter().zip(old8.remainder());
    let tail = tail.fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
    let mut lanes = [0.0f64; 8];
    for (a, b) in new8.zip(old8) {
        for ((l, a), b) in lanes.iter_mut().zip(a).zip(b) {
            *l = l.max((a - b).abs());
        }
    }
    lanes.into_iter().fold(tail, f64::max)
}

/// A ghost row exchanged between neighboring blocks.
#[derive(Clone)]
pub struct GhostMsg {
    /// Iteration the row belongs to.
    pub iter: u32,
    /// True if the row comes from the block above (smaller PE).
    pub from_above: bool,
    /// The row values (interior columns plus the two side boundary
    /// cells).
    pub row: Vec<f64>,
}

impl Message for GhostMsg {
    fn bytes(&self) -> u32 {
        8 + (self.row.len() * 8) as u32
    }
}

// Wire codecs for the multi-process backend.
wire_struct!(GhostMsg { iter, from_above, row });
wire_struct!(MainSeed { acc });

/// Per-program BOC configuration.
#[derive(Clone)]
pub struct JacobiCfg {
    /// Parameters.
    pub params: JacobiParams,
    /// Checksum accumulator.
    pub acc: Acc<SumF64>,
}

/// One PE's branch: its block and the ghost-row exchange.
pub struct JacobiBranch {
    cfg: JacobiCfg,
    /// This PE's block, or `None` on a PE left without rows.
    block: Option<Block>,
}

impl JacobiBranch {
    /// Send the block's edge rows (current state) to its neighbors.
    fn send_edges(block: &Block, ctx: &mut Ctx) {
        let boc = ctx.self_boc::<JacobiBranch>();
        for e in block.edges() {
            let ghost = GhostMsg {
                iter: block.sweeps(),
                from_above: e.from_above,
                row: e.row,
            };
            ctx.send_branch(boc, e.to, EP_GHOST, ghost);
        }
    }

    /// Run as many sweeps as the filed ghost rows allow.
    fn advance(block: &mut Block, cfg: &JacobiCfg, ctx: &mut Ctx) {
        let iters = cfg.params.iters;
        while block.sweeps() < iters && block.ready() {
            block.sweep();
            ctx.charge(work(block.cells(), JACOBI_CELL_NS));
            if block.sweeps() < iters {
                JacobiBranch::send_edges(block, ctx);
            } else {
                // Finished: contribute the block checksum and go quiet.
                ctx.acc_add(cfg.acc, block.checksum());
            }
        }
    }
}

impl BranchInit for JacobiBranch {
    type Cfg = JacobiCfg;
    fn create(cfg: JacobiCfg, ctx: &mut Ctx) -> Self {
        let mut block = Block::for_pe(cfg.params.n, ctx.npes(), ctx.pe());
        if let Some(block) = &mut block {
            if cfg.params.iters > 0 {
                JacobiBranch::send_edges(block, ctx);
                JacobiBranch::advance(block, &cfg, ctx); // single-block case completes here
            } else {
                // Zero iterations: checksum of the initial state.
                ctx.acc_add(cfg.acc, block.checksum());
            }
        }
        JacobiBranch { cfg, block }
    }
}

impl Branch for JacobiBranch {
    fn entry(&mut self, ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
        debug_assert_eq!(ep, EP_GHOST);
        let ghost = cast::<GhostMsg>(msg);
        let block = self.block.as_mut().expect("ghost rows reach only blocks");
        block.file(ghost.iter, ghost.from_above, ghost.row);
        JacobiBranch::advance(block, &self.cfg, ctx);
    }
}

/// Seed of the main chare.
#[derive(Clone)]
pub struct MainSeed {
    /// Checksum accumulator (same handle the branches hold).
    pub acc: Acc<SumF64>,
}
message!(MainSeed);

/// The main chare: waits for quiescence, collects the checksum.
pub struct JacobiMain {
    acc: Acc<SumF64>,
}

impl ChareInit for JacobiMain {
    type Seed = MainSeed;
    fn create(seed: MainSeed, ctx: &mut Ctx) -> Self {
        let me = ctx.self_id();
        ctx.start_quiescence(Notify::Chare(me, EP_QUIESCENT));
        JacobiMain { acc: seed.acc }
    }
}

impl Chare for JacobiMain {
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

/// Build the Jacobi program, to run under [`APP`]'s strategies (FIFO, no
/// balancing — the work is static, so neither matters to this regular
/// computation) unless told otherwise ([`Program::with_opts`]).
pub fn build(params: JacobiParams) -> Program {
    let mut b = ProgramBuilder::new();
    let acc = b.accumulator::<SumF64>();
    let main = b.chare::<JacobiMain>();
    let _boc = b.boc::<JacobiBranch>(JacobiCfg { params, acc });
    b.wire::<MainSeed>();
    b.wire::<GhostMsg>();
    b.wire::<AccResult<f64>>();
    b.queueing(APP.queueing).balance(APP.balance);
    b.main(main, MainSeed { acc });
    b.build()
}

/// Spec keys: `n`, `iters`.
pub fn params(a: &mut Args) -> Result<JacobiParams, SpecError> {
    let d = JacobiParams::default();
    Ok(JacobiParams { n: a.key("n", d.n)?, iters: a.key("iters", d.iters)? })
}

/// The registry entry.
pub const APP: App = App {
    name: "jacobi",
    queueing: QueueingStrategy::Fifo,
    balance: BalanceStrategy::Local,
    ends_by_qd: true,
    test_spec: "jacobi:n=24,iters=6",
    params: |a| params(a).map(drop),
    build: |a| Ok(build(params(a)?)),
    oracle: |a, _| Ok(Answer::Float(jacobi_seq(params(a)?))),
    answer: |rep| rep.result_ref::<f64>().map(|&v| Answer::Float(v)),
};

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
    }

    #[test]
    fn block_rows_cover_exactly() {
        for n in [7usize, 16, 33] {
            for nblocks in 1..=n.min(9) {
                let mut covered = 0;
                let mut next_start = 1;
                for b in 0..nblocks {
                    let (start, len) = block_rows(n, nblocks, b);
                    assert_eq!(start, next_start, "n={n} blocks={nblocks} b={b}");
                    next_start = start + len;
                    covered += len;
                }
                assert_eq!(covered, n, "n={n} blocks={nblocks}");
            }
        }
    }

    #[test]
    fn ghost_rows_meet_their_sweep_in_any_order() {
        // The top block runs one sweep ahead, so the bottom one holds
        // its rows for sweeps 0 and 1 at once; LIFO hands them over
        // newest first. One row a block, so each sweep changes the row
        // the neighbour gets.
        let n = 2;
        let (mut top, mut bottom) = (Block::new(n, 2, 0), Block::new(n, 2, 1));
        let edge = |b: &Block| b.edges().next().expect("one neighbour");
        let (up0, down0) = (edge(&bottom), edge(&top));
        top.file(0, up0.from_above, up0.row);
        top.sweep();
        let down1 = edge(&top);
        bottom.file(1, down1.from_above, down1.row);
        bottom.file(0, down0.from_above, down0.row);
        bottom.sweep();
        let up1 = edge(&bottom);
        bottom.sweep();
        top.file(1, up1.from_above, up1.row);
        top.sweep();
        let want = jacobi_seq(JacobiParams { n, iters: 2 });
        let got = top.checksum() + bottom.checksum();
        assert!(close(got, want), "got {got}, want {want}");
    }

    #[test]
    fn seq_heat_flows_down() {
        // With a hot top boundary the interior warms up monotonically.
        let s0 = jacobi_seq(JacobiParams { n: 16, iters: 0 });
        let s5 = jacobi_seq(JacobiParams { n: 16, iters: 5 });
        let s50 = jacobi_seq(JacobiParams { n: 16, iters: 50 });
        assert_eq!(s0, 0.0);
        assert!(s5 > 0.0);
        assert!(s50 > s5);
    }

    #[test]
    fn parallel_matches_sequential() {
        let params = JacobiParams { n: 24, iters: 10 };
        let want = jacobi_seq(params);
        for npes in [1usize, 2, 3, 8] {
            let prog = build(params);
            let mut rep = prog.run_sim_preset(npes, MachinePreset::NcubeLike);
            let got = rep.take_result::<f64>().expect("checksum");
            assert!(close(got, want), "npes={npes}: got {got}, want {want}");
        }
    }

    #[test]
    fn more_pes_than_rows() {
        let params = JacobiParams { n: 4, iters: 6 };
        let want = jacobi_seq(params);
        let prog = build(params);
        let mut rep = prog.run_sim_preset(8, MachinePreset::NcubeLike);
        let got = rep.take_result::<f64>().expect("checksum");
        assert!(close(got, want), "got {got}, want {want}");
    }

    #[test]
    fn zero_iters_returns_initial_checksum() {
        let params = JacobiParams { n: 10, iters: 0 };
        let prog = build(params);
        let mut rep = prog.run_sim_preset(4, MachinePreset::NcubeLike);
        assert_eq!(rep.take_result::<f64>(), Some(0.0));
    }

    #[test]
    fn parallel_speedup_with_compute_heavy_grid() {
        // On NCUBE-class links (0.57 us/byte) a 1.5 KB ghost row costs
        // ~1 ms — comparable to a block's compute — so Jacobi speedups
        // are honestly modest at this size, as they were in 1991.
        let params = JacobiParams { n: 192, iters: 12 };
        let prog = build(params);
        let t1 = prog.run_sim_preset(1, MachinePreset::NcubeLike).time_ns;
        let t8 = prog.run_sim_preset(8, MachinePreset::NcubeLike).time_ns;
        let speedup = t1 as f64 / t8 as f64;
        assert!(speedup > 1.8, "expected >1.8x on 8 PEs, got {speedup:.2}");
    }

    #[test]
    fn bigger_grids_scale_better() {
        // Compute grows as n^2/P while ghost traffic grows as n: the
        // surface-to-volume argument, visible in the cost model.
        let speedup = |n: usize| {
            let prog = build(JacobiParams { n, iters: 6 });
            let t1 = prog.run_sim_preset(1, MachinePreset::NcubeLike).time_ns;
            let t8 = prog.run_sim_preset(8, MachinePreset::NcubeLike).time_ns;
            t1 as f64 / t8 as f64
        };
        let small = speedup(64);
        let large = speedup(256);
        assert!(
            large > small,
            "speedup should improve with grid size: n=64 {small:.2} vs n=256 {large:.2}"
        );
    }

    #[test]
    fn works_on_threads() {
        let params = JacobiParams { n: 32, iters: 8 };
        let want = jacobi_seq(params);
        let prog = build(params);
        let mut rep = prog.run_threads(4);
        assert!(!rep.timed_out);
        let got = rep.take_result::<f64>().expect("checksum");
        assert!(close(got, want), "got {got}, want {want}");
    }
}
