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

/// Initial value of interior cells.
const INTERIOR0: f64 = 0.0;
/// Fixed value of the top boundary row (heat source).
const TOP: f64 = 1.0;
/// Fixed value of the other boundaries.
const EDGE: f64 = 0.0;

/// Sequential reference: run `iters` sweeps, return the interior sum.
pub fn jacobi_seq(params: JacobiParams) -> f64 {
    let n = params.n;
    let w = n + 2;
    let mut cur = vec![INTERIOR0; w * w];
    for c in 0..w {
        cur[c] = TOP; // top boundary row
        cur[(w - 1) * w + c] = EDGE;
    }
    for r in 0..w {
        cur[r * w] = EDGE;
        cur[r * w + w - 1] = EDGE;
    }
    cur[0] = TOP;
    cur[w - 1] = TOP;
    let mut next = cur.clone();
    for _ in 0..params.iters {
        for r in 1..=n {
            for c in 1..=n {
                next[r * w + c] = 0.25
                    * (cur[(r - 1) * w + c]
                        + cur[(r + 1) * w + c]
                        + cur[r * w + c - 1]
                        + cur[r * w + c + 1]);
            }
        }
        std::mem::swap(&mut cur, &mut next);
    }
    interior_sum(&cur, n, n, w)
}

/// Sum of the interior cells of a block grid of `rows` interior rows,
/// `n` interior columns and total width `w`.
fn interior_sum(grid: &[f64], rows: usize, n: usize, w: usize) -> f64 {
    let mut s = 0.0;
    for r in 1..=rows {
        for c in 1..=n {
            s += grid[r * w + c];
        }
    }
    s
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

/// One PE's block of the grid.
pub struct JacobiBranch {
    cfg: JacobiCfg,
    /// Number of active blocks (= min(npes, n)).
    nblocks: usize,
    /// This branch's block index (== PE index), or None if inactive.
    rows: usize,
    /// Block data: `(rows + 2) x (n + 2)`, row 0 and row rows+1 are
    /// ghost/boundary rows.
    cur: Vec<f64>,
    next: Vec<f64>,
    /// Completed iterations.
    done: u32,
    /// Ghost rows from above/below, queued in iteration order.
    from_above: std::collections::VecDeque<Vec<f64>>,
    from_below: std::collections::VecDeque<Vec<f64>>,
}

impl JacobiBranch {
    fn width(&self) -> usize {
        self.cfg.params.n + 2
    }

    fn is_first(&self, pe: Pe) -> bool {
        pe.index() == 0
    }

    fn is_last(&self, pe: Pe) -> bool {
        pe.index() + 1 == self.nblocks
    }

    fn active(&self) -> bool {
        self.rows > 0
    }

    /// Send this block's edge rows (current state) to its neighbors.
    fn send_edges(&self, ctx: &mut Ctx) {
        let me = ctx.pe();
        let boc = ctx.self_boc::<JacobiBranch>();
        let w = self.width();
        if !self.is_first(me) {
            let row = self.cur[w..2 * w].to_vec();
            ctx.send_branch(
                boc,
                Pe::from(me.index() - 1),
                EP_GHOST,
                GhostMsg {
                    iter: self.done,
                    from_above: false,
                    row,
                },
            );
        }
        if !self.is_last(me) {
            let row = self.cur[self.rows * w..(self.rows + 1) * w].to_vec();
            ctx.send_branch(
                boc,
                Pe::from(me.index() + 1),
                EP_GHOST,
                GhostMsg {
                    iter: self.done,
                    from_above: true,
                    row,
                },
            );
        }
    }

    /// Run as many iterations as the available ghosts allow.
    fn advance(&mut self, ctx: &mut Ctx) {
        let me = ctx.pe();
        let w = self.width();
        while self.done < self.cfg.params.iters {
            let need_above = !self.is_first(me);
            let need_below = !self.is_last(me);
            if (need_above && self.from_above.is_empty())
                || (need_below && self.from_below.is_empty())
            {
                return;
            }
            if need_above {
                let row = self.from_above.pop_front().expect("checked");
                self.cur[..w].copy_from_slice(&row);
            }
            if need_below {
                let row = self.from_below.pop_front().expect("checked");
                self.cur[(self.rows + 1) * w..].copy_from_slice(&row);
            }
            for r in 1..=self.rows {
                for c in 1..=self.cfg.params.n {
                    self.next[r * w + c] = 0.25
                        * (self.cur[(r - 1) * w + c]
                            + self.cur[(r + 1) * w + c]
                            + self.cur[r * w + c - 1]
                            + self.cur[r * w + c + 1]);
                }
            }
            std::mem::swap(&mut self.cur, &mut self.next);
            ctx.charge(work(
                (self.rows * self.cfg.params.n) as u64,
                JACOBI_CELL_NS,
            ));
            self.done += 1;
            if self.done < self.cfg.params.iters {
                self.send_edges(ctx);
            } else {
                // Finished: contribute the block checksum and go quiet.
                let sum = interior_sum(&self.cur, self.rows, self.cfg.params.n, w);
                ctx.acc_add(self.cfg.acc, sum);
            }
        }
    }
}

impl BranchInit for JacobiBranch {
    type Cfg = JacobiCfg;
    fn create(cfg: JacobiCfg, ctx: &mut Ctx) -> Self {
        let n = cfg.params.n;
        let nblocks = ctx.npes().min(n);
        let pe = ctx.pe();
        let (_, rows) = if pe.index() < nblocks {
            block_rows(n, nblocks, pe.index())
        } else {
            (0, 0)
        };
        let w = n + 2;
        let mut cur = vec![INTERIOR0; (rows + 2) * w];
        // Side boundaries.
        for r in 0..rows + 2 {
            cur[r * w] = EDGE;
            cur[r * w + w - 1] = EDGE;
        }
        // Global top/bottom boundaries live in the edge blocks' ghost
        // rows and never change.
        if pe.index() == 0 && rows > 0 {
            for cell in cur.iter_mut().take(w) {
                *cell = TOP;
            }
        }
        if pe.index() + 1 == nblocks && rows > 0 {
            for c in 0..w {
                cur[(rows + 1) * w + c] = EDGE;
            }
            cur[(rows + 1) * w] = EDGE;
        }
        let next = cur.clone();
        let mut branch = JacobiBranch {
            cfg,
            nblocks,
            rows,
            cur,
            next,
            done: 0,
            from_above: Default::default(),
            from_below: Default::default(),
        };
        if branch.active() && branch.cfg.params.iters > 0 {
            branch.send_edges(ctx);
            branch.advance(ctx); // single-block case completes here
        } else if branch.active() {
            // Zero iterations: checksum of the initial state.
            let sum = interior_sum(&branch.cur, branch.rows, branch.cfg.params.n, branch.width());
            ctx.acc_add(branch.cfg.acc, sum);
        }
        branch
    }
}

impl Branch for JacobiBranch {
    fn entry(&mut self, ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
        debug_assert_eq!(ep, EP_GHOST);
        let ghost = cast::<GhostMsg>(msg);
        debug_assert!(ghost.iter >= self.done, "stale ghost row");
        if ghost.from_above {
            self.from_above.push_back(ghost.row);
        } else {
            self.from_below.push_back(ghost.row);
        }
        self.advance(ctx);
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
