//! Jacobi relaxation **to convergence** — the reduction-per-iteration
//! pattern.
//!
//! Where [`crate::jacobi`] runs a fixed sweep count and needs only
//! quiescence at the end, this variant iterates until the global maximum
//! cell change drops below a tolerance. That requires a *global
//! decision every iteration*: each branch contributes its local maximum
//! change to a [`MaxF64`] accumulator and reports done; the main chare
//! collects the reduction, decides, and broadcasts continue-or-stop.
//! The pattern costs one collective per sweep — the price of global
//! control that the fixed-iteration variant avoids, measurable by
//! comparing the two programs' times at equal sweep counts.

use chare_kernel::prelude::*;

use crate::costs::{work, JACOBI_CELL_NS};
use crate::jacobi::Block;
use crate::registry::{Answer, App};
use crate::spec::{Args, SpecError};

/// Entry point on each branch: ghost row from a neighbor.
pub const EP_GHOST: EpId = EpId(1);
/// Entry point on each branch: continue with the next sweep, or stop.
pub const EP_CONTROL: EpId = EpId(2);
/// Entry point on the main chare: a branch finished its sweep.
pub const EP_SWEPT: EpId = EpId(3);
/// Entry point on the main chare: the collected max change.
pub const EP_MAXDIFF: EpId = EpId(4);
/// Entry point on the main chare: quiescence before the final collect.
pub const EP_QUIESCENT: EpId = EpId(5);
/// Entry point on the main chare: the collected checksum.
pub const EP_SUM: EpId = EpId(6);

/// Parameters of a convergent run.
#[derive(Clone, Copy, Debug)]
pub struct ConvParams {
    /// Interior grid size.
    pub n: usize,
    /// Stop when the max cell change of a sweep falls below this.
    pub eps: f64,
    /// Hard sweep cap (safety for loose tolerances).
    pub max_iters: u32,
}

impl Default for ConvParams {
    fn default() -> Self {
        ConvParams {
            n: 48,
            eps: 1e-4,
            max_iters: 10_000,
        }
    }
}

/// Result: sweeps performed and final checksum.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConvResult {
    /// Sweeps executed.
    pub iters: u32,
    /// Interior sum at termination.
    pub checksum: f64,
}

/// Sequential reference: same sweep/tolerance logic.
pub fn jacobi_conv_seq(params: ConvParams) -> ConvResult {
    let mut grid = Block::whole(params.n);
    while grid.sweeps() < params.max_iters {
        if grid.sweep() < params.eps {
            break;
        }
    }
    ConvResult {
        iters: grid.sweeps(),
        checksum: grid.checksum(),
    }
}

/// Ghost row between neighbors.
#[derive(Clone)]
pub struct GhostMsg {
    /// True if from the block above.
    pub from_above: bool,
    /// Row values.
    pub row: Vec<f64>,
}
impl Message for GhostMsg {
    fn bytes(&self) -> u32 {
        2 + (self.row.len() * 8) as u32
    }
}

/// Control broadcast each sweep.
#[derive(Clone, Copy)]
pub enum Control {
    /// Run one more sweep, then report.
    Sweep(ChareId),
    /// Converged (or capped): contribute your checksum and go quiet.
    Stop,
}
message!(Control);

// Wire codecs for the multi-process backend (positional lists). The
// BOC configuration never travels: every worker builds its own branch.
wire_struct!(ConvParams { n, eps, max_iters });
wire_struct!(ConvResult { iters, checksum });
wire_struct!(GhostMsg { from_above, row });
wire_enum!(Control { Sweep(main), Stop });
wire_struct!(MainSeed { params, boc, maxdiff, checksum });

/// BOC configuration.
#[derive(Clone)]
pub struct ConvCfg {
    /// Parameters.
    pub params: ConvParams,
    /// Per-sweep max-change reduction.
    pub maxdiff: Acc<MaxF64>,
    /// Final checksum reduction.
    pub checksum: Acc<SumF64>,
}

/// One PE's branch: its block, lock-stepped by the per-sweep barrier.
pub struct ConvBranch {
    cfg: ConvCfg,
    /// This PE's block, or `None` on a PE left without rows.
    block: Option<Block>,
    sweep_armed: Option<ChareId>,
}

impl ConvBranch {
    fn send_edges(block: &Block, ctx: &mut Ctx) {
        let boc = ctx.self_boc::<ConvBranch>();
        for e in block.edges() {
            let ghost = GhostMsg {
                from_above: e.from_above,
                row: e.row,
            };
            ctx.send_branch(boc, e.to, EP_GHOST, ghost);
        }
    }

    /// Run the sweep if both the control signal and all ghosts arrived.
    fn try_sweep(block: &mut Block, armed: &mut Option<ChareId>, cfg: &ConvCfg, ctx: &mut Ctx) {
        let Some(main) = *armed else {
            return;
        };
        if !block.ready() {
            return;
        }
        *armed = None;
        let change = block.sweep();
        ctx.charge(work(block.cells(), JACOBI_CELL_NS));
        ctx.acc_add(cfg.maxdiff, change);
        ctx.send(main, EP_SWEPT, ());
    }
}

impl BranchInit for ConvBranch {
    type Cfg = ConvCfg;
    fn create(cfg: ConvCfg, ctx: &mut Ctx) -> Self {
        let block = Block::for_pe(cfg.params.n, ctx.npes(), ctx.pe());
        ConvBranch {
            cfg,
            block,
            sweep_armed: None,
        }
    }
}

impl Branch for ConvBranch {
    fn entry(&mut self, ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
        let Some(block) = &mut self.block else {
            // Inactive PE: still answer the barrier so main's count adds
            // up.
            if ep == EP_CONTROL {
                if let Control::Sweep(main) = cast::<Control>(msg) {
                    ctx.send(main, EP_SWEPT, ());
                }
            }
            return;
        };
        match ep {
            EP_GHOST => {
                // The barrier keeps neighbours in step, so a row always
                // belongs to this block's next sweep.
                let g = cast::<GhostMsg>(msg);
                block.file(block.sweeps(), g.from_above, g.row);
                ConvBranch::try_sweep(block, &mut self.sweep_armed, &self.cfg, ctx);
            }
            EP_CONTROL => match cast::<Control>(msg) {
                Control::Sweep(main) => {
                    self.sweep_armed = Some(main);
                    ConvBranch::send_edges(block, ctx);
                    ConvBranch::try_sweep(block, &mut self.sweep_armed, &self.cfg, ctx);
                }
                Control::Stop => {
                    ctx.acc_add(self.cfg.checksum, block.checksum());
                }
            },
            _ => unreachable!("unknown entry point {ep:?}"),
        }
    }
}

/// Seed of the main chare.
#[derive(Clone)]
pub struct MainSeed {
    /// Parameters.
    pub params: ConvParams,
    /// BOC handle.
    pub boc: Boc<ConvBranch>,
    /// Max-change reduction.
    pub maxdiff: Acc<MaxF64>,
    /// Checksum reduction.
    pub checksum: Acc<SumF64>,
}
message!(MainSeed);

/// The main chare: per-sweep barrier + convergence decision.
pub struct ConvMain {
    seedv: MainSeed,
    swept: usize,
    iters: u32,
}

impl ConvMain {
    fn launch_sweep(&mut self, ctx: &mut Ctx) {
        let me = ctx.self_id();
        self.iters += 1;
        ctx.broadcast_branch(self.seedv.boc, EP_CONTROL, Control::Sweep(me));
    }
}

impl ChareInit for ConvMain {
    type Seed = MainSeed;
    fn create(seed: MainSeed, ctx: &mut Ctx) -> Self {
        let mut m = ConvMain {
            seedv: seed,
            swept: 0,
            iters: 0,
        };
        m.launch_sweep(ctx);
        m
    }
}

impl Chare for ConvMain {
    fn entry(&mut self, ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
        let me = ctx.self_id();
        match ep {
            EP_SWEPT => {
                cast::<()>(msg);
                self.swept += 1;
                if self.swept == ctx.npes() {
                    self.swept = 0;
                    ctx.acc_collect(self.seedv.maxdiff, Notify::Chare(me, EP_MAXDIFF));
                }
            }
            EP_MAXDIFF => {
                let maxdiff = cast::<AccResult<f64>>(msg).value;
                if maxdiff < self.seedv.params.eps || self.iters >= self.seedv.params.max_iters {
                    ctx.broadcast_branch(self.seedv.boc, EP_CONTROL, Control::Stop);
                    ctx.start_quiescence(Notify::Chare(me, EP_QUIESCENT));
                } else {
                    self.launch_sweep(ctx);
                }
            }
            EP_QUIESCENT => {
                let _ = cast::<QuiescenceMsg>(msg);
                ctx.acc_collect(self.seedv.checksum, Notify::Chare(me, EP_SUM));
            }
            EP_SUM => {
                let checksum = cast::<AccResult<f64>>(msg).value;
                ctx.exit(ConvResult {
                    iters: self.iters,
                    checksum,
                });
            }
            _ => unreachable!("unknown entry point {ep:?}"),
        }
    }
}

/// Build the convergent Jacobi program, to run under [`APP`]'s strategies
/// (FIFO, no balancing — the work is static) unless told otherwise
/// ([`Program::with_opts`]).
pub fn build(params: ConvParams) -> Program {
    let mut b = ProgramBuilder::new();
    b.queueing(APP.queueing).balance(APP.balance);
    let maxdiff = b.accumulator::<MaxF64>();
    let checksum = b.accumulator::<SumF64>();
    let main = b.chare::<ConvMain>();
    let boc = b.boc::<ConvBranch>(ConvCfg {
        params,
        maxdiff,
        checksum,
    });
    b.wire::<MainSeed>();
    b.wire::<GhostMsg>();
    b.wire::<Control>();
    b.wire::<ConvResult>();
    b.wire::<AccResult<f64>>();
    b.main(
        main,
        MainSeed {
            params,
            boc,
            maxdiff,
            checksum,
        },
    );
    b.build()
}

/// Spec keys: `n`, `eps`, `max_iters`. The tolerance is a key because
/// a looser one changes the sweep count, which is the app's answer.
pub fn params(a: &mut Args) -> Result<ConvParams, SpecError> {
    let d = ConvParams::default();
    Ok(ConvParams {
        n: a.key("n", d.n)?,
        eps: a.key("eps", d.eps)?,
        max_iters: a.key("max_iters", d.max_iters)?,
    })
}

/// The registry entry.
pub const APP: App = App {
    name: "jconv",
    queueing: QueueingStrategy::Fifo,
    balance: BalanceStrategy::Local,
    ends_by_qd: true,
    test_spec: "jconv:n=16,eps=0.001,max_iters=200",
    params: |a| params(a).map(drop),
    build: |a| Ok(build(params(a)?)),
    oracle: |a, _| Ok(Answer::Int(u64::from(jacobi_conv_seq(params(a)?).iters))),
    answer: |rep| rep.result_ref::<ConvResult>().map(|r| Answer::Int(u64::from(r.iters))),
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobi::JacobiParams;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
    }

    #[test]
    fn seq_converges_and_tightening_eps_takes_longer() {
        let loose = jacobi_conv_seq(ConvParams {
            n: 24,
            eps: 1e-3,
            max_iters: 10_000,
        });
        let tight = jacobi_conv_seq(ConvParams {
            n: 24,
            eps: 1e-5,
            max_iters: 10_000,
        });
        assert!(loose.iters > 0 && tight.iters > loose.iters);
    }

    #[test]
    fn parallel_matches_sequential_iterations_and_checksum() {
        let params = ConvParams {
            n: 24,
            eps: 1e-3,
            max_iters: 500,
        };
        let want = jacobi_conv_seq(params);
        for npes in [1usize, 3, 6] {
            let mut rep = build(params).run_sim_preset(npes, MachinePreset::NcubeLike);
            let got = rep.take_result::<ConvResult>().expect("result");
            assert_eq!(got.iters, want.iters, "npes={npes}");
            assert!(
                close(got.checksum, want.checksum),
                "npes={npes}: {} vs {}",
                got.checksum,
                want.checksum
            );
        }
    }

    #[test]
    fn iteration_cap_is_respected() {
        let params = ConvParams {
            n: 16,
            eps: 0.0, // unreachable tolerance
            max_iters: 7,
        };
        let mut rep = build(params).run_sim_preset(4, MachinePreset::NcubeLike);
        assert_eq!(rep.take_result::<ConvResult>().unwrap().iters, 7);
    }

    #[test]
    fn per_sweep_barrier_costs_over_fixed_iteration_twin() {
        // Same grid, same sweep count: the convergent version pays a
        // collective per sweep and must be slower.
        let params = ConvParams {
            n: 32,
            eps: 0.0,
            max_iters: 12,
        };
        let conv_t = build(params)
            .run_sim_preset(4, MachinePreset::NcubeLike)
            .time_ns;
        let fixed_t = crate::jacobi::build(JacobiParams { n: 32, iters: 12 })
            .run_sim_preset(4, MachinePreset::NcubeLike)
            .time_ns;
        assert!(
            conv_t > fixed_t,
            "barrier version should cost more: {conv_t} vs {fixed_t}"
        );
    }

    #[test]
    fn works_on_threads() {
        let params = ConvParams {
            n: 20,
            eps: 1e-3,
            max_iters: 500,
        };
        let want = jacobi_conv_seq(params);
        let mut rep = build(params).run_threads(3);
        assert!(!rep.timed_out);
        let got = rep.take_result::<ConvResult>().expect("result");
        assert_eq!(got.iters, want.iters);
        assert!(close(got.checksum, want.checksum));
    }
}
