//! Adaptive quadrature: numerically integrate a function with sharp
//! features by recursive interval splitting.
//!
//! The classic irregular floating-point workload of the era: the
//! recursion depth — and therefore the work — depends on the integrand's
//! local behavior, so the tree is *data-dependent* and unpredictable,
//! unlike fib's fixed shape. Intervals whose Simpson error estimate is
//! small are finished sequentially; the rest split into two child
//! chares. The integral accumulates in a `SumF64`; quiescence detection
//! ends the run.

use chare_kernel::prelude::*;

use crate::costs::work;
use crate::registry::{Answer, App};
use crate::spec::{Args, SpecError};

/// Cost of one integrand evaluation (transcendental functions on a
/// late-1980s FPU).
pub const QUAD_EVAL_NS: u64 = 600;

/// Entry point on the main chare: quiescence notification.
pub const EP_QUIESCENT: EpId = EpId(1);
/// Entry point on the main chare: collected integral.
pub const EP_TOTAL: EpId = EpId(2);

/// Parameters of a quadrature run.
#[derive(Clone, Copy, Debug)]
pub struct QuadParams {
    /// Integration domain `[a, b]`.
    pub a: f64,
    /// Upper bound.
    pub b: f64,
    /// Absolute error tolerance for the whole domain.
    pub tol: f64,
    /// Intervals narrower than this are finished sequentially inside
    /// one chare (the grain control).
    pub grain: f64,
}

impl Default for QuadParams {
    fn default() -> Self {
        QuadParams {
            a: 0.0,
            b: 10.0,
            tol: 1e-9,
            grain: 0.05,
        }
    }
}

/// The integrand: smooth background plus two sharp peaks and an
/// oscillatory tail — adaptive refinement concentrates around x = 2 and
/// x = 7.5.
pub fn f(x: f64) -> f64 {
    let peak1 = 1.0 / (0.001 + (x - 2.0) * (x - 2.0));
    let peak2 = 0.5 / (0.004 + (x - 7.5) * (x - 7.5));
    peak1 + peak2 + (8.0 * x).sin()
}

/// Simpson's rule on `[a, b]` (3 evaluations).
fn simpson(a: f64, b: f64) -> f64 {
    let m = 0.5 * (a + b);
    (b - a) / 6.0 * (f(a) + 4.0 * f(m) + f(b))
}

/// Sequential adaptive Simpson with the same splitting rule the
/// parallel version uses. Returns `(integral, evaluations)`.
pub fn quad_seq(a: f64, b: f64, tol: f64) -> (f64, u64) {
    let whole = simpson(a, b);
    seq_rec(a, b, tol, whole)
}

fn seq_rec(a: f64, b: f64, tol: f64, whole: f64) -> (f64, u64) {
    let m = 0.5 * (a + b);
    let left = simpson(a, m);
    let right = simpson(m, b);
    let evals = 6; // 2 sub-Simpsons (shared endpoints not modeled)
    if (left + right - whole).abs() <= 15.0 * tol {
        // Richardson extrapolation.
        (left + right + (left + right - whole) / 15.0, evals)
    } else {
        let (li, le) = seq_rec(a, m, tol * 0.5, left);
        let (ri, re) = seq_rec(m, b, tol * 0.5, right);
        (li + ri, evals + le + re)
    }
}

/// Handles threaded through the seeds.
#[derive(Clone, Copy)]
pub struct Handles {
    node: Kind<QuadChare>,
    acc: Acc<SumF64>,
    grain: f64,
}

/// Seed of the main chare.
#[derive(Clone)]
pub struct MainSeed {
    /// Parameters.
    pub params: QuadParams,
    /// Handles for the tree.
    pub h: Handles,
}
message!(MainSeed);

/// Seed of one interval chare.
#[derive(Clone, Copy)]
pub struct NodeSeed {
    a: f64,
    b: f64,
    tol: f64,
    whole: f64,
    h: Handles,
}
message!(NodeSeed);

// Wire codecs for the multi-process backend.
wire_struct!(QuadParams { a, b, tol, grain });
wire_struct!(Handles { node, acc, grain });
wire_struct!(MainSeed { params, h });
wire_struct!(NodeSeed { a, b, tol, whole, h });

/// The main chare.
pub struct QuadMain {
    acc: Acc<SumF64>,
}

impl ChareInit for QuadMain {
    type Seed = MainSeed;
    fn create(seed: MainSeed, ctx: &mut Ctx) -> Self {
        let me = ctx.self_id();
        ctx.start_quiescence(Notify::Chare(me, EP_QUIESCENT));
        let p = seed.params;
        ctx.charge(work(3, QUAD_EVAL_NS));
        ctx.create(
            seed.h.node,
            NodeSeed {
                a: p.a,
                b: p.b,
                tol: p.tol,
                whole: simpson(p.a, p.b),
                h: seed.h,
            },
        );
        QuadMain { acc: seed.h.acc }
    }
}

impl Chare for QuadMain {
    fn entry(&mut self, ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
        match ep {
            EP_QUIESCENT => {
                let _ = cast::<QuiescenceMsg>(msg);
                let me = ctx.self_id();
                ctx.acc_collect(self.acc, Notify::Chare(me, EP_TOTAL));
            }
            EP_TOTAL => {
                let total = cast::<AccResult<f64>>(msg);
                ctx.exit(total.value);
            }
            _ => unreachable!("unknown entry point {ep:?}"),
        }
    }
}

/// One interval of the adaptive recursion.
pub struct QuadChare;

impl ChareInit for QuadChare {
    type Seed = NodeSeed;
    fn create(seed: NodeSeed, ctx: &mut Ctx) -> Self {
        ctx.destroy_self();
        let h = seed.h;
        let m = 0.5 * (seed.a + seed.b);
        let left = simpson(seed.a, m);
        let right = simpson(m, seed.b);
        ctx.charge(work(6, QUAD_EVAL_NS));
        if (left + right - seed.whole).abs() <= 15.0 * seed.tol {
            ctx.acc_add(h.acc, left + right + (left + right - seed.whole) / 15.0);
            return QuadChare;
        }
        if seed.b - seed.a <= h.grain {
            // Finish this interval sequentially (identical arithmetic to
            // the parallel split, so the result is schedule-invariant).
            let (li, le) = seq_rec(seed.a, m, seed.tol * 0.5, left);
            let (ri, re) = seq_rec(m, seed.b, seed.tol * 0.5, right);
            ctx.charge(work(le + re, QUAD_EVAL_NS));
            ctx.acc_add(h.acc, li + ri);
            return QuadChare;
        }
        ctx.create(
            h.node,
            NodeSeed {
                a: seed.a,
                b: m,
                tol: seed.tol * 0.5,
                whole: left,
                h,
            },
        );
        ctx.create(
            h.node,
            NodeSeed {
                a: m,
                b: seed.b,
                tol: seed.tol * 0.5,
                whole: right,
                h,
            },
        );
        QuadChare
    }
}

impl Chare for QuadChare {
    fn entry(&mut self, _ep: EpId, _msg: MsgBody, _ctx: &mut Ctx) {
        unreachable!("QuadChare receives no messages")
    }
}

/// Build the quadrature program, to run under [`APP`]'s strategies (FIFO +
/// ACWN — adaptive work wants adaptive balancing) unless told otherwise
/// ([`Program::with_opts`]).
pub fn build(params: QuadParams) -> Program {
    let mut b = ProgramBuilder::new();
    let node = b.chare::<QuadChare>();
    let main = b.chare::<QuadMain>();
    let acc = b.accumulator::<SumF64>();
    b.wire::<MainSeed>();
    b.wire::<NodeSeed>();
    b.wire::<AccResult<f64>>();
    b.queueing(APP.queueing).balance(APP.balance);
    b.main(
        main,
        MainSeed {
            params,
            h: Handles {
                node,
                acc,
                grain: params.grain,
            },
        },
    );
    b.build()
}

/// Spec keys: `a`, `b`, `tol`, `grain` (in thousandths, so the strings the
/// procs benchmark ships stay integer-only).
pub fn params(a: &mut Args) -> Result<QuadParams, SpecError> {
    let d = QuadParams::default();
    Ok(QuadParams {
        a: a.key("a", d.a)?,
        b: a.key("b", d.b)?,
        tol: a.key("tol", d.tol)?,
        grain: f64::from(a.key("grain", (d.grain * 1000.0).round() as u32)?) / 1000.0,
    })
}

/// The registry entry.
pub const APP: App = App {
    name: "quad",
    queueing: QueueingStrategy::Fifo,
    balance: BalanceStrategy::acwn(),
    ends_by_qd: true,
    test_spec: "quad:tol=0.000001,grain=200",
    params: |a| params(a).map(drop),
    build: |a| Ok(build(params(a)?)),
    // Same split rule and arithmetic as the parallel version; only the
    // accumulator's combine order differs.
    oracle: |a, _| {
        let p = params(a)?;
        Ok(Answer::Float(quad_seq(p.a, p.b, p.tol).0))
    },
    answer: |rep| rep.result_ref::<f64>().map(|&v| Answer::Float(v)),
};

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
    }

    #[test]
    fn seq_converges_with_tolerance() {
        let loose = quad_seq(0.0, 10.0, 1e-4).0;
        let tight = quad_seq(0.0, 10.0, 1e-10).0;
        assert!(close(loose, tight, 1e-3), "{loose} vs {tight}");
    }

    #[test]
    fn adaptive_refinement_concentrates_work() {
        // The peak region must cost far more evaluations than a smooth
        // region of the same width.
        let (_, smooth) = quad_seq(4.0, 6.0, 1e-9);
        let (_, peaky) = quad_seq(1.0, 3.0, 1e-9);
        assert!(
            peaky > 5 * smooth,
            "peak region {peaky} evals vs smooth {smooth}"
        );
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        // The split rule and arithmetic are identical; only the
        // accumulator's combine order differs.
        let params = QuadParams::default();
        let (want, _) = quad_seq(params.a, params.b, params.tol);
        for npes in [1usize, 4, 16] {
            let prog = build(params);
            let mut rep = prog.run_sim_preset(npes, MachinePreset::NcubeLike);
            let got = rep.take_result::<f64>().expect("integral");
            assert!(close(got, want, 1e-12), "npes={npes}: {got} vs {want}");
        }
    }

    #[test]
    fn all_balancers_agree() {
        let params = QuadParams::default();
        let (want, _) = quad_seq(params.a, params.b, params.tol);
        for balance in [
            BalanceStrategy::Local,
            BalanceStrategy::Random,
            BalanceStrategy::TokenIdle,
            BalanceStrategy::CentralManager,
        ] {
            let prog = build(params).with_opts(|o| o.balance = balance.clone());
            let mut rep = prog.run_sim_preset(8, MachinePreset::NcubeLike);
            let got = rep.take_result::<f64>().expect("integral");
            assert!(close(got, want, 1e-12), "{balance:?}: {got} vs {want}");
        }
    }

    #[test]
    fn speedup_on_sim() {
        let params = QuadParams {
            tol: 1e-10,
            ..QuadParams::default()
        };
        let prog = build(params);
        let t1 = prog.run_sim_preset(1, MachinePreset::NcubeLike).time_ns;
        let t16 = prog.run_sim_preset(16, MachinePreset::NcubeLike).time_ns;
        let speedup = t1 as f64 / t16 as f64;
        assert!(speedup > 3.0, "expected >3x on 16 PEs, got {speedup:.2}");
    }

    #[test]
    fn works_on_threads() {
        let params = QuadParams::default();
        let (want, _) = quad_seq(params.a, params.b, params.tol);
        let prog = build(params);
        let mut rep = prog.run_threads(4);
        assert!(!rep.timed_out);
        let got = rep.take_result::<f64>().expect("integral");
        assert!(close(got, want, 1e-12), "{got} vs {want}");
    }
}
