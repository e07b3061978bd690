//! Hand-coded message-passing baselines.
//!
//! The paper's overhead experiment compares Chare Kernel programs against
//! the same computations written directly against the machine's message
//! layer — no scheduler queues, no balancer, no quiescence detection.
//! This module provides both sides:
//!
//! * [`kernel_pingpong`] / [`raw_pingpong`] — per-message overhead
//!   microbenchmark;
//! * [`raw_jacobi`] — the Jacobi relaxation of [`crate::jacobi`] written
//!   as a bare [`NodeProgram`], for the application-level comparison.
//!   It shares the app's `jacobi::Block` (the numerics and ghost-row
//!   filing) but no kernel service: its own packet queue, its own
//!   checksum gather at PE 0, no quiescence detection.

use std::collections::VecDeque;

use chare_kernel::prelude::*;
use multicomputer::{
    FnFactory, MachinePreset, NetCtx, NodeProgram, Packet, SimConfig, SimMachine, StepKind,
};

use crate::costs::{work, JACOBI_CELL_NS};
use crate::jacobi::{Block, JacobiParams};

// ---------------------------------------------------------------------
// Kernel ping-pong.
// ---------------------------------------------------------------------

/// Entry point: the ball.
pub const EP_BALL: EpId = EpId(1);
/// Entry point: the responder introduces itself.
pub const EP_HELLO: EpId = EpId(2);

/// Seed of the kernel ping-pong main chare.
#[derive(Clone)]
pub struct PingSeed {
    /// Round trips to play.
    pub rounds: u32,
    /// Payload size in bytes (the ball carries a `Vec<u8>` this long).
    pub bytes: u32,
    /// Kind handle of the responder.
    pub pong: Kind<Pong>,
}
message!(PingSeed);

/// Seed of the responder: the main chare's id.
#[derive(Clone, Copy)]
pub struct PongSeed {
    ping: ChareId,
}
message!(PongSeed);

/// The ball. Carries the number of legs still to fly.
pub struct Ball {
    remaining: u32,
    payload: Vec<u8>,
}

impl Message for Ball {
    fn bytes(&self) -> u32 {
        4 + self.payload.len() as u32
    }
}

/// The serving chare (main, PE 0).
pub struct Ping {
    rounds: u32,
    bytes: u32,
    pong: Option<ChareId>,
}

impl ChareInit for Ping {
    type Seed = PingSeed;
    fn create(seed: PingSeed, ctx: &mut Ctx) -> Self {
        let me = ctx.self_id();
        // The responder lives on PE 1 (or PE 0 on a 1-PE machine).
        let target = Pe::from(1 % ctx.npes());
        ctx.create_on(target, seed.pong, PongSeed { ping: me });
        Ping {
            rounds: seed.rounds,
            bytes: seed.bytes,
            pong: None,
        }
    }
}

impl Chare for Ping {
    fn entry(&mut self, ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
        match ep {
            EP_HELLO => {
                // The responder is up; serve 2 * rounds legs.
                let pong = cast::<ChareId>(msg);
                self.pong = Some(pong);
                ctx.send(
                    pong,
                    EP_BALL,
                    Ball {
                        remaining: 2 * self.rounds - 1,
                        payload: vec![0u8; self.bytes as usize],
                    },
                );
            }
            EP_BALL => {
                let ball = cast::<Ball>(msg);
                if ball.remaining == 0 {
                    ctx.exit(self.rounds);
                } else {
                    ctx.send(
                        self.pong.expect("rally implies hello"),
                        EP_BALL,
                        Ball {
                            remaining: ball.remaining - 1,
                            payload: ball.payload,
                        },
                    );
                }
            }
            _ => unreachable!("unknown entry point {ep:?}"),
        }
    }
}

/// The responding chare. Introduces itself to the server, then returns
/// every ball (alternating with the server via its stored id).
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
        let ball = cast::<Ball>(msg);
        ctx.send(
            self.ping,
            EP_BALL,
            Ball {
                remaining: ball.remaining.saturating_sub(1),
                payload: ball.payload,
            },
        );
    }
}

/// Build the kernel ping-pong program. `rounds` must be ≥ 1.
pub fn kernel_pingpong(rounds: u32, bytes: u32) -> Program {
    assert!(rounds >= 1);
    let mut b = ProgramBuilder::new();
    let pong = b.chare::<Pong>();
    let ping = b.chare::<Ping>();
    b.main(
        ping,
        PingSeed {
            rounds,
            bytes,
            pong,
        },
    );
    b.build()
}

// ---------------------------------------------------------------------
// Raw ping-pong (no kernel).
// ---------------------------------------------------------------------

/// Raw two-PE ping-pong on the bare machine layer. Returns the
/// simulated end time in nanoseconds for `rounds` round trips of
/// `bytes`-byte messages on the given preset.
pub fn raw_pingpong(rounds: u32, bytes: u32, preset: MachinePreset) -> u64 {
    struct Node {
        pe: Pe,
        queue: VecDeque<Packet>,
        bytes: u32,
        rounds: u32,
    }
    impl NodeProgram for Node {
        fn boot(&mut self, net: &mut dyn NetCtx) {
            if self.pe == Pe::ZERO {
                net.send(
                    Pe::from(1 % net.num_pes()),
                    self.bytes,
                    Box::new(2 * self.rounds - 1),
                );
            }
        }
        fn incoming(&mut self, pkt: Packet) {
            self.queue.push_back(pkt);
        }
        fn step(&mut self, net: &mut dyn NetCtx) -> Option<StepKind> {
            let pkt = self.queue.pop_front()?;
            let remaining = *pkt.payload.downcast::<u32>().unwrap();
            if remaining == 0 {
                net.deposit(Box::new(()));
                net.stop();
            } else {
                net.send(pkt.from, self.bytes, Box::new(remaining - 1));
            }
            Some(StepKind::User)
        }
        fn has_work(&self) -> bool {
            !self.queue.is_empty()
        }
    }
    assert!(rounds >= 1);
    let factory = FnFactory(move |pe, _npes| Node {
        pe,
        queue: VecDeque::new(),
        bytes,
        rounds,
    });
    let cfg = SimConfig::preset(2, preset);
    let rep = SimMachine::run_factory(cfg, &factory);
    rep.end_time.as_nanos()
}

// ---------------------------------------------------------------------
// Raw Jacobi (no kernel).
// ---------------------------------------------------------------------

/// One ghost row on the wire.
struct RawGhost {
    iter: u32,
    from_above: bool,
    row: Vec<f64>,
}

/// Raw Jacobi node: the same `Block` and communication pattern as
/// [`crate::jacobi::JacobiBranch`], minus every kernel service.
struct RawJacobiNode {
    iters: u32,
    nblocks: usize,
    /// This PE's block, or `None` on a PE left without rows.
    block: Option<Block>,
    queue: VecDeque<Packet>,
    finished: usize, // PE0: blocks done
    sum: f64,
}

impl RawJacobiNode {
    fn new(pe: Pe, npes: usize, params: JacobiParams) -> Self {
        RawJacobiNode {
            iters: params.iters,
            nblocks: npes.min(params.n),
            block: Block::for_pe(params.n, npes, pe),
            queue: VecDeque::new(),
            finished: 0,
            sum: 0.0,
        }
    }

    fn send_edges(block: &Block, net: &mut dyn NetCtx) {
        for e in block.edges() {
            let bytes = (e.row.len() * 8) as u32 + 8;
            let ghost = RawGhost {
                iter: block.sweeps(),
                from_above: e.from_above,
                row: e.row,
            };
            net.send(e.to, bytes, Box::new(ghost));
        }
    }

    fn advance(block: &mut Block, iters: u32, net: &mut dyn NetCtx) {
        while block.sweeps() < iters && block.ready() {
            block.sweep();
            net.charge(work(block.cells(), JACOBI_CELL_NS));
            if block.sweeps() < iters {
                RawJacobiNode::send_edges(block, net);
            } else {
                // Report the block checksum to PE 0.
                net.send(Pe::ZERO, 8, Box::new(block.checksum()));
            }
        }
    }
}

impl NodeProgram for RawJacobiNode {
    fn boot(&mut self, net: &mut dyn NetCtx) {
        if let Some(block) = &mut self.block {
            if self.iters > 0 {
                RawJacobiNode::send_edges(block, net);
                RawJacobiNode::advance(block, self.iters, net);
            } else {
                net.send(Pe::ZERO, 8, Box::new(block.checksum()));
            }
        }
    }

    fn incoming(&mut self, pkt: Packet) {
        self.queue.push_back(pkt);
    }

    fn step(&mut self, net: &mut dyn NetCtx) -> Option<StepKind> {
        let pkt = self.queue.pop_front()?;
        if pkt.payload.is::<RawGhost>() {
            let ghost = pkt.payload.downcast::<RawGhost>().unwrap();
            let block = self.block.as_mut().expect("ghost rows reach only blocks");
            block.file(ghost.iter, ghost.from_above, ghost.row);
            RawJacobiNode::advance(block, self.iters, net);
        } else {
            // A block checksum arriving at PE 0.
            let s = *pkt.payload.downcast::<f64>().unwrap();
            debug_assert_eq!(net.me(), Pe::ZERO);
            self.sum += s;
            self.finished += 1;
            if self.finished == self.nblocks {
                net.deposit(Box::new(self.sum));
                net.stop();
            }
        }
        Some(StepKind::User)
    }

    fn has_work(&self) -> bool {
        !self.queue.is_empty()
    }
}

/// Run the hand-coded Jacobi on the simulator: returns `(checksum,
/// simulated ns)`.
pub fn raw_jacobi(params: JacobiParams, npes: usize, preset: MachinePreset) -> (f64, u64) {
    let factory = FnFactory(move |pe, n| RawJacobiNode::new(pe, n, params));
    let cfg = SimConfig::preset(npes, preset);
    let mut rep = SimMachine::run_factory(cfg, &factory);
    let sum = rep.take_result::<f64>().expect("checksum deposited");
    (sum, rep.end_time.as_nanos())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobi::jacobi_seq;

    #[test]
    fn raw_pingpong_time_matches_cost_model() {
        let preset = MachinePreset::NcubeLike;
        let model = preset.cost_model();
        let rounds = 100;
        let bytes = 64;
        let t = raw_pingpong(rounds, bytes, preset);
        let per_msg = (model.latency(bytes, 1) + model.dispatch).as_nanos();
        let expect = (2 * rounds + 1) as u64 * per_msg;
        let tol = 2 * per_msg;
        assert!(
            t >= expect - tol && t <= expect + tol,
            "t={t} expect~{expect}"
        );
    }

    #[test]
    fn kernel_pingpong_completes() {
        let prog = kernel_pingpong(50, 64);
        let mut rep = prog.run_sim_preset(2, MachinePreset::NcubeLike);
        assert_eq!(rep.take_result::<u32>(), Some(50));
    }

    #[test]
    fn kernel_overhead_is_bounded() {
        // The kernel adds queueing and envelope overhead per message but
        // must stay within a small factor of raw message passing.
        let preset = MachinePreset::NcubeLike;
        let raw = raw_pingpong(200, 64, preset) as f64;
        let prog = kernel_pingpong(200, 64);
        let kernel = prog.run_sim_preset(2, preset).time_ns as f64;
        let ratio = kernel / raw;
        assert!(
            (1.0..2.5).contains(&ratio),
            "kernel/raw per-message ratio {ratio:.2} out of expected band"
        );
    }

    #[test]
    fn raw_jacobi_matches_sequential() {
        let params = JacobiParams { n: 24, iters: 10 };
        let want = jacobi_seq(params);
        for npes in [1usize, 3, 8] {
            let (got, _) = raw_jacobi(params, npes, MachinePreset::NcubeLike);
            let close = (got - want).abs() <= 1e-9 * want.abs().max(1.0);
            assert!(close, "npes={npes}: got {got}, want {want}");
        }
    }

    #[test]
    fn kernel_jacobi_overhead_vs_raw() {
        let params = JacobiParams { n: 64, iters: 8 };
        let (_, raw_t) = raw_jacobi(params, 4, MachinePreset::NcubeLike);
        let prog = crate::jacobi::build(params);
        let kernel_t = prog.run_sim_preset(4, MachinePreset::NcubeLike).time_ns;
        let ratio = kernel_t as f64 / raw_t as f64;
        assert!(
            (0.9..2.0).contains(&ratio),
            "kernel/raw jacobi ratio {ratio:.2} out of expected band"
        );
    }
}
