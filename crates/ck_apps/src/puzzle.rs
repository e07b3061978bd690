//! 15-puzzle by parallel iterative-deepening A* (IDA*).
//!
//! Each deepening phase is one message-driven wave: the root position is
//! expanded into chares down to a split depth, below which subtrees run
//! the classic sequential bounded DFS. Three specifically shared
//! variables coordinate the phase:
//!
//! * a **monotonic** bound holds the best solution length found;
//! * a **min-accumulator** gathers the smallest f-value that exceeded
//!   the threshold (the next threshold);
//! * a **sum-accumulator** counts nodes expanded.
//!
//! The end of each phase is detected by quiescence; the main chare then
//! either starts the next phase with a bigger threshold or exits — a use
//! of *repeated* quiescence-detection sessions that stresses the QD
//! module harder than single-wave programs.

use chare_kernel::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::costs::{work, PUZZLE_NODE_NS};
use crate::registry::{Answer, App};
use crate::spec::{Args, SpecError};

/// Entry point on the main chare: quiescence (phase end).
pub const EP_QUIESCENT: EpId = EpId(1);
/// Entry point on the main chare: collected next threshold.
pub const EP_NEXT: EpId = EpId(2);
/// Entry point on the main chare: collected node count.
pub const EP_NODES: EpId = EpId(3);

/// A 15-puzzle position: 16 nibbles packed into a `u64`, cell 0 at the
/// least significant nibble; value 0 is the blank. Goal: cell `i` holds
/// `i + 1`, blank last.
pub type Board = u64;

/// The solved position.
pub const GOAL: Board = {
    let mut b = 0u64;
    let mut i = 0;
    while i < 15 {
        b |= ((i + 1) as u64) << (4 * i);
        i += 1;
    }
    b
};

/// Tile at cell `i`.
#[inline]
pub fn tile(b: Board, i: usize) -> u8 {
    ((b >> (4 * i)) & 0xF) as u8
}

/// Board with cell `i` set to `v`.
#[inline]
pub fn with_tile(b: Board, i: usize, v: u8) -> Board {
    (b & !(0xFu64 << (4 * i))) | ((v as u64) << (4 * i))
}

/// Position of the blank.
pub fn blank_of(b: Board) -> usize {
    (0..16).find(|&i| tile(b, i) == 0).expect("board has a blank")
}

/// Sum of Manhattan distances of all tiles to their goal cells — the
/// admissible heuristic.
pub fn manhattan(b: Board) -> u32 {
    let mut h = 0;
    for i in 0..16 {
        let t = tile(b, i);
        if t == 0 {
            continue;
        }
        let goal = (t - 1) as usize;
        h += (i / 4).abs_diff(goal / 4) + (i % 4).abs_diff(goal % 4);
    }
    h as u32
}

/// Cells adjacent to `i` (legal blank destinations), with the move
/// index (0=up, 1=down, 2=left, 3=right) for inverse-move pruning.
pub fn moves(i: usize) -> impl Iterator<Item = (u8, usize)> {
    let row = i / 4;
    let col = i % 4;
    [
        (0u8, row > 0, i.wrapping_sub(4)),
        (1, row < 3, i + 4),
        (2, col > 0, i.wrapping_sub(1)),
        (3, col < 3, i + 1),
    ]
    .into_iter()
    .filter(|&(_, ok, _)| ok)
    .map(|(m, _, j)| (m, j))
}

/// The inverse of a move index.
fn inverse(m: u8) -> u8 {
    match m {
        0 => 1,
        1 => 0,
        2 => 3,
        3 => 2,
        _ => 4,
    }
}

/// Apply a blank move: swap the blank at `blank` with the tile at `j`.
#[inline]
pub fn apply(b: Board, blank: usize, j: usize) -> Board {
    let t = tile(b, j);
    with_tile(with_tile(b, blank, t), j, 0)
}

/// Scramble the goal with `k` random moves (never undoing the previous
/// move), returning a solvable board with solution length ≤ `k`.
pub fn scramble(k: u32, seed: u64) -> Board {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GOAL;
    let mut blank = 15;
    let mut last = 4u8;
    for _ in 0..k {
        let opts: Vec<(u8, usize)> = moves(blank).filter(|&(m, _)| m != inverse(last)).collect();
        let (m, j) = opts[rng.random_range(0..opts.len())];
        b = apply(b, blank, j);
        blank = j;
        last = m;
    }
    b
}

/// Bounded DFS of one IDA* phase. Returns nodes visited; updates `best`
/// (smallest solution ≤ threshold found) and `next` (smallest exceeded
/// f) in place.
pub fn bounded_dfs(
    b: Board,
    blank: usize,
    g: u32,
    last: u8,
    threshold: u32,
    best: &mut u64,
    next: &mut u64,
) -> u64 {
    let h = manhattan(b);
    let f = g + h;
    if f as u64 >= *best {
        return 1;
    }
    if f > threshold {
        if (f as u64) < *next {
            *next = f as u64;
        }
        return 1;
    }
    if h == 0 {
        *best = g as u64;
        return 1;
    }
    let mut nodes = 1;
    for (m, j) in moves(blank) {
        if m == inverse(last) {
            continue;
        }
        nodes += bounded_dfs(apply(b, blank, j), j, g + 1, m, threshold, best, next);
    }
    nodes
}

/// Sequential IDA*: solution length and total nodes over all phases.
pub fn ida_seq(start: Board) -> (u32, u64) {
    let mut threshold = manhattan(start);
    let mut nodes = 0;
    loop {
        let mut best = u64::MAX;
        let mut next = u64::MAX;
        nodes += bounded_dfs(start, blank_of(start), 0, 4, threshold, &mut best, &mut next);
        if best < u64::MAX {
            return (best as u32, nodes);
        }
        assert!(next < u64::MAX, "puzzle must be solvable");
        threshold = next as u32;
    }
}

/// Parameters of a puzzle run.
#[derive(Clone, Copy, Debug)]
pub struct PuzzleParams {
    /// Scramble length.
    pub scramble: u32,
    /// Instance RNG seed.
    pub seed: u64,
    /// Tree depth expanded as chares before going sequential.
    pub split_depth: u32,
}

impl Default for PuzzleParams {
    fn default() -> Self {
        PuzzleParams {
            scramble: 28,
            seed: 5,
            split_depth: 5,
        }
    }
}

/// Result of a parallel run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PuzzleResult {
    /// Solution length (optimal).
    pub cost: u32,
    /// Total nodes expanded across all phases (schedule-dependent).
    pub nodes: u64,
    /// Number of deepening phases.
    pub phases: u32,
}

/// Handles threaded through every seed.
#[derive(Clone, Copy)]
pub struct Handles {
    node: Kind<PuzzleChare>,
    best: MonoVar<MinBoundU64>,
    next: Acc<MinU64>,
    nodes: Acc<SumU64>,
    split_depth: u32,
}

/// Seed of the main chare.
#[derive(Clone)]
pub struct MainSeed {
    start: Board,
    h: Handles,
}
message!(MainSeed);

/// Seed of a search-node chare.
#[derive(Clone, Copy)]
pub struct NodeSeed {
    board: Board,
    blank: u8,
    g: u32,
    last: u8,
    threshold: u32,
    h: Handles,
}
message!(NodeSeed);

// Wire codecs for the multi-process backend (positional field lists).
wire_struct!(PuzzleResult { cost, nodes, phases });
wire_struct!(Handles { node, best, next, nodes, split_depth });
wire_struct!(MainSeed { start, h });
wire_struct!(NodeSeed { board, blank, g, last, threshold, h });

/// The main chare: runs deepening phases until a solution is found.
pub struct PuzzleMain {
    start: Board,
    threshold: u32,
    phases: u32,
    total_nodes: u64,
    h: Handles,
}

impl PuzzleMain {
    fn launch_phase(&mut self, ctx: &mut Ctx) {
        self.phases += 1;
        let me = ctx.self_id();
        ctx.start_quiescence(Notify::Chare(me, EP_QUIESCENT));
        ctx.create_prio(
            self.h.node,
            NodeSeed {
                board: self.start,
                blank: blank_of(self.start) as u8,
                g: 0,
                last: 4,
                threshold: self.threshold,
                h: self.h,
            },
            Priority::Int(manhattan(self.start) as i64),
        );
    }
}

impl ChareInit for PuzzleMain {
    type Seed = MainSeed;
    fn create(seed: MainSeed, ctx: &mut Ctx) -> Self {
        let mut main = PuzzleMain {
            start: seed.start,
            threshold: manhattan(seed.start),
            phases: 0,
            total_nodes: 0,
            h: seed.h,
        };
        main.launch_phase(ctx);
        main
    }
}

impl Chare for PuzzleMain {
    fn entry(&mut self, ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
        let me = ctx.self_id();
        match ep {
            EP_QUIESCENT => {
                let _ = cast::<QuiescenceMsg>(msg);
                ctx.acc_collect(self.h.next, Notify::Chare(me, EP_NEXT));
            }
            EP_NEXT => {
                let next = cast::<AccResult<u64>>(msg).value;
                ctx.acc_collect(self.h.nodes, Notify::Chare(me, EP_NODES));
                // Stash the next threshold; applied in EP_NODES once the
                // node count for this phase is in.
                if ctx.mono_get(self.h.best) == u64::MAX {
                    assert!(next < u64::MAX, "puzzle must be solvable");
                    self.threshold = next as u32;
                }
            }
            EP_NODES => {
                self.total_nodes += cast::<AccResult<u64>>(msg).value;
                let best = ctx.mono_get(self.h.best);
                if best < u64::MAX {
                    ctx.exit(PuzzleResult {
                        cost: best as u32,
                        nodes: self.total_nodes,
                        phases: self.phases,
                    });
                } else {
                    self.launch_phase(ctx);
                }
            }
            _ => unreachable!("unknown entry point {ep:?}"),
        }
    }
}

/// One node of the search tree.
pub struct PuzzleChare;

impl ChareInit for PuzzleChare {
    type Seed = NodeSeed;
    fn create(seed: NodeSeed, ctx: &mut Ctx) -> Self {
        let h = seed.h;
        ctx.destroy_self();
        let blank = seed.blank as usize;
        let hv = manhattan(seed.board);
        let f = seed.g + hv;
        let best = ctx.mono_get(h.best);
        ctx.charge(work(1, PUZZLE_NODE_NS));

        if f as u64 >= best {
            ctx.acc_add(h.nodes, 1);
            return PuzzleChare;
        }
        if f > seed.threshold {
            ctx.acc_add(h.next, f as u64);
            ctx.acc_add(h.nodes, 1);
            return PuzzleChare;
        }
        if hv == 0 {
            ctx.acc_add(h.nodes, 1);
            ctx.mono_update(h.best, seed.g as u64);
            return PuzzleChare;
        }
        if seed.g >= h.split_depth {
            let mut local_best = best;
            let mut local_next = u64::MAX;
            let nodes = bounded_dfs(
                seed.board,
                blank,
                seed.g,
                seed.last,
                seed.threshold,
                &mut local_best,
                &mut local_next,
            );
            ctx.charge(work(nodes, PUZZLE_NODE_NS));
            ctx.acc_add(h.nodes, nodes);
            if local_next < u64::MAX {
                ctx.acc_add(h.next, local_next);
            }
            if local_best < best {
                ctx.mono_update(h.best, local_best);
            }
            return PuzzleChare;
        }
        ctx.acc_add(h.nodes, 1);
        for (m, j) in moves(blank) {
            if m == inverse(seed.last) {
                continue;
            }
            let board = apply(seed.board, blank, j);
            let child_f = seed.g + 1 + manhattan(board);
            ctx.create_prio(
                h.node,
                NodeSeed {
                    board,
                    blank: j as u8,
                    g: seed.g + 1,
                    last: m,
                    threshold: seed.threshold,
                    h,
                },
                Priority::Int(child_f as i64),
            );
        }
        PuzzleChare
    }
}

impl Chare for PuzzleChare {
    fn entry(&mut self, _ep: EpId, _msg: MsgBody, _ctx: &mut Ctx) {
        unreachable!("PuzzleChare receives no messages")
    }
}

/// Build the puzzle program, to run under [`APP`]'s strategies (integer
/// f-priorities + ACWN; the speedup tables run this app under `Random`
/// instead, see `ck_bench`) unless told otherwise ([`Program::with_opts`]).
pub fn build(params: PuzzleParams) -> Program {
    let start = scramble(params.scramble, params.seed);
    let mut b = ProgramBuilder::new();
    let node = b.chare::<PuzzleChare>();
    let main = b.chare::<PuzzleMain>();
    let best = b.monotonic::<MinBoundU64>();
    let next = b.accumulator::<MinU64>();
    let nodes = b.accumulator::<SumU64>();
    b.wire::<MainSeed>();
    b.wire::<NodeSeed>();
    b.wire::<PuzzleResult>();
    b.wire::<AccResult<u64>>();
    b.queueing(APP.queueing).balance(APP.balance);
    b.main(
        main,
        MainSeed {
            start,
            h: Handles {
                node,
                best,
                next,
                nodes,
                split_depth: params.split_depth,
            },
        },
    );
    b.build()
}

/// Spec keys: `scramble`, `seed`, `split_depth`.
pub fn params(a: &mut Args) -> Result<PuzzleParams, SpecError> {
    let d = PuzzleParams::default();
    Ok(PuzzleParams {
        scramble: a.key("scramble", d.scramble)?,
        seed: a.key("seed", d.seed)?,
        split_depth: a.key("split_depth", d.split_depth)?,
    })
}

/// The registry entry.
pub const APP: App = App {
    name: "puzzle",
    queueing: QueueingStrategy::IntPriority,
    balance: BalanceStrategy::acwn(),
    ends_by_qd: true,
    test_spec: "puzzle:scramble=16,seed=2,split_depth=3",
    params: |a| params(a).map(drop),
    build: |a| Ok(build(params(a)?)),
    oracle: |a, _| {
        let p = params(a)?;
        Ok(Answer::Int(u64::from(ida_seq(scramble(p.scramble, p.seed)).0)))
    },
    answer: |rep| rep.result_ref::<PuzzleResult>().map(|r| Answer::Int(u64::from(r.cost))),
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goal_properties() {
        assert_eq!(manhattan(GOAL), 0);
        assert_eq!(blank_of(GOAL), 15);
        assert_eq!(tile(GOAL, 0), 1);
        assert_eq!(tile(GOAL, 14), 15);
    }

    #[test]
    fn tile_roundtrip() {
        let b = with_tile(GOAL, 3, 9);
        assert_eq!(tile(b, 3), 9);
        // Other cells untouched.
        assert_eq!(tile(b, 4), 5);
    }

    #[test]
    fn moves_respect_edges() {
        assert_eq!(moves(0).count(), 2); // corner
        assert_eq!(moves(1).count(), 3); // edge
        assert_eq!(moves(5).count(), 4); // center
        assert_eq!(moves(15).count(), 2); // corner
    }

    #[test]
    fn scramble_is_solvable_within_k() {
        for k in [4, 10, 20] {
            let b = scramble(k, 9);
            let (cost, _) = ida_seq(b);
            assert!(cost <= k, "k={k} cost={cost}");
            // Parity: scramble length and solution length have the same
            // parity (each move flips permutation parity).
            assert_eq!(cost % 2, k % 2, "k={k} cost={cost}");
        }
    }

    #[test]
    fn manhattan_admissible_on_scrambles() {
        for seed in 0..5 {
            let b = scramble(14, seed);
            let (cost, _) = ida_seq(b);
            assert!(manhattan(b) <= cost);
        }
    }

    #[test]
    fn parallel_matches_sequential_cost() {
        let params = PuzzleParams {
            scramble: 20,
            seed: 5,
            split_depth: 4,
        };
        let (want, _) = ida_seq(scramble(20, 5));
        for q in [QueueingStrategy::Fifo, QueueingStrategy::IntPriority] {
            let prog = build(params).with_opts(|o| {
                o.queueing = q;
                o.balance = BalanceStrategy::Random;
            });
            let mut rep = prog.run_sim_preset(8, MachinePreset::NcubeLike);
            let got = rep.take_result::<PuzzleResult>().expect("result");
            assert_eq!(got.cost, want, "queueing {q:?}");
            assert!(got.phases >= 1);
        }
    }

    #[test]
    fn works_on_threads() {
        let params = PuzzleParams {
            scramble: 18,
            seed: 3,
            split_depth: 4,
        };
        let (want, _) = ida_seq(scramble(18, 3));
        let prog = build(params);
        let mut rep = prog.run_threads(4);
        assert!(!rep.timed_out);
        assert_eq!(rep.take_result::<PuzzleResult>().unwrap().cost, want);
    }
}
