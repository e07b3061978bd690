//! Traveling salesman by parallel branch & bound.
//!
//! The showcase for two kernel features working together:
//!
//! * a **monotonic variable** holds the best tour found anywhere; every
//!   PE prunes against its (possibly slightly stale) local copy — stale
//!   reads only cost extra work, never correctness;
//! * **bitvector priorities** give every search node its root-path as a
//!   priority, so the distributed scheduler approximates the sequential
//!   best-first/depth-first order. Under FIFO the same program explodes
//!   the search space — the paper's queueing-strategy experiment.
//!
//! Node counts (work performed) are gathered in an accumulator;
//! termination is quiescence detection.

use chare_kernel::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::costs::{work, TSP_NODE_NS};
use crate::registry::{Answer, App};
use crate::spec::{Args, SpecError};

/// Entry point on the main chare: quiescence notification.
pub const EP_QUIESCENT: EpId = EpId(1);
/// Entry point on the main chare: collected node count.
pub const EP_NODES: EpId = EpId(2);

/// Parameters of a TSP run.
#[derive(Clone, Copy, Debug)]
pub struct TspParams {
    /// Number of cities (≤ 32).
    pub n: u8,
    /// Instance RNG seed.
    pub seed: u64,
    /// Subtrees with at most this many unvisited cities are solved
    /// sequentially inside one chare.
    pub seq_tail: u8,
}

impl Default for TspParams {
    fn default() -> Self {
        TspParams {
            n: 12,
            seed: 7,
            seq_tail: 7,
        }
    }
}

/// A symmetric Euclidean TSP instance.
#[derive(Clone, Debug)]
pub struct TspInstance {
    /// Number of cities.
    pub n: usize,
    /// Row-major distance matrix.
    pub dist: Vec<u32>,
    /// Per-city minimum outgoing edge (for the lower bound).
    pub min_edge: Vec<u32>,
}

impl TspInstance {
    /// Random cities on a 1000x1000 grid, rounded Euclidean distances.
    pub fn random(n: usize, seed: u64) -> Self {
        assert!((2..=32).contains(&n), "n must be in 2..=32");
        let mut rng = StdRng::seed_from_u64(seed);
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.random_range(0.0..1000.0), rng.random_range(0.0..1000.0)))
            .collect();
        let mut dist = vec![0u32; n * n];
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    let dx = pts[i].0 - pts[j].0;
                    let dy = pts[i].1 - pts[j].1;
                    dist[i * n + j] = (dx * dx + dy * dy).sqrt().round() as u32;
                }
            }
        }
        let min_edge = (0..n)
            .map(|i| {
                (0..n)
                    .filter(|&j| j != i)
                    .map(|j| dist[i * n + j])
                    .min()
                    .unwrap_or(0)
            })
            .collect();
        TspInstance { n, dist, min_edge }
    }

    /// Distance between cities `i` and `j`.
    #[inline]
    pub fn d(&self, i: usize, j: usize) -> u32 {
        self.dist[i * self.n + j]
    }

    /// Nearest-neighbor tour cost from city 0 — the initial upper bound.
    pub fn greedy_tour(&self) -> u64 {
        let mut visited = 1u32;
        let mut city = 0usize;
        let mut cost = 0u64;
        for _ in 1..self.n {
            let next = (0..self.n)
                .filter(|&j| visited & (1 << j) == 0)
                .min_by_key(|&j| self.d(city, j))
                .expect("unvisited city exists");
            cost += self.d(city, next) as u64;
            visited |= 1 << next;
            city = next;
        }
        cost + self.d(city, 0) as u64
    }

    /// Admissible lower bound for completing a partial tour: current
    /// cost plus, for the current city and every unvisited city, the
    /// cheapest edge leaving it (each must be departed exactly once).
    pub fn lower_bound(&self, visited: u32, city: usize, cost: u64) -> u64 {
        let mut lb = cost + self.min_edge[city] as u64;
        for j in 0..self.n {
            if visited & (1 << j) == 0 {
                lb += self.min_edge[j] as u64;
            }
        }
        lb
    }
}

/// Sequential branch & bound from a partial tour. Improves `best` in
/// place and returns nodes expanded.
pub fn solve_from(inst: &TspInstance, visited: u32, city: usize, cost: u64, best: &mut u64) -> u64 {
    let mut nodes = 1u64;
    let full = (1u32 << inst.n) - 1;
    if visited == full {
        let tour = cost + inst.d(city, 0) as u64;
        if tour < *best {
            *best = tour;
        }
        return nodes;
    }
    if inst.lower_bound(visited, city, cost) >= *best {
        return nodes;
    }
    // Nearest-first child order — the same order the parallel version
    // encodes in bitvector priorities.
    let mut children: Vec<usize> = (0..inst.n).filter(|&j| visited & (1 << j) == 0).collect();
    children.sort_by_key(|&j| inst.d(city, j));
    for next in children {
        let c = cost + inst.d(city, next) as u64;
        if c < *best {
            nodes += solve_from(inst, visited | (1 << next), next, c, best);
        }
    }
    nodes
}

/// Sequential TSP: optimal tour cost and nodes expanded.
pub fn tsp_seq(inst: &TspInstance) -> (u64, u64) {
    let mut best = inst.greedy_tour();
    let nodes = solve_from(inst, 1, 0, 0, &mut best);
    (best, nodes)
}

/// Result of a parallel run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TspResult {
    /// Optimal tour cost.
    pub best: u64,
    /// Total search nodes expanded (schedule-dependent).
    pub nodes: u64,
}

/// Handles threaded through every seed.
#[derive(Clone, Copy)]
pub struct Handles {
    ro: ReadOnly<TspInstance>,
    node: Kind<TspChare>,
    best: MonoVar<MinBoundU64>,
    nodes: Acc<SumU64>,
    seq_tail: u8,
}

/// Seed of the main chare.
#[derive(Clone)]
pub struct MainSeed {
    h: Handles,
}
message!(MainSeed);

/// Seed of a search-node chare.
#[derive(Clone)]
pub struct NodeSeed {
    visited: u32,
    city: u8,
    cost: u64,
    prio: BitPrio,
    h: Handles,
}

impl Message for NodeSeed {
    fn bytes(&self) -> u32 {
        16 + self.prio.len().div_ceil(8)
    }
}

// Wire codecs for the multi-process backend (positional field lists).
// The instance itself never travels: every worker builds it, read-only,
// from the spec.
wire_struct!(TspResult { best, nodes });
wire_struct!(Handles { ro, node, best, nodes, seq_tail });
wire_struct!(MainSeed { h });
wire_struct!(NodeSeed { visited, city, cost, prio, h });

/// The main chare.
pub struct TspMain {
    h: Handles,
}

impl ChareInit for TspMain {
    type Seed = MainSeed;
    fn create(seed: MainSeed, ctx: &mut Ctx) -> Self {
        let h = seed.h;
        let inst = ctx.read_only(h.ro);
        // Seed the bound with the greedy tour so pruning works from the
        // first node.
        ctx.mono_update(h.best, inst.greedy_tour());
        let me = ctx.self_id();
        ctx.start_quiescence(Notify::Chare(me, EP_QUIESCENT));
        ctx.create_prio(
            h.node,
            NodeSeed {
                visited: 1,
                city: 0,
                cost: 0,
                prio: BitPrio::root(),
                h,
            },
            Priority::Bits(BitPrio::root()),
        );
        TspMain { h }
    }
}

impl Chare for TspMain {
    fn entry(&mut self, ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
        match ep {
            EP_QUIESCENT => {
                let _ = cast::<QuiescenceMsg>(msg);
                let me = ctx.self_id();
                ctx.acc_collect(self.h.nodes, Notify::Chare(me, EP_NODES));
            }
            EP_NODES => {
                let nodes = cast::<AccResult<u64>>(msg);
                let best = ctx.mono_get(self.h.best);
                ctx.exit(TspResult {
                    best,
                    nodes: nodes.value,
                });
            }
            _ => unreachable!("unknown entry point {ep:?}"),
        }
    }
}

/// One node of the branch & bound tree.
pub struct TspChare;

impl ChareInit for TspChare {
    type Seed = NodeSeed;
    fn create(seed: NodeSeed, ctx: &mut Ctx) -> Self {
        let h = seed.h;
        let inst = ctx.read_only(h.ro);
        let n = inst.n;
        let full = (1u32 << n) - 1;
        let best = ctx.mono_get(h.best);
        ctx.charge(work(1, TSP_NODE_NS));

        if seed.visited == full {
            ctx.acc_add(h.nodes, 1);
            let tour = seed.cost + inst.d(seed.city as usize, 0) as u64;
            if tour < best {
                ctx.mono_update(h.best, tour);
            }
            ctx.destroy_self();
            return TspChare;
        }
        if inst.lower_bound(seed.visited, seed.city as usize, seed.cost) >= best {
            ctx.acc_add(h.nodes, 1);
            ctx.destroy_self();
            return TspChare;
        }
        let remaining = n as u32 - seed.visited.count_ones();
        if remaining <= h.seq_tail as u32 {
            let mut local_best = best;
            let nodes = solve_from(
                &inst,
                seed.visited,
                seed.city as usize,
                seed.cost,
                &mut local_best,
            );
            ctx.charge(work(nodes, TSP_NODE_NS));
            ctx.acc_add(h.nodes, nodes);
            if local_best < best {
                ctx.mono_update(h.best, local_best);
            }
            ctx.destroy_self();
            return TspChare;
        }

        ctx.acc_add(h.nodes, 1);
        let mut children: Vec<usize> = (0..n).filter(|&j| seed.visited & (1 << j) == 0).collect();
        children.sort_by_key(|&j| inst.d(seed.city as usize, j));
        for (rank, next) in children.into_iter().enumerate() {
            let cost = seed.cost + inst.d(seed.city as usize, next) as u64;
            if cost >= best {
                continue;
            }
            let prio = seed.prio.child(rank as u32, 5);
            ctx.create_prio(
                h.node,
                NodeSeed {
                    visited: seed.visited | (1 << next),
                    city: next as u8,
                    cost,
                    prio: prio.clone(),
                    h,
                },
                Priority::Bits(prio),
            );
        }
        ctx.destroy_self();
        TspChare
    }
}

impl Chare for TspChare {
    fn entry(&mut self, _ep: EpId, _msg: MsgBody, _ctx: &mut Ctx) {
        unreachable!("TspChare receives no messages")
    }
}

/// Build the TSP program, to run under [`APP`]'s strategies (bitvector
/// priorities + ACWN; the speedup tables run this app under `Random`
/// instead, see `ck_bench`) unless told otherwise ([`Program::with_opts`]).
pub fn build(params: TspParams) -> Program {
    let inst = TspInstance::random(params.n as usize, params.seed);
    let mut b = ProgramBuilder::new();
    let node = b.chare::<TspChare>();
    let main = b.chare::<TspMain>();
    let ro = b.read_only(inst);
    let best = b.monotonic::<MinBoundU64>();
    let nodes = b.accumulator::<SumU64>();
    b.wire::<MainSeed>();
    b.wire::<NodeSeed>();
    b.wire::<TspResult>();
    b.wire::<AccResult<u64>>();
    b.queueing(APP.queueing).balance(APP.balance);
    b.main(
        main,
        MainSeed {
            h: Handles {
                ro,
                node,
                best,
                nodes,
                seq_tail: params.seq_tail,
            },
        },
    );
    b.build()
}

/// Spec keys: `n`, `seed`, `seq_tail`.
pub fn params(a: &mut Args) -> Result<TspParams, SpecError> {
    let d = TspParams::default();
    Ok(TspParams {
        n: a.key("n", d.n)?,
        seed: a.key("seed", d.seed)?,
        seq_tail: a.key("seq_tail", d.seq_tail)?,
    })
}

/// The registry entry.
pub const APP: App = App {
    name: "tsp",
    queueing: QueueingStrategy::BitvecPriority,
    balance: BalanceStrategy::acwn(),
    ends_by_qd: true,
    test_spec: "tsp:n=9,seed=3,seq_tail=5",
    params: |a| params(a).map(drop),
    build: |a| Ok(build(params(a)?)),
    // Optimal cost is schedule-independent; node counts are not.
    oracle: |a, _| {
        let p = params(a)?;
        Ok(Answer::Int(tsp_seq(&TspInstance::random(p.n as usize, p.seed)).0))
    },
    answer: |rep| rep.result_ref::<TspResult>().map(|r| Answer::Int(r.best)),
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_is_symmetric_with_zero_diagonal() {
        let inst = TspInstance::random(10, 3);
        for i in 0..10 {
            assert_eq!(inst.d(i, i), 0);
            for j in 0..10 {
                assert_eq!(inst.d(i, j), inst.d(j, i));
            }
        }
    }

    #[test]
    fn greedy_bounds_optimal() {
        let inst = TspInstance::random(10, 3);
        let (best, _) = tsp_seq(&inst);
        assert!(best <= inst.greedy_tour());
        assert!(best > 0);
    }

    #[test]
    fn lower_bound_is_admissible_at_root() {
        let inst = TspInstance::random(11, 5);
        let (best, _) = tsp_seq(&inst);
        assert!(inst.lower_bound(1, 0, 0) <= best);
    }

    #[test]
    fn parallel_finds_optimal_all_queueing_strategies() {
        let params = TspParams {
            n: 10,
            seed: 11,
            seq_tail: 5,
        };
        let inst = TspInstance::random(10, 11);
        let (want, _) = tsp_seq(&inst);
        for q in QueueingStrategy::ALL {
            let prog = build(params).with_opts(|o| {
                o.queueing = q;
                o.balance = BalanceStrategy::Random;
            });
            let mut rep = prog.run_sim_preset(8, MachinePreset::NcubeLike);
            let got = rep.take_result::<TspResult>().expect("result");
            assert_eq!(got.best, want, "queueing {q:?}");
            assert!(got.nodes > 0);
        }
    }

    #[test]
    fn priorities_reduce_search_space_vs_fifo() {
        let params = TspParams {
            n: 12,
            seed: 23,
            seq_tail: 6,
        };
        let prio = build(params).with_opts(|o| o.balance = BalanceStrategy::Random);
        let fifo = prio.with_opts(|o| o.queueing = QueueingStrategy::Fifo);
        let n_fifo = {
            let mut r = fifo.run_sim_preset(8, MachinePreset::NcubeLike);
            r.take_result::<TspResult>().unwrap().nodes
        };
        let n_prio = {
            let mut r = prio.run_sim_preset(8, MachinePreset::NcubeLike);
            r.take_result::<TspResult>().unwrap().nodes
        };
        assert!(
            n_prio <= n_fifo,
            "bitvector priorities should not expand more nodes: prio={n_prio} fifo={n_fifo}"
        );
    }

    #[test]
    fn works_on_threads() {
        let params = TspParams {
            n: 10,
            seed: 11,
            seq_tail: 6,
        };
        let inst = TspInstance::random(10, 11);
        let (want, _) = tsp_seq(&inst);
        let prog = build(params);
        let mut rep = prog.run_threads(4);
        assert!(!rep.timed_out);
        assert_eq!(rep.take_result::<TspResult>().unwrap().best, want);
    }
}
