//! Pipelined multi-table fill — the staged-dependency workload.
//!
//! `stages` tables of `blocks` row-blocks each are filled in dependency
//! order: stage 0 is seeded directly, and block `b` of stage `s > 0` is
//! a row-wise hash over blocks `[b-width+1, b]` of stage `s-1` (clipped
//! at the left edge) — the shape of a proof-system trace: each table
//! derived from a sliding window of the previous one. Completed blocks
//! are published into the distributed table; consumers pull their
//! dependency window back out, and a stage's blocks are deleted as soon
//! as the following stage has completely consumed them (bounded-memory
//! streaming — at most two stages are ever resident).
//!
//! The scheduling story is the point: every block chare carries the
//! lexicographic priority `(stage, block)` via [`BitPrio::from_path`].
//! Under FIFO queueing, downstream blocks run as soon as their window
//! closes, interleaving stages; under bitvector-priority queueing the
//! kernel drains early stages first, which visibly shifts per-stage
//! completion times while leaving the digest byte-identical (Table H
//! renders both profiles).
//!
//! The serial reference ([`fill_seq`]) is the oracle on every backend.

use chare_kernel::prelude::*;

use crate::costs::{work, FILL_ROW_NS};
use crate::hashes::{mix64, row_mix};
use crate::registry::{Answer, App};
use crate::spec::{Args, SpecError};

/// Main chare entry points.
pub const EP_DONE: EpId = EpId(1);
pub const EP_DELETED: EpId = EpId(2);
/// Block chare entry points.
pub const EP_DEP: EpId = EpId(1);
pub const EP_PUT: EpId = EpId(2);

/// Parameters of a pipelined fill.
#[derive(Clone, Copy, Debug)]
pub struct FillParams {
    /// Number of dependent stages (>= 1).
    pub stages: u32,
    /// Row-blocks per stage (>= 1).
    pub blocks: u32,
    /// Rows per block (>= 1).
    pub rows: u32,
    /// Dependency-window width: block `b` of a stage reads blocks
    /// `[b-width+1, b]` of the previous stage (>= 1).
    pub width: u32,
    /// Seed mixed into every stage-0 row.
    pub seed: u64,
}

impl Default for FillParams {
    fn default() -> Self {
        FillParams { stages: 4, blocks: 16, rows: 32, width: 2, seed: 1 }
    }
}

impl FillParams {
    fn validate(&self) {
        assert!(self.stages >= 1, "need at least one stage");
        assert!(self.blocks >= 1, "need at least one block");
        assert!(self.rows >= 1, "need at least one row");
        assert!(self.width >= 1, "need a dependency window of at least 1");
    }
}

/// Program result: the fill digest plus per-stage completion times
/// (simulated ns on the simulator, wall-clock ns elsewhere — only the
/// digest is backend-portable).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FillResult {
    /// XOR of every block digest — order-independent, so arrival order
    /// doesn't matter, while each block digest pins its exact content
    /// and position.
    pub digest: u64,
    /// Completion time of each stage (last block done), in ns.
    pub stage_done: Vec<u64>,
}

wire_struct!(FillParams { stages, blocks, rows, width, seed });
wire_struct!(FillResult { digest, stage_done });

// -- Serial reference -----------------------------------------------------

/// Dependency blocks of `(stage, block)`: the previous stage's window
/// `[block-width+1, block]`, ascending.
pub fn dep_blocks(block: u32, width: u32) -> std::ops::RangeInclusive<u32> {
    block.saturating_sub(width - 1)..=block
}

/// The base hash a block's rows start from.
fn base_hash(seed: u64, stage: u32, block: u32, row: u32) -> u64 {
    mix64(seed ^ ((stage as u64) << 40) ^ ((block as u64) << 20) ^ row as u64)
}

/// Compute one block's rows from its (ascending) dependency rows.
pub fn block_rows(params: &FillParams, stage: u32, block: u32, deps: &[&[u64]]) -> Vec<u64> {
    (0..params.rows)
        .map(|r| {
            let mut acc = base_hash(params.seed, stage, block, r);
            for dep in deps {
                acc = row_mix(acc, dep[r as usize]);
            }
            acc
        })
        .collect()
}

/// Digest of one completed block (position- and content-sensitive).
pub fn block_digest(stage: u32, block: u32, rows: &[u64]) -> u64 {
    let mut d = mix64(((stage as u64) << 32) | block as u64);
    for &row in rows {
        d = row_mix(d, row);
    }
    d
}

/// Serial reference: fill every stage in order, returning the digest
/// and each stage's full row matrix (for the proptests).
pub fn fill_seq_full(params: &FillParams) -> (u64, Vec<Vec<Vec<u64>>>) {
    params.validate();
    let mut digest = 0u64;
    let mut stages: Vec<Vec<Vec<u64>>> = Vec::new();
    for s in 0..params.stages {
        let mut stage_rows: Vec<Vec<u64>> = Vec::new();
        for b in 0..params.blocks {
            let rows = if s == 0 {
                block_rows(params, s, b, &[])
            } else {
                let prev = &stages[s as usize - 1];
                let deps: Vec<&[u64]> =
                    dep_blocks(b, params.width).map(|d| prev[d as usize].as_slice()).collect();
                block_rows(params, s, b, &deps)
            };
            digest ^= block_digest(s, b, &rows);
            stage_rows.push(rows);
        }
        stages.push(stage_rows);
    }
    (digest, stages)
}

/// Serial reference digest.
pub fn fill_seq(params: &FillParams) -> u64 {
    fill_seq_full(params).0
}

// -- Messages -------------------------------------------------------------

/// Table key of `(stage, block)`.
fn key(stage: u32, block: u32) -> u64 {
    ((stage as u64) << 32) | block as u64
}

/// Seed of the main coordinator.
#[derive(Clone)]
pub struct MainSeed {
    params: FillParams,
    block_kind: Kind<BlockChare>,
    table: TableRef<Vec<u64>>,
}
message!(MainSeed);

/// Seed of one block chare.
#[derive(Clone)]
pub struct BlockSeed {
    params: FillParams,
    stage: u32,
    block: u32,
    main: ChareId,
    table: TableRef<Vec<u64>>,
}
message!(BlockSeed);

/// A block finished: its digest, for the main coordinator's fold.
#[derive(Clone, Copy)]
pub struct BlockDone {
    stage: u32,
    block: u32,
    digest: u64,
}
message!(BlockDone);

wire_struct!(MainSeed { params, block_kind, table });
wire_struct!(BlockSeed { params, stage, block, main, table });
wire_struct!(BlockDone { stage, block, digest });

// -- Chares ---------------------------------------------------------------

/// The coordinator: releases blocks when their dependency window
/// closes, folds digests, times stage completion, and garbage-collects
/// consumed stages from the table.
pub struct FillMain {
    params: FillParams,
    block_kind: Kind<BlockChare>,
    table: TableRef<Vec<u64>>,
    /// Outstanding dependency count per `(stage, block)`, row-major.
    deps_left: Vec<u32>,
    /// Blocks not yet done, per stage.
    stage_left: Vec<u32>,
    /// `now_ns` when each stage completed.
    stage_done: Vec<u64>,
    digest: u64,
    blocks_left: u64,
    deletes_left: u64,
}

impl FillMain {
    fn idx(&self, stage: u32, block: u32) -> usize {
        (stage * self.params.blocks + block) as usize
    }

    fn release(&self, stage: u32, block: u32, ctx: &mut Ctx) {
        let me = ctx.self_id();
        ctx.create_prio(
            self.block_kind,
            BlockSeed {
                params: self.params,
                stage,
                block,
                main: me,
                table: self.table,
            },
            Priority::Bits(BitPrio::from_path(&[stage, block])),
        );
    }

    fn maybe_exit(&mut self, ctx: &mut Ctx) {
        if self.blocks_left == 0 && self.deletes_left == 0 {
            ctx.exit(FillResult {
                digest: self.digest,
                stage_done: self.stage_done.clone(),
            });
        }
    }
}

impl ChareInit for FillMain {
    type Seed = MainSeed;
    fn create(seed: MainSeed, ctx: &mut Ctx) -> Self {
        let p = seed.params;
        p.validate();
        let mut deps_left = vec![0u32; (p.stages * p.blocks) as usize];
        for s in 1..p.stages {
            for b in 0..p.blocks {
                deps_left[(s * p.blocks + b) as usize] = dep_blocks(b, p.width).count() as u32;
            }
        }
        let main = FillMain {
            params: p,
            block_kind: seed.block_kind,
            table: seed.table,
            deps_left,
            stage_left: vec![p.blocks; p.stages as usize],
            stage_done: vec![0; p.stages as usize],
            digest: 0,
            blocks_left: p.stages as u64 * p.blocks as u64,
            deletes_left: p.stages as u64 * p.blocks as u64,
        };
        // Release stage 0 in a seed-derived shuffled order. Under FIFO
        // the shuffle *is* the drain order; under bitvector priorities
        // the kernel re-sorts the backlog to (stage, block) — the
        // contrast Table H's completion profiles render.
        let mut order: Vec<u32> = (0..p.blocks).collect();
        order.sort_by_key(|&b| mix64(p.seed ^ (0xB10C_0000_0000 + b as u64)));
        for b in order {
            main.release(0, b, ctx);
        }
        main
    }
}

impl Chare for FillMain {
    fn entry(&mut self, ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
        match ep {
            EP_DONE => {
                let done = cast::<BlockDone>(msg);
                self.digest ^= done.digest;
                self.blocks_left -= 1;
                let s = done.stage;
                self.stage_left[s as usize] -= 1;
                if self.stage_left[s as usize] == 0 {
                    self.stage_done[s as usize] = ctx.now_ns();
                    // Every consumer of stage s-1 has now finished (a
                    // block only reports done after its put is acked),
                    // so the previous stage can be garbage-collected.
                    // The final stage is collected too: the digest is
                    // the product; the tables are scratch space.
                    let me = ctx.self_id();
                    let last = s + 1 == self.params.stages;
                    let mut gc_stages: Vec<u32> = Vec::new();
                    if s > 0 {
                        gc_stages.push(s - 1);
                    }
                    if last {
                        gc_stages.push(s);
                    }
                    for &g in &gc_stages {
                        for b in 0..self.params.blocks {
                            ctx.table_delete(
                                self.table,
                                key(g, b),
                                Some(Notify::Chare(me, EP_DELETED)),
                            );
                        }
                    }
                }
                // Open the next stage's windows.
                if s + 1 < self.params.stages {
                    for nb in done.block..(done.block + self.params.width).min(self.params.blocks)
                    {
                        let i = self.idx(s + 1, nb);
                        self.deps_left[i] -= 1;
                        if self.deps_left[i] == 0 {
                            self.release(s + 1, nb, ctx);
                        }
                    }
                }
                self.maybe_exit(ctx);
            }
            EP_DELETED => {
                let ack = cast::<TableAck>(msg);
                assert!(ack.existed, "deleted a block that was never published");
                self.deletes_left -= 1;
                self.maybe_exit(ctx);
            }
            _ => unreachable!("unexpected entry point {ep:?}"),
        }
    }
}

/// One block of one stage: pulls its dependency window, computes its
/// rows, publishes them, and reports its digest.
pub struct BlockChare {
    seed: BlockSeed,
    /// Dependency rows by window offset.
    deps: Vec<Option<Vec<u64>>>,
    pending: u32,
    digest: u64,
}

impl BlockChare {
    fn compute_and_put(&mut self, ctx: &mut Ctx) {
        let p = &self.seed.params;
        let deps: Vec<&[u64]> =
            self.deps.iter().map(|d| d.as_ref().expect("missing dep").as_slice()).collect();
        let units = p.rows as u64 * (deps.len() as u64 + 1);
        ctx.charge(work(units, FILL_ROW_NS));
        let rows = block_rows(p, self.seed.stage, self.seed.block, &deps);
        self.digest = block_digest(self.seed.stage, self.seed.block, &rows);
        self.deps.clear();
        let me = ctx.self_id();
        // The put must be acked before the done report: the report is
        // what releases dependent blocks, so their gets can never race
        // this put.
        ctx.table_put(
            self.seed.table,
            key(self.seed.stage, self.seed.block),
            rows,
            Some(Notify::Chare(me, EP_PUT)),
        );
    }
}

impl ChareInit for BlockChare {
    type Seed = BlockSeed;
    fn create(seed: BlockSeed, ctx: &mut Ctx) -> Self {
        let me = ctx.self_id();
        let mut chare = BlockChare { seed, deps: Vec::new(), pending: 0, digest: 0 };
        if chare.seed.stage == 0 {
            chare.compute_and_put(ctx);
            return chare;
        }
        let window = dep_blocks(chare.seed.block, chare.seed.params.width);
        chare.deps = vec![None; window.clone().count()];
        chare.pending = chare.deps.len() as u32;
        for d in window {
            ctx.table_get(chare.seed.table, key(chare.seed.stage - 1, d), Notify::Chare(me, EP_DEP));
        }
        chare
    }
}

impl Chare for BlockChare {
    fn entry(&mut self, ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
        match ep {
            EP_DEP => {
                let got = cast::<TableGot<Vec<u64>>>(msg);
                let rows = got.value.expect("dependency block missing from table");
                let first = *dep_blocks(self.seed.block, self.seed.params.width).start();
                let offset = ((got.key & 0xFFFF_FFFF) as u32 - first) as usize;
                assert!(self.deps[offset].is_none(), "dep {} pulled twice", got.key);
                self.deps[offset] = Some(rows);
                self.pending -= 1;
                if self.pending == 0 {
                    self.compute_and_put(ctx);
                }
            }
            EP_PUT => {
                let _ack = cast::<TableAck>(msg);
                ctx.send(
                    self.seed.main,
                    EP_DONE,
                    BlockDone {
                        stage: self.seed.stage,
                        block: self.seed.block,
                        digest: self.digest,
                    },
                );
                ctx.destroy_self();
            }
            _ => unreachable!("unexpected entry point {ep:?}"),
        }
    }
}

// -- Program construction -------------------------------------------------

/// Build the pipelined fill, to run under [`APP`]'s strategies (bitvector
/// `(stage, block)` priorities + random placement) unless told otherwise
/// ([`Program::with_opts`]).
pub fn build(params: FillParams) -> Program {
    let mut b = ProgramBuilder::new();
    let block_kind = b.chare::<BlockChare>();
    let main = b.chare::<FillMain>();
    let table = b.table::<Vec<u64>>();
    b.wire::<FillParams>();
    b.wire::<FillResult>();
    b.wire::<MainSeed>();
    b.wire::<BlockSeed>();
    b.wire::<BlockDone>();
    b.wire::<Vec<u64>>();
    b.wire::<TableGot<Vec<u64>>>();
    b.queueing(APP.queueing).balance(APP.balance);
    b.main(main, MainSeed { params, block_kind, table });
    b.build()
}

/// Spec keys: `stages`, `blocks`, `rows`, `width`, `seed`.
pub fn params(a: &mut Args) -> Result<FillParams, SpecError> {
    let d = FillParams::default();
    Ok(FillParams {
        stages: a.key("stages", d.stages)?,
        blocks: a.key("blocks", d.blocks)?,
        rows: a.key("rows", d.rows)?,
        width: a.key("width", d.width)?,
        seed: a.key("seed", d.seed)?,
    })
}

/// The registry entry.
pub const APP: App = App {
    name: "tablefill",
    queueing: QueueingStrategy::BitvecPriority,
    balance: BalanceStrategy::Random,
    ends_by_qd: false,
    test_spec: "tablefill:stages=3,blocks=4,rows=8,width=2,seed=5",
    params: |a| params(a).map(drop),
    build: |a| Ok(build(params(a)?)),
    // The digest is schedule-independent; the stage-completion profile
    // is wall-clock on the real backends and is not part of the answer.
    oracle: |a, _| Ok(Answer::Int(fill_seq(&params(a)?))),
    answer: |rep| rep.result_ref::<FillResult>().map(|r| Answer::Int(r.digest)),
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_reference_is_stable() {
        let p = FillParams::default();
        assert_eq!(fill_seq(&p), fill_seq(&p));
        // Every knob moves the digest.
        assert_ne!(fill_seq(&p), fill_seq(&FillParams { seed: 2, ..p }));
        assert_ne!(fill_seq(&p), fill_seq(&FillParams { width: 3, ..p }));
        assert_ne!(fill_seq(&p), fill_seq(&FillParams { stages: 3, ..p }));
        assert_ne!(fill_seq(&p), fill_seq(&FillParams { rows: 31, ..p }));
    }

    #[test]
    fn dep_window_clips_at_the_left_edge() {
        assert_eq!(dep_blocks(0, 3).collect::<Vec<_>>(), vec![0]);
        assert_eq!(dep_blocks(1, 3).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(dep_blocks(5, 3).collect::<Vec<_>>(), vec![3, 4, 5]);
        assert_eq!(dep_blocks(5, 1).collect::<Vec<_>>(), vec![5]);
    }

    #[test]
    fn parallel_matches_serial_on_sim() {
        let p = FillParams { stages: 3, blocks: 8, rows: 8, width: 2, seed: 7 };
        for balance in [
            BalanceStrategy::Local,
            BalanceStrategy::Random,
            BalanceStrategy::acwn(),
        ] {
            let prog = build(p).with_opts(|o| o.balance = balance.clone());
            let mut rep = prog.run_sim_preset(8, MachinePreset::NcubeLike);
            let got = rep.take_result::<FillResult>().expect("result");
            assert_eq!(got.digest, fill_seq(&p), "balance {balance:?}");
            assert_eq!(got.stage_done.len(), 3);
        }
    }

    #[test]
    fn queueing_strategy_changes_profile_not_digest() {
        let p = FillParams { stages: 4, blocks: 24, rows: 16, width: 1, seed: 1 };
        let run = |q| {
            let prog = build(p).with_opts(|o| o.queueing = q);
            let mut rep = prog.run_sim_preset(4, MachinePreset::NcubeLike);
            rep.take_result::<FillResult>().expect("result")
        };
        let fifo = run(QueueingStrategy::Fifo);
        let bitvec = run(QueueingStrategy::BitvecPriority);
        assert_eq!(fifo.digest, bitvec.digest);
        // The pipeline profile is the observable difference: priority
        // queueing drains stage 0 strictly earlier (relative to the
        // run) than FIFO's stage-interleaved schedule.
        assert_ne!(
            fifo.stage_done, bitvec.stage_done,
            "expected FIFO and bitvector priority to schedule differently"
        );
    }

    #[test]
    fn edge_shapes_run_on_sim() {
        for p in [
            FillParams { stages: 1, blocks: 4, rows: 4, width: 2, seed: 1 },
            FillParams { stages: 3, blocks: 1, rows: 2, width: 2, seed: 1 },
            FillParams { stages: 2, blocks: 5, rows: 1, width: 99, seed: 1 },
        ] {
            let mut rep = build(p).run_sim_preset(4, MachinePreset::NcubeLike);
            let got = rep.take_result::<FillResult>().expect("result");
            assert_eq!(got.digest, fill_seq(&p), "{p:?}");
        }
    }

    #[test]
    fn works_on_threads() {
        let p = FillParams { stages: 3, blocks: 6, rows: 8, width: 2, seed: 4 };
        let mut rep = build(p).run_threads(4);
        assert!(!rep.timed_out);
        assert_eq!(rep.take_result::<FillResult>().expect("result").digest, fill_seq(&p));
    }

    #[test]
    fn deterministic_on_sim() {
        let p = FillParams { stages: 3, blocks: 8, rows: 8, width: 2, seed: 2 };
        let prog = build(p);
        let a = prog.run_sim_preset(8, MachinePreset::NcubeLike);
        let b = prog.run_sim_preset(8, MachinePreset::NcubeLike);
        assert_eq!(a.time_ns, b.time_ns);
    }
}
