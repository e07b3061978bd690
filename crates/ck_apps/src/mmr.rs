//! Merkle-mountain-range construction — the hash-tree workload.
//!
//! An MMR over `n` leaves is a forest of perfect binary trees ("peaks"),
//! one per set bit of `n`, over consecutive leaf ranges; the published
//! root "bags" the peaks left to right. The parallel build exercises the
//! kernel surfaces none of the divide-and-conquer apps touch at scale:
//!
//! * **Distributed table** — producer chares hash leaf blocks and stream
//!   the digests through the table (`table_put`, one grain-sized block
//!   per entry — per-leaf round trips would drown in the era's ~150 us
//!   per-message software overhead); subtree chares later pull their
//!   covering blocks back out (`table_get`). The table is the only
//!   rendezvous between producers and consumers.
//! * **Bitvector priorities** — each peak's subtree chares carry a
//!   [`BitPrio::from_path`] priority extended one bit per split, so
//!   under priority queueing the forest drains leftmost-peak first.
//! * **Write-once variable** — the bagged root is published with
//!   `write_once`; a verifier BOC on every PE reads its replica and
//!   votes a checksum into an accumulator, proving the replication
//!   actually delivered one identical root per PE.
//!
//! The serial reference ([`mmr_root_seq`]) is the oracle: every backend
//! must produce the byte-identical root.

use chare_kernel::prelude::*;

use crate::costs::{work, MMR_LEAF_NS, MMR_NODE_NS};
use crate::hashes::{leaf_digest, node_digest, Digest};
use crate::registry::{Answer, App};
use crate::spec::{Args, SpecError};

/// Modulus for the per-PE verification checksum (keeps `npes` votes far
/// from u64 overflow).
const CHECK_MOD: u64 = 1_000_003;

/// Main chare entry points.
pub const EP_BLOCK: EpId = EpId(1);
pub const EP_PEAK: EpId = EpId(2);
pub const EP_PUBLISHED: EpId = EpId(3);
pub const EP_VOTE: EpId = EpId(4);
pub const EP_TOTAL: EpId = EpId(5);
/// Producer entry point: one `TableAck` per streamed leaf.
pub const EP_ACK: EpId = EpId(1);
/// Subtree entry points.
pub const EP_LEAF: EpId = EpId(1);
pub const EP_CHILD: EpId = EpId(2);
/// Verifier-branch entry point.
pub const EP_CHECK: EpId = EpId(1);

/// Parameters of an MMR build.
#[derive(Clone, Copy, Debug)]
pub struct MmrParams {
    /// Number of leaves (any value, including 0).
    pub leaves: u64,
    /// Subtrees with `span <= grain` hash their range inside one chare;
    /// leaf producers also stream `grain` leaves per chare.
    pub grain: u64,
    /// Seed mixed into every leaf hash.
    pub seed: u64,
}

impl Default for MmrParams {
    fn default() -> Self {
        MmrParams { leaves: 512, grain: 32, seed: 1 }
    }
}

// -- Serial reference -----------------------------------------------------

/// Peak decomposition: one `(first_leaf, span)` per set bit of `leaves`,
/// most significant first, over consecutive leaf ranges.
pub fn peak_spans(leaves: u64) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let mut start = 0u64;
    for bit in (0..64).rev() {
        if (leaves >> bit) & 1 == 1 {
            let span = 1u64 << bit;
            out.push((start, span));
            start += span;
        }
    }
    out
}

/// Digest of the perfect subtree over leaves `[start, start + span)`.
pub fn subtree_digest_seq(seed: u64, start: u64, span: u64) -> Digest {
    if span == 1 {
        leaf_digest(seed, start)
    } else {
        let half = span / 2;
        node_digest(
            subtree_digest_seq(seed, start, half),
            subtree_digest_seq(seed, start + half, half),
        )
    }
}

/// Serial reference: the peak digests, leftmost first.
pub fn mmr_peaks_seq(seed: u64, leaves: u64) -> Vec<Digest> {
    peak_spans(leaves)
        .into_iter()
        .map(|(start, span)| subtree_digest_seq(seed, start, span))
        .collect()
}

/// Bag peaks left to right into the MMR root.
pub fn bag_peaks(peaks: &[Digest]) -> Digest {
    match peaks.split_first() {
        None => Digest::empty(),
        Some((first, rest)) => rest.iter().fold(*first, |acc, p| node_digest(acc, *p)),
    }
}

/// Serial reference root.
pub fn mmr_root_seq(seed: u64, leaves: u64) -> Digest {
    bag_peaks(&mmr_peaks_seq(seed, leaves))
}

// -- Messages and handles -------------------------------------------------

/// Program result: the bagged root plus the peak count (a structural
/// fingerprint of the forest shape).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MmrResult {
    /// The published MMR root.
    pub root: Digest,
    /// Number of peaks (`leaves.count_ones()`).
    pub peaks: u32,
}

/// Handles every phase of the build needs (all `Copy` id wrappers).
#[derive(Clone, Copy)]
struct Handles {
    producer: Kind<Producer>,
    subtree: Kind<SubtreeChare>,
    table: TableRef<Vec<Digest>>,
    verify: Boc<VerifyBranch>,
    check: Acc<SumU64>,
}

/// Seed of the main chare.
#[derive(Clone)]
pub struct MainSeed {
    params: MmrParams,
    handles: Handles,
}
message!(MainSeed);

/// Seed of a leaf producer: hash leaves `[first, first + count)` into
/// one digest block and stream it through the table under its block
/// index (`first / grain`).
#[derive(Clone)]
pub struct ProducerSeed {
    first: u64,
    count: u64,
    grain: u64,
    seed: u64,
    main: ChareId,
    table: TableRef<Vec<Digest>>,
}
message!(ProducerSeed);

/// Seed of a subtree chare over leaves `[start, start + span)`.
#[derive(Clone)]
pub struct SubtreeSeed {
    start: u64,
    span: u64,
    grain: u64,
    seed: u64,
    /// Who to report the subtree digest to, and at which entry point
    /// (`EP_PEAK` on the main chare for peaks, `EP_CHILD` on the parent
    /// subtree chare otherwise).
    parent: ChareId,
    report_ep: EpId,
    /// Peak index for peaks; 0 = left / 1 = right child below that.
    slot: u32,
    prio: BitPrio,
    subtree: Kind<SubtreeChare>,
    table: TableRef<Vec<Digest>>,
}
message!(SubtreeSeed);

/// A completed subtree (or peak) digest.
#[derive(Clone, Copy)]
pub struct SubDone {
    slot: u32,
    digest: Digest,
}
message!(SubDone);

/// Broadcast to the verifier BOC once the root is replicated.
#[derive(Clone, Copy)]
pub struct CheckMsg {
    wo: WoId,
    main: ChareId,
}
message!(CheckMsg);

wire_struct!(MmrParams { leaves, grain, seed });
wire_struct!(MmrResult { root, peaks });
wire_struct!(Handles { producer, subtree, table, verify, check });
wire_struct!(MainSeed { params, handles });
wire_struct!(ProducerSeed { first, count, grain, seed, main, table });
wire_struct!(SubtreeSeed {
    start,
    span,
    grain,
    seed,
    parent,
    report_ep,
    slot,
    prio,
    subtree,
    table
});
wire_struct!(SubDone { slot, digest });
wire_struct!(CheckMsg { wo, main });

// -- Chares ---------------------------------------------------------------

/// The main chare: streams leaves, gates the forest build on table
/// completion, bags the peaks, publishes and verifies the root.
pub struct MmrMain {
    params: MmrParams,
    handles: Handles,
    acked: u64,
    peaks: Vec<Option<Digest>>,
    peaks_pending: usize,
    root: Digest,
    votes: usize,
    wo_ready: bool,
}

impl MmrMain {
    /// All leaf puts are acknowledged: create one prioritized subtree
    /// chare per peak. Gating on the acks is what makes the later
    /// `table_get`s safe — a get can never race its put.
    fn start_peaks(&mut self, ctx: &mut Ctx) {
        let spans = peak_spans(self.params.leaves);
        self.peaks = vec![None; spans.len()];
        self.peaks_pending = spans.len();
        let me = ctx.self_id();
        for (i, (start, span)) in spans.into_iter().enumerate() {
            let prio = BitPrio::from_path(&[i as u32]);
            ctx.create_prio(
                self.handles.subtree,
                SubtreeSeed {
                    start,
                    span,
                    grain: self.params.grain,
                    seed: self.params.seed,
                    parent: me,
                    report_ep: EP_PEAK,
                    slot: i as u32,
                    prio: prio.clone(),
                    subtree: self.handles.subtree,
                    table: self.handles.table,
                },
                Priority::Bits(prio),
            );
        }
    }

    /// All peaks arrived: bag them and publish the root.
    fn publish(&mut self, ctx: &mut Ctx) {
        let peaks: Vec<Digest> = self.peaks.iter().map(|p| p.expect("peak missing")).collect();
        ctx.charge(work(peaks.len() as u64, MMR_NODE_NS));
        self.root = bag_peaks(&peaks);
        let me = ctx.self_id();
        ctx.write_once(self.root, Notify::Chare(me, EP_PUBLISHED));
    }

    /// Collect the verification accumulator once replication finished
    /// *and* every PE's branch has voted (the votes gate the collect, so
    /// it can never race an outstanding `acc_add`).
    fn maybe_collect(&mut self, ctx: &mut Ctx) {
        if self.wo_ready && self.votes == ctx.npes() {
            let me = ctx.self_id();
            ctx.acc_collect(self.handles.check, Notify::Chare(me, EP_TOTAL));
        }
    }
}

impl ChareInit for MmrMain {
    type Seed = MainSeed;
    fn create(seed: MainSeed, ctx: &mut Ctx) -> Self {
        let mut main = MmrMain {
            params: seed.params,
            handles: seed.handles,
            acked: 0,
            peaks: Vec::new(),
            peaks_pending: 0,
            root: Digest::empty(),
            votes: 0,
            wo_ready: false,
        };
        assert!(main.params.grain >= 1, "grain must be at least 1");
        if main.params.leaves == 0 {
            // Empty tree: nothing to stream or combine; publish the
            // canonical empty digest and still run the verification
            // round so every backend exercises the same protocol tail.
            main.publish(ctx);
            return main;
        }
        let me = ctx.self_id();
        let mut first = 0u64;
        while first < main.params.leaves {
            let count = main.params.grain.min(main.params.leaves - first);
            ctx.create(
                main.handles.producer,
                ProducerSeed {
                    first,
                    count,
                    grain: main.params.grain,
                    seed: main.params.seed,
                    main: me,
                    table: main.handles.table,
                },
            );
            first += count;
        }
        main
    }
}

impl Chare for MmrMain {
    fn entry(&mut self, ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
        match ep {
            EP_BLOCK => {
                self.acked += cast::<u64>(msg);
                debug_assert!(self.acked <= self.params.leaves);
                if self.acked == self.params.leaves {
                    self.start_peaks(ctx);
                }
            }
            EP_PEAK => {
                let done = cast::<SubDone>(msg);
                let slot = done.slot as usize;
                assert!(self.peaks[slot].is_none(), "peak {slot} reported twice");
                self.peaks[slot] = Some(done.digest);
                self.peaks_pending -= 1;
                if self.peaks_pending == 0 {
                    self.publish(ctx);
                }
            }
            EP_PUBLISHED => {
                let ready = cast::<WoReady>(msg);
                self.wo_ready = true;
                let me = ctx.self_id();
                ctx.broadcast_branch(
                    self.handles.verify,
                    EP_CHECK,
                    CheckMsg { wo: ready.id, main: me },
                );
                self.maybe_collect(ctx);
            }
            EP_VOTE => {
                self.votes += cast::<u64>(msg) as usize;
                self.maybe_collect(ctx);
            }
            EP_TOTAL => {
                let total = cast::<AccResult<u64>>(msg).value;
                let expect = ctx.npes() as u64 * (self.root.fold() % CHECK_MOD);
                assert_eq!(
                    total, expect,
                    "write-once replication delivered a diverging root"
                );
                ctx.exit(MmrResult {
                    root: self.root,
                    peaks: self.params.leaves.count_ones(),
                });
            }
            _ => unreachable!("unexpected entry point {ep:?}"),
        }
    }
}

/// Hashes one block of leaves and streams it through the distributed
/// table, acking completion to the main chare.
pub struct Producer {
    main: ChareId,
    count: u64,
}

impl ChareInit for Producer {
    type Seed = ProducerSeed;
    fn create(seed: ProducerSeed, ctx: &mut Ctx) -> Self {
        ctx.charge(work(seed.count, MMR_LEAF_NS));
        let block: Vec<Digest> = (seed.first..seed.first + seed.count)
            .map(|leaf| leaf_digest(seed.seed, leaf))
            .collect();
        let me = ctx.self_id();
        ctx.table_put(
            seed.table,
            seed.first / seed.grain,
            block,
            Some(Notify::Chare(me, EP_ACK)),
        );
        Producer { main: seed.main, count: seed.count }
    }
}

impl Chare for Producer {
    fn entry(&mut self, ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
        debug_assert_eq!(ep, EP_ACK);
        let ack = cast::<TableAck>(msg);
        assert!(!ack.existed, "block {} streamed twice", ack.key);
        ctx.send(self.main, EP_BLOCK, self.count);
        ctx.destroy_self();
    }
}

/// One subtree of a peak: splits in half down to the grain, then pulls
/// the digest blocks covering its leaf range from the table and folds
/// them.
pub struct SubtreeChare {
    seed: SubtreeSeed,
    /// Covering digest blocks by block offset (leaf phase only).
    blocks: Vec<Option<Vec<Digest>>>,
    /// First covering block index (leaf phase only).
    first_block: u64,
    /// Child digests (interior phase only): `[left, right]`.
    children: [Option<Digest>; 2],
    pending: u64,
}

impl SubtreeChare {
    fn report(&self, digest: Digest, ctx: &mut Ctx) {
        ctx.send(
            self.seed.parent,
            self.seed.report_ep,
            SubDone { slot: self.seed.slot, digest },
        );
        ctx.destroy_self();
    }

    /// Fold an in-order slice of leaf digests exactly like the serial
    /// recursion does (pairwise halving), so the digest is
    /// shape-identical to [`subtree_digest_seq`].
    fn fold(digests: &[Digest]) -> Digest {
        if digests.len() == 1 {
            digests[0]
        } else {
            let half = digests.len() / 2;
            node_digest(Self::fold(&digests[..half]), Self::fold(&digests[half..]))
        }
    }
}

impl ChareInit for SubtreeChare {
    type Seed = SubtreeSeed;
    fn create(seed: SubtreeSeed, ctx: &mut Ctx) -> Self {
        let me = ctx.self_id();
        if seed.span <= seed.grain {
            // Leaf phase: pull the covering digest blocks from the
            // table (the producers' grain-sized put granularity).
            let first_block = seed.start / seed.grain;
            let last_block = (seed.start + seed.span - 1) / seed.grain;
            let pending = last_block - first_block + 1;
            let blocks = vec![None; pending as usize];
            for block in first_block..=last_block {
                ctx.table_get(seed.table, block, Notify::Chare(me, EP_LEAF));
            }
            return SubtreeChare {
                seed,
                blocks,
                first_block,
                children: [None, None],
                pending,
            };
        }
        // Interior: split in half; the left child extends the priority
        // path with 0, the right with 1, preserving leftmost-first
        // drain order under priority queueing.
        let half = seed.span / 2;
        for (slot, start) in [(0u32, seed.start), (1u32, seed.start + half)] {
            let prio = seed.prio.child_bit(slot == 1);
            ctx.create_prio(
                seed.subtree,
                SubtreeSeed {
                    start,
                    span: half,
                    grain: seed.grain,
                    seed: seed.seed,
                    parent: me,
                    report_ep: EP_CHILD,
                    slot,
                    prio: prio.clone(),
                    subtree: seed.subtree,
                    table: seed.table,
                },
                Priority::Bits(prio),
            );
        }
        SubtreeChare {
            seed,
            blocks: Vec::new(),
            first_block: 0,
            children: [None, None],
            pending: 2,
        }
    }
}

impl Chare for SubtreeChare {
    fn entry(&mut self, ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
        match ep {
            EP_LEAF => {
                let got = cast::<TableGot<Vec<Digest>>>(msg);
                let value = got.value.expect("digest block missing from table");
                let offset = (got.key - self.first_block) as usize;
                assert!(self.blocks[offset].is_none(), "block {} pulled twice", got.key);
                self.blocks[offset] = Some(value);
                self.pending -= 1;
                if self.pending == 0 {
                    let grain = self.seed.grain;
                    let digests: Vec<Digest> = (self.seed.start
                        ..self.seed.start + self.seed.span)
                        .map(|leaf| {
                            let block = &self.blocks[(leaf / grain - self.first_block) as usize];
                            block.as_ref().expect("gap in block range")
                                [(leaf % grain) as usize]
                        })
                        .collect();
                    ctx.charge(work(digests.len() as u64 - 1, MMR_NODE_NS));
                    let digest = Self::fold(&digests);
                    self.report(digest, ctx);
                }
            }
            EP_CHILD => {
                let done = cast::<SubDone>(msg);
                let slot = done.slot as usize;
                assert!(self.children[slot].is_none(), "child {slot} reported twice");
                self.children[slot] = Some(done.digest);
                self.pending -= 1;
                if self.pending == 0 {
                    ctx.charge(work(1, MMR_NODE_NS));
                    let digest = node_digest(
                        self.children[0].expect("left child"),
                        self.children[1].expect("right child"),
                    );
                    self.report(digest, ctx);
                }
            }
            _ => unreachable!("unexpected entry point {ep:?}"),
        }
    }
}

/// Per-PE verifier branch: reads the replicated root and votes a
/// checksum into the accumulator.
pub struct VerifyBranch {
    check: Acc<SumU64>,
}

/// BOC configuration (cloned to every PE at boot).
#[derive(Clone)]
pub struct VerifyCfg {
    check: Acc<SumU64>,
}

impl BranchInit for VerifyBranch {
    type Cfg = VerifyCfg;
    fn create(cfg: VerifyCfg, _ctx: &mut Ctx) -> Self {
        VerifyBranch { check: cfg.check }
    }
}

impl Branch for VerifyBranch {
    fn entry(&mut self, ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
        debug_assert_eq!(ep, EP_CHECK);
        let check = cast::<CheckMsg>(msg);
        let root = ctx.wo_get::<Digest>(check.wo);
        ctx.acc_add(self.check, root.fold() % CHECK_MOD);
        ctx.send(check.main, EP_VOTE, 1u64);
    }
}

// -- Program construction -------------------------------------------------

/// Build the MMR program, to run under [`APP`]'s strategies (bitvector
/// priorities + random placement: the forest drains leftmost-peak first)
/// unless told otherwise ([`Program::with_opts`]).
pub fn build(params: MmrParams) -> Program {
    let mut b = ProgramBuilder::new();
    let producer = b.chare::<Producer>();
    let subtree = b.chare::<SubtreeChare>();
    let main = b.chare::<MmrMain>();
    let table = b.table::<Vec<Digest>>();
    let check = b.accumulator::<SumU64>();
    let verify = b.boc::<VerifyBranch>(VerifyCfg { check });
    b.wire::<Digest>();
    b.wire::<Vec<Digest>>();
    b.wire::<MmrResult>();
    b.wire::<MainSeed>();
    b.wire::<ProducerSeed>();
    b.wire::<SubtreeSeed>();
    b.wire::<SubDone>();
    b.wire::<CheckMsg>();
    b.wire::<TableGot<Vec<Digest>>>();
    b.wire::<AccResult<u64>>();
    b.queueing(APP.queueing).balance(APP.balance);
    b.main(
        main,
        MainSeed {
            params,
            handles: Handles { producer, subtree, table, verify, check },
        },
    );
    b.build()
}

/// Spec keys: `leaves`, `grain`, `seed`.
pub fn params(a: &mut Args) -> Result<MmrParams, SpecError> {
    let d = MmrParams::default();
    Ok(MmrParams {
        leaves: a.key("leaves", d.leaves)?,
        grain: a.key("grain", d.grain)?,
        seed: a.key("seed", d.seed)?,
    })
}

/// The registry entry.
pub const APP: App = App {
    name: "mmr",
    queueing: QueueingStrategy::BitvecPriority,
    balance: BalanceStrategy::Random,
    ends_by_qd: false,
    test_spec: "mmr:leaves=64,grain=8,seed=7",
    params: |a| params(a).map(drop),
    build: |a| Ok(build(params(a)?)),
    oracle: |a, _| {
        let p = params(a)?;
        Ok(Answer::Digest(mmr_root_seq(p.seed, p.leaves)))
    },
    answer: |rep| rep.result_ref::<MmrResult>().map(|r| Answer::Digest(r.root)),
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_spans_follow_binary_decomposition() {
        assert_eq!(peak_spans(0), vec![]);
        assert_eq!(peak_spans(1), vec![(0, 1)]);
        assert_eq!(peak_spans(8), vec![(0, 8)]);
        assert_eq!(peak_spans(11), vec![(0, 8), (8, 2), (10, 1)]);
    }

    #[test]
    fn serial_root_is_stable_and_shape_sensitive() {
        // Regression anchor: any change to the hash or the tree shape
        // changes these values, which also pin the cross-backend oracle.
        assert_eq!(mmr_root_seq(1, 0), Digest::empty());
        assert_ne!(mmr_root_seq(1, 5), mmr_root_seq(1, 6));
        assert_ne!(mmr_root_seq(1, 5), mmr_root_seq(2, 5));
        // Bagging is order-sensitive: reversing the peaks changes the
        // root whenever there are at least two distinct peaks.
        let peaks = mmr_peaks_seq(1, 11);
        let rev: Vec<Digest> = peaks.iter().rev().copied().collect();
        assert_ne!(bag_peaks(&peaks), bag_peaks(&rev));
    }

    #[test]
    fn parallel_matches_serial_on_sim() {
        let params = MmrParams { leaves: 100, grain: 8, seed: 3 };
        for balance in [
            BalanceStrategy::Local,
            BalanceStrategy::Random,
            BalanceStrategy::acwn(),
        ] {
            let prog = build(params).with_opts(|o| o.balance = balance.clone());
            let mut rep = prog.run_sim_preset(8, MachinePreset::NcubeLike);
            let got = rep.take_result::<MmrResult>().expect("result");
            assert_eq!(got.root, mmr_root_seq(3, 100), "balance {balance:?}");
            assert_eq!(got.peaks, 3);
        }
    }

    #[test]
    fn queueing_strategy_does_not_change_the_root() {
        let params = MmrParams { leaves: 64, grain: 4, seed: 9 };
        for q in QueueingStrategy::ALL {
            let prog = build(params).with_opts(|o| o.queueing = q);
            let mut rep = prog.run_sim_preset(4, MachinePreset::NcubeLike);
            let got = rep.take_result::<MmrResult>().expect("result");
            assert_eq!(got.root, mmr_root_seq(9, 64), "queueing {q:?}");
        }
    }

    #[test]
    fn edge_sizes_run_on_sim() {
        for leaves in [0u64, 1, 2, 3, 31, 32, 33] {
            let params = MmrParams { leaves, grain: 4, seed: 1 };
            let mut rep = build(params).run_sim_preset(4, MachinePreset::NcubeLike);
            let got = rep.take_result::<MmrResult>().expect("result");
            assert_eq!(got.root, mmr_root_seq(1, leaves), "leaves {leaves}");
            assert_eq!(got.peaks, leaves.count_ones(), "leaves {leaves}");
        }
    }

    #[test]
    fn works_on_threads() {
        let params = MmrParams { leaves: 200, grain: 16, seed: 5 };
        let mut rep = build(params).run_threads(4);
        assert!(!rep.timed_out);
        let got = rep.take_result::<MmrResult>().expect("result");
        assert_eq!(got.root, mmr_root_seq(5, 200));
    }

    #[test]
    fn deterministic_on_sim() {
        let params = MmrParams { leaves: 128, grain: 8, seed: 2 };
        let prog = build(params);
        let a = prog.run_sim_preset(8, MachinePreset::NcubeLike);
        let b = prog.run_sim_preset(8, MachinePreset::NcubeLike);
        assert_eq!(a.time_ns, b.time_ns);
        assert_eq!(
            a.total().chares_created,
            b.total().chares_created
        );
    }

    #[test]
    fn parallel_run_beats_one_pe() {
        let params = MmrParams { leaves: 2048, grain: 32, seed: 1 };
        let prog = build(params);
        let t1 = prog.run_sim_preset(1, MachinePreset::NcubeLike).time_ns;
        let t16 = prog.run_sim_preset(16, MachinePreset::NcubeLike).time_ns;
        assert!(
            t16 * 3 < t1,
            "expected >3x speedup on 16 PEs: t1={t1} t16={t16}"
        );
    }
}
