//! Parallel sample sort over branch-office chares — the all-to-all
//! benchmark.
//!
//! Every PE holds a block of keys. PE 0 gathers a regular sample,
//! chooses P-1 splitters, and broadcasts them; each branch partitions
//! its block and sends one bucket to every other PE (the all-to-all
//! phase that stresses the network differently from any other program
//! in the suite); each branch merges what it receives and verifies local
//! sortedness. Correctness is checked with an order-independent
//! fingerprint (count + sum + xor of keys) plus boundary checks against
//! the splitters.

use chare_kernel::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::costs::work;
use crate::hashes::Digest;
use crate::registry::{Answer, App};
use crate::spec::{Args, SpecError};

/// Cost of one comparison/move in sort phases.
pub const SORT_OP_NS: u64 = 150;

/// Entry point on each branch: the sample request / splitters.
pub const EP_SPLITTERS: EpId = EpId(1);
/// Entry point on each branch: a bucket from a peer.
pub const EP_BUCKET: EpId = EpId(2);
/// Entry point on the main chare: one PE's sample.
pub const EP_SAMPLE: EpId = EpId(3);
/// Entry point on the main chare: quiescence notification.
pub const EP_QUIESCENT: EpId = EpId(4);
/// Entry point on the main chare: collected fingerprint.
pub const EP_SUM: EpId = EpId(5);

/// Parameters of a sort run.
#[derive(Clone, Copy, Debug)]
pub struct SortParams {
    /// Total keys across the machine (strong scaling: the same problem
    /// splits over however many PEs run it).
    pub total_keys: usize,
    /// Instance RNG seed.
    pub seed: u64,
    /// Sample size per PE (oversampling factor).
    pub sample_per_pe: usize,
}

impl Default for SortParams {
    fn default() -> Self {
        SortParams {
            total_keys: 64_000,
            seed: 12,
            sample_per_pe: 16,
        }
    }
}

/// Number of keys PE `pe` of `npes` holds (even split, remainder to the
/// low PEs).
pub fn block_len(pe: usize, npes: usize, params: SortParams) -> usize {
    let base = params.total_keys / npes;
    base + usize::from(pe < params.total_keys % npes)
}

/// Deterministic per-PE key block.
pub fn gen_block(pe: usize, npes: usize, params: SortParams) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(params.seed ^ (pe as u64).wrapping_mul(0xA5A5_5A5A));
    (0..block_len(pe, npes, params))
        .map(|_| rng.random_range(0..1_000_000_000u64))
        .collect()
}

/// Order-independent fingerprint of a key multiset: (count, sum, xor).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Fingerprint {
    /// Number of keys.
    pub count: u64,
    /// Wrapping sum of keys.
    pub sum: u64,
    /// Xor of keys.
    pub xor: u64,
}

impl Fingerprint {
    /// Fingerprint of a slice.
    pub fn of(keys: &[u64]) -> Fingerprint {
        let mut f = Fingerprint {
            count: keys.len() as u64,
            ..Default::default()
        };
        for &k in keys {
            f.sum = f.sum.wrapping_add(k);
            f.xor ^= k;
        }
        f
    }

    /// The comparable form: the sum lane, and the xor lane (keys are
    /// below 2^30) with the count packed above it.
    fn answer(&self) -> Answer {
        Answer::Digest(Digest { a: self.sum, b: self.xor ^ self.count.rotate_left(32) })
    }

    fn merge(&mut self, other: Fingerprint) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.xor ^= other.xor;
    }
}

/// The fingerprint of the whole (unsorted) input — what any correct
/// sort must preserve.
pub fn input_fingerprint(params: SortParams, npes: usize) -> Fingerprint {
    let mut f = Fingerprint::default();
    for pe in 0..npes {
        f.merge(Fingerprint::of(&gen_block(pe, npes, params)));
    }
    f
}

/// Accumulator combining per-PE fingerprints (commutative).
pub struct FpAcc;
impl Accum for FpAcc {
    type V = Fingerprint;
    fn identity() -> Fingerprint {
        Fingerprint::default()
    }
    fn combine(into: &mut Fingerprint, from: Fingerprint) {
        into.merge(from);
    }
}

/// Messages.
#[derive(Clone)]
pub struct SampleMsg {
    /// Sampled keys from one PE.
    pub keys: Vec<u64>,
}
impl Message for SampleMsg {
    fn bytes(&self) -> u32 {
        (self.keys.len() * 8) as u32
    }
}

/// Splitters broadcast to every branch.
#[derive(Clone)]
pub struct SplitterMsg {
    /// P-1 ascending splitters.
    pub splitters: Vec<u64>,
}
impl Message for SplitterMsg {
    fn bytes(&self) -> u32 {
        (self.splitters.len() * 8) as u32
    }
}

/// One bucket of keys bound for its destination PE.
pub struct BucketMsg {
    /// Keys in `[splitter[d-1], splitter[d])`.
    pub keys: Vec<u64>,
}
impl Message for BucketMsg {
    fn bytes(&self) -> u32 {
        (self.keys.len() * 8) as u32
    }
}

/// BOC configuration.
#[derive(Clone)]
pub struct SortCfg {
    /// Parameters.
    pub params: SortParams,
    /// Fingerprint accumulator.
    pub acc: Acc<FpAcc>,
}

/// One PE's sort state.
pub struct SortBranch {
    cfg: SortCfg,
    block: Vec<u64>,
    splitters: Option<Vec<u64>>,
    received: Vec<u64>,
    buckets_in: usize,
}

impl SortBranch {
    /// Partition the local block by the splitters and ship the buckets.
    fn scatter(&mut self, ctx: &mut Ctx) {
        let splitters = self.splitters.as_ref().expect("splitters set");
        let npes = ctx.npes();
        let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); npes];
        let block = std::mem::take(&mut self.block);
        let ops = block.len() as u64;
        for k in block {
            let d = splitters.partition_point(|&s| s <= k);
            buckets[d].push(k);
        }
        ctx.charge(work(ops * 5, SORT_OP_NS)); // partition_point ~ log P
        let boc = ctx.self_boc::<SortBranch>();
        let me = ctx.pe();
        for (d, bucket) in buckets.into_iter().enumerate() {
            let dest = Pe::from(d);
            if dest == me {
                self.take_bucket(bucket, ctx);
            } else {
                ctx.send_branch(boc, dest, EP_BUCKET, BucketMsg { keys: bucket });
            }
        }
    }

    fn take_bucket(&mut self, keys: Vec<u64>, ctx: &mut Ctx) {
        self.received.extend(keys);
        self.buckets_in += 1;
        if self.buckets_in == ctx.npes() {
            // All buckets in: sort, verify locally, contribute the
            // fingerprint.
            let n = self.received.len() as u64;
            self.received.sort_unstable();
            let logn = (n.max(2)).ilog2() as u64;
            ctx.charge(work(n * logn, SORT_OP_NS));
            if let Some(splitters) = &self.splitters {
                let pe = ctx.pe().index();
                if let (Some(&first), Some(&last)) = (self.received.first(), self.received.last())
                {
                    if pe > 0 {
                        assert!(first >= splitters[pe - 1], "bucket boundary violated");
                    }
                    if pe < splitters.len() {
                        assert!(last < splitters[pe], "bucket boundary violated");
                    }
                }
            }
            ctx.acc_add(self.cfg.acc, Fingerprint::of(&self.received));
        }
    }
}

impl BranchInit for SortBranch {
    type Cfg = SortCfg;
    fn create(cfg: SortCfg, ctx: &mut Ctx) -> Self {
        let block = gen_block(ctx.pe().index(), ctx.npes(), cfg.params);
        SortBranch {
            cfg,
            block,
            splitters: None,
            received: Vec::new(),
            buckets_in: 0,
        }
    }
}

impl Branch for SortBranch {
    fn entry(&mut self, ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
        match ep {
            EP_SPLITTERS => {
                // Phase 1 request carries the main chare's id; phase 2
                // carries the splitters.
                let m = cast::<SplitterPhase>(msg);
                match m {
                    SplitterPhase::SendSample(main) => {
                        let params = self.cfg.params;
                        let step = (self.block.len() / params.sample_per_pe.max(1)).max(1);
                        let mut sample: Vec<u64> =
                            self.block.iter().copied().step_by(step).collect();
                        sample.truncate(params.sample_per_pe);
                        ctx.charge(work(sample.len() as u64, SORT_OP_NS));
                        ctx.send(main, EP_SAMPLE, SampleMsg { keys: sample });
                    }
                    SplitterPhase::Splitters(s) => {
                        self.splitters = Some(s.splitters);
                        self.scatter(ctx);
                    }
                }
            }
            EP_BUCKET => {
                let bucket = cast::<BucketMsg>(msg);
                self.take_bucket(bucket.keys, ctx);
            }
            _ => unreachable!("unknown entry point {ep:?}"),
        }
    }
}

/// Two-phase splitter protocol message.
#[derive(Clone)]
pub enum SplitterPhase {
    /// Reply with your sample to this chare.
    SendSample(ChareId),
    /// The chosen splitters.
    Splitters(SplitterMsg),
}
impl Message for SplitterPhase {
    fn bytes(&self) -> u32 {
        match self {
            SplitterPhase::SendSample(_) => 12,
            SplitterPhase::Splitters(s) => 4 + s.bytes(),
        }
    }
}

/// Seed of the main chare.
#[derive(Clone)]
pub struct MainSeed {
    /// BOC handle.
    pub boc: Boc<SortBranch>,
    /// Fingerprint accumulator.
    pub acc: Acc<FpAcc>,
}
message!(MainSeed);

// Wire codecs for the multi-process backend (positional lists). The
// BOC configuration never travels: every worker generates its own block.
wire_struct!(Fingerprint { count, sum, xor });
wire_struct!(SampleMsg { keys });
wire_struct!(SplitterMsg { splitters });
wire_struct!(BucketMsg { keys });
wire_enum!(SplitterPhase { SendSample(main), Splitters(chosen) });
wire_struct!(MainSeed { boc, acc });

/// The main chare: sample gather → splitter broadcast → quiescence →
/// fingerprint collect.
pub struct SortMain {
    boc: Boc<SortBranch>,
    acc: Acc<FpAcc>,
    samples: Vec<u64>,
    replies: usize,
}

impl ChareInit for SortMain {
    type Seed = MainSeed;
    fn create(seed: MainSeed, ctx: &mut Ctx) -> Self {
        let me = ctx.self_id();
        ctx.broadcast_branch(seed.boc, EP_SPLITTERS, SplitterPhase::SendSample(me));
        SortMain {
            boc: seed.boc,
            acc: seed.acc,
            samples: Vec::new(),
            replies: 0,
        }
    }
}

impl Chare for SortMain {
    fn entry(&mut self, ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
        let me = ctx.self_id();
        match ep {
            EP_SAMPLE => {
                let s = cast::<SampleMsg>(msg);
                self.samples.extend(s.keys);
                self.replies += 1;
                if self.replies == ctx.npes() {
                    self.samples.sort_unstable();
                    let npes = ctx.npes();
                    let splitters: Vec<u64> = (1..npes)
                        .map(|d| self.samples[d * self.samples.len() / npes])
                        .collect();
                    ctx.charge(work(self.samples.len() as u64 * 8, SORT_OP_NS));
                    ctx.broadcast_branch(
                        self.boc,
                        EP_SPLITTERS,
                        SplitterPhase::Splitters(SplitterMsg { splitters }),
                    );
                    ctx.start_quiescence(Notify::Chare(me, EP_QUIESCENT));
                }
            }
            EP_QUIESCENT => {
                let _ = cast::<QuiescenceMsg>(msg);
                ctx.acc_collect(self.acc, Notify::Chare(me, EP_SUM));
            }
            EP_SUM => {
                let f = cast::<AccResult<Fingerprint>>(msg);
                ctx.exit(f.value);
            }
            _ => unreachable!("unknown entry point {ep:?}"),
        }
    }
}

/// Build the sort program, to run under [`APP`]'s strategies (FIFO, no
/// balancing — placement is structural) unless told otherwise
/// ([`Program::with_opts`]).
pub fn build(params: SortParams) -> Program {
    let mut b = ProgramBuilder::new();
    let acc = b.accumulator::<FpAcc>();
    let main = b.chare::<SortMain>();
    let boc = b.boc::<SortBranch>(SortCfg { params, acc });
    b.wire::<MainSeed>();
    b.wire::<SampleMsg>();
    b.wire::<SplitterPhase>();
    b.wire::<BucketMsg>();
    b.wire::<Fingerprint>();
    b.wire::<AccResult<Fingerprint>>();
    b.queueing(APP.queueing).balance(APP.balance);
    b.main(main, MainSeed { boc, acc });
    b.build()
}

/// Spec keys: `total_keys`, `seed`, `sample_per_pe`.
pub fn params(a: &mut Args) -> Result<SortParams, SpecError> {
    let d = SortParams::default();
    Ok(SortParams {
        total_keys: a.key("total_keys", d.total_keys)?,
        seed: a.key("seed", d.seed)?,
        sample_per_pe: a.key("sample_per_pe", d.sample_per_pe)?,
    })
}

/// The registry entry.
pub const APP: App = App {
    name: "sort",
    queueing: QueueingStrategy::Fifo,
    balance: BalanceStrategy::Local,
    ends_by_qd: true,
    test_spec: "sort:total_keys=2400,seed=12,sample_per_pe=8",
    params: |a| params(a).map(drop),
    build: |a| Ok(build(params(a)?)),
    // The input is generated per PE, so the multiset a correct sort
    // preserves depends on the machine size.
    oracle: |a, npes| Ok(input_fingerprint(params(a)?, npes).answer()),
    answer: |rep| rep.result_ref::<Fingerprint>().map(|f| f.answer()),
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_order_independent() {
        let a = vec![5u64, 1, 9, 9, 3];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(Fingerprint::of(&a), Fingerprint::of(&b));
        assert_ne!(Fingerprint::of(&a), Fingerprint::of(&a[1..]));
    }

    #[test]
    fn sort_preserves_the_multiset() {
        let params = SortParams {
            total_keys: 4_000,
            seed: 3,
            sample_per_pe: 8,
        };
        for npes in [1usize, 2, 5, 8] {
            let want = input_fingerprint(params, npes);
            let prog = build(params);
            let mut rep = prog.run_sim_preset(npes, MachinePreset::NcubeLike);
            let got = rep.take_result::<Fingerprint>().expect("fingerprint");
            assert_eq!(got, want, "npes={npes}");
        }
    }

    #[test]
    fn boundary_assertions_hold_under_skew() {
        // Heavily skewed input (many duplicate keys) still respects
        // bucket boundaries (asserted inside the branches).
        let params = SortParams {
            total_keys: 1_800,
            seed: 999,
            sample_per_pe: 4,
        };
        let prog = build(params);
        let mut rep = prog.run_sim_preset(6, MachinePreset::IpscLike);
        assert!(rep.take_result::<Fingerprint>().is_some());
    }

    #[test]
    fn works_on_threads() {
        let params = SortParams {
            total_keys: 4_000,
            seed: 3,
            sample_per_pe: 8,
        };
        let want = input_fingerprint(params, 4);
        let prog = build(params);
        let mut rep = prog.run_threads(4);
        assert!(!rep.timed_out);
        assert_eq!(rep.take_result::<Fingerprint>(), Some(want));
    }

    #[test]
    fn speedup_on_sim() {
        let params = SortParams {
            total_keys: 160_000,
            seed: 3,
            sample_per_pe: 32,
        };
        let t1 = build(params)
            .run_sim_preset(1, MachinePreset::NcubeLike)
            .time_ns;
        let t8 = build(params)
            .run_sim_preset(8, MachinePreset::NcubeLike)
            .time_ns;
        let speedup = t1 as f64 / t8 as f64;
        assert!(speedup > 2.0, "expected >2x on 8 PEs, got {speedup:.2}");
    }
}
