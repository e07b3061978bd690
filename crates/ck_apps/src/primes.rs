//! Primes: count primes below a limit — the embarrassingly parallel
//! control case.
//!
//! The range is split into chunks, one chare per chunk, each counting by
//! trial division. With uniform chunks this needs no load balancing and
//! scales almost linearly, which makes it the control benchmark against
//! which the adaptive tree workloads are compared (and a clean grain-size
//! knob: the number of chunks).

use chare_kernel::prelude::*;

use crate::costs::{work, PRIMES_DIV_NS};
use crate::registry::{Answer, App};
use crate::spec::{Args, SpecError};

/// Entry point on the main chare: quiescence notification.
pub const EP_QUIESCENT: EpId = EpId(1);
/// Entry point on the main chare: collected total.
pub const EP_TOTAL: EpId = EpId(2);

/// Parameters of a primes run.
#[derive(Clone, Copy, Debug)]
pub struct PrimesParams {
    /// Count primes in `[2, limit)`.
    pub limit: u64,
    /// Number of chunk chares.
    pub chunks: u32,
}

impl Default for PrimesParams {
    fn default() -> Self {
        PrimesParams {
            limit: 200_000,
            chunks: 64,
        }
    }
}

/// Trial-division primality test, also reporting divisions performed.
fn is_prime(n: u64) -> (bool, u64) {
    if n < 2 {
        return (false, 1);
    }
    if n.is_multiple_of(2) {
        return (n == 2, 1);
    }
    let mut divs = 1;
    let mut d = 3;
    while d * d <= n {
        divs += 1;
        if n.is_multiple_of(d) {
            return (false, divs);
        }
        d += 2;
    }
    (true, divs)
}

/// Count primes in `[lo, hi)`, also reporting divisions (work model).
pub fn count_range(lo: u64, hi: u64) -> (u64, u64) {
    let mut count = 0;
    let mut divs = 0;
    for n in lo..hi {
        let (p, d) = is_prime(n);
        count += u64::from(p);
        divs += d;
    }
    (count, divs)
}

/// Sequential prime count below `limit`.
pub fn primes_seq(limit: u64) -> u64 {
    count_range(2, limit).0
}

/// Seed of the main chare.
#[derive(Clone)]
pub struct MainSeed {
    /// Parameters.
    pub params: PrimesParams,
    /// Kind handle for chunks.
    pub chunk: Kind<ChunkChare>,
    /// Count accumulator.
    pub acc: Acc<SumU64>,
}
message!(MainSeed);

/// Seed of one chunk chare.
#[derive(Clone, Copy)]
pub struct ChunkSeed {
    lo: u64,
    hi: u64,
    acc: Acc<SumU64>,
}
message!(ChunkSeed);

// Wire codecs for the multi-process backend.
wire_struct!(PrimesParams { limit, chunks });
wire_struct!(MainSeed { params, chunk, acc });
wire_struct!(ChunkSeed { lo, hi, acc });

/// The main chare.
pub struct PrimesMain {
    acc: Acc<SumU64>,
}

impl ChareInit for PrimesMain {
    type Seed = MainSeed;
    fn create(seed: MainSeed, ctx: &mut Ctx) -> Self {
        let me = ctx.self_id();
        ctx.start_quiescence(Notify::Chare(me, EP_QUIESCENT));
        let lo = 2u64;
        let hi = seed.params.limit.max(lo);
        let chunks = seed.params.chunks.max(1) as u64;
        // Trial-division work per candidate grows like sqrt(n), so equal
        // -width chunks would be badly skewed toward the top of the
        // range. Cut at boundaries proportional to (c/chunks)^(2/3),
        // which equalizes the integral of sqrt.
        let boundary = |c: u64| -> u64 {
            let frac = (c as f64 / chunks as f64).powf(2.0 / 3.0);
            lo + ((hi - lo) as f64 * frac).round() as u64
        };
        for c in 0..chunks {
            let clo = boundary(c);
            let chi = boundary(c + 1).min(hi);
            if clo >= chi {
                continue;
            }
            ctx.create(
                seed.chunk,
                ChunkSeed {
                    lo: clo,
                    hi: chi,
                    acc: seed.acc,
                },
            );
        }
        PrimesMain { acc: seed.acc }
    }
}

impl Chare for PrimesMain {
    fn entry(&mut self, ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
        match ep {
            EP_QUIESCENT => {
                let _ = cast::<QuiescenceMsg>(msg);
                let me = ctx.self_id();
                ctx.acc_collect(self.acc, Notify::Chare(me, EP_TOTAL));
            }
            EP_TOTAL => {
                let total = cast::<AccResult<u64>>(msg);
                ctx.exit(total.value);
            }
            _ => unreachable!("unknown entry point {ep:?}"),
        }
    }
}

/// One chunk: counts primes in its range and dies.
pub struct ChunkChare;

impl ChareInit for ChunkChare {
    type Seed = ChunkSeed;
    fn create(seed: ChunkSeed, ctx: &mut Ctx) -> Self {
        let (count, divs) = count_range(seed.lo, seed.hi);
        ctx.charge(work(divs, PRIMES_DIV_NS));
        if count > 0 {
            ctx.acc_add(seed.acc, count);
        }
        ctx.destroy_self();
        ChunkChare
    }
}

impl Chare for ChunkChare {
    fn entry(&mut self, _ep: EpId, _msg: MsgBody, _ctx: &mut Ctx) {
        unreachable!("ChunkChare receives no messages")
    }
}

/// Build the primes program, to run under [`APP`]'s strategies (FIFO +
/// random placement — uniform chunks need no adaptivity) unless told
/// otherwise ([`Program::with_opts`]).
pub fn build(params: PrimesParams) -> Program {
    let mut b = ProgramBuilder::new();
    let chunk = b.chare::<ChunkChare>();
    let main = b.chare::<PrimesMain>();
    let acc = b.accumulator::<SumU64>();
    b.wire::<MainSeed>();
    b.wire::<ChunkSeed>();
    b.wire::<AccResult<u64>>();
    b.queueing(APP.queueing).balance(APP.balance);
    b.main(main, MainSeed { params, chunk, acc });
    b.build()
}

/// Spec keys: `limit`, `chunks`.
pub fn params(a: &mut Args) -> Result<PrimesParams, SpecError> {
    let d = PrimesParams::default();
    Ok(PrimesParams { limit: a.key("limit", d.limit)?, chunks: a.key("chunks", d.chunks)? })
}

/// The registry entry.
pub const APP: App = App {
    name: "primes",
    queueing: QueueingStrategy::Fifo,
    balance: BalanceStrategy::Random,
    ends_by_qd: true,
    test_spec: "primes:limit=2000,chunks=8",
    params: |a| params(a).map(drop),
    build: |a| Ok(build(params(a)?)),
    oracle: |a, _| Ok(Answer::Int(primes_seq(params(a)?.limit))),
    answer: |rep| rep.result_ref::<u64>().map(|&v| Answer::Int(v)),
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_known_values() {
        assert_eq!(primes_seq(10), 4);
        assert_eq!(primes_seq(100), 25);
        assert_eq!(primes_seq(1000), 168);
        assert_eq!(primes_seq(10_000), 1229);
    }

    #[test]
    fn parallel_count_matches() {
        let params = PrimesParams {
            limit: 5_000,
            chunks: 16,
        };
        let prog = build(params);
        let mut rep = prog.run_sim_preset(8, MachinePreset::NcubeLike);
        assert_eq!(rep.take_result::<u64>(), Some(primes_seq(5_000)));
    }

    #[test]
    fn single_chunk_still_works() {
        let params = PrimesParams {
            limit: 1_000,
            chunks: 1,
        };
        let prog = build(params);
        let mut rep = prog.run_sim_preset(4, MachinePreset::IpscLike);
        assert_eq!(rep.take_result::<u64>(), Some(168));
    }

    #[test]
    fn near_linear_speedup() {
        // Enough chunks per PE that random placement balances, and
        // enough work per chunk to amortize messaging.
        let params = PrimesParams {
            limit: 200_000,
            chunks: 512,
        };
        let prog = build(params);
        let t1 = prog.run_sim_preset(1, MachinePreset::NcubeLike).time_ns;
        let t16 = prog.run_sim_preset(16, MachinePreset::NcubeLike).time_ns;
        let speedup = t1 as f64 / t16 as f64;
        assert!(speedup > 8.0, "expected >8x speedup on 16 PEs, got {speedup:.2}");
    }

    #[test]
    fn works_on_threads() {
        let params = PrimesParams {
            limit: 20_000,
            chunks: 32,
        };
        let prog = build(params);
        let mut rep = prog.run_threads(4);
        assert!(!rep.timed_out);
        assert_eq!(rep.take_result::<u64>(), Some(primes_seq(20_000)));
    }
}
