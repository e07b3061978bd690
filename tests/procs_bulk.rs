//! Bulk message bodies between two worker processes: runs of
//! fixed-width values large enough to cross the socket as many reads and
//! many batches, sent from PE 0 to an echo chare on PE 1 and back, and
//! checked bit for bit where they started.
//!
//! The sizes go past the frame splitter's 64 KiB read buffer and the
//! 16 KiB batching threshold. No registry app sends `Vec<u8>` or
//! `Vec<f64>` bodies, so this is their only end-to-end check.
//!
//! Workers re-enter the test through `ProcConfig::for_test`, so the test
//! calls `maybe_worker` before anything else.

use charm_repro::prelude::*;
use chare_kernel::ProcConfig;

const EP_HELLO: EpId = EpId(1);
const EP_BYTES: EpId = EpId(2);
const EP_FLOATS: EpId = EpId(3);

/// The byte bodies sent, by length.
const BYTE_LENS: [usize; 4] = [0, 1, 65_537, 1_048_576];
/// Values in the one float body.
const FLOATS: usize = 100_001;

/// `n` pseudo-random words from `seed` (SplitMix64).
fn words(n: usize, seed: u64) -> impl Iterator<Item = u64> {
    let mut s = seed;
    (0..n).map(move |_| {
        s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    })
}

fn bytes_body(len: usize) -> Vec<u8> {
    words(len, len as u64).map(|w| w as u8).collect()
}

/// Any bits at all: NaN payloads, infinities, subnormals and signed
/// zeros travel as they are.
fn floats_body() -> Vec<f64> {
    words(FLOATS, 7).map(f64::from_bits).collect()
}

#[derive(Clone)]
struct MainSeed {
    echo: Kind<Echo>,
}
message!(MainSeed);

#[derive(Clone, Copy)]
struct EchoSeed {
    main: ChareId,
}
message!(EchoSeed);

chare_kernel::wire_struct!(MainSeed { echo });
chare_kernel::wire_struct!(EchoSeed { main });

/// Serves each body in turn and records, per body, its length if it
/// came back bit for bit and `u64::MAX` if it did not.
struct Main {
    echo: Option<ChareId>,
    next: usize,
    returned: Vec<u64>,
}

impl ChareInit for Main {
    type Seed = MainSeed;
    fn create(seed: MainSeed, ctx: &mut Ctx) -> Self {
        let me = ctx.self_id();
        ctx.create_on(Pe(1), seed.echo, EchoSeed { main: me });
        Main { echo: None, next: 0, returned: Vec::new() }
    }
}

impl Main {
    /// Send the next body, or exit with the record once all came back.
    fn serve(&mut self, ctx: &mut Ctx) {
        let echo = self.echo.expect("hello came first");
        match BYTE_LENS.get(self.next) {
            Some(&len) => ctx.send(echo, EP_BYTES, bytes_body(len)),
            None if self.next == BYTE_LENS.len() => ctx.send(echo, EP_FLOATS, floats_body()),
            None => ctx.exit(std::mem::take(&mut self.returned)),
        }
        self.next += 1;
    }

    fn record(&mut self, len: usize, intact: bool) {
        self.returned.push(if intact { len as u64 } else { u64::MAX });
    }
}

impl Chare for Main {
    fn entry(&mut self, ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
        match ep {
            EP_HELLO => self.echo = Some(cast::<ChareId>(msg)),
            EP_BYTES => {
                let got = cast::<Vec<u8>>(msg);
                let want = bytes_body(BYTE_LENS[self.returned.len()]);
                self.record(got.len(), got == want);
            }
            EP_FLOATS => {
                let got = cast::<Vec<f64>>(msg);
                let intact = got.iter().map(|v| v.to_bits()).eq(floats_body().iter().map(|v| v.to_bits()));
                self.record(got.len(), intact);
            }
            _ => unreachable!("unknown entry point {ep:?}"),
        }
        self.serve(ctx);
    }
}

/// Sends every body straight back.
struct Echo {
    main: ChareId,
}

impl ChareInit for Echo {
    type Seed = EchoSeed;
    fn create(seed: EchoSeed, ctx: &mut Ctx) -> Self {
        let me = ctx.self_id();
        ctx.send(seed.main, EP_HELLO, me);
        Echo { main: seed.main }
    }
}

impl Chare for Echo {
    fn entry(&mut self, ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
        match ep {
            EP_BYTES => ctx.send(self.main, ep, cast::<Vec<u8>>(msg)),
            EP_FLOATS => ctx.send(self.main, ep, cast::<Vec<f64>>(msg)),
            _ => unreachable!("unknown entry point {ep:?}"),
        }
    }
}

fn bulk_program() -> Program {
    let mut b = ProgramBuilder::new();
    let echo = b.chare::<Echo>();
    let main = b.chare::<Main>();
    b.wire::<MainSeed>();
    b.wire::<EchoSeed>();
    b.wire::<ChareId>();
    b.wire::<Vec<u8>>();
    b.wire::<Vec<f64>>();
    b.wire::<Vec<u64>>();
    b.main(main, MainSeed { echo });
    b.build()
}

#[test]
fn bulk_bodies_cross_two_workers_and_back_bit_for_bit() {
    chare_kernel::maybe_worker(|_| bulk_program());
    let cfg = ProcConfig::for_test(2, "", "bulk_bodies_cross_two_workers_and_back_bit_for_bit");
    let mut rep = bulk_program().run_procs(&cfg);
    let detail = rep.proc.as_ref().expect("procs detail");
    assert!(detail.aborted.is_none(), "{:?}", detail.aborted);
    let want: Vec<u64> = BYTE_LENS.iter().chain([&FLOATS]).map(|&n| n as u64).collect();
    assert_eq!(rep.take_result::<Vec<u64>>(), Some(want));
}
