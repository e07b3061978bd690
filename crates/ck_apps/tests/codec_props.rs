//! Hostile input at the boundary a procs worker decodes at, for every
//! app in the registry.
//!
//! A worker hands each data-frame body to one function
//! (`wire::decode_frame`, reached here through `Program::decode_frame`),
//! which runs the envelope codec, the program's wire table and, through
//! it, every `wire_struct!`/`wire_enum!` codec the app declared. These
//! properties hold that function, per app, to the contract the kernel's
//! own types are held to in `chare_kernel`: what it accepts round-trips,
//! every cut and every overrun of it is refused, and whatever the bytes
//! the answer is a value or a `WireError` — never a panic — at a cost in
//! memory bounded by the bytes present.
//!
//! No app type is named here. A body of each registered type is found by
//! decoding: a `ChareMsg` or `NewChare` envelope around a `()` body ends
//! in that body's tag, so writing another tag over it and appending
//! zero-heavy random bytes addresses every codec in the table, and
//! wherever the decoder stops short of the end, the bytes before that
//! point are one well-formed frame carrying a value of that type.
//!
//! The same watching allocator holds a simulated run to a budget of heap
//! blocks (the last test): message bodies travel inside their envelopes.

use chare_kernel::alloc_watch::{allocations, largest_alloc, Watching};
use chare_kernel::envelope::{Seed, SysMsg};
use chare_kernel::prelude::*;
use ck_apps::registry::APPS;
use ck_apps::spec::Spec;
use proptest::prelude::*;

#[global_allocator]
static ALLOCATOR: Watching = Watching;

/// Every registry app's program, as a worker builds it.
fn programs() -> Vec<(&'static str, Program)> {
    let build = |text| Spec::parse(text).expect("the registry's own spec").build();
    APPS.iter().map(|app| (app.name, build(app.test_spec))).collect()
}

fn encoded(prog: &Program, sys: &SysMsg) -> Vec<u8> {
    let mut out = Vec::new();
    prog.encode_frame(sys, &mut out);
    out
}

/// The two envelopes that carry a user body last, around a `()`.
fn templates(prog: &Program) -> [Vec<u8>; 2] {
    let target = ChareId { pe: Pe(1), local: 3 };
    let (ep, bytes, prio) = (EpId(2), 16, Priority::None);
    let msg = SysMsg::ChareMsg { target, ep, body: MsgBody::new(()), bytes, prio };
    let seed = Seed { kind: ChareKind(0), body: MsgBody::new(()), bytes, prio: Priority::Int(-4) };
    [encoded(prog, &msg), encoded(prog, &SysMsg::NewChare { seed, hops: 1 })]
}

/// `template` carrying body type `tag` instead, its bytes `soup`.
fn carrying(template: &[u8], tag: u32, soup: &[u8]) -> Vec<u8> {
    let head = &template[..template.len() - 4];
    [head, &tag.to_le_bytes(), soup].concat()
}

/// Mostly zeros and small numbers, so length prefixes tend to fit the
/// bytes behind them, with enough arbitrary bytes to reach every field.
fn soup(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(prop_oneof![Just(0u8), Just(0u8), Just(0u8), 0u8..4, any::<u8>()], len)
}

/// The well-formed frame `bytes` start with, if they start with one: the
/// bytes themselves, or those before the point the decoder says the
/// frame should have ended at.
fn well_formed_prefix(prog: &Program, bytes: &[u8]) -> Option<SysMsg> {
    match prog.decode_frame(bytes) {
        Ok(sys) => Some(sys),
        Err(e) if e.wanted == "the end of the frame" => {
            Some(prog.decode_frame(&bytes[..e.at]).expect("one value ended there"))
        }
        Err(_) => None,
    }
}

/// Decode `bytes`, whatever they are: no panic, and no single allocation
/// out of proportion to them. A count prefix is checked against the bytes
/// left, one byte an element at least, so the most a frame can ask for is
/// its length times its widest element — an envelope in a batch.
fn decode_watched(prog: &Program, bytes: &[u8]) -> Option<SysMsg> {
    let mut got = None;
    let largest = largest_alloc(|| got = prog.decode_frame(bytes).ok());
    let bound = bytes.len() * std::mem::size_of::<SysMsg>().max(128) + 1024;
    assert!(largest <= bound, "{} bytes made the decoder ask for {largest}", bytes.len());
    got
}

const CASES: u32 = 160;

#[test]
fn every_registered_body_round_trips_and_every_cut_of_it_is_refused() {
    for (app, prog) in programs() {
        let types = prog.wire_types();
        let templates = templates(&prog);
        let mut carried = vec![0u32; types.len()];
        for case in 0..CASES {
            let mut rng = TestRng::for_case("codec_props::round_trip", case);
            let soup = soup(96..192).sample(&mut rng);
            for (tag, name) in types.iter().enumerate() {
                let frame = carrying(&templates[case as usize % 2], tag as u32, &soup);
                let Some(sys) = well_formed_prefix(&prog, &frame) else { continue };
                carried[tag] += 1;
                // Decoding is lenient where encoding is canonical (any
                // nonzero byte is `true`), so the fixed point is one
                // round trip on: the same bytes, again and again.
                let canon = encoded(&prog, &sys);
                let back = prog.decode_frame(&canon);
                let back = back.unwrap_or_else(|e| panic!("{app}: {name}: own encoding refused: {e}"));
                assert_eq!(encoded(&prog, &back), canon, "{app}: {name}");
                if carried[tag] > 3 {
                    continue; // the cuts are quadratic in the frame
                }
                for cut in 0..canon.len() {
                    let refused = prog.decode_frame(&canon[..cut]).is_err();
                    assert!(refused, "{app}: {name}: cut to {cut} of {} bytes", canon.len());
                }
                let overrun = [&canon[..], &[0]].concat();
                assert!(prog.decode_frame(&overrun).is_err(), "{app}: {name}: one byte more");
            }
        }
        for (name, n) in types.iter().zip(&carried) {
            assert!(*n > 0, "{app}: no frame carrying a {name} was found in {CASES} cases");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Whatever arrives, under every envelope tag and every body tag of
    /// every app: an answer, at a cost the bytes present bound.
    #[test]
    fn arbitrary_frames_never_panic_nor_overallocate(
        tag in 0u8..24,
        body_tag in 0u32..40,
        noise in proptest::collection::vec(any::<u8>(), 0..256),
        zeroish in soup(0..256),
    ) {
        for (_, prog) in programs() {
            decode_watched(&prog, &noise);
            decode_watched(&prog, &[&[tag][..], &zeroish].concat());
            for template in templates(&prog) {
                decode_watched(&prog, &carrying(&template, body_tag, &noise));
                decode_watched(&prog, &carrying(&template, body_tag, &zeroish));
            }
        }
    }

    /// A well-formed frame with a few bits flipped: the damage a real
    /// link would do. Whatever it still decodes to encodes again.
    #[test]
    fn bit_flipped_frames_never_panic_nor_overallocate(
        pick in any::<u32>(),
        body in soup(96..192),
        flips in proptest::collection::vec((any::<usize>(), 0u8..8), 1..5),
    ) {
        for (_, prog) in programs() {
            let tag = pick % prog.wire_types().len() as u32;
            let frame = carrying(&templates(&prog)[pick as usize % 2], tag, &body);
            let Some(sys) = well_formed_prefix(&prog, &frame) else { continue };
            let mut damaged = encoded(&prog, &sys);
            for &(at, bit) in &flips {
                let at = at % damaged.len();
                damaged[at] ^= 1 << bit;
            }
            if let Some(survivor) = decode_watched(&prog, &damaged) {
                encoded(&prog, &survivor);
            }
        }
    }
}

/// A small message body travels inside its pooled envelope, and a chare
/// its constructor destroys is never boxed, so once the envelope pools
/// are warm a fib run allocates fewer heap blocks than it creates chares
/// (half of them leaves).
#[test]
fn a_warm_fib_run_allocates_fewer_blocks_than_it_creates_chares() {
    let prog = Spec::parse("fib:n=20,grain=8").expect("a registry spec").build();
    let run = || prog.run_sim_preset(4, MachinePreset::NcubeLike);
    run();
    let mut report = None;
    let blocks = allocations(|| report = Some(run()));
    let chares = report.expect("the run finished").total().chares_created;
    assert_eq!(chares, 1220);
    assert!(blocks < chares, "{blocks} heap blocks for {chares} chares");
}
