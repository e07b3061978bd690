//! Property tests for the hash-tree workload family: the parallel MMR
//! build and the pipelined table fill must agree with their serial
//! reference implementations for *arbitrary* problem shapes, not just
//! the hand-picked sizes in the unit tests. Edge shapes (zero leaves,
//! one leaf, exact powers of two, grain larger than the input, pipeline
//! width wider than the block count) are pinned explicitly; random
//! shapes cover the interior.

use ck_apps::{mmr, tablefill};
use chare_kernel::prelude::*;
use proptest::prelude::*;

fn run_mmr(params: mmr::MmrParams, npes: usize) -> mmr::MmrResult {
    let mut rep = mmr::build(params).run_sim_preset(npes, MachinePreset::NcubeLike);
    rep.take_result::<mmr::MmrResult>().expect("mmr result")
}

fn run_fill(params: tablefill::FillParams, npes: usize) -> tablefill::FillResult {
    let mut rep =
        tablefill::build(params).run_sim_preset(npes, MachinePreset::NcubeLike);
    rep.take_result::<tablefill::FillResult>().expect("fill result")
}

#[test]
fn mmr_edge_shapes_match_serial() {
    // Zero leaves (empty root), one leaf, exact powers of two (single
    // peak), and a grain larger than the whole input (one block, one
    // leaf-phase chare) all match the serial reference.
    for (leaves, grain) in [
        (0, 4),
        (1, 4),
        (2, 1),
        (8, 2),
        (64, 8),
        (64, 128),
        (5, 100),
    ] {
        let params = mmr::MmrParams {
            leaves,
            grain,
            seed: 3,
        };
        let got = run_mmr(params, 4);
        assert_eq!(
            got.root,
            mmr::mmr_root_seq(3, leaves),
            "leaves={leaves} grain={grain}"
        );
        assert_eq!(got.peaks, leaves.count_ones(), "leaves={leaves}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mmr_matches_serial_for_arbitrary_shapes(
        leaves in 0u64..200,
        grain in 1u64..24,
        seed in 0u64..1000,
        npes in 1usize..6,
    ) {
        let got = run_mmr(mmr::MmrParams { leaves, grain, seed }, npes);
        prop_assert_eq!(got.root, mmr::mmr_root_seq(seed, leaves));
        prop_assert_eq!(got.peaks, leaves.count_ones());
    }

    #[test]
    fn tablefill_matches_serial_for_arbitrary_shapes(
        stages in 1u32..5,
        blocks in 1u32..10,
        rows in 1u32..8,
        width in 1u32..12,
        seed in 0u64..1000,
        npes in 1usize..6,
    ) {
        // `width` may exceed `blocks`: dependency windows clamp at
        // block 0, which is exactly the edge worth hammering.
        let params = tablefill::FillParams { stages, blocks, rows, width, seed };
        let got = run_fill(params, npes);
        prop_assert_eq!(got.digest, tablefill::fill_seq(&params));
        prop_assert_eq!(got.stage_done.len(), stages as usize);
        // Stage completion times are nondecreasing: a stage can only
        // finish after the one feeding it.
        for w in got.stage_done.windows(2) {
            prop_assert!(w[0] <= w[1], "stage profile not monotone: {:?}", got.stage_done);
        }
    }
}
