//! Jacobi relaxation on branch-office chares, against its hand-coded
//! message-passing twin.
//!
//! Demonstrates the BOC programming model on a regular grid and prints
//! the kernel-overhead comparison of the paper's Table 6: the same
//! computation written directly on the machine layer, with the ratio of
//! completion times.
//!
//! ```text
//! cargo run --release --example jacobi [-- n iters]
//! ```

use charm_repro::ck_apps::baseline::raw_jacobi;
use charm_repro::ck_apps::jacobi::{build, jacobi_seq, JacobiParams};
use charm_repro::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(128);
    let iters: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(25);
    let params = JacobiParams { n, iters };

    let want = jacobi_seq(params);
    println!("Jacobi {n}x{n}, {iters} sweeps; sequential checksum = {want:.9}\n");

    let prog = build(params);
    println!("chare-kernel BOC version on the simulated NCUBE-like machine:");
    let t1 = prog.run_sim_preset(1, MachinePreset::NcubeLike).time_ns;
    for p in [1usize, 2, 4, 8, 16] {
        let mut rep = prog.run_sim_preset(p, MachinePreset::NcubeLike);
        let got = rep.take_result::<f64>().unwrap();
        let err = (got - want).abs() / want.abs().max(1.0);
        assert!(err < 1e-9, "checksum mismatch at P={p}");
        println!(
            "  P={p:>3}  time={:>10.3} ms  speedup={:>5.2}  checksum ok (rel err {err:.1e})",
            rep.time_ns as f64 / 1e6,
            t1 as f64 / rep.time_ns as f64,
        );
    }

    println!("\nkernel vs hand-coded message passing (8 PEs):");
    let kernel_t = prog.run_sim_preset(8, MachinePreset::NcubeLike).time_ns;
    let (raw_sum, raw_t) = raw_jacobi(params, 8, MachinePreset::NcubeLike);
    assert!((raw_sum - want).abs() / want.abs().max(1.0) < 1e-9);
    println!("  hand-coded: {:>10.3} ms", raw_t as f64 / 1e6);
    println!("  kernel:     {:>10.3} ms", kernel_t as f64 / 1e6);
    println!(
        "  kernel overhead: {:+.1}%",
        (kernel_t as f64 / raw_t as f64 - 1.0) * 100.0
    );
}
