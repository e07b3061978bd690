//! Machine independence, live: the same N-queens program on every
//! simulated machine preset and on real threads, plus a look at how the
//! interconnect reshapes the same computation.
//!
//! ```text
//! cargo run --release --example machines [-- n grain]
//! ```

use charm_repro::ck_apps::nqueens::{build, nqueens_seq, QueensParams};
use charm_repro::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: u8 = args.next().and_then(|a| a.parse().ok()).unwrap_or(10);
    let grain: u8 = args.next().and_then(|a| a.parse().ok()).unwrap_or(6);
    let params = QueensParams { n, grain };
    let want = nqueens_seq(n);

    println!("N-queens n={n} grain={grain}; count = {want}");
    println!("\none program, four machines (16 PEs each):\n");

    let prog = build(params);
    for preset in [
        MachinePreset::NcubeLike,
        MachinePreset::IpscLike,
        MachinePreset::SharedBusLike,
        MachinePreset::Ideal,
    ] {
        let t1 = prog.run_sim_preset(1, preset).time_ns;
        let mut rep = prog.run_sim_preset(16, preset);
        let got = rep.take_result::<u64>().expect("count");
        assert_eq!(got, want);
        let sim = rep.sim.as_ref().unwrap();
        let name = format!("{preset:?}");
        println!(
            "  {name:<14} time={:>9.3} ms  speedup={:>5.2}  util={:>5.1}%  {} packets, {} KB",
            rep.time_ns as f64 / 1e6,
            t1 as f64 / rep.time_ns as f64,
            sim.utilization * 100.0,
            sim.packets,
            sim.bytes / 1024,
        );
    }

    println!("\nand on real OS threads (4 PEs):");
    let mut rep = prog.run_threads(4);
    assert!(!rep.timed_out);
    let got = rep.take_result::<u64>().expect("count");
    assert_eq!(got, want);
    println!("  threads        time={:>9.3} ms (wall)", rep.time_ns as f64 / 1e6);

    println!("\nsame answer everywhere — the kernel is the portability layer.");
}
