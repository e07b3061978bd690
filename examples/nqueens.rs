//! N-queens across machine sizes and load balancing strategies.
//!
//! Reproduces, at example scale, the paper's two headline observations
//! about adaptive tree computations: speedup grows with PEs, and the
//! placement strategy matters.
//!
//! ```text
//! cargo run --release --example nqueens [-- n grain]
//! ```

use charm_repro::ck_apps::nqueens::{build, nqueens_seq, QueensParams};
use charm_repro::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: u8 = args.next().and_then(|a| a.parse().ok()).unwrap_or(11);
    let grain: u8 = args.next().and_then(|a| a.parse().ok()).unwrap_or(6);
    let params = QueensParams { n, grain };

    println!("N-queens n={n}, grain={grain}");
    println!("sequential count: {}\n", nqueens_seq(n));

    println!("speedup on the simulated NCUBE-like hypercube (ACWN balancing):");
    let prog = build(params); // FIFO + ACWN, the app's own defaults
    let t1 = prog.run_sim_preset(1, MachinePreset::NcubeLike).time_ns;
    for p in [1usize, 2, 4, 8, 16, 32, 64] {
        let mut rep = prog.run_sim_preset(p, MachinePreset::NcubeLike);
        let count = rep.take_result::<u64>().unwrap();
        assert_eq!(count, nqueens_seq(n));
        println!(
            "  P={p:>3}  time={:>9.3} ms   speedup={:>6.2}   chares={}",
            rep.time_ns as f64 / 1e6,
            t1 as f64 / rep.time_ns as f64,
            rep.total().chares_created,
        );
    }

    println!("\nload balancing strategies on 32 PEs:");
    for strat in [
        BalanceStrategy::Local,
        BalanceStrategy::Random,
        BalanceStrategy::CentralManager,
        BalanceStrategy::TokenIdle,
        BalanceStrategy::acwn(),
    ] {
        let prog = prog.with_opts(|o| o.balance = strat.clone());
        let rep = prog.run_sim_preset(32, MachinePreset::NcubeLike);
        let sim = rep.sim.as_ref().unwrap();
        println!(
            "  {:<8} time={:>9.3} ms  speedup={:>6.2}  imbalance={:>5.2}  util={:>5.1}%",
            strat.name(),
            rep.time_ns as f64 / 1e6,
            t1 as f64 / rep.time_ns as f64,
            sim.imbalance,
            sim.utilization * 100.0,
        );
    }
}
