//! 15-puzzle IDA*: repeated quiescence-detected deepening phases.
//!
//! Shows the phase structure of parallel iterative deepening: each
//! threshold is one message-driven wave ended by quiescence detection,
//! after which the main chare reads two reductions (minimum exceeded
//! f-value → next threshold; node count) and decides whether to go
//! again.
//!
//! ```text
//! cargo run --release --example puzzle [-- scramble seed]
//! ```

use charm_repro::ck_apps::puzzle::{
    build, ida_seq, manhattan, scramble, PuzzleParams, PuzzleResult,
};
use charm_repro::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let k: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(52);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(5);

    let start = scramble(k, seed);
    println!("15-puzzle scrambled with {k} moves (seed {seed})");
    println!("Manhattan lower bound: {}", manhattan(start));

    let (cost, nodes) = ida_seq(start);
    println!("sequential IDA*: solution length {cost}, {nodes} nodes\n");

    let params = PuzzleParams {
        scramble: k,
        seed,
        split_depth: 7,
    };

    println!("parallel IDA* on the simulated NCUBE-like hypercube:");
    // Integer f-priorities are the app's default queueing.
    let prog = build(params).with_opts(|o| o.balance = BalanceStrategy::Random);
    let t1 = prog.run_sim_preset(1, MachinePreset::NcubeLike).time_ns;
    for p in [1usize, 4, 16, 64] {
        let mut rep = prog.run_sim_preset(p, MachinePreset::NcubeLike);
        let res: PuzzleResult = rep.take_result().unwrap();
        assert_eq!(res.cost, cost, "parallel IDA* must find the optimum");
        println!(
            "  P={p:>3}  time={:>9.3} ms  speedup={:>5.2}  phases={}  nodes={} ({:.2}x seq)",
            rep.time_ns as f64 / 1e6,
            t1 as f64 / rep.time_ns as f64,
            res.phases,
            res.nodes,
            res.nodes as f64 / nodes as f64,
        );
    }
    println!("\neach phase = spawn wave + quiescence detection + two reductions");
}
