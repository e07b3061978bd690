//! TSP branch & bound: the queueing-strategy experiment, live.
//!
//! The same program, run under the four scheduler queue disciplines.
//! Watch the nodes-expanded column: bitvector priorities keep the
//! distributed search close to the sequential node count, while FIFO
//! expands the tree breadth-first and does far more work — the paper's
//! argument for prioritized message-driven scheduling.
//!
//! ```text
//! cargo run --release --example tsp [-- n seed]
//! ```

use charm_repro::ck_apps::tsp::{build, tsp_seq, TspInstance, TspParams, TspResult};
use charm_repro::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: u8 = args.next().and_then(|a| a.parse().ok()).unwrap_or(13);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(42);
    let params = TspParams {
        n,
        seed,
        seq_tail: 7,
    };

    let inst = TspInstance::random(n as usize, seed);
    let (best, seq_nodes) = tsp_seq(&inst);
    println!("TSP with {n} random cities (seed {seed})");
    println!("greedy tour: {}", inst.greedy_tour());
    println!("optimal tour: {best}  (sequential B&B expanded {seq_nodes} nodes)\n");

    println!("queueing strategies on a 16-PE simulated hypercube:");
    for q in QueueingStrategy::ALL {
        let prog = build(params).with_opts(|o| {
            o.queueing = q;
            o.balance = BalanceStrategy::Random;
        });
        let mut rep = prog.run_sim_preset(16, MachinePreset::NcubeLike);
        let res = rep.take_result::<TspResult>().unwrap();
        assert_eq!(res.best, best, "every strategy must find the optimum");
        println!(
            "  {:<12} nodes={:>9}  ({:>5.2}x sequential)  time={:>9.3} ms",
            q.name(),
            res.nodes,
            res.nodes as f64 / seq_nodes as f64,
            rep.time_ns as f64 / 1e6,
        );
    }

    println!("\nscaling with bitvector priorities + ACWN:");
    let prog = build(params); // the app's own defaults
    let t1 = prog.run_sim_preset(1, MachinePreset::NcubeLike).time_ns;
    for p in [1usize, 4, 16, 64] {
        let mut rep = prog.run_sim_preset(p, MachinePreset::NcubeLike);
        let res = rep.take_result::<TspResult>().unwrap();
        println!(
            "  P={p:>3}  time={:>9.3} ms  speedup={:>6.2}  nodes={}",
            rep.time_ns as f64 / 1e6,
            t1 as f64 / rep.time_ns as f64,
            res.nodes,
        );
    }
}
