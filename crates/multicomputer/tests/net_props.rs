//! Property-based tests of the network timing model: per-pair FIFO under
//! arbitrary bursts, monotonicity of latency in message size and
//! distance, and simulator determinism for randomized (but seeded)
//! traffic patterns.

use std::collections::VecDeque;

use multicomputer::{
    FnFactory, MachinePreset, NetCtx, NodeProgram, Packet, Pe, SimConfig, SimMachine, StepKind,
    Topology,
};
use proptest::prelude::*;

/// PE 0 sends a scripted burst of (destination, size) messages in one
/// handler; every other PE records (sender-sequence, arrival-time), read
/// off the nodes the run hands back.
struct Scripted {
    pe: Pe,
    script: Vec<(u32, u32)>, // (dest, bytes), sequence number = index
    queue: VecDeque<Packet>,
    seen: Vec<(u32, u64)>, // (sequence, arrival ns)
    kicked: bool,
}

impl NodeProgram for Scripted {
    fn boot(&mut self, net: &mut dyn NetCtx) {
        if self.pe == Pe::ZERO {
            net.send(Pe::ZERO, 1, Box::new(u32::MAX));
        }
    }
    fn incoming(&mut self, pkt: Packet) {
        self.queue.push_back(pkt);
    }
    fn step(&mut self, net: &mut dyn NetCtx) -> Option<StepKind> {
        let pkt = self.queue.pop_front()?;
        let v = *pkt.payload.downcast::<u32>().unwrap();
        if self.pe == Pe::ZERO && v == u32::MAX && !self.kicked {
            self.kicked = true;
            for (i, &(dest, bytes)) in self.script.iter().enumerate() {
                net.send(Pe(dest), bytes, Box::new(i as u32));
            }
        } else {
            // Record and keep; the run ends by global quiescence.
            self.seen.push((v, net.now_ns()));
        }
        Some(StepKind::User)
    }
    fn has_work(&self) -> bool {
        !self.queue.is_empty()
    }
}

/// Run a scripted burst; returns, per PE, the sender-sequence numbers in
/// arrival order.
fn run_script(script: Vec<(u32, u32)>, npes: usize, topo: Topology) -> Vec<Vec<u32>> {
    let script_arc = std::sync::Arc::new(script);
    let factory = {
        let script_arc = std::sync::Arc::clone(&script_arc);
        FnFactory(move |pe: Pe, _n| Scripted {
            pe,
            script: if pe == Pe::ZERO {
                (*script_arc).clone()
            } else {
                Vec::new()
            },
            queue: VecDeque::new(),
            seen: Vec::new(),
            kicked: false,
        })
    };
    let cfg = SimConfig::new(npes, topo, MachinePreset::NcubeLike.cost_model());
    let rep = SimMachine::run_factory(cfg, &factory);
    let pes: Vec<Pe> = rep.nodes.iter().map(|n| n.pe).collect();
    assert_eq!(pes, Pe::all(npes).collect::<Vec<_>>(), "nodes come back in PE order");
    rep.nodes.iter().map(|n| n.seen.iter().map(|&(seq, _)| seq).collect()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Messages from PE 0 to any single destination arrive in send
    /// order, whatever the interleaving of sizes and other destinations.
    #[test]
    fn per_pair_fifo_under_random_bursts(
        script in proptest::collection::vec((1u32..6, 1u32..5_000), 1..40),
        topo_pick in 0usize..3,
    ) {
        let topo = match topo_pick {
            0 => Topology::Hypercube,
            1 => Topology::Ring,
            _ => Topology::FullyConnected,
        };
        let arrivals = run_script(script.clone(), 6, topo);
        for (dest, got) in arrivals.iter().enumerate().skip(1) {
            let expected: Vec<u32> = script
                .iter()
                .enumerate()
                .filter(|(_, &(d, _))| d as usize == dest)
                .map(|(i, _)| i as u32)
                .collect();
            // Arrival order must preserve send order (they're all from
            // PE 0).
            prop_assert_eq!(got, &expected, "dest {}", dest);
        }
    }

    /// Identical runs produce identical arrival sequences.
    #[test]
    fn scripted_runs_are_deterministic(
        script in proptest::collection::vec((1u32..5, 1u32..10_000), 1..30),
    ) {
        let a = run_script(script.clone(), 5, Topology::Hypercube);
        let b = run_script(script, 5, Topology::Hypercube);
        prop_assert_eq!(a, b);
    }
}

#[test]
fn latency_monotone_in_bytes_and_distance() {
    let model = MachinePreset::NcubeLike.cost_model();
    let mut last = 0;
    for bytes in [1u32, 10, 100, 1_000, 10_000] {
        let l = model.latency(bytes, 2).as_nanos();
        assert!(l >= last, "latency not monotone in bytes");
        last = l;
    }
    let mut last = 0;
    for hops in 1..8 {
        let l = model.latency(64, hops).as_nanos();
        assert!(l >= last, "latency not monotone in hops");
        last = l;
    }
}
