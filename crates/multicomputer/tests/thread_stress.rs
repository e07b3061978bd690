//! Thread-backend stress: heavy oversubscription, randomized message
//! sizes, all-to-all traffic — correctness must not depend on real
//! parallelism, scheduling luck, or message size.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use multicomputer::{
    FnFactory, NetCtx, NodeProgram, Packet, Pe, StepKind, ThreadConfig, ThreadMachine,
};

/// All-to-all: every PE sends `per_peer` messages to every other PE,
/// acknowledges everything it receives, and a shared counter tracks
/// total deliveries; PE 0 stops the machine when the global count is
/// reached.
struct AllToAll {
    pe: Pe,
    per_peer: u32,
    queue: VecDeque<Packet>,
    received: u64,
    delivered: Arc<AtomicU64>,
    expected_total: u64,
}

impl NodeProgram for AllToAll {
    fn boot(&mut self, net: &mut dyn NetCtx) {
        for peer in Pe::all(net.num_pes()) {
            if peer == self.pe {
                continue;
            }
            for i in 0..self.per_peer {
                // Vary the size so channel behavior sees a mix.
                let bytes = 1 + ((self.pe.0 + i) % 700) * 3;
                net.send(peer, bytes, Box::new(i as u64));
            }
        }
    }
    fn incoming(&mut self, pkt: Packet) {
        self.queue.push_back(pkt);
    }
    fn step(&mut self, net: &mut dyn NetCtx) -> Option<StepKind> {
        let pkt = self.queue.pop_front()?;
        let _ = pkt.payload.downcast::<u64>().expect("payload type");
        self.received += 1;
        let total = self.delivered.fetch_add(1, Ordering::Relaxed) + 1;
        if total == self.expected_total {
            net.deposit(Box::new(total));
            net.stop();
        }
        Some(StepKind::User)
    }
    fn has_work(&self) -> bool {
        !self.queue.is_empty()
    }
}

#[test]
fn all_to_all_on_heavily_oversubscribed_threads() {
    let npes = 24usize; // far more threads than this host has cores
    let per_peer = 20u32;
    let expected = (npes * (npes - 1)) as u64 * per_peer as u64;
    let delivered = Arc::new(AtomicU64::new(0));
    let factory = {
        let delivered = Arc::clone(&delivered);
        FnFactory(move |pe, _n| AllToAll {
            pe,
            per_peer,
            queue: VecDeque::new(),
            received: 0,
            delivered: Arc::clone(&delivered),
            expected_total: expected,
        })
    };
    let cfg = ThreadConfig::new(npes).with_watchdog(Duration::from_secs(45));
    let mut rep = ThreadMachine::run(cfg, &factory);
    assert!(!rep.timed_out, "all-to-all did not complete");
    assert_eq!(rep.take_result::<u64>(), Some(expected));
    // The last delivery stops the machine, so every PE has processed
    // all (npes-1) * per_peer messages it was sent.
    let pes: Vec<Pe> = rep.nodes.iter().map(|n| n.pe).collect();
    assert_eq!(pes, Pe::all(npes).collect::<Vec<_>>(), "nodes come back in PE order");
    let received: Vec<u64> = rep.nodes.iter().map(|n| n.received).collect();
    assert_eq!(received, vec![(npes as u64 - 1) * per_peer as u64; npes]);
}

#[test]
fn repeated_thread_runs_do_not_interfere() {
    // Back-to-back machines must not leak channels/threads into each
    // other (fresh state per run).
    for _ in 0..5 {
        let npes = 6usize;
        let per_peer = 5u32;
        let expected = (npes * (npes - 1)) as u64 * per_peer as u64;
        let delivered = Arc::new(AtomicU64::new(0));
        let factory = {
            let delivered = Arc::clone(&delivered);
            FnFactory(move |pe, _n| AllToAll {
                pe,
                per_peer,
                queue: VecDeque::new(),
                received: 0,
                delivered: Arc::clone(&delivered),
                expected_total: expected,
            })
        };
        let cfg = ThreadConfig::new(npes).with_watchdog(Duration::from_secs(30));
        let mut rep = ThreadMachine::run(cfg, &factory);
        assert!(!rep.timed_out);
        assert_eq!(rep.take_result::<u64>(), Some(expected));
    }
}
