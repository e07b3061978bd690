//! Deterministic loopback loss/reorder shim for the data mesh.
//!
//! Real sockets never lose frames on loopback, so the retransmit,
//! send-window and seed-redirect machinery of
//! [`reliable`](crate::reliable) would go unexercised on the procs
//! backend. This shim injects faults at the *sender* side of every
//! directed link, driven by a counter-based PRNG keyed on
//! `(seed, src, dst)` — every worker computes the identical fault
//! schedule from the environment, no coordination needed, and the same
//! seed replays the same schedule forever (the property the
//! loss-shim proptests pin down via [`loss_schedule`]).
//!
//! Two fault kinds per frame, drawn in a fixed order:
//!
//! * **drop** — the frame never reaches the socket;
//! * **hold** — the frame is parked; the *next* surviving frame on the
//!   link is sent first and releases it (a one-frame reorder, the
//!   minimal adversary against the receiver's sequence window).
//!
//! A held frame cannot stall the run: a parked `RelData` is retransmitted
//! on timeout (a new frame, which releases it), and a parked `RelAck` is
//! regenerated when the unacked sender retransmits. This is why the shim
//! refuses to run without reliable delivery enabled.

use multicomputer::fault::splitmix64;

/// Seeded loss/reorder injection on every directed data link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LossConfig {
    /// Schedule seed; same seed ⇒ same per-link fault schedule.
    pub seed: u64,
    /// Per-frame drop probability in permille (0–1000).
    pub drop_permille: u16,
    /// Per-frame hold (one-frame reorder) probability in permille.
    pub reorder_permille: u16,
}

impl LossConfig {
    /// `permille`‰ drops, half that rate of reorders.
    pub fn new(seed: u64, permille: u16) -> Self {
        LossConfig {
            seed,
            drop_permille: permille,
            reorder_permille: permille / 2,
        }
    }
}

/// What the shim decided for one frame on one link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LossAction {
    /// Frame goes out (after any previously held frame is released
    /// behind it).
    Deliver,
    /// Frame vanishes.
    Drop,
    /// Frame is parked until the next surviving frame on this link.
    Hold,
}

fn link_seed(seed: u64, src: u32, dst: u32) -> u64 {
    let mut s = seed ^ ((src as u64) << 32) ^ ((dst as u64) << 1) ^ 0xCAFE_F00D;
    // One scramble round so adjacent links get uncorrelated streams.
    splitmix64(&mut s)
}

/// Per-link decision stream.
struct Link {
    rng: u64,
    /// One parked frame, released behind the next surviving frame.
    held: Option<Vec<u8>>,
}

impl Link {
    fn new(cfg: &LossConfig, src: u32, dst: u32) -> Self {
        Link {
            rng: link_seed(cfg.seed, src, dst),
            held: None,
        }
    }

    fn decide(&mut self, cfg: &LossConfig) -> LossAction {
        let drop_draw = splitmix64(&mut self.rng) % 1000;
        let hold_draw = splitmix64(&mut self.rng) % 1000;
        if drop_draw < cfg.drop_permille as u64 {
            LossAction::Drop
        } else if hold_draw < cfg.reorder_permille as u64 {
            LossAction::Hold
        } else {
            LossAction::Deliver
        }
    }
}

/// Sender-side shim state for one worker: one decision stream per
/// outgoing link.
pub(crate) struct LossShim {
    cfg: LossConfig,
    src: u32,
    links: Vec<Option<Link>>,
    pub(crate) dropped: u64,
    pub(crate) reordered: u64,
}

impl LossShim {
    pub(crate) fn new(cfg: LossConfig, src: u32, npes: usize) -> Self {
        LossShim {
            cfg,
            src,
            links: (0..npes).map(|_| None).collect(),
            dropped: 0,
            reordered: 0,
        }
        .init()
    }

    fn init(mut self) -> Self {
        for d in 0..self.links.len() {
            if d as u32 != self.src {
                self.links[d] = Some(Link::new(&self.cfg, self.src, d as u32));
            }
        }
        self
    }

    /// Run one outgoing frame through the shim. Returns the frames to
    /// actually emit, in order (0, 1 or 2 of them — two when this frame
    /// releases a previously held one).
    pub(crate) fn outgoing(&mut self, dst: u32, frame: Vec<u8>) -> Vec<Vec<u8>> {
        let link = self.links[dst as usize]
            .as_mut()
            .expect("loss shim consulted for self-send");
        match link.decide(&self.cfg) {
            LossAction::Drop => {
                self.dropped += 1;
                Vec::new()
            }
            LossAction::Hold => {
                self.reordered += 1;
                // Park this frame; anything already parked goes out now
                // (two consecutive holds degrade to a swap, keeping at
                // most one frame parked per link).
                match link.held.replace(frame) {
                    Some(prev) => vec![prev],
                    None => Vec::new(),
                }
            }
            LossAction::Deliver => match link.held.take() {
                Some(prev) => vec![frame, prev],
                None => vec![frame],
            },
        }
    }
}

/// The first `n` per-frame decisions the shim will make on the directed
/// link `src → dst` under `cfg` — the schedule is a pure function of
/// `(cfg.seed, src, dst)`, which is what makes seeded socket-fault runs
/// replayable. Exposed for the loss-shim property tests.
pub fn loss_schedule(cfg: &LossConfig, src: u32, dst: u32, n: usize) -> Vec<LossAction> {
    let mut link = Link::new(cfg, src, dst);
    (0..n).map(|_| link.decide(cfg)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(drop: u16, reorder: u16) -> LossConfig {
        LossConfig {
            seed: 0xD15EA5E,
            drop_permille: drop,
            reorder_permille: reorder,
        }
    }

    #[test]
    fn schedule_is_deterministic() {
        let c = cfg(100, 50);
        assert_eq!(loss_schedule(&c, 0, 1, 500), loss_schedule(&c, 0, 1, 500));
    }

    #[test]
    fn schedule_differs_per_link_and_seed() {
        let c = cfg(500, 200);
        assert_ne!(loss_schedule(&c, 0, 1, 200), loss_schedule(&c, 1, 0, 200));
        let mut c2 = c;
        c2.seed ^= 1;
        assert_ne!(loss_schedule(&c, 0, 1, 200), loss_schedule(&c2, 0, 1, 200));
    }

    #[test]
    fn zero_rates_always_deliver() {
        for a in loss_schedule(&cfg(0, 0), 3, 4, 1000) {
            assert_eq!(a, LossAction::Deliver);
        }
    }

    #[test]
    fn rates_are_roughly_honored() {
        let n = 20_000;
        let sched = loss_schedule(&cfg(100, 50), 0, 1, n);
        let drops = sched.iter().filter(|&&a| a == LossAction::Drop).count();
        let holds = sched.iter().filter(|&&a| a == LossAction::Hold).count();
        // 10% ± 2% drops, ~4.5% ± 2% holds (hold is drawn only on
        // surviving frames).
        assert!((1600..=2400).contains(&drops), "drops = {drops}");
        assert!((500..=1400).contains(&holds), "holds = {holds}");
    }

    #[test]
    fn shim_emits_frames_in_reorder_pattern() {
        // Force alternating behavior with a hand-driven shim at 100%
        // hold: every frame parks, releasing its predecessor — a
        // one-frame lag stream.
        let mut shim = LossShim::new(
            LossConfig {
                seed: 1,
                drop_permille: 0,
                reorder_permille: 1000,
            },
            0,
            2,
        );
        assert!(shim.outgoing(1, vec![1]).is_empty());
        assert_eq!(shim.outgoing(1, vec![2]), vec![vec![1]]);
        assert_eq!(shim.outgoing(1, vec![3]), vec![vec![2]]);
        assert_eq!(shim.reordered, 3);
    }

    #[test]
    fn shim_drop_counts() {
        let mut shim = LossShim::new(
            LossConfig {
                seed: 1,
                drop_permille: 1000,
                reorder_permille: 0,
            },
            0,
            2,
        );
        for i in 0..10u8 {
            assert!(shim.outgoing(1, vec![i]).is_empty());
        }
        assert_eq!(shim.dropped, 10);
    }

    #[test]
    fn deliver_releases_held_frame_behind() {
        let mut shim = LossShim::new(
            LossConfig {
                seed: 9,
                drop_permille: 0,
                reorder_permille: 0,
            },
            0,
            2,
        );
        // Manually park a frame, then deliver: current first, held second.
        shim.links[1].as_mut().unwrap().held = Some(vec![7]);
        assert_eq!(shim.outgoing(1, vec![8]), vec![vec![8], vec![7]]);
    }
}
