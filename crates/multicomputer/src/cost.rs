//! Network and scheduling cost model for the simulated multicomputer.
//!
//! The classic model for 1991-era message passing is an affine cost per
//! message: a fixed software/launch overhead `alpha`, a per-byte
//! transmission cost `beta`, and a per-hop switching cost `gamma` (these
//! machines used store-and-forward or early wormhole routing, so distance
//! mattered). We use
//!
//! ```text
//! latency(bytes, hops) = alpha + bytes * beta + hops * gamma
//! ```
//!
//! plus a small `local` cost for messages a PE sends to itself (the Chare
//! Kernel short-circuited those through the local queue) and a `dispatch`
//! cost charged per scheduled message to model the kernel's
//! pick-and-dispatch overhead.
//!
//! [`MachinePreset`] provides parameters roughly in proportion to the
//! paper's machines. Absolute values are not the point — the experiments
//! reproduce *relative* behavior (speedup shapes, strategy rankings) — but
//! the ratios between software overhead and per-byte cost match the
//! published characteristics of those interconnects (hundreds of
//! microseconds of software overhead, ~1–3 MB/s links).

use crate::time::Cost;
use crate::topology::Topology;

/// Affine per-message network cost model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// Fixed per-message software overhead (both endpoints combined).
    pub alpha: Cost,
    /// Per-byte transmission cost.
    pub beta: Cost,
    /// Per-hop switching cost.
    pub gamma: Cost,
    /// Delivery cost of a PE-local message.
    pub local: Cost,
    /// Scheduler pick-and-dispatch overhead charged per executed user
    /// message.
    pub dispatch: Cost,
    /// Overhead of a step that only processed lightweight runtime
    /// control traffic (load reports, detection waves, work tokens).
    pub ctl_dispatch: Cost,
}

impl CostModel {
    /// End-to-end latency of a `bytes`-byte message crossing `hops` links.
    ///
    /// `hops == 0` means a PE-local message, which costs only
    /// [`CostModel::local`].
    pub fn latency(&self, bytes: u32, hops: u32) -> Cost {
        if hops == 0 {
            return self.local;
        }
        self.alpha + self.beta.times(bytes as u64) + self.gamma.times(hops as u64)
    }

    /// Time the sender's network interface is occupied injecting the
    /// message (serializes back-to-back sends from one PE).
    pub fn injection(&self, bytes: u32, hops: u32) -> Cost {
        if hops == 0 {
            Cost::ZERO
        } else {
            self.beta.times(bytes as u64)
        }
    }
}

/// Parameter presets approximating the paper's evaluation machines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MachinePreset {
    /// NCUBE/2-like hypercube: moderate software overhead, slow links,
    /// noticeable per-hop cost (store-and-forward heritage).
    NcubeLike,
    /// Intel iPSC/2-like: higher software overhead, faster links,
    /// small per-hop cost (early wormhole routing).
    IpscLike,
    /// Bus-based shared-memory multiprocessor (Sequent Symmetry-like):
    /// cheap "messages" (shared-memory queue operations).
    SharedBusLike,
    /// An idealized zero-latency machine, useful to isolate algorithmic
    /// speedup limits from communication costs.
    Ideal,
}

impl MachinePreset {
    /// The cost model for this preset.
    pub fn cost_model(self) -> CostModel {
        match self {
            MachinePreset::NcubeLike => CostModel {
                alpha: Cost::micros(150),
                beta: Cost::nanos(570), // ~1.75 MB/s links
                gamma: Cost::micros(35),
                local: Cost::micros(5),
                dispatch: Cost::micros(8),
                ctl_dispatch: Cost::micros(2),
            },
            MachinePreset::IpscLike => CostModel {
                alpha: Cost::micros(350),
                beta: Cost::nanos(360), // ~2.8 MB/s links
                gamma: Cost::micros(10),
                local: Cost::micros(5),
                dispatch: Cost::micros(8),
                ctl_dispatch: Cost::micros(2),
            },
            MachinePreset::SharedBusLike => CostModel {
                alpha: Cost::micros(20),
                beta: Cost::nanos(100),
                gamma: Cost::micros(2),
                local: Cost::micros(3),
                dispatch: Cost::micros(6),
                ctl_dispatch: Cost::nanos(1500),
            },
            MachinePreset::Ideal => CostModel {
                alpha: Cost::ZERO,
                beta: Cost::ZERO,
                gamma: Cost::ZERO,
                local: Cost::ZERO,
                dispatch: Cost::ZERO,
                ctl_dispatch: Cost::ZERO,
            },
        }
    }

    /// The natural topology for this preset.
    pub fn topology(self, npes: usize) -> Topology {
        match self {
            MachinePreset::NcubeLike | MachinePreset::IpscLike => Topology::Hypercube,
            MachinePreset::SharedBusLike => Topology::Bus,
            MachinePreset::Ideal => {
                let _ = npes;
                Topology::FullyConnected
            }
        }
    }
}

/// The spec-string spelling (`preset=` in a desim scenario): `ncube`,
/// `ipsc`, `bus`, `ideal`.
impl std::fmt::Display for MachinePreset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            MachinePreset::NcubeLike => "ncube",
            MachinePreset::IpscLike => "ipsc",
            MachinePreset::SharedBusLike => "bus",
            MachinePreset::Ideal => "ideal",
        })
    }
}

impl std::str::FromStr for MachinePreset {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        [
            MachinePreset::NcubeLike,
            MachinePreset::IpscLike,
            MachinePreset::SharedBusLike,
            MachinePreset::Ideal,
        ]
        .into_iter()
        .find(|p| p.to_string() == s)
        .ok_or_else(|| format!("unknown preset '{s}'"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_spelling_round_trips() {
        for (p, s) in [
            (MachinePreset::NcubeLike, "ncube"),
            (MachinePreset::IpscLike, "ipsc"),
            (MachinePreset::SharedBusLike, "bus"),
            (MachinePreset::Ideal, "ideal"),
        ] {
            assert_eq!(p.to_string(), s);
            assert_eq!(s.parse(), Ok(p));
        }
        assert!("vax".parse::<MachinePreset>().is_err());
    }

    #[test]
    fn latency_is_affine() {
        let m = CostModel {
            alpha: Cost(100),
            beta: Cost(2),
            gamma: Cost(10),
            local: Cost(1),
            dispatch: Cost(0),
            ctl_dispatch: Cost(0),
        };
        assert_eq!(m.latency(50, 3), Cost(100 + 100 + 30));
        assert_eq!(m.latency(0, 1), Cost(110));
    }

    #[test]
    fn local_messages_bypass_network() {
        let m = MachinePreset::NcubeLike.cost_model();
        assert_eq!(m.latency(1_000_000, 0), m.local);
        assert_eq!(m.injection(1_000_000, 0), Cost::ZERO);
    }

    #[test]
    fn injection_scales_with_bytes() {
        let m = CostModel {
            alpha: Cost(0),
            beta: Cost(3),
            gamma: Cost(0),
            local: Cost(0),
            dispatch: Cost(0),
            ctl_dispatch: Cost(0),
        };
        assert_eq!(m.injection(10, 2), Cost(30));
    }

    #[test]
    fn ideal_machine_is_free() {
        let m = MachinePreset::Ideal.cost_model();
        assert_eq!(m.latency(4096, 5), Cost::ZERO);
        assert_eq!(m.dispatch, Cost::ZERO);
    }

    #[test]
    fn presets_have_distinct_alpha_beta_tradeoffs() {
        let ncube = MachinePreset::NcubeLike.cost_model();
        let ipsc = MachinePreset::IpscLike.cost_model();
        // iPSC: more software overhead, faster wires — the classic
        // published contrast between the two machines.
        assert!(ipsc.alpha > ncube.alpha);
        assert!(ipsc.beta < ncube.beta);
    }

    #[test]
    fn preset_topologies() {
        assert_eq!(MachinePreset::NcubeLike.topology(8), Topology::Hypercube);
        assert_eq!(MachinePreset::SharedBusLike.topology(8), Topology::Bus);
        assert_eq!(MachinePreset::Ideal.topology(8), Topology::FullyConnected);
    }

    #[test]
    fn bigger_messages_cost_more() {
        let m = MachinePreset::IpscLike.cost_model();
        assert!(m.latency(4096, 2) > m.latency(64, 2));
        assert!(m.latency(64, 4) > m.latency(64, 1));
    }
}
