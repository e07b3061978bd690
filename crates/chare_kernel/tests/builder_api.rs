//! Public API behavior of `ProgramBuilder`, `Program` and `CkReport`.

use std::time::Duration;

use chare_kernel::prelude::*;
use multicomputer::ThreadConfig;

struct Trivial;
impl ChareInit for Trivial {
    type Seed = u64;
    fn create(seed: u64, ctx: &mut Ctx) -> Self {
        ctx.exit(seed + 1);
        Trivial
    }
}
impl Chare for Trivial {
    fn entry(&mut self, _ep: EpId, _msg: MsgBody, _ctx: &mut Ctx) {}
}

struct Other;
impl ChareInit for Other {
    type Seed = ();
    fn create(_seed: (), _ctx: &mut Ctx) -> Self {
        Other
    }
}
impl Chare for Other {
    fn entry(&mut self, _ep: EpId, _msg: MsgBody, _ctx: &mut Ctx) {}
}

fn trivial_program(seed: u64) -> Program {
    let mut b = ProgramBuilder::new();
    let kind = b.chare::<Trivial>();
    b.main(kind, seed);
    b.build()
}

#[test]
fn registration_assigns_sequential_handles() {
    let mut b = ProgramBuilder::new();
    let a = b.chare::<Trivial>();
    let c = b.chare::<Other>();
    assert_eq!(a.id.0, 0);
    assert_eq!(c.id.0, 1);
    let acc1 = b.accumulator::<SumU64>();
    let acc2 = b.accumulator::<SumF64>();
    assert_eq!(acc1.id.0, 0);
    assert_eq!(acc2.id.0, 1);
    let t1 = b.table::<u64>();
    let t2 = b.table::<String>();
    assert_eq!(t1.id.0, 0);
    assert_eq!(t2.id.0, 1);
}

#[test]
fn program_is_reusable_and_deterministic() {
    let prog = trivial_program(10);
    for _ in 0..3 {
        let mut rep = prog.run_sim_preset(2, MachinePreset::NcubeLike);
        assert_eq!(rep.take_result::<u64>(), Some(11));
    }
    let a = prog.run_sim_preset(4, MachinePreset::NcubeLike).time_ns;
    let b = prog.run_sim_preset(4, MachinePreset::NcubeLike).time_ns;
    assert_eq!(a, b);
}

#[test]
fn strategy_accessors_reflect_configuration() {
    let mut b = ProgramBuilder::new();
    let kind = b.chare::<Trivial>();
    b.queueing(QueueingStrategy::Lifo);
    b.balance(BalanceStrategy::acwn());
    b.main(kind, 1u64);
    let prog = b.build();
    assert_eq!(prog.opts().queueing, QueueingStrategy::Lifo);
    assert_eq!(prog.opts().balance.name(), "acwn");
    // Everything the builder was not told is the library default, and
    // `with_opts` changes what it is told to and nothing else.
    let defaults = RunOpts::default();
    assert_eq!(prog.opts().rng_seed, defaults.rng_seed);
    assert_eq!(trivial_program(1).opts(), &defaults);
    let direct = prog.with_opts(|o| o.bcast = BroadcastMode::Direct);
    assert_eq!(direct.opts(), &RunOpts { bcast: BroadcastMode::Direct, ..prog.opts().clone() });
    assert!(prog.with_combining().opts().combining && !prog.opts().combining);
}

const DEAD: ReliableConfig =
    ReliableConfig { window: 0, timeout: Cost::millis(5), seed_retry_limit: 5 };

#[test]
#[should_panic(expected = "window must be >= 1")]
fn a_degenerate_reliable_config_is_refused_by_build() {
    let mut b = ProgramBuilder::new();
    b.reliable(DEAD);
    b.build();
}

#[test]
#[should_panic(expected = "window must be >= 1")]
fn a_degenerate_reliable_config_is_refused_by_with_opts() {
    trivial_program(0).with_opts(|o| o.reliable = Some(DEAD));
}

#[test]
fn report_time_helpers_agree() {
    let rep = trivial_program(0).run_sim_preset(1, MachinePreset::NcubeLike);
    assert!(rep.time_ns > 0);
    assert!((rep.time_secs() - rep.time_ns as f64 / 1e9).abs() < 1e-15);
    assert_eq!(rep.time().as_nanos() as u64, rep.time_ns);
}

#[test]
#[should_panic(expected = "no kernel counter named \"entries_execd\"")]
fn counter_total_of_a_misspelt_counter_panics_naming_it() {
    let rep = trivial_program(0).run_sim_preset(2, MachinePreset::NcubeLike);
    assert_eq!(rep.counter_total("entries_executed"), rep.total().entries_executed);
    assert!(rep.total().entries_executed >= 1);
    rep.counter_total("entries_execd");
}

#[test]
fn counter_total_of_two_saturated_pes_is_u64_max() {
    let mut rep = trivial_program(0).run_sim_preset(2, MachinePreset::NcubeLike);
    assert_eq!(rep.counters.len(), 2, "one set of counters per PE");
    let saturated = chare_kernel::KernelCounters { user_sent: u64::MAX, ..Default::default() };
    rep.counters = vec![saturated; 2];
    assert_eq!(rep.counter_total("user_sent"), u64::MAX);
    assert_eq!(rep.total().user_sent, u64::MAX);
}

#[test]
fn take_result_survives_wrong_type() {
    let mut rep = trivial_program(5).run_sim_preset(1, MachinePreset::NcubeLike);
    assert_eq!(rep.take_result::<String>(), None);
    assert_eq!(rep.take_result::<u64>(), Some(6));
    assert_eq!(rep.take_result::<u64>(), None, "taken exactly once");
}

#[test]
fn custom_sim_config_runs_on_a_mesh() {
    let cfg = SimConfig::new(
        6,
        Topology::Mesh2D { rows: 2, cols: 3 },
        MachinePreset::IpscLike.cost_model(),
    );
    let mut rep = trivial_program(7).run_sim(cfg);
    assert_eq!(rep.take_result::<u64>(), Some(8));
    assert!(rep.sim.is_some());
    assert!(!rep.timed_out);
}

#[test]
fn thread_config_watchdog_is_respected() {
    // A trivially-exiting program finishes far inside the watchdog.
    let cfg = ThreadConfig::new(2).with_watchdog(Duration::from_secs(10));
    let mut rep = trivial_program(3).run_threads_cfg(cfg, Topology::Ring);
    assert!(!rep.timed_out);
    assert_eq!(rep.take_result::<u64>(), Some(4));
    assert!(rep.sim.is_none(), "thread runs carry no sim detail");
}

#[test]
fn read_only_values_shared_not_copied() {
    // Register a large read-only blob; handles alias one Arc.
    let mut b = ProgramBuilder::new();
    let kind = b.chare::<RoProbe>();
    let ro = b.read_only(vec![7u8; 1 << 20]);
    b.main(kind, RoSeed { ro });
    let mut rep = b.build().run_sim_preset(4, MachinePreset::NcubeLike);
    assert_eq!(rep.take_result::<u8>(), Some(7));
}

#[derive(Clone)]
struct RoSeed {
    ro: ReadOnly<Vec<u8>>,
}
message!(RoSeed);

struct RoProbe;
impl ChareInit for RoProbe {
    type Seed = RoSeed;
    fn create(seed: RoSeed, ctx: &mut Ctx) -> Self {
        let blob = ctx.read_only(seed.ro);
        ctx.exit(blob[12345]);
        RoProbe
    }
}
impl Chare for RoProbe {
    fn entry(&mut self, _ep: EpId, _msg: MsgBody, _ctx: &mut Ctx) {}
}
