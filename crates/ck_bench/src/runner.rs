//! Memoized scenario runner: deterministic simulator runs, keyed by an
//! explicit configuration label.
//!
//! The evaluation re-runs many *identical* scenarios: every speedup
//! table runs `P=1` twice (the `T(1)` baseline plus the `P=1` column),
//! Figure 1 is Table 2's speedup sweep transposed — the same requests,
//! so after Table 2 on the same worker it simulates nothing — Tables 1/8
//! and the clean rows of Table R re-run the standard suite at 16 PEs,
//! and the strategy ablations (Tables 4/5, Figures 2/4/7/8) all revisit
//! the suite's default configurations. Because the simulator is fully
//! deterministic — same program, same PE count, same preset ⇒ the same
//! report, bit for bit — those repeats can be served from a cache
//! without changing a single byte of table output.
//!
//! # Soundness
//!
//! Correctness rests on two properties:
//!
//! 1. **Determinism.** `Program::run_sim_preset` is a pure function of
//!    (program configuration, `npes`, preset). This is the repo's core
//!    reproducibility invariant, enforced by the byte-identical
//!    `EXPERIMENTS.md` regeneration check.
//! 2. **Injective labels.** Callers must fold *every* knob that can
//!    change the built program into the label. For registry apps that
//!    is the canonical spec string plus the combining flag
//!    ([`scenario_label`]): every parameter key, the queueing strategy
//!    and the balance strategy with its tuning are spelled out in one
//!    order, so equal configurations collide (that's the point) and
//!    different ones cannot.
//!
//! Runs with nondeterministic *observability* extras that the tables
//! consume (sampling, tracing, fault injection) go through
//! `Program::run_sim` directly and are never cached here.
//!
//! The cache is thread-local: the table driver gives each worker
//! thread its own memo, so no locks are taken and results never cross
//! threads. Caching only changes wall-clock time, never table bytes;
//! `tables --no-cache` and the A/B test in `perf_invariants.rs` verify
//! exactly that.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use chare_kernel::prelude::*;
use ck_apps::spec::Spec;

thread_local! {
    static CACHE: RefCell<HashMap<String, Rc<CkReport>>> = RefCell::new(HashMap::new());
    static ENABLED: Cell<bool> = const { Cell::new(true) };
    static HITS: Cell<u64> = const { Cell::new(0) };
    static MISSES: Cell<u64> = const { Cell::new(0) };
}

/// Enable or disable memoization on this thread. Disabling also drops
/// the existing entries, so a subsequent re-enable starts cold.
pub fn set_caching(on: bool) {
    ENABLED.with(|c| c.set(on));
    if !on {
        CACHE.with(|c| c.borrow_mut().clear());
    }
}

/// Whether memoization is enabled on this thread (default: yes).
pub fn caching() -> bool {
    ENABLED.with(|c| c.get())
}

/// Hit/miss accounting for the current thread.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Runs served from the memo.
    pub hits: u64,
    /// Runs actually simulated.
    pub misses: u64,
    /// Reports currently retained.
    pub entries: usize,
}

/// This thread's cache statistics.
pub fn cache_stats() -> CacheStats {
    CacheStats {
        hits: HITS.with(|c| c.get()),
        misses: MISSES.with(|c| c.get()),
        entries: CACHE.with(|c| c.borrow().len()),
    }
}

/// Canonical scenario label: the spec's canonical string — app, every
/// parameter key, queueing and balance strategy with its tuning — plus
/// the combining flag, the one program knob a spec does not carry. See
/// the module docs for why injectivity here is load-bearing.
pub fn scenario_label(spec: &Spec, combining: bool) -> String {
    format!("{spec}|comb={combining}")
}

/// [`run_preset`] for the program `spec` describes, labelled by it.
pub fn run_spec(spec: &Spec, npes: usize, preset: MachinePreset) -> Rc<CkReport> {
    run_preset(&scenario_label(spec, false), npes, preset, || spec.build())
}

/// Attach streaming metrics to every memoized run when
/// `CK_TABLES_METRICS=1` is set. Metrics are passive and
/// byte-identical-off, so this cannot change a table byte — which is
/// exactly what CI uses it for: `tables --all` output is diffed with
/// the variable set against a run without it.
fn with_forced_metrics(prog: Program) -> Program {
    static FORCED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    let forced = *FORCED.get_or_init(|| {
        std::env::var("CK_TABLES_METRICS").map(|v| v == "1").unwrap_or(false)
    });
    if forced {
        prog.with_metrics(chare_kernel::metrics::MetricsConfig)
    } else {
        prog
    }
}

/// Run `build()` on the simulator at `npes` PEs under `preset`, or
/// return the memoized report for the same `(label, npes, preset)`.
/// The program is only built on a miss.
pub fn run_preset(
    label: &str,
    npes: usize,
    preset: MachinePreset,
    build: impl FnOnce() -> Program,
) -> Rc<CkReport> {
    let key = format!("{label}@P{npes}|{preset:?}");
    if caching() {
        if let Some(hit) = CACHE.with(|c| c.borrow().get(&key).cloned()) {
            HITS.with(|c| c.set(c.get() + 1));
            return hit;
        }
    }
    MISSES.with(|c| c.set(c.get() + 1));
    let rep = Rc::new(with_forced_metrics(build()).run_sim_preset(npes, preset));
    if caching() {
        CACHE.with(|c| c.borrow_mut().insert(key, rep.clone()));
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use ck_apps::fib;

    fn tiny() -> Program {
        fib::build(fib::FibParams { n: 10, grain: 6 })
    }

    #[test]
    fn hit_returns_the_same_report() {
        set_caching(true);
        let a = run_preset("test:fib-tiny", 2, MachinePreset::NcubeLike, tiny);
        let b = run_preset("test:fib-tiny", 2, MachinePreset::NcubeLike, || {
            panic!("cache hit must not rebuild")
        });
        assert!(Rc::ptr_eq(&a, &b));
    }

    #[test]
    fn distinct_npes_and_labels_miss() {
        set_caching(true);
        let a = run_preset("test:fib-k1", 2, MachinePreset::NcubeLike, tiny);
        let b = run_preset("test:fib-k1", 4, MachinePreset::NcubeLike, tiny);
        let c = run_preset("test:fib-k2", 2, MachinePreset::NcubeLike, tiny);
        assert!(!Rc::ptr_eq(&a, &b));
        assert!(!Rc::ptr_eq(&a, &c));
    }

    #[test]
    fn disabled_cache_always_rebuilds() {
        set_caching(false);
        let a = run_preset("test:fib-off", 2, MachinePreset::NcubeLike, tiny);
        let b = run_preset("test:fib-off", 2, MachinePreset::NcubeLike, tiny);
        assert!(!Rc::ptr_eq(&a, &b));
        assert_eq!(a.time_ns, b.time_ns, "determinism regardless of cache");
        set_caching(true);
    }

    #[test]
    fn label_separates_every_knob() {
        let label = |spec: &str, combining| scenario_label(&Spec::parse(spec).unwrap(), combining);
        let base = label("fib:n=24,grain=14", false);
        assert_eq!(base, label("fib:grain=14,n=24,q=fifo,bal=acwn", false), "equal configs collide");
        for other in [
            label("fib:n=24,grain=15", false),
            label("fib:n=24,grain=14,q=lifo", false),
            label("fib:n=24,grain=14,bal=acwn:1/2", false),
            label("fib:n=24,grain=14", true),
        ] {
            assert_ne!(base, other);
        }
    }
}
