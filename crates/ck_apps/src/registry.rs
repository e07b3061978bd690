//! The one list of benchmarks: an [`App`] descriptor per application,
//! defined next to it (`fib::APP`, …) and collected in [`APPS`].
//!
//! Everything that needs "every benchmark" — [`crate::spec`]'s parser,
//! the table suite in `ck_bench`, the `ck_desim` scenarios, the
//! cross-backend conformance and correctness tests — enumerates this
//! table or looks an app up in it by name; none keeps a list of its own.

use chare_kernel::prelude::*;
use chare_kernel::CkReport;

use crate::hashes::Digest;
use crate::spec::{Args, SpecError};

/// One benchmark: how to name it, build it, and check it.
pub struct App {
    /// Table name and first token of a spec string.
    pub name: &'static str,
    /// Queueing strategy when the spec gives no `q=`, and the one the
    /// app's own `build(params)` sets.
    pub queueing: QueueingStrategy,
    /// Balance strategy when the spec gives no `bal=`, and the one the
    /// app's own `build(params)` sets.
    pub balance: BalanceStrategy,
    /// Whether a clean run ends through quiescence detection rather
    /// than a counted `exit` (see [`App::qd_declares`]).
    pub ends_by_qd: bool,
    /// A spec small enough for a debug-build test on every backend.
    pub test_spec: &'static str,
    /// Read the app's keys out of `args`, each parsed as its field's
    /// own type. The order of the reads is the canonical key order.
    pub params: fn(&mut Args) -> Result<(), SpecError>,
    /// Build the program those keys describe, set to run under
    /// `queueing` and `balance` above.
    pub build: fn(&mut Args) -> Result<Program, SpecError>,
    /// The sequential answer for those keys on an `npes`-PE machine
    /// (only `sort`'s input depends on the machine size).
    pub oracle: fn(&mut Args, usize) -> Result<Answer, SpecError>,
    /// The comparable answer of a finished run, without consuming it.
    pub answer: fn(&CkReport) -> Option<Answer>,
}

/// Every benchmark, in the order of the crate's module table.
pub static APPS: [&App; 12] = [
    &crate::fib::APP,
    &crate::nqueens::APP,
    &crate::tsp::APP,
    &crate::puzzle::APP,
    &crate::jacobi::APP,
    &crate::primes::APP,
    &crate::quad::APP,
    &crate::matmul::APP,
    &crate::jacobi_conv::APP,
    &crate::sortbench::APP,
    &crate::mmr::APP,
    &crate::tablefill::APP,
];

/// Look an app up by name.
pub fn find(name: &str) -> Option<&'static App> {
    APPS.iter().copied().find(|a| a.name == name)
}

impl App {
    /// How often a clean run declares quiescence: once if the app ends
    /// by it, never otherwise — except puzzle, which re-arms the
    /// detector once per IDA* phase.
    pub fn qd_declares(&self, rep: &CkReport) -> u64 {
        match rep.result_ref::<crate::puzzle::PuzzleResult>() {
            Some(r) => u64::from(r.phases),
            None => u64::from(self.ends_by_qd),
        }
    }

    /// The app's spec keys, in canonical order.
    pub fn keys(&self) -> Vec<&'static str> {
        let mut args = Args::defaults(self.name);
        (self.params)(&mut args).expect("an app's own defaults parse");
        args.keys()
    }
}

impl PartialEq for App {
    fn eq(&self, other: &App) -> bool {
        self.name == other.name
    }
}

impl std::fmt::Debug for App {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "App({})", self.name)
    }
}

/// A comparable distillation of an app's result: exact for counts and
/// digests, tolerant for floating-point accumulations whose addition
/// order is legitimately schedule-dependent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Answer {
    /// An exact count (search totals, iteration counts, optimal costs).
    Int(u64),
    /// A floating-point accumulation, compared at 1e-9 relative.
    Float(f64),
    /// A 128-bit digest, compared exactly.
    Digest(Digest),
}

impl Answer {
    /// Whether two answers agree (exact for `Int` and `Digest`, 1e-9
    /// relative for `Float`).
    pub fn matches(self, other: Answer) -> bool {
        match (self, other) {
            (Answer::Float(a), Answer::Float(b)) => {
                let scale = a.abs().max(b.abs()).max(1.0);
                (a - b).abs() <= 1e-9 * scale
            }
            (a, b) => a == b,
        }
    }
}

impl std::fmt::Display for Answer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Answer::Int(v) => write!(f, "{v}"),
            // Shortest round-trip form: two floats print identically
            // iff they are bit-identical.
            Answer::Float(v) => write!(f, "{v:?}"),
            Answer::Digest(d) => f.write_str(&d.hex()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Spec;

    #[test]
    fn names_are_unique_and_test_specs_name_their_app() {
        for (i, app) in APPS.iter().enumerate() {
            assert!(APPS[..i].iter().all(|a| a.name != app.name), "{} listed twice", app.name);
            assert_eq!(find(app.name), Some(*app));
            let spec = Spec::parse(app.test_spec).expect(app.test_spec);
            assert_eq!(spec.app, *app);
            assert!(!app.keys().is_empty(), "{} has no keys", app.name);
        }
        assert_eq!(find("sudoku"), None);
    }

    /// The descriptor the spec parser canonicalises with and the program
    /// `build` returns cannot drift: built from its defaults, every app
    /// carries exactly its descriptor's strategies, and library defaults
    /// in every other run option.
    #[test]
    fn every_build_sets_exactly_its_descriptors_strategies() {
        for app in APPS {
            let prog = (app.build)(&mut Args::defaults(app.name)).expect("defaults build");
            let want = RunOpts {
                queueing: app.queueing,
                balance: app.balance.clone(),
                ..RunOpts::default()
            };
            assert_eq!(prog.opts(), &want, "{}", app.name);
            let spec = Spec::parse(app.name).unwrap();
            assert_eq!(spec.build().opts(), &want, "{} through its spec", app.name);
        }
    }

    #[test]
    fn answers_match_by_kind() {
        assert!(Answer::Int(3).matches(Answer::Int(3)));
        assert!(!Answer::Int(3).matches(Answer::Int(4)));
        assert!(Answer::Float(1.0).matches(Answer::Float(1.0 + 1e-12)));
        assert!(!Answer::Float(1.0).matches(Answer::Float(1.001)));
        assert!(!Answer::Int(1).matches(Answer::Float(1.0)));
        let d = crate::hashes::leaf_digest(1, 2);
        assert!(Answer::Digest(d).matches(Answer::Digest(d)));
        assert!(!Answer::Digest(d).matches(Answer::Digest(Digest::empty())));
        assert_eq!(Answer::Digest(d).to_string(), d.hex());
    }
}
