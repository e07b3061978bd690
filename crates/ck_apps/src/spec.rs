//! Spec strings: the one textual identity of a program.
//!
//! A [`Spec`] names an app of the [registry], a value
//! for each of its keys, and the two kernel strategies. Its canonical
//! rendering — `"fib:n=18,grain=10,q=fifo,bal=acwn:4/2"`, every key
//! present, in registry order — is what the procs backend ships to its
//! workers in `CK_SPEC` (parent and re-invoked worker both call
//! [`build_spec`] on it and must arrive at the same chare registration
//! order and wire-table fingerprint), what the `ck_bench` run memo keys
//! on, and what a `ck_desim` repro line carries after `app=`.
//!
//! Format: `app[:key=val,...]`. Omitted keys take the app's defaults;
//! a key may appear once. Every app accepts `q` (`fifo`, `lifo`, `int`,
//! `bitvec`) and `bal` (`local`, `random`, `central`, `token`, `acwn`,
//! `acwn:HOPS/LOW`) plus its own keys, each parsed as the type of the
//! parameter field it fills:
//!
//! | app         | keys                                    |
//! |-------------|-----------------------------------------|
//! | `fib`       | `n`, `grain` |
//! | `nqueens`   | `n`, `grain` |
//! | `tsp`       | `n`, `seed`, `seq_tail` |
//! | `puzzle`    | `scramble`, `seed`, `split_depth` |
//! | `jacobi`    | `n`, `iters` |
//! | `primes`    | `limit`, `chunks` |
//! | `quad`      | `a`, `b`, `tol`, `grain` |
//! | `matmul`    | `n` |
//! | `jconv`     | `n`, `eps`, `max_iters` |
//! | `sort`      | `total_keys`, `seed`, `sample_per_pe` |
//! | `mmr`       | `leaves`, `grain`, `seed` |
//! | `tablefill` | `stages`, `blocks`, `rows`, `width`, `seed` |
//!
//! (`quad`'s `grain` is in thousandths, so the strings the procs
//! benchmark ships stay integer-only.)

use std::fmt::{self, Display};
use std::str::FromStr;

use chare_kernel::prelude::*;
use chare_kernel::{CkReport, ProcConfig, Program};

use crate::registry::{self, Answer, App};

/// Entry hook for binaries that may be re-invoked as procs-backend
/// workers: call this first in `main` (and first in any test that runs
/// the procs backend). A normal invocation returns immediately; a
/// worker invocation (`CK_PE_RANK` set) builds the program from the
/// spec string, runs the PE loop and exits the process.
pub fn worker_hook() {
    chare_kernel::maybe_worker(build_spec);
}

/// Build the program a spec string describes. Panics on a malformed
/// spec — for callers whose string is their own (a worker's `CK_SPEC`
/// is its parent's); [`Spec::parse`] is the same function for callers
/// holding outside input.
pub fn build_spec(spec: &str) -> Program {
    Spec::parse(spec)
        .unwrap_or_else(|e| panic!("{e} in spec {spec:?}"))
        .build()
}

/// Why a spec string was refused. Every variant names the app; the
/// key-level ones name the key (and the value).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The first token is not a registry name.
    UnknownApp {
        /// The token.
        app: String,
    },
    /// A `,`-separated item is not `key=value`.
    BadPair {
        /// The app.
        app: &'static str,
        /// The item.
        pair: String,
    },
    /// A key the app does not have.
    UnknownKey {
        /// The app.
        app: &'static str,
        /// The key.
        key: String,
    },
    /// A key given twice.
    DuplicateKey {
        /// The app.
        app: &'static str,
        /// The key.
        key: String,
    },
    /// A value that does not parse as its field's type.
    BadValue {
        /// The app.
        app: &'static str,
        /// The key.
        key: String,
        /// The value.
        value: String,
    },
}

impl Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownApp { app } => {
                let known: Vec<&str> = registry::APPS.iter().map(|a| a.name).collect();
                write!(f, "unknown app {app:?} (known: {})", known.join(", "))
            }
            SpecError::BadPair { app, pair } => {
                write!(f, "bad spec pair {pair:?} for app {app} (expected key=value)")
            }
            SpecError::UnknownKey { app, key } => {
                let keys = registry::find(app).map(|a| a.keys().join(", ")).unwrap_or_default();
                write!(f, "unknown key {key:?} for app {app} (keys: {keys}, q, bal)")
            }
            SpecError::DuplicateKey { app, key } => {
                write!(f, "key {key:?} given twice for app {app}")
            }
            SpecError::BadValue { app, key, value } => {
                write!(f, "bad value {value:?} for key {key:?} of app {app}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// The `key=value` pairs of one spec, handed to an app's
/// [`App::params`]: each [`Args::key`] call consumes a pair (or takes
/// the default) and records the key, so one pass both parses the
/// parameters and fixes their canonical order.
pub struct Args {
    app: &'static str,
    given: Vec<(String, String)>,
    read: Vec<(&'static str, String)>,
}

impl Args {
    /// No pairs given: every key reads as its default.
    pub(crate) fn defaults(app: &'static str) -> Args {
        Args { app, given: Vec::new(), read: Vec::new() }
    }

    /// The keys read so far.
    pub(crate) fn keys(&self) -> Vec<&'static str> {
        self.read.iter().map(|&(k, _)| k).collect()
    }

    /// Consume `key` if given, parsed as `T`.
    fn take<T: FromStr>(&mut self, key: &str) -> Result<Option<T>, SpecError> {
        let Some(i) = self.given.iter().position(|(k, _)| k == key) else {
            return Ok(None);
        };
        let (key, value) = self.given.remove(i);
        match value.parse() {
            Ok(v) => Ok(Some(v)),
            Err(_) => Err(SpecError::BadValue { app: self.app, key, value }),
        }
    }

    /// The value of `key` as the type of the field it fills, or
    /// `default` if the spec does not give it.
    pub fn key<T: FromStr + Display>(&mut self, key: &'static str, default: T) -> Result<T, SpecError> {
        let value = self.take(key)?.unwrap_or(default);
        self.read.push((key, value.to_string()));
        Ok(value)
    }
}

/// A parsed spec: an app, a value for every one of its keys, and the
/// two strategies. `Display` is the canonical string; two specs are
/// equal exactly when their canonical strings are.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// The benchmark.
    pub app: &'static App,
    vals: Vec<(&'static str, String)>,
    /// Scheduler queueing strategy.
    pub queueing: QueueingStrategy,
    /// Load-balancing strategy.
    pub balance: BalanceStrategy,
}

impl Spec {
    /// Parse `app[:key=val,...]`, filling omitted keys with the app's
    /// defaults. Every value is parsed as its field's type here, so a
    /// `Spec` that exists builds.
    pub fn parse(spec: &str) -> Result<Spec, SpecError> {
        let (name, rest) = spec.split_once(':').unwrap_or((spec, ""));
        let app = registry::find(name).ok_or_else(|| SpecError::UnknownApp { app: name.into() })?;
        let mut given: Vec<(String, String)> = Vec::new();
        for pair in rest.split(',').filter(|p| !p.is_empty()) {
            let (k, v) = pair
                .split_once('=')
                .ok_or_else(|| SpecError::BadPair { app: app.name, pair: pair.into() })?;
            if given.iter().any(|(seen, _)| seen == k) {
                return Err(SpecError::DuplicateKey { app: app.name, key: k.into() });
            }
            given.push((k.into(), v.into()));
        }
        let mut args = Args { app: app.name, given, read: Vec::new() };
        let queueing = args.take("q")?.unwrap_or(app.queueing);
        let balance = args.take("bal")?.unwrap_or_else(|| app.balance.clone());
        (app.params)(&mut args)?;
        if let Some((key, _)) = args.given.pop() {
            return Err(SpecError::UnknownKey { app: app.name, key });
        }
        Ok(Spec { app, vals: args.read, queueing, balance })
    }

    /// The same program under other strategies.
    pub fn with(&self, queueing: QueueingStrategy, balance: BalanceStrategy) -> Spec {
        Spec { queueing, balance, ..self.clone() }
    }

    /// The same program under another balance strategy.
    pub fn with_balance(&self, balance: BalanceStrategy) -> Spec {
        self.with(self.queueing, balance)
    }

    fn args(&self) -> Args {
        let given = self.vals.iter().map(|(k, v)| (k.to_string(), v.clone())).collect();
        Args { app: self.app.name, given, read: Vec::new() }
    }

    /// The app's typed parameters, through its module's `params`.
    pub fn params<P>(&self, params: fn(&mut Args) -> Result<P, SpecError>) -> P {
        params(&mut self.args()).expect("values were parsed when the spec was")
    }

    /// Build the program, to run under this spec's strategies.
    pub fn build(&self) -> Program {
        let built = (self.app.build)(&mut self.args());
        built.expect("values were parsed when the spec was").with_opts(|o| {
            o.queueing = self.queueing;
            o.balance = self.balance.clone();
        })
    }

    /// The sequential answer on an `npes`-PE machine.
    pub fn oracle(&self, npes: usize) -> Answer {
        (self.app.oracle)(&mut self.args(), npes).expect("values were parsed when the spec was")
    }

    /// The comparable answer of a finished run of this program.
    pub fn answer(&self, rep: &CkReport) -> Option<Answer> {
        (self.app.answer)(rep)
    }

    /// Run at `npes` PEs on the simulator (NCUBE-like), the threads
    /// backend and the procs backend, whose config `proc_cfg(npes,
    /// canonical string)` supplies (a binary re-invokes itself with
    /// `ProcConfig::new`, a test with `ProcConfig::for_test`). Panics
    /// unless both real runs ended on their own with every worker
    /// reporting.
    pub fn run_backends(
        &self,
        npes: usize,
        proc_cfg: &dyn Fn(usize, &str) -> ProcConfig,
    ) -> Vec<(&'static str, CkReport)> {
        let (prog, text) = (self.build(), self.to_string());
        let thr = prog.run_threads(npes);
        assert!(!thr.timed_out, "{text}: threads run timed out");
        let prc = prog.run_procs(&proc_cfg(npes, &text));
        let detail = prc.proc.as_ref().expect("procs report carries detail");
        if let Some(reason) = &detail.aborted {
            panic!("{text}: procs run aborted: {reason}");
        }
        assert!(!prc.timed_out, "{text}: procs run timed out");
        assert_eq!(detail.npes, npes);
        assert!(
            detail.worker_end_ns.iter().all(|&ns| ns > 0),
            "{text}: some worker never reported: {:?}",
            detail.worker_end_ns
        );
        vec![
            ("sim", prog.run_sim_preset(npes, MachinePreset::NcubeLike)),
            ("threads", thr),
            ("procs", prc),
        ]
    }
}

impl Display for Spec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:", self.app.name)?;
        for (k, v) in &self.vals {
            write!(f, "{k}={v},")?;
        }
        write!(f, "q={},bal={}", self.queueing, self.balance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fib, mmr, nqueens, primes, tablefill};

    #[test]
    fn omitted_keys_take_the_registry_defaults() {
        let spec = Spec::parse("fib").unwrap();
        assert_eq!(spec.to_string(), "fib:n=25,grain=16,q=fifo,bal=acwn:4/2");
        assert_eq!(Spec::parse("fib:grain=16,bal=acwn").unwrap(), spec);
        let spec = Spec::parse("quad:grain=200").unwrap();
        assert_eq!(spec.to_string(), "quad:a=0,b=10,tol=0.000000001,grain=200,q=fifo,bal=acwn:4/2");
        let mut rep = build_spec("fib:n=16,grain=10").run_sim_preset(4, MachinePreset::NcubeLike);
        assert_eq!(rep.take_result::<u64>(), Some(fib::fib_seq(16)));
    }

    #[test]
    fn params_are_applied() {
        let mut rep =
            build_spec("primes:limit=1000,chunks=8").run_sim_preset(4, MachinePreset::NcubeLike);
        assert_eq!(rep.take_result::<u64>(), Some(primes::primes_seq(1000)));
    }

    #[test]
    fn strategies_parse() {
        let spec = Spec::parse("nqueens:n=7,grain=4,bal=random,q=lifo").unwrap();
        assert_eq!((spec.queueing, &spec.balance), (QueueingStrategy::Lifo, &BalanceStrategy::Random));
        let prog = spec.build();
        assert_eq!(prog.opts().queueing, QueueingStrategy::Lifo);
        assert_eq!(prog.opts().balance, BalanceStrategy::Random);
        let mut rep = prog.run_sim_preset(4, MachinePreset::NcubeLike);
        assert_eq!(rep.take_result::<u64>(), Some(nqueens::nqueens_seq(7)));
        let tuned = Spec::parse("fib:bal=acwn:8/1").unwrap();
        assert_eq!(tuned.balance, BalanceStrategy::Acwn { max_hops: 8, low_mark: 1 });
    }

    #[test]
    #[should_panic(expected = "unknown app")]
    fn unknown_app_panics() {
        build_spec("sudoku");
    }

    #[test]
    #[should_panic(expected = "unknown key")]
    fn unknown_key_panics() {
        build_spec("fib:m=3");
    }

    /// Outside input (`CK_SPEC`, `desim --scenario`) is refused, never
    /// rewritten: each bad spec's error names the offending key.
    #[test]
    fn bad_specs_are_refused_by_key() {
        for (bad, key) in [
            ("nqueens:n=264", "n"),            // was `264 as u8` = 8
            ("fib:n=4294967313", "n"),         // was `as u32` = 17
            ("fib:n=3,n=30", "n"),             // was: first one wins
            ("fib:n=-1", "n"),
            ("fib:n=", "n"),
            ("fib:n=1e3", "n"),
            ("jacobi:n=16,iters=x", "iters"),
            ("tablefill:width=70000000000", "width"),
            ("quad:tol=tiny", "tol"),
            ("fib:m=3", "m"),
            ("fib:q=gpu", "q"),
            ("fib:bal=magic", "bal"),
            ("fib:bal=acwn:4", "bal"),
            ("fib:q=fifo,q=lifo", "q"),
            ("fib:n", "n"),
        ] {
            let err = Spec::parse(bad).expect_err(bad);
            let text = err.to_string();
            assert!(text.contains(&format!("{key:?}")), "{bad}: {text}");
            assert!(text.contains(bad.split(':').next().unwrap()), "{bad}: {text}");
        }
        assert_eq!(
            Spec::parse("nqueens:n=264"),
            Err(SpecError::BadValue { app: "nqueens", key: "n".into(), value: "264".into() })
        );
        assert_eq!(Spec::parse("warp:n=1"), Err(SpecError::UnknownApp { app: "warp".into() }));
    }

    #[test]
    fn hash_tree_family_specs_run() {
        let mut rep =
            build_spec("mmr:leaves=60,grain=8,seed=2").run_sim_preset(4, MachinePreset::NcubeLike);
        let got = rep.take_result::<mmr::MmrResult>().expect("mmr result");
        assert_eq!(got.root, mmr::mmr_root_seq(2, 60));
        let p = tablefill::FillParams { stages: 2, blocks: 4, rows: 4, width: 2, seed: 3 };
        let mut rep = build_spec("tablefill:stages=2,blocks=4,rows=4,width=2,seed=3,q=fifo")
            .run_sim_preset(4, MachinePreset::NcubeLike);
        let got = rep.take_result::<tablefill::FillResult>().expect("fill result");
        assert_eq!(got.digest, tablefill::fill_seq(&p));
    }

    /// For every app: the canonical string parses back to the same
    /// spec, every key overridden still round-trips, two builds agree
    /// on the wire fingerprint (the procs handshake hinges on it), and
    /// different apps do not.
    #[test]
    fn every_app_round_trips_and_builds_stably() {
        let mut prints = Vec::new();
        for app in registry::APPS {
            for text in [app.name, app.test_spec] {
                let spec = Spec::parse(text).expect(text);
                let canon = spec.to_string();
                assert_eq!(Spec::parse(&canon).as_ref(), Ok(&spec), "{canon}");
                assert_eq!(Spec::parse(&canon).unwrap().to_string(), canon);
                for q in QueueingStrategy::ALL {
                    let tuned = BalanceStrategy::Acwn { max_hops: 2, low_mark: 7 };
                    let other = spec.with(q, tuned);
                    assert_eq!(Spec::parse(&other.to_string()), Ok(other));
                }
            }
            let spec = Spec::parse(app.test_spec).unwrap();
            assert_eq!(spec.build().wire_fingerprint(), spec.build().wire_fingerprint());
            prints.push((app.name, spec.build().wire_fingerprint()));
        }
        for (i, (a, pa)) in prints.iter().enumerate() {
            for (b, pb) in &prints[..i] {
                assert_ne!(pa, pb, "{a} and {b} share a wire table");
            }
        }
    }

    /// The key table in this module's doc is the registry's.
    #[test]
    fn doc_table_lists_every_app_and_key() {
        let doc = include_str!("spec.rs");
        for app in registry::APPS {
            let keys: Vec<String> = app.keys().iter().map(|k| format!("`{k}`")).collect();
            let row = format!("//! | {:<11} | {} |", format!("`{}`", app.name), keys.join(", "));
            assert!(doc.contains(&row), "missing doc row: {row}");
        }
        let rows = doc.lines().filter(|l| l.starts_with("//! | `")).count();
        assert_eq!(rows, registry::APPS.len(), "doc table has a row the registry lacks");
    }

    /// Every backticked `crate::module` path in DESIGN.md § 2 (the
    /// system inventory) names a source file that exists. `{a,b}` lists
    /// each module; `*` asks only for the crate.
    #[test]
    fn design_inventory_names_real_modules() {
        let design = include_str!("../../../DESIGN.md");
        let start = design.find("\n## 2. ").expect("DESIGN.md has a section 2");
        let section = &design[start..];
        let section = &section[..section.find("\n## 3. ").expect("and a section 3")];
        let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let mut checked = 0;
        for path in section.split('`').skip(1).step_by(2) {
            let Some((krate, rest)) = path.split_once("::") else {
                continue;
            };
            let src = crates.join(krate).join("src");
            assert!(src.is_dir(), "`{path}`: no crate at {}", src.display());
            let modules = rest.trim_start_matches('{').trim_end_matches('}');
            for module in modules.split(',').filter(|m| *m != "*") {
                let file = src.join(module.replace("::", "/"));
                assert!(
                    file.with_extension("rs").is_file() || file.join("mod.rs").is_file(),
                    "`{path}`: no module {module} in {}",
                    src.display()
                );
                checked += 1;
            }
        }
        assert!(checked >= 40, "the inventory lost its module paths ({checked} found)");
    }
}
