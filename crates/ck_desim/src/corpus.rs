//! The regression-seed corpus: failures that were found, minimized and
//! fixed, committed as plain-text entries and replayed forever.
//!
//! An entry is a small text file (committed under `tests/desim_corpus/`
//! at the repo root) of `key = value` lines:
//!
//! ```text
//! # minimized from campaign seed 0x2A run 137 (lost-seed ledger)
//! scenario = app=fib:n=16,grain=9,q=fifo,bal=random npes=8 preset=ncube rel=500/2/16
//! storm = seed=0xBEEF drop=0.05 crash=3@0
//! expect = pass
//! ```
//!
//! `expect = pass` is the only verdict: the corpus records storms that
//! *used to* break the kernel; replaying them green is the regression
//! guarantee. Comments (for provenance) and blank lines are ignored.

use std::fs;
use std::path::Path;

use multicomputer::FaultPlan;

use crate::campaign::{self, RunRecord};
use crate::scenario::Scenario;

/// One parsed corpus entry.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// The victim configuration.
    pub scenario: Scenario,
    /// The (typically minimized) storm.
    pub storm: FaultPlan,
}

/// Render an entry to file text. `comment` lines (may be empty) record
/// provenance — where the storm was found and what it used to break.
pub fn format_entry(entry: &CorpusEntry, comment: &str) -> String {
    let mut out = String::new();
    for line in comment.lines() {
        out.push_str("# ");
        out.push_str(line);
        out.push('\n');
    }
    out.push_str(&format!("scenario = {}\n", entry.scenario.spec()));
    out.push_str(&format!("storm = {}\n", entry.storm.spec()));
    out.push_str("expect = pass\n");
    out
}

/// Parse entry text (the inverse of [`format_entry`]).
pub fn parse_entry(text: &str) -> Result<CorpusEntry, String> {
    let (mut scenario, mut storm, mut expect) = (None, None, None);
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, val) = line
            .split_once('=')
            .ok_or_else(|| format!("line {}: expected KEY = VALUE", lineno + 1))?;
        match key.trim() {
            "scenario" => scenario = Some(Scenario::parse(val.trim())?),
            "storm" => storm = Some(FaultPlan::parse(val.trim())?),
            "expect" => {
                let v = val.trim();
                if v != "pass" {
                    return Err(format!("line {}: only 'expect = pass' is supported", lineno + 1));
                }
                expect = Some(());
            }
            other => return Err(format!("line {}: unknown key '{other}'", lineno + 1)),
        }
    }
    expect.ok_or("missing 'expect = pass'")?;
    Ok(CorpusEntry {
        scenario: scenario.ok_or("missing 'scenario ='")?,
        storm: storm.ok_or("missing 'storm ='")?,
    })
}

/// Load every `*.desim` entry in `dir`, sorted by file name for
/// deterministic replay order. Each element carries the file stem and
/// the parse result (a malformed entry should fail the replay loudly,
/// not vanish).
pub fn load_dir(dir: &Path) -> std::io::Result<Vec<(String, Result<CorpusEntry, String>)>> {
    let mut names: Vec<_> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "desim"))
        .collect();
    names.sort();
    let mut out = Vec::new();
    for path in names {
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let entry = match fs::read_to_string(&path) {
            Ok(text) => parse_entry(&text),
            Err(e) => Err(format!("read {}: {e}", path.display())),
        };
        out.push((name, entry));
    }
    Ok(out)
}

/// Replay one corpus entry; the record's violations must be empty for
/// the regression to be considered still fixed.
pub fn replay(entry: &CorpusEntry, max_events: u64) -> RunRecord {
    campaign::execute(0, entry.scenario.clone(), entry.storm.clone(), max_events)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# provenance comment
scenario = app=fib:n=16,grain=9,q=fifo,bal=random npes=8 preset=ncube rel=500/2/16
storm = seed=0xBEEF drop=0.05 crash=3@0
expect = pass
";

    #[test]
    fn entries_roundtrip() {
        let entry = parse_entry(SAMPLE).expect("sample parses");
        let text = format_entry(&entry, "provenance comment");
        let back = parse_entry(&text).expect("formatted entry parses");
        assert_eq!(back.scenario, entry.scenario);
        assert_eq!(back.storm.spec(), entry.storm.spec());
    }

    #[test]
    fn malformed_entries_are_rejected() {
        for bad in [
            "",
            "scenario = app=fib:n=16,grain=9,q=fifo,bal=random npes=8 preset=ncube rel=none",
            "storm = seed=0x1\nexpect = pass",
            "scenario = nonsense\nstorm = seed=0x1\nexpect = pass",
            "scenario = app=fib:n=16,grain=9,q=fifo,bal=random npes=8 preset=ncube rel=none\nstorm = seed=0x1\nexpect = fail",
        ] {
            assert!(parse_entry(bad).is_err(), "accepted: {bad:?}");
        }
    }
}
