//! Spans the benchmark records around its own calls into the system
//! (`build`, `run`, `verify`, and inside a procs rep `spawn+handshake`,
//! `compute`, `teardown`). Kept in memory and written once, as Chrome
//! trace JSON, when the traced run ends. Probes inside the crates are a
//! later change; this module only sees what a caller can see.

use std::time::Instant;

/// One recorded span. `parent` indexes the recorder's span list.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub workload: &'static str,
    pub rep: u32,
}

/// Records spans against one clock. Disabled (the untraced run), every
/// call is a no-op that returns a dummy id.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    workload: &'static str,
    rep: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(workload: &'static str, enabled: bool) -> Self {
        Recorder {
            epoch: Instant::now(),
            enabled,
            workload,
            rep: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Spans recorded from now on belong to rep `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            workload: self.workload,
            rep: self.rep,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("end without begin");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        self.begin(name);
        let out = f(self);
        self.end();
        out
    }

    /// Split the span that just closed into consecutive children of the
    /// given durations, starting at its start: for phases only known
    /// after the call returned (a procs run reports its compute time;
    /// `run_all_recording` reports per-job times).
    pub fn split_last(&mut self, parts: &[(&'static str, u64)]) {
        if !self.enabled {
            return;
        }
        let parent = self.spans.len() - 1;
        let mut at = self.spans[parent].start_ns;
        for &(name, dur_ns) in parts {
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: at + dur_ns,
                parent: Some(parent),
                workload: self.workload,
                rep: self.rep,
            });
            at += dur_ns;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus what its children
    /// cover. Returned as `(name, rep, self_ns)`.
    pub fn self_times(&self) -> Vec<(&'static str, u32, u64)> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .map(|(s, &c)| (s.name, s.rep, (s.end_ns - s.start_ns).saturating_sub(c)))
            .collect()
    }

    /// Chrome trace-event JSON (open at <https://ui.perfetto.dev>): one
    /// complete event per span, the rep as the thread lane.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"pid\": 1, \"tid\": {}, \"args\": {{\"id\": {id}, \"parent\": {parent}, \
                 \"workload\": \"{}\", \"rep\": {}}}}}{}\n",
                s.name,
                s.workload,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.rep,
                s.workload,
                s.rep,
                if id + 1 < self.spans.len() { "," } else { "" },
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Recorder {
        let mut r = Recorder::new("threads_fine", true);
        r.set_rep(3);
        r.span("rep", |r| {
            r.span("build", |_| ());
            r.span("run", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            r.split_last(&[("spawn+handshake", 500_000), ("compute", 1_000_000)]);
            r.span("verify", |_| ());
        });
        r
    }

    #[test]
    fn spans_nest_and_carry_ids() {
        let r = sample();
        let names: Vec<&str> = r.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "rep",
                "build",
                "run",
                "spawn+handshake",
                "compute",
                "verify"
            ]
        );
        assert_eq!(r.spans()[0].parent, None);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert_eq!(r.spans()[3].parent, Some(2));
        assert_eq!(r.spans()[5].parent, Some(0));
        assert!(r
            .spans()
            .iter()
            .all(|s| s.rep == 3 && s.workload == "threads_fine"));
        assert!(r.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn self_time_subtracts_children() {
        let r = sample();
        let times = r.self_times();
        let run = &r.spans()[2];
        let run_self = times[2].2;
        assert_eq!(run_self, run.end_ns - run.start_ns - 1_500_000);
        let rep_self = times[0].2;
        let rep = &r.spans()[0];
        assert!(rep_self < rep.end_ns - rep.start_ns);
    }

    #[test]
    fn chrome_json_lints() {
        let json = sample().to_chrome_json();
        ck_trace::json_lint::validate(&json).expect("span export must be valid JSON");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("spawn+handshake"));
        ck_trace::json_lint::validate(&Recorder::new("x", true).to_chrome_json())
            .expect("an empty trace is still a document");
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new("x", false);
        r.span("rep", |r| r.span("run", |_| ()));
        r.split_last(&[("compute", 5)]);
        assert!(r.spans().is_empty());
    }
}
