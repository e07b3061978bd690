//! Chrome trace-event JSON export.
//!
//! Emits the legacy JSON array format understood by both
//! `chrome://tracing` and Perfetto: complete (`X`) events for execution
//! spans, instant (`i`) events for one-shot kernel decisions, counter
//! (`C`) events for queue-depth samples and thread-name metadata (`M`)
//! records naming each PE. Timestamps are microseconds (floats), with
//! `pid` 0 and `tid` = PE index, so each PE renders as one timeline row.
//!
//! Hand-rolled string building — the format is flat enough that a JSON
//! library would be overkill, and the workspace deliberately carries no
//! serde dependency.

use chare_kernel::trace::EventKind;
use multicomputer::StepKind;

use crate::RunTrace;

/// Serialize a run into a Chrome trace-event JSON document.
pub fn export(trace: &RunTrace) -> String {
    let labels = trace.entry_labels();
    let mut out = String::with_capacity(4096);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let push = |s: String, out: &mut String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&s);
    };

    for pe in 0..trace.npes {
        push(
            format!(
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{pe},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"PE {pe}\"}}}}"
            ),
            &mut out,
            &mut first,
        );
    }

    for (span, label) in trace.spans.iter().zip(&labels) {
        let dur = span.end_ns.saturating_sub(span.start_ns);
        let (name, cat) = match span.kind {
            StepKind::User => (label.as_deref().unwrap_or("user"), "user"),
            StepKind::Control => ("control", "control"),
        };
        push(
            format!(
                "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{},\"dur\":{},\
                 \"name\":\"{}\",\"cat\":\"{}\"}}",
                span.pe.index(),
                micros(span.start_ns),
                micros(dur),
                escape(name),
                cat,
            ),
            &mut out,
            &mut first,
        );
    }

    for ev in &trace.events {
        let (pe, ts) = (ev.pe.index(), micros(ev.at_ns));
        match ev.kind {
            EventKind::SeedKept { kind, hops } => push(
                format!(
                    "{{\"ph\":\"i\",\"pid\":0,\"tid\":{pe},\"ts\":{ts},\"s\":\"t\",\
                     \"name\":\"seed kept k{} h{}\",\"cat\":\"balance\"}}",
                    kind.0, hops
                ),
                &mut out,
                &mut first,
            ),
            EventKind::SeedForwarded { kind, to, hops } => push(
                format!(
                    "{{\"ph\":\"i\",\"pid\":0,\"tid\":{pe},\"ts\":{ts},\"s\":\"t\",\
                     \"name\":\"seed k{} -> PE{} h{}\",\"cat\":\"balance\"}}",
                    kind.0,
                    to.index(),
                    hops
                ),
                &mut out,
                &mut first,
            ),
            EventKind::SeedRedirected { to } => push(
                format!(
                    "{{\"ph\":\"i\",\"pid\":0,\"tid\":{pe},\"ts\":{ts},\"s\":\"t\",\
                     \"name\":\"seed redirect -> PE{}\",\"cat\":\"balance\"}}",
                    to.index()
                ),
                &mut out,
                &mut first,
            ),
            EventKind::Retransmit { to, seq } => push(
                format!(
                    "{{\"ph\":\"i\",\"pid\":0,\"tid\":{pe},\"ts\":{ts},\"s\":\"t\",\
                     \"name\":\"retransmit #{} -> PE{}\",\"cat\":\"transport\"}}",
                    seq,
                    to.index()
                ),
                &mut out,
                &mut first,
            ),
            EventKind::QueueSample { len } => push(
                format!(
                    "{{\"ph\":\"C\",\"pid\":0,\"tid\":{pe},\"ts\":{ts},\
                     \"name\":\"queue PE{pe}\",\"args\":{{\"len\":{len}}}}}"
                ),
                &mut out,
                &mut first,
            ),
            // Per-message send/recv events are summarized by the comm
            // matrix instead; emitting one instant per message would
            // swamp the timeline view.
            _ => {}
        }
    }

    out.push(']');
    // Overflowed ring: mark the export as truncated so consumers (and
    // `json_lint::validate_export`) can tell it apart from a complete
    // timeline.
    if trace.dropped > 0 {
        out.push_str(&format!(",\"dropped\":{}", trace.dropped));
    }
    out.push('}');
    out
}

/// ns → µs with sub-µs precision preserved as a decimal fraction.
fn micros(ns: u64) -> String {
    if ns.is_multiple_of(1000) {
        format!("{}", ns / 1000)
    } else {
        format!("{}.{:03}", ns / 1000, ns % 1000)
    }
}

/// Minimal JSON string escaping (labels are machine-generated, but keep
/// the exporter safe for any name).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micros_keeps_sub_microsecond_precision() {
        assert_eq!(micros(0), "0");
        assert_eq!(micros(2000), "2");
        assert_eq!(micros(2500), "2.500");
        assert_eq!(micros(1), "0.001");
    }

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("a\\b"), "a\\\\b");
        assert_eq!(escape("a\nb"), "a\\nb");
        assert_eq!(escape("a\u{01}b"), "a\\u0001b");
    }

    #[test]
    fn empty_trace_exports_empty_event_array_for_zero_pes() {
        let t = RunTrace {
            npes: 0,
            end_ns: 0,
            dispatch_ns: 0,
            spans: vec![],
            events: vec![],
            dropped: 0,
        };
        let json = export(&t);
        assert_eq!(json, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}");
        crate::json_lint::validate(&json).unwrap();
    }
}
