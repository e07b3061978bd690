//! Drive the tracing pipeline end-to-end from the library boundary:
//! run fib with kernel tracing on, print the event-class census and a
//! few per-PE counts the post-mortem analyzer consumes.
//!
//! ```bash
//! cargo run --release -p ck_apps --example trace_demo
//! ```

use chare_kernel::prelude::*;
use ck_apps::fib;

fn main() {
    let prog = fib::build(fib::FibParams { n: 18, grain: 10 })
        .with_tracing(TraceConfig);
    let cfg = SimConfig::preset(8, MachinePreset::NcubeLike).with_trace();
    let mut rep = prog.run_sim(cfg);
    println!("fib(18) on 8 PEs: {:?}, {:.2} ms simulated", rep.take_result::<u64>(), rep.time_secs() * 1e3);
    let log = rep.trace.as_ref().expect("tracing was enabled");
    println!("{} events captured, {} dropped", log.events.len(), log.dropped);
    let census = |name: &str, pred: fn(&EventKind) -> bool| {
        println!("  {:<12} {}", name, log.count(pred));
    };
    census("entries", |k| matches!(k, EventKind::EntryBegin { .. }));
    census("sends", |k| matches!(k, EventKind::MsgSend { .. }));
    census("recvs", |k| matches!(k, EventKind::MsgRecv { .. }));
    census("seeds kept", |k| matches!(k, EventKind::SeedKept { .. }));
    census("seeds fwd", |k| matches!(k, EventKind::SeedForwarded { .. }));
    for pe in Pe::all(8) {
        let n = log.events_for(pe).count();
        println!("  PE{pe}: {n} events");
    }
    assert_eq!(
        log.count(|k| matches!(k, EventKind::EntryBegin { .. })),
        rep.total().entries_executed,
        "log must agree with the kernel's books"
    );
    println!("log agrees with kernel counters");
}
