//! The parent side of the multi-process backend: spawn, wire, watch,
//! merge, reap.
//!
//! [`run_parent`] re-invokes the current executable once per PE, runs
//! the control handshake (`Hello`/`Go`/`Ready`/`Start`), then watches:
//! worker control sockets feed a single event channel, child exit
//! statuses are polled, and a wall-clock watchdog backstops the whole
//! run. Every failure mode — spawn failure, codec fingerprint mismatch,
//! nonzero exit, socket hangup, hang — ends as a structured
//! [`ProcAbortReason`] in the report, never as a parent that blocks
//! forever. On a clean stop the parent decodes the exit result, maps
//! worker counter names back to the kernel's static table, concatenates
//! and time-sorts trace shards, and runs the per-PE metric shards
//! through the exact shard merge.

use std::io::Write as _;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use multicomputer::{NodeStats, Payload};

use crate::metrics::{merge_shards, MetricsLog, PeMetricSet};
use crate::program::{CkReport, Program};
use crate::stats::KernelCounters;
use crate::trace::{TraceEvent, TraceLog};
use crate::wire::{Wire, WireReader};

use super::transport::{recv_ctl, send_ctl, Backoff, CtlMsg, Listener, Stream};
use super::{ProcAbortReason, ProcConfig, ProcDetail, ProcOpts, ENV_ADDR, ENV_CRASH, ENV_OPTS,
    ENV_RANK, ENV_SPEC};

/// Handshake I/O deadline (also bounds teardown waits).
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(30);

static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Events the per-worker control readers feed the parent loop.
enum PEv {
    Stopped {
        result: Option<Vec<u8>>,
    },
    Final {
        rank: u32,
        end_ns: u64,
        stats: Vec<(String, u64)>,
        metrics: Option<Vec<u8>>,
        trace: Option<Vec<u8>>,
    },
    /// Control socket closed.
    Eof { rank: u32 },
    /// Control protocol violation.
    Bad { rank: u32, error: String },
}

struct FinalData {
    end_ns: u64,
    stats: Vec<(String, u64)>,
    metrics: Option<Vec<u8>>,
    trace: Option<Vec<u8>>,
}

/// Everything torn down on every exit path.
struct Fleet {
    children: Vec<Option<Child>>,
    ctl: Vec<Option<Stream>>,
    dir: std::path::PathBuf,
}

impl Fleet {
    fn broadcast_halt(&mut self) {
        for ctl in self.ctl.iter_mut().flatten() {
            let _ = send_ctl(ctl, &CtlMsg::Halt);
            let _ = ctl.flush();
        }
    }

    /// Kill and reap every child still running.
    fn kill_all(&mut self) {
        for child in self.children.iter_mut().flatten() {
            let _ = child.kill();
        }
        for child in self.children.iter_mut() {
            if let Some(mut c) = child.take() {
                let _ = c.wait();
            }
        }
    }

    /// Reap children that should now exit on their own; escalate to
    /// kill after a deadline so teardown always terminates.
    fn reap_all(&mut self) {
        let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
        for child in self.children.iter_mut() {
            let Some(c) = child.as_mut() else { continue };
            let mut backoff = Backoff::new(Duration::from_millis(5));
            loop {
                match c.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => backoff.nap(),
                    _ => {
                        let _ = c.kill();
                        let _ = c.wait();
                        break;
                    }
                }
            }
            *child = None;
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.kill_all();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Exit status of a child, if it has exited: `Some(Some(code))` for a
/// normal exit, `Some(None)` for a signal death, `None` if running.
fn child_status(child: &mut Option<Child>) -> Option<Option<i32>> {
    let c = child.as_mut()?;
    match c.try_wait() {
        Ok(Some(status)) => Some(status.code()),
        _ => None,
    }
}

/// Run `prog` on `cfg.npes` worker processes (see module docs for the
/// protocol). Reached through [`Program::run_procs`].
pub fn run_parent(prog: &Program, cfg: &ProcConfig) -> CkReport {
    assert!(
        std::env::var(ENV_RANK).is_err(),
        "run_procs called inside a worker process — the binary must call \
         chare_kernel::maybe_worker before run_procs so workers divert"
    );
    assert!(cfg.npes > 0, "machine needs at least one PE");
    if cfg.loss.is_some() && prog.reliable_cfg().is_none() {
        panic!(
            "ProcConfig injects loss but the program has no reliable delivery; \
             enable ProgramBuilder::reliable (dropped frames would simply vanish)"
        );
    }

    let npes = cfg.npes;
    let dir = std::env::temp_dir().join(format!(
        "ck-procs-{}-{}",
        std::process::id(),
        RUN_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create run temp dir");

    let (listener, ctl_addr) = Listener::bind(cfg.transport, &dir, "ctl")
        .expect("bind parent control listener");

    let opts = ProcOpts {
        npes,
        topology: cfg.topology.clone(),
        batch_bytes: cfg.batch_bytes,
        batch_frames: cfg.batch_frames,
        loss: cfg.loss,
        rng_seed: prog.rng_seed_val(),
        reliable: prog.reliable_cfg(),
        tracing: prog.tracing_cfg(),
        metrics: prog.metrics_cfg(),
    }
    .serialize();

    let mut fleet = Fleet {
        children: (0..npes).map(|_| None).collect(),
        ctl: (0..npes).map(|_| None).collect(),
        dir,
    };

    // -- spawn -------------------------------------------------------------
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            return abort_report(
                prog,
                cfg,
                ProcAbortReason::SpawnFailed {
                    rank: 0,
                    error: e.to_string(),
                },
                fleet,
                false,
            )
        }
    };
    for rank in 0..npes {
        let mut cmd = Command::new(&exe);
        cmd.args(&cfg.worker_args)
            .env_remove(ENV_CRASH)
            .env(ENV_RANK, rank.to_string())
            .env(ENV_SPEC, &cfg.spec)
            .env(ENV_ADDR, &ctl_addr)
            .env(ENV_OPTS, &opts)
            .stdin(Stdio::null())
            // Workers re-invoked through a test harness print harness
            // chatter; silence stdout but keep stderr for panics.
            .stdout(Stdio::null())
            .stderr(Stdio::inherit());
        if let Some(crash) = &cfg.crash {
            cmd.env(ENV_CRASH, crash);
        }
        match cmd.spawn() {
            Ok(child) => fleet.children[rank] = Some(child),
            Err(e) => {
                return abort_report(
                    prog,
                    cfg,
                    ProcAbortReason::SpawnFailed {
                        rank: rank as u32,
                        error: e.to_string(),
                    },
                    fleet,
                    false,
                )
            }
        }
    }

    // -- handshake: Hello from every rank ----------------------------------
    let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
    let mut peer_addrs: Vec<Option<String>> = (0..npes).map(|_| None).collect();
    let expected_fp = prog.registry().wire.fingerprint();
    for _ in 0..npes {
        let hello = listener.accept_deadline(deadline).and_then(|mut s| {
            s.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
            recv_ctl(&mut s).map(|m| (s, m))
        });
        match hello {
            Ok((
                s,
                CtlMsg::Hello {
                    rank,
                    fingerprint,
                    data_addr,
                },
            )) if (rank as usize) < npes && fleet.ctl[rank as usize].is_none() => {
                if fingerprint != expected_fp {
                    return abort_report(
                        prog,
                        cfg,
                        ProcAbortReason::FingerprintMismatch { rank },
                        fleet,
                        false,
                    );
                }
                peer_addrs[rank as usize] = Some(data_addr);
                fleet.ctl[rank as usize] = Some(s);
            }
            Ok((_, other)) => {
                return abort_report(
                    prog,
                    cfg,
                    ProcAbortReason::Protocol {
                        rank: u32::MAX,
                        error: format!("expected Hello, got {other:?}"),
                    },
                    fleet,
                    false,
                )
            }
            Err(e) => {
                // A worker that died pre-Hello explains the silence
                // better than the socket error does.
                let reason = handshake_failure(&mut fleet, &e.to_string());
                return abort_report(prog, cfg, reason, fleet, false);
            }
        }
    }
    let peers: Vec<String> = peer_addrs.into_iter().map(|a| a.expect("all ranks")).collect();

    // -- Go, then Ready from every rank ------------------------------------
    for rank in 0..npes {
        let ctl = fleet.ctl[rank].as_mut().expect("all connected");
        if let Err(e) = send_ctl(ctl, &CtlMsg::Go { peers: peers.clone() }) {
            let reason = handshake_failure(&mut fleet, &format!("sending Go to {rank}: {e}"));
            return abort_report(prog, cfg, reason, fleet, false);
        }
    }
    for rank in 0..npes {
        let ctl = fleet.ctl[rank].as_mut().expect("all connected");
        match recv_ctl(ctl) {
            Ok(CtlMsg::Ready) => {}
            Ok(other) => {
                return abort_report(
                    prog,
                    cfg,
                    ProcAbortReason::Protocol {
                        rank: rank as u32,
                        error: format!("expected Ready, got {other:?}"),
                    },
                    fleet,
                    false,
                )
            }
            Err(e) => {
                let reason =
                    handshake_failure(&mut fleet, &format!("waiting for Ready from {rank}: {e}"));
                return abort_report(prog, cfg, reason, fleet, false);
            }
        }
    }

    // -- run ---------------------------------------------------------------
    let (tx, rx): (Sender<PEv>, Receiver<PEv>) = mpsc::channel();
    for rank in 0..npes {
        let ctl = fleet.ctl[rank].as_ref().expect("all connected");
        let read_half = ctl.try_clone().expect("clone control stream");
        spawn_ctl_reader(rank as u32, read_half, tx.clone());
    }
    for rank in 0..npes {
        let ctl = fleet.ctl[rank].as_mut().expect("all connected");
        if let Err(e) = send_ctl(ctl, &CtlMsg::Start) {
            let reason = handshake_failure(&mut fleet, &format!("sending Start to {rank}: {e}"));
            return abort_report(prog, cfg, reason, fleet, false);
        }
    }

    let start = Instant::now();
    let mut finals: Vec<Option<FinalData>> = (0..npes).map(|_| None).collect();
    let mut halted = false;
    let mut stop_elapsed_ns: Option<u64> = None;
    let mut result_bytes: Option<Vec<u8>> = None;

    let outcome: Result<(), ProcAbortReason> = loop {
        if finals.iter().all(|f| f.is_some()) {
            break Ok(());
        }
        if start.elapsed() > cfg.watchdog {
            break Err(ProcAbortReason::Watchdog);
        }
        match rx.recv_timeout(Duration::from_millis(20)) {
            Ok(PEv::Stopped { result }) => {
                if result.is_some() {
                    result_bytes = result;
                }
                if !halted {
                    halted = true;
                    stop_elapsed_ns = Some(start.elapsed().as_nanos() as u64);
                    fleet.broadcast_halt();
                }
            }
            Ok(PEv::Final {
                rank,
                end_ns,
                stats,
                metrics,
                trace,
            }) => {
                finals[rank as usize] = Some(FinalData {
                    end_ns,
                    stats,
                    metrics,
                    trace,
                });
            }
            Ok(PEv::Eof { rank }) => {
                if finals[rank as usize].is_none() {
                    break Err(classify_death(&mut fleet, rank));
                }
            }
            Ok(PEv::Bad { rank, error }) => {
                break Err(ProcAbortReason::Protocol { rank, error });
            }
            Err(RecvTimeoutError::Timeout) => {
                // Catch workers that die without the socket EOF being
                // processed yet (e.g. killed hard between frames).
                let dead = (0..npes).find(|&r| {
                    finals[r].is_none() && child_status(&mut fleet.children[r]).is_some()
                });
                if let Some(r) = dead {
                    // Give its in-flight Final (already written before
                    // exit) a moment to arrive through the reader.
                    let grace = Instant::now() + Duration::from_millis(200);
                    let mut got_final = false;
                    while Instant::now() < grace {
                        match rx.recv_timeout(Duration::from_millis(20)) {
                            Ok(PEv::Final {
                                rank,
                                end_ns,
                                stats,
                                metrics,
                                trace,
                            }) => {
                                let is_r = rank as usize == r;
                                finals[rank as usize] = Some(FinalData {
                                    end_ns,
                                    stats,
                                    metrics,
                                    trace,
                                });
                                if is_r {
                                    got_final = true;
                                    break;
                                }
                            }
                            Ok(PEv::Stopped { result }) => {
                                if result.is_some() {
                                    result_bytes = result;
                                }
                                if !halted {
                                    halted = true;
                                    stop_elapsed_ns =
                                        Some(start.elapsed().as_nanos() as u64);
                                    fleet.broadcast_halt();
                                }
                            }
                            _ => {}
                        }
                    }
                    if !got_final && finals[r].is_none() {
                        break Err(classify_death(&mut fleet, r as u32));
                    }
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                break Err(ProcAbortReason::Protocol {
                    rank: u32::MAX,
                    error: "all control readers gone".to_string(),
                });
            }
        }
    };

    if let Some(reason) = outcome.err() {
        let timed_out = reason == ProcAbortReason::Watchdog;
        fleet.broadcast_halt();
        return abort_report(prog, cfg, reason, fleet, timed_out);
    }

    // -- clean completion: merge and reap ----------------------------------
    fleet.reap_all();
    let finals: Vec<FinalData> = finals.into_iter().map(|f| f.expect("all finals")).collect();
    let time_ns = stop_elapsed_ns.unwrap_or_else(|| start.elapsed().as_nanos() as u64);
    let result: Option<Payload> = result_bytes.map(|bytes| {
        let mut r = WireReader::new(&bytes);
        prog.registry().wire.decode_body(&mut r)
    });

    let node_stats: Vec<NodeStats> = finals.iter().map(|f| decode_stats(&f.stats)).collect();

    let trace = prog.tracing_cfg().map(|_| {
        let mut events: Vec<TraceEvent> = Vec::new();
        let mut dropped = 0u64;
        for f in &finals {
            if let Some(bytes) = &f.trace {
                let mut r = WireReader::new(bytes);
                events.extend(Vec::<TraceEvent>::decode(&mut r));
                dropped += u64::decode(&mut r);
            }
        }
        events.sort_by_key(|e| e.at_ns);
        TraceLog {
            npes,
            events,
            dropped,
        }
    });

    let end_ns_max = finals.iter().map(|f| f.end_ns).max().unwrap_or(0);
    let metrics: Option<MetricsLog> = prog.metrics_cfg().map(|mcfg| {
        let shards: Vec<(u64, PeMetricSet)> = finals
            .iter()
            .filter_map(|f| f.metrics.as_ref())
            .map(|bytes| {
                let mut r = WireReader::new(bytes);
                (u64::decode(&mut r), PeMetricSet::decode(&mut r))
            })
            .collect();
        merge_shards(mcfg, npes, end_ns_max, shards)
    });

    let worker_end_ns = finals.iter().map(|f| f.end_ns).collect();
    CkReport {
        time_ns,
        result,
        node_stats,
        timed_out: false,
        trace,
        metrics,
        sim: None,
        proc: Some(ProcDetail {
            npes,
            transport: cfg.transport,
            aborted: None,
            worker_end_ns,
        }),
    }
}

/// Map a worker's stringly-named counters back to the kernel's static
/// name table (unknown names are dropped rather than invented).
fn decode_stats(stats: &[(String, u64)]) -> NodeStats {
    let mut out = NodeStats::new();
    for (name, v) in stats {
        if let Some(&static_name) = KernelCounters::NAMES.iter().find(|&&n| n == name) {
            out.push(static_name, *v);
        }
    }
    out
}

/// Why did the handshake stall? A dead child is the likeliest cause and
/// names a rank; otherwise report the socket-level error.
fn handshake_failure(fleet: &mut Fleet, error: &str) -> ProcAbortReason {
    for rank in 0..fleet.children.len() {
        if let Some(code) = child_status(&mut fleet.children[rank]) {
            return ProcAbortReason::WorkerExit {
                rank: rank as u32,
                code,
            };
        }
    }
    ProcAbortReason::Protocol {
        rank: u32::MAX,
        error: error.to_string(),
    }
}

/// A worker went silent mid-run: exited (with what status?) or hung up
/// while still alive.
fn classify_death(fleet: &mut Fleet, rank: u32) -> ProcAbortReason {
    // Give a just-exiting process a beat to be reapable so the exit
    // code wins over the less specific "disconnected".
    let deadline = Instant::now() + Duration::from_millis(500);
    loop {
        if let Some(code) = child_status(&mut fleet.children[rank as usize]) {
            return ProcAbortReason::WorkerExit { rank, code };
        }
        if Instant::now() >= deadline {
            return ProcAbortReason::WorkerDisconnect { rank };
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn abort_report(
    prog: &Program,
    cfg: &ProcConfig,
    reason: ProcAbortReason,
    mut fleet: Fleet,
    timed_out: bool,
) -> CkReport {
    let _ = prog;
    fleet.broadcast_halt();
    fleet.kill_all();
    CkReport {
        time_ns: 0,
        result: None,
        node_stats: Vec::new(),
        timed_out,
        trace: None,
        metrics: None,
        sim: None,
        proc: Some(ProcDetail {
            npes: cfg.npes,
            transport: cfg.transport,
            aborted: Some(reason),
            worker_end_ns: vec![0; cfg.npes],
        }),
    }
}

fn spawn_ctl_reader(rank: u32, stream: Stream, tx: Sender<PEv>) {
    std::thread::Builder::new()
        .name(format!("ck-parent-ctl-{rank}"))
        .spawn(move || {
            let mut stream = stream;
            let _ = stream.set_read_timeout(None);
            loop {
                match recv_ctl(&mut stream) {
                    Ok(CtlMsg::Stopped { result }) => {
                        if tx.send(PEv::Stopped { result }).is_err() {
                            break;
                        }
                    }
                    Ok(CtlMsg::Final {
                        end_ns,
                        stats,
                        metrics,
                        trace,
                    }) => {
                        if tx
                            .send(PEv::Final {
                                rank,
                                end_ns,
                                stats,
                                metrics,
                                trace,
                            })
                            .is_err()
                        {
                            break;
                        }
                    }
                    Ok(other) => {
                        let _ = tx.send(PEv::Bad {
                            rank,
                            error: format!("unexpected control message {other:?}"),
                        });
                        break;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                        let _ = tx.send(PEv::Bad {
                            rank,
                            error: "malformed control message".to_string(),
                        });
                        break;
                    }
                    Err(_) => {
                        let _ = tx.send(PEv::Eof { rank });
                        break;
                    }
                }
            }
        })
        .expect("spawn parent control reader");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_decode_maps_known_names_only() {
        let stats = vec![
            ("user_sent".to_string(), 7),
            ("made_up_counter".to_string(), 9),
        ];
        let s = decode_stats(&stats);
        assert_eq!(s.get("user_sent"), Some(7));
        assert_eq!(s.get("made_up_counter"), None);
    }
}
