//! The parent side of the multi-process backend: spawn, wire, watch,
//! merge, reap.
//!
//! [`run_parent`] is a sequence of phases — spawn the current
//! executable once per PE, `Hello`, `Go`/`Ready`, `Start`, supervise,
//! collect — each of which hands the next what it needs or returns the
//! [`ProcAbortReason`] the run ends with. While supervising, worker
//! control sockets feed a single event channel, child exit statuses are
//! polled, and a wall-clock watchdog backstops the whole run. Every
//! failure mode — spawn failure, codec fingerprint mismatch, nonzero
//! exit, socket hangup, a control message that does not decode, hang —
//! ends as a structured reason in the report, never as a parent that
//! blocks forever or panics. On a clean stop the parent decodes the exit
//! result and hands the workers' shards to [`probe::merge`] — the merge a
//! sim or threads run ends in. Whichever way the run ends, the parent
//! reaps or kills every child and then joins every control reader.

use std::io::{self, Write as _};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use multicomputer::Payload;

use crate::probe;
use crate::program::{CkReport, Program};
use crate::wire::WireReader;

use super::transport::{ctl_frame, recv_ctl, send_ctl, spawn_ctl_reader, Backoff, CtlEvent, CtlMsg,
    Final, Go, Listener, Stream};
use super::{ProcAbortReason, ProcConfig, ProcDetail, ProcOpts, ENV_ADDR, ENV_RANK, ENV_SPEC,
    HANDSHAKE_TIMEOUT};

static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Everything torn down on every exit path.
struct Fleet {
    children: Vec<Option<Child>>,
    ctl: Vec<Option<Stream>>,
    /// One control reader per rank once the run has started. Each ends
    /// when its worker's end of the socket closes, so joining them after
    /// every child is gone cannot hang.
    readers: Vec<JoinHandle<()>>,
    dir: std::path::PathBuf,
}

impl Fleet {
    /// Send `msg` (`what`, for the error) to every rank, framed once:
    /// every rank is told the same. Handshake only: all are connected,
    /// and a failed write is a failed handshake.
    fn broadcast(&mut self, what: &str, msg: &CtlMsg) -> Result<(), ProcAbortReason> {
        let framed = ctl_frame(msg);
        for rank in 0..self.ctl.len() {
            let ctl = self.ctl[rank].as_mut().expect("all connected");
            if let Err(e) = ctl.write_all(&framed) {
                let error = format!("sending {what} to {rank}: {e}");
                return Err(handshake_failure(self, &error));
            }
        }
        Ok(())
    }

    /// Tell whoever is still listening to stop (teardown: best effort).
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
        for reader in self.readers.drain(..) {
            let _ = reader.join();
        }
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
    if cfg.loss.is_some() && prog.opts().reliable.is_none() {
        panic!(
            "ProcConfig injects loss but the program has no reliable delivery; \
             enable ProgramBuilder::reliable (dropped frames would simply vanish)"
        );
    }

    let dir = std::env::temp_dir().join(format!(
        "ck-procs-{}-{}",
        std::process::id(),
        RUN_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create run temp dir");
    let mut fleet = Fleet {
        children: (0..cfg.npes).map(|_| None).collect(),
        ctl: (0..cfg.npes).map(|_| None).collect(),
        readers: Vec::with_capacity(cfg.npes),
        dir,
    };
    match run_phases(prog, cfg, &mut fleet) {
        Ok(report) => report,
        Err(reason) => abort_report(cfg, reason, fleet),
    }
}

/// The run, phase by phase; the first phase to fail names the reason.
fn run_phases(
    prog: &Program,
    cfg: &ProcConfig,
    fleet: &mut Fleet,
) -> Result<CkReport, ProcAbortReason> {
    let (listener, ctl_addr) = Listener::bind(cfg.transport, &fleet.dir, "ctl")
        .expect("bind parent control listener");
    spawn(cfg, &ctl_addr, fleet)?;
    let peers = hello(prog, &listener, fleet)?;
    go_ready(prog, cfg, peers, fleet)?;
    let rx = start(fleet)?;
    let run = supervise(cfg, fleet, &rx)?;
    collect(prog, cfg, fleet, run)
}

/// Re-invoke the current executable once per rank under the env contract.
fn spawn(cfg: &ProcConfig, ctl_addr: &str, fleet: &mut Fleet) -> Result<(), ProcAbortReason> {
    let failed = |rank: usize, e: io::Error| ProcAbortReason::SpawnFailed {
        rank: rank as u32,
        error: e.to_string(),
    };
    let exe = std::env::current_exe().map_err(|e| failed(0, e))?;
    for rank in 0..cfg.npes {
        let mut cmd = Command::new(&exe);
        cmd.args(&cfg.worker_args)
            .env(ENV_RANK, rank.to_string())
            .env(ENV_SPEC, &cfg.spec)
            .env(ENV_ADDR, ctl_addr)
            .stdin(Stdio::null())
            // Workers re-invoked through a test harness print harness
            // chatter; silence stdout but keep stderr for panics.
            .stdout(Stdio::null())
            .stderr(Stdio::inherit());
        fleet.children[rank] = Some(cmd.spawn().map_err(|e| failed(rank, e))?);
    }
    Ok(())
}

/// `Hello` from every rank, in whatever order they connect: check the
/// fingerprint, keep the control stream, return the data addresses.
fn hello(
    prog: &Program,
    listener: &Listener,
    fleet: &mut Fleet,
) -> Result<Vec<String>, ProcAbortReason> {
    let npes = fleet.ctl.len();
    let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
    let expected_fp = prog.registry().wire.fingerprint();
    let mut peers = vec![String::new(); npes];
    for _ in 0..npes {
        let hello = listener.accept_deadline(deadline).and_then(|mut s| {
            s.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
            recv_ctl(&mut s).map(|m| (s, m))
        });
        match hello {
            Ok((s, CtlMsg::Hello(h)))
                if (h.rank as usize) < npes && fleet.ctl[h.rank as usize].is_none() =>
            {
                if h.fingerprint != expected_fp {
                    return Err(ProcAbortReason::FingerprintMismatch { rank: h.rank });
                }
                peers[h.rank as usize] = h.data_addr;
                fleet.ctl[h.rank as usize] = Some(s);
            }
            Ok((_, other)) => return Err(unexpected(u32::MAX, "Hello", &other)),
            // A worker that died pre-Hello explains the silence better
            // than the socket error does.
            Err(e) => return Err(handshake_failure(fleet, &e.to_string())),
        }
    }
    Ok(peers)
}

/// `Go` — peer addresses, machine shape, and the parent `prog`'s
/// `RunOpts`, whole — to every rank, then `Ready` from every rank.
fn go_ready(
    prog: &Program,
    cfg: &ProcConfig,
    peers: Vec<String>,
    fleet: &mut Fleet,
) -> Result<(), ProcAbortReason> {
    let opts = ProcOpts {
        npes: cfg.npes,
        topology: cfg.topology.clone(),
        batch_bytes: cfg.batch_bytes,
        batch_frames: cfg.batch_frames,
        loss: cfg.loss,
        crash: cfg.crash,
        run: prog.opts().clone(),
    };
    fleet.broadcast("Go", &CtlMsg::Go(Box::new(Go { peers, opts })))?;
    for rank in 0..cfg.npes {
        match recv_ctl(fleet.ctl[rank].as_mut().expect("all connected")) {
            Ok(CtlMsg::Ready) => {}
            Ok(other) => return Err(unexpected(rank as u32, "Ready", &other)),
            Err(e) => {
                let error = format!("waiting for Ready from {rank}: {e}");
                return Err(handshake_failure(fleet, &error));
            }
        }
    }
    Ok(())
}

/// Move every control stream's read side to its reader thread, then
/// broadcast `Start` with this moment as the run's one clock origin.
fn start(fleet: &mut Fleet) -> Result<Receiver<CtlEvent>, ProcAbortReason> {
    let (tx, rx) = mpsc::channel();
    for (rank, ctl) in fleet.ctl.iter().enumerate() {
        let ctl = ctl.as_ref().expect("all connected");
        let read_half = ctl.try_clone().expect("clone control stream");
        let tx = tx.clone();
        let reader = spawn_ctl_reader(rank as u32, read_half, move |ev| tx.send(ev).is_ok());
        fleet.readers.push(reader);
    }
    let epoch = SystemTime::now().duration_since(UNIX_EPOCH).unwrap_or_default();
    fleet.broadcast("Start", &CtlMsg::Start { epoch_ns: epoch.as_nanos() as u64 })?;
    Ok(rx)
}

/// What supervising a run accumulates, and `collect` turns into the
/// report.
struct Run {
    start: Instant,
    /// Per rank, once it is in.
    finals: Vec<Option<Box<Final>>>,
    /// Nanoseconds from `Start` to the first `Stopped`, which is also
    /// when `Halt` went out.
    stopped_ns: Option<u64>,
    /// The encoded exit result, and the rank that deposited it.
    result: Option<(u32, Vec<u8>)>,
}

impl Run {
    /// One control-reader event. `Err` ends the run.
    fn on_event(
        &mut self,
        fleet: &mut Fleet,
        (rank, msg): CtlEvent,
    ) -> Result<(), ProcAbortReason> {
        match msg {
            Ok(CtlMsg::Stopped { result }) => {
                if let Some(bytes) = result {
                    self.result = Some((rank, bytes));
                }
                if self.stopped_ns.is_none() {
                    self.stopped_ns = Some(self.start.elapsed().as_nanos() as u64);
                    fleet.broadcast_halt();
                }
            }
            Ok(CtlMsg::Final(m)) => self.finals[rank as usize] = Some(m),
            Ok(other) => return Err(unexpected(rank, "Stopped or Final", &other)),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                return Err(ProcAbortReason::Protocol {
                    rank,
                    error: e.to_string(),
                })
            }
            // Control socket closed: fine once the worker has reported.
            Err(_) if self.finals[rank as usize].is_some() => {}
            Err(_) => return Err(classify_death(fleet, rank)),
        }
        Ok(())
    }
}

/// Watch the run until every rank's `Final` is in: control events,
/// child exit statuses, and the wall-clock watchdog.
fn supervise(
    cfg: &ProcConfig,
    fleet: &mut Fleet,
    rx: &Receiver<CtlEvent>,
) -> Result<Run, ProcAbortReason> {
    let mut run = Run {
        start: Instant::now(),
        finals: (0..cfg.npes).map(|_| None).collect(),
        stopped_ns: None,
        result: None,
    };
    let tick = Duration::from_millis(20);
    while run.finals.iter().any(|f| f.is_none()) {
        if run.start.elapsed() > cfg.watchdog {
            return Err(ProcAbortReason::Watchdog);
        }
        match rx.recv_timeout(tick) {
            Ok(ev) => run.on_event(fleet, ev)?,
            Err(RecvTimeoutError::Timeout) => {
                // Catch workers that die without the socket EOF being
                // processed yet (e.g. killed hard between frames).
                let dead = (0..cfg.npes).find(|&r| {
                    run.finals[r].is_none() && child_status(&mut fleet.children[r]).is_some()
                });
                let Some(r) = dead else { continue };
                // Give its in-flight Final (already written before
                // exit) a moment to arrive through the reader.
                let grace = Instant::now() + Duration::from_millis(200);
                while run.finals[r].is_none() && Instant::now() < grace {
                    if let Ok(ev) = rx.recv_timeout(tick) {
                        run.on_event(fleet, ev)?;
                    }
                }
                if run.finals[r].is_none() {
                    return Err(classify_death(fleet, r as u32));
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                return Err(ProcAbortReason::Protocol {
                    rank: u32::MAX,
                    error: "all control readers gone".to_string(),
                });
            }
        }
    }
    Ok(run)
}

/// Clean completion: reap the children, decode the exit result, merge
/// the shards.
fn collect(
    prog: &Program,
    cfg: &ProcConfig,
    fleet: &mut Fleet,
    run: Run,
) -> Result<CkReport, ProcAbortReason> {
    fleet.reap_all();
    let time_ns = run.stopped_ns.unwrap_or_else(|| run.start.elapsed().as_nanos() as u64);
    let mut result: Option<Payload> = None;
    if let Some((rank, bytes)) = run.result {
        let mut r = WireReader::new(&bytes);
        result = Some(prog.registry().wire.decode_body(&mut r).into_any());
        r.finish().map_err(|e| ProcAbortReason::Protocol {
            rank,
            error: format!("exit result: {e}"),
        })?;
    }
    let finals = run.finals.into_iter().map(|f| *f.expect("all finals"));
    let (worker_end_ns, shards): (Vec<u64>, Vec<_>) = finals.map(|m| (m.end_ns, m.shard)).unzip();
    let end_ns = worker_end_ns.iter().copied().max().unwrap_or(0);
    let (counters, trace, metrics) = probe::merge(prog.opts(), end_ns, shards);
    Ok(CkReport {
        time_ns,
        result,
        counters,
        timed_out: false,
        trace,
        metrics,
        sim: None,
        proc: Some(ProcDetail {
            npes: cfg.npes,
            transport: cfg.transport,
            aborted: None,
            worker_end_ns,
        }),
    })
}

/// A worker sent a well-formed message the protocol has no place for.
fn unexpected(rank: u32, wanted: &str, got: &CtlMsg) -> ProcAbortReason {
    ProcAbortReason::Protocol {
        rank,
        error: format!("expected {wanted}, got {got:?}"),
    }
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

/// The report of a run cut short: everyone told to halt, `reason` in the
/// detail, and every child killed and reaped as `fleet` drops.
fn abort_report(cfg: &ProcConfig, reason: ProcAbortReason, mut fleet: Fleet) -> CkReport {
    fleet.broadcast_halt();
    CkReport {
        time_ns: 0,
        result: None,
        counters: Vec::new(),
        timed_out: reason == ProcAbortReason::Watchdog,
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
