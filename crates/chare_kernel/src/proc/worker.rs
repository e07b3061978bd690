//! The worker side of the multi-process backend: one PE, one process.
//!
//! [`maybe_worker`] is the divert point every `run_procs`-capable binary
//! calls first. In the parent it returns immediately; in a re-invoked
//! worker (`CK_PE_RANK` set) it builds the program from `CK_SPEC`,
//! performs the socket handshake, runs the same scheduler loop the
//! thread backend runs — plus alarm deadlines, outgoing-frame encoding,
//! per-destination batching and the loss shim — and exits the process.
//!
//! The loop mirrors `multicomputer::thread::pe_loop` deliberately: drain
//! arrivals, fire a due alarm, step the node, flush coalescing buffers
//! at the step boundary, and block briefly when idle. What the thread
//! backend does with channel sends, this file does with encoded frames
//! over the data mesh.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use multicomputer::{Cost, NetCtx, NodeFactory, NodeProgram, Packet, Payload, Pe, Replayable,
    StepKind};

use crate::envelope::SysMsg;
use crate::program::Program;
use crate::registry::Registry;
use crate::wire::{decode_sys, encode_sys, Wire};

use super::shim::LossShim;
use super::transport::{read_frame, recv_ctl, send_ctl, CtlMsg, Listener, Stream};
use super::{CrashHook, CrashMode, ProcOpts, ENV_ADDR, ENV_CRASH, ENV_OPTS, ENV_RANK, ENV_SPEC};

/// How long an idle PE blocks waiting for an event before re-checking
/// alarms (mirrors the thread backend's poll granularity).
const IDLE_POLL: Duration = Duration::from_micros(200);

/// Handshake and teardown I/O deadline.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(30);

/// Divert into the worker loop when this process is a `run_procs`
/// worker; a no-op otherwise.
///
/// Call this before the first [`Program::run_procs`] — in a binary's
/// `main`, or as the first line of the test a
/// [`ProcConfig::for_test`](super::ProcConfig::for_test) re-invokes.
/// `build` must construct the same program the parent runs from the
/// opaque spec string (run-level knobs — reliable delivery, tracing,
/// metrics, RNG seed — are shipped from the parent and applied on top,
/// so only the structural registrations need to match; the fingerprint
/// handshake verifies the wire table did).
///
/// When diverting, this function **never returns**: it runs the PE to
/// completion and exits the process.
pub fn maybe_worker(build: impl FnOnce(&str) -> Program) {
    let Ok(rank) = std::env::var(ENV_RANK) else {
        return;
    };
    let rank: u32 = rank
        .parse()
        .unwrap_or_else(|_| panic!("{ENV_RANK}={rank:?} is not a rank"));
    let spec = std::env::var(ENV_SPEC).unwrap_or_default();
    let mut prog = build(&spec);
    let opts_s =
        std::env::var(ENV_OPTS).unwrap_or_else(|_| panic!("worker {rank}: {ENV_OPTS} missing"));
    let opts = ProcOpts::parse(&opts_s)
        .unwrap_or_else(|| panic!("worker {rank}: malformed {ENV_OPTS}: {opts_s:?}"));
    prog.set_run_overrides(opts.rng_seed, opts.reliable, opts.tracing, opts.metrics);
    let addr =
        std::env::var(ENV_ADDR).unwrap_or_else(|_| panic!("worker {rank}: {ENV_ADDR} missing"));
    let crash = std::env::var(ENV_CRASH)
        .ok()
        .and_then(|s| CrashHook::parse(&s))
        .filter(|h| h.rank == rank);
    run_worker(rank, prog, opts, &addr, crash);
}

/// Events multiplexed onto the worker's single scheduler channel.
enum Ev {
    /// A decoded data-mesh frame from a peer PE.
    Data {
        from: u32,
        bytes: u32,
        sent_ns: u64,
        sys: SysMsg,
    },
    Start,
    Halt,
    /// The parent's control socket closed — the run is over, one way or
    /// another.
    CtlClosed,
    /// A peer's data socket closed. Informational: the *parent* owns
    /// abort detection and will halt everyone.
    PeerClosed(#[allow(dead_code)] u32),
}

/// Write half of one peer link, with its coalescing buffer.
struct PeerOut {
    stream: Stream,
    buf: Vec<u8>,
    frames: usize,
}

/// The worker's [`NetCtx`]: encodes remote sends onto the mesh, queues
/// self-sends locally, and implements real alarm deadlines.
struct ProcCtx {
    me: Pe,
    npes: usize,
    start: Instant,
    reg: Arc<Registry>,
    peers: Vec<Option<PeerOut>>,
    local: VecDeque<Packet>,
    stopped: bool,
    result: Option<Payload>,
    alarm_at: Option<u64>,
    batch_bytes: usize,
    batch_frames: usize,
    shim: Option<LossShim>,
}

impl ProcCtx {
    fn push_frame(&mut self, to: Pe, frame: &[u8]) {
        let (bb, bf) = (self.batch_bytes, self.batch_frames);
        let Some(peer) = self.peers[to.index()].as_mut() else {
            return; // peer already torn down; late sends are benign
        };
        peer.buf.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        peer.buf.extend_from_slice(frame);
        peer.frames += 1;
        if peer.buf.len() >= bb || peer.frames >= bf {
            Self::flush_peer(peer);
        }
    }

    fn flush_peer(peer: &mut PeerOut) {
        if !peer.buf.is_empty() {
            // A write to a dead peer fails with EPIPE; that is teardown
            // noise (the parent detects the death), not our problem.
            let _ = peer.stream.write_all(&peer.buf);
            peer.buf.clear();
            peer.frames = 0;
        }
    }

    /// Flush every destination's coalescing buffer (called at each
    /// scheduling-step boundary, so batching adds no cross-step latency).
    fn flush_all(&mut self) {
        for peer in self.peers.iter_mut().flatten() {
            Self::flush_peer(peer);
        }
    }

    fn alarm_due(&self) -> bool {
        self.alarm_at.is_some_and(|t| self.now_ns() >= t)
    }
}

impl NetCtx for ProcCtx {
    fn me(&self) -> Pe {
        self.me
    }
    fn num_pes(&self) -> usize {
        self.npes
    }
    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
    fn send(&mut self, to: Pe, bytes: u32, payload: Payload) {
        assert!(to.index() < self.npes, "send to PE out of range");
        let now = self.now_ns();
        if to == self.me {
            self.local.push_back(Packet {
                from: self.me,
                bytes,
                at_ns: now,
                sent_ns: now,
                payload,
            });
            return;
        }
        // Every kernel egress payload is a SysMsg (possibly behind a
        // Replayable retransmission generator); materialize one copy
        // and encode it. Frame body: [sent_ns][declared bytes][sys].
        let payload = Replayable::materialize(payload);
        let sys = payload.downcast::<SysMsg>().unwrap_or_else(|_| {
            panic!("procs backend can only ship kernel SysMsg payloads across PEs")
        });
        let mut body = Vec::with_capacity(bytes as usize + 16);
        body.extend_from_slice(&now.to_le_bytes());
        body.extend_from_slice(&bytes.to_le_bytes());
        encode_sys(&self.reg, &sys, &mut body);
        match self.shim.as_mut() {
            Some(shim) => {
                for frame in shim.outgoing(to.0, body) {
                    self.push_frame(to, &frame);
                }
            }
            None => self.push_frame(to, &body),
        }
    }
    fn charge(&mut self, _cost: Cost) {
        // Real work takes real time, as on the thread backend.
    }
    fn stop(&mut self) {
        self.stopped = true;
    }
    fn deposit(&mut self, result: Payload) {
        self.result = Some(result);
    }
    fn set_alarm(&mut self, after: Cost) {
        self.alarm_at = Some(self.now_ns() + after.as_nanos().max(1));
    }
}

/// Deliver queued self-sends (produced by the handler that just ran).
fn deliver_local(node: &mut impl NodeProgram, ctx: &mut ProcCtx) {
    while let Some(mut pkt) = ctx.local.pop_front() {
        pkt.payload = Replayable::materialize(pkt.payload);
        node.incoming(pkt);
    }
}

fn spawn_data_reader(from: u32, stream: Stream, reg: Arc<Registry>, tx: Sender<Ev>) {
    std::thread::Builder::new()
        .name(format!("ck-mesh-{from}"))
        .spawn(move || {
            let mut stream = stream;
            loop {
                match read_frame(&mut stream) {
                    Ok(body) if body.len() >= 12 => {
                        let sent_ns = u64::from_le_bytes(body[0..8].try_into().expect("8 bytes"));
                        let bytes = u32::from_le_bytes(body[8..12].try_into().expect("4 bytes"));
                        let mut r = crate::wire::WireReader::new(&body[12..]);
                        let sys = decode_sys(&reg, &mut r);
                        if tx
                            .send(Ev::Data {
                                from,
                                bytes,
                                sent_ns,
                                sys,
                            })
                            .is_err()
                        {
                            break;
                        }
                    }
                    _ => {
                        let _ = tx.send(Ev::PeerClosed(from));
                        break;
                    }
                }
            }
        })
        .expect("spawn mesh reader");
}

fn spawn_ctl_reader(stream: Stream, tx: Sender<Ev>) {
    std::thread::Builder::new()
        .name("ck-ctl".to_string())
        .spawn(move || {
            let mut stream = stream;
            let _ = stream.set_read_timeout(None);
            loop {
                match recv_ctl(&mut stream) {
                    Ok(CtlMsg::Start) => {
                        if tx.send(Ev::Start).is_err() {
                            break;
                        }
                    }
                    Ok(CtlMsg::Halt) => {
                        let _ = tx.send(Ev::Halt);
                        break;
                    }
                    Ok(_) => {} // unexpected but harmless
                    Err(_) => {
                        let _ = tx.send(Ev::CtlClosed);
                        break;
                    }
                }
            }
        })
        .expect("spawn control reader");
}

/// Run worker PE `rank` to completion and exit the process.
fn run_worker(rank: u32, prog: Program, opts: ProcOpts, addr: &str, crash: Option<CrashHook>) -> ! {
    let npes = opts.npes;
    assert!(
        (rank as usize) < npes,
        "worker rank {rank} out of range for {npes} PEs"
    );
    if opts.loss.is_some() && prog.reliable_cfg().is_none() {
        panic!("loss shim requires reliable delivery (worker {rank})");
    }

    // -- control handshake ------------------------------------------------
    let mut ctl = Stream::connect_retry(addr, Instant::now() + HANDSHAKE_TIMEOUT)
        .unwrap_or_else(|e| panic!("worker {rank}: connect control {addr}: {e}"));
    ctl.set_read_timeout(Some(HANDSHAKE_TIMEOUT)).expect("set timeout");

    // The data listener must exist before Hello publishes its address.
    // UDS data sockets live beside the control socket; TCP ignores the
    // directory.
    let dir = addr
        .strip_prefix("uds:")
        .and_then(|p| std::path::Path::new(p).parent().map(|p| p.to_path_buf()))
        .unwrap_or_else(std::env::temp_dir);
    let (listener, data_addr) =
        Listener::bind(super::transport_of(addr), &dir, &format!("data-{rank}"))
            .unwrap_or_else(|e| panic!("worker {rank}: bind data listener: {e}"));

    send_ctl(
        &mut ctl,
        &CtlMsg::Hello {
            rank,
            fingerprint: prog.registry().wire.fingerprint(),
            data_addr,
        },
    )
    .unwrap_or_else(|e| panic!("worker {rank}: send Hello: {e}"));

    let peers_addrs = match recv_ctl(&mut ctl) {
        Ok(CtlMsg::Go { peers }) => peers,
        Ok(_) => panic!("worker {rank}: expected Go"),
        Err(e) => panic!("worker {rank}: waiting for Go: {e}"),
    };
    assert_eq!(peers_addrs.len(), npes, "worker {rank}: Go peer count");

    // -- data mesh ---------------------------------------------------------
    // Worker i accepts from every j > i and connects to every j < i; the
    // connector identifies itself with a 4-byte rank header.
    let expected_in = npes - 1 - rank as usize;
    let accepting = std::thread::Builder::new()
        .name("ck-mesh-accept".to_string())
        .spawn(move || -> std::io::Result<Vec<(u32, Stream)>> {
            let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
            let mut conns = Vec::with_capacity(expected_in);
            for _ in 0..expected_in {
                let mut s = listener.accept_deadline(deadline)?;
                let mut hdr = [0u8; 4];
                s.read_exact(&mut hdr)?;
                conns.push((u32::from_le_bytes(hdr), s));
            }
            Ok(conns)
        })
        .expect("spawn mesh acceptor");

    let mut links: Vec<Option<Stream>> = (0..npes).map(|_| None).collect();
    for (j, peer_addr) in peers_addrs.iter().enumerate().take(rank as usize) {
        let mut s = Stream::connect_retry(peer_addr, Instant::now() + HANDSHAKE_TIMEOUT)
            .unwrap_or_else(|e| panic!("worker {rank}: connect peer {j}: {e}"));
        s.write_all(&rank.to_le_bytes())
            .unwrap_or_else(|e| panic!("worker {rank}: rank header to {j}: {e}"));
        links[j] = Some(s);
    }
    let accepted = accepting
        .join()
        .expect("mesh acceptor panicked")
        .unwrap_or_else(|e| panic!("worker {rank}: accepting mesh peers: {e}"));
    for (j, s) in accepted {
        assert!(
            (j as usize) < npes && links[j as usize].is_none() && j != rank,
            "worker {rank}: bogus mesh peer {j}"
        );
        links[j as usize] = Some(s);
    }

    // -- reader threads and scheduler channel -----------------------------
    let reg = Arc::clone(prog.registry());
    let (tx, rx): (Sender<Ev>, Receiver<Ev>) = mpsc::channel();
    let mut peers: Vec<Option<PeerOut>> = (0..npes).map(|_| None).collect();
    for (j, link) in links.into_iter().enumerate() {
        let Some(link) = link else { continue };
        let read_half = link.try_clone().expect("clone mesh stream");
        spawn_data_reader(j as u32, read_half, Arc::clone(&reg), tx.clone());
        peers[j] = Some(PeerOut {
            stream: link,
            buf: Vec::new(),
            frames: 0,
        });
    }
    let ctl_read = ctl.try_clone().expect("clone control stream");
    spawn_ctl_reader(ctl_read, tx.clone());

    send_ctl(&mut ctl, &CtlMsg::Ready).unwrap_or_else(|e| panic!("worker {rank}: Ready: {e}"));

    // -- node construction -------------------------------------------------
    let sink = prog.probe_sink(npes, 0, 0);
    let factory = prog.factory(opts.topology.clone(), sink.clone());
    let mut node = factory.build(Pe(rank), npes);
    let mut ctx = ProcCtx {
        me: Pe(rank),
        npes,
        start: Instant::now(),
        reg,
        peers,
        local: VecDeque::new(),
        stopped: false,
        result: None,
        alarm_at: None,
        batch_bytes: opts.batch_bytes.max(1),
        batch_frames: opts.batch_frames.max(1),
        shim: opts.loss.map(|l| LossShim::new(l, rank, npes)),
    };

    // -- wait for Start (stashing any early peer frames) -------------------
    let mut pending: Vec<Ev> = Vec::new();
    let mut halted = false;
    loop {
        match rx.recv_timeout(HANDSHAKE_TIMEOUT) {
            Ok(Ev::Start) => break,
            Ok(Ev::Halt) => {
                halted = true;
                break;
            }
            Ok(Ev::CtlClosed) => std::process::exit(3),
            Ok(ev) => pending.push(ev),
            Err(_) => panic!("worker {rank}: no Start within handshake deadline"),
        }
    }

    let mut user_steps: u64 = 0;
    let mut crash = crash;
    if !halted {
        ctx.start = Instant::now();
        node.boot(&mut ctx);
        deliver_local(&mut node, &mut ctx);
        ctx.flush_all();
        for ev in pending.drain(..) {
            handle_ev(ev, &mut node, &mut ctx, &mut halted);
        }
    }

    // -- scheduler loop ----------------------------------------------------
    while !ctx.stopped && !halted {
        // Drain arrivals first so priorities act on everything available.
        while let Ok(ev) = rx.try_recv() {
            handle_ev(ev, &mut node, &mut ctx, &mut halted);
        }
        if halted {
            break;
        }
        if ctx.alarm_due() {
            ctx.alarm_at = None;
            node.alarm(&mut ctx);
            deliver_local(&mut node, &mut ctx);
            ctx.flush_all();
            continue;
        }
        if node.has_work() {
            let kind = node.step(&mut ctx);
            deliver_local(&mut node, &mut ctx);
            ctx.flush_all();
            if kind == Some(StepKind::User) {
                user_steps += 1;
                maybe_crash(&mut crash, user_steps, &mut ctx, &ctl);
            }
        } else {
            let mut wait = IDLE_POLL;
            if let Some(t) = ctx.alarm_at {
                wait = wait.min(Duration::from_nanos(t.saturating_sub(ctx.now_ns())));
            }
            match rx.recv_timeout(wait) {
                Ok(ev) => handle_ev(ev, &mut node, &mut ctx, &mut halted),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
    }
    ctx.flush_all();

    // -- teardown ----------------------------------------------------------
    // Local stop: report it (with any exit result), then wait for the
    // parent's Halt so the Final exchange stays ordered. Reader threads
    // keep draining peer sockets throughout, so no peer can block on a
    // full pipe while this handshake completes.
    if ctx.stopped && !halted {
        let result = ctx.result.take().map(|p| {
            let mut out = Vec::new();
            ctx.reg.wire.encode_body("exit result", &*p, &mut out);
            out
        });
        let _ = send_ctl(&mut ctl, &CtlMsg::Stopped { result });
        loop {
            match rx.recv_timeout(HANDSHAKE_TIMEOUT) {
                Ok(Ev::Halt) => break,
                Ok(Ev::CtlClosed) => std::process::exit(3),
                Ok(_) => {}
                Err(RecvTimeoutError::Timeout) => break, // parent stuck; report anyway
                Err(RecvTimeoutError::Disconnected) => std::process::exit(3),
            }
        }
    }

    let end_ns = ctx.now_ns();
    let stats: Vec<(String, u64)> = node
        .stats()
        .counters
        .iter()
        .map(|&(name, v)| (name.to_string(), v))
        .collect();
    // Dropping the node flushes its probe into the sink.
    drop(node);
    let (trace, metrics) = crate::program::drain(sink, end_ns);
    let trace = trace.map(|log| {
        let mut out = Vec::new();
        log.events.encode(&mut out);
        log.dropped.encode(&mut out);
        out
    });
    let metrics = metrics.map(|log| {
        let mut out = Vec::new();
        log.slice_ns.encode(&mut out);
        log.per_pe[rank as usize].encode(&mut out);
        out
    });
    let _ = send_ctl(
        &mut ctl,
        &CtlMsg::Final {
            end_ns,
            stats,
            metrics,
            trace,
        },
    );
    std::process::exit(0);
}

fn handle_ev(ev: Ev, node: &mut impl NodeProgram, ctx: &mut ProcCtx, halted: &mut bool) {
    match ev {
        Ev::Data {
            from,
            bytes,
            sent_ns,
            sys,
        } => {
            let now = ctx.now_ns();
            node.incoming(Packet {
                from: Pe(from),
                bytes,
                at_ns: now,
                // Clocks are per-process; clamp so cross-PE latency
                // metrics never underflow on skew.
                sent_ns: sent_ns.min(now),
                payload: Box::new(sys),
            });
        }
        Ev::Halt => *halted = true,
        Ev::CtlClosed => std::process::exit(3),
        Ev::Start | Ev::PeerClosed(_) => {}
    }
}

/// Fire the crash-injection hook once its step count is reached.
fn maybe_crash(crash: &mut Option<CrashHook>, user_steps: u64, ctx: &mut ProcCtx, ctl: &Stream) {
    let Some(hook) = *crash else { return };
    if user_steps < hook.after {
        return;
    }
    *crash = None;
    match hook.mode {
        CrashMode::Exit(code) => std::process::exit(code),
        CrashMode::Close => {
            // Hang with every socket closed: the parent must notice the
            // disconnect, not an exit status.
            ctl.shutdown();
            for peer in ctx.peers.iter().flatten() {
                peer.stream.shutdown();
            }
            std::thread::sleep(Duration::from_secs(600));
            std::process::exit(0);
        }
    }
}
