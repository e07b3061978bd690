//! The worker side of the multi-process backend: one PE, one process.
//!
//! [`maybe_worker`] is the divert point every `run_procs`-capable binary
//! calls first. In the parent it returns immediately; in a re-invoked
//! worker (`CK_PE_RANK` set) it builds the program from `CK_SPEC`,
//! performs the socket [`handshake`], wires the data [`mesh`], runs its
//! PE, [`report`]s and exits the process.
//!
//! The PE loop, its inbox and the flush rule are
//! `multicomputer::real`'s, the thread backend's too: the worker's
//! [`NetCtx`] is a `RealCtx` over a [`Mesh`], and the PE thread calls its
//! `turn` until the run is over. What this file adds is the rest of a
//! process:
//!
//! * **Encoding** (PE thread). [`Mesh::hold`] encodes the envelope
//!   straight into the destination's coalescing buffer through the one
//!   framing routine ([`frame`]), so the byte cap (`batch_bytes`) counts
//!   encoded bytes and a push is one `write_all`; only the loss shim,
//!   which may park a frame, makes it an owned body first.
//! * **Splitting** (one reader thread per peer). A [`Splitter`] turns
//!   each `read` into one [`Chunk`] of whole, still-encoded frames,
//!   checking every length prefix before anything is allocated for it,
//!   and the reader pushes `(from, chunk)` into the PE's inbox. It knows
//!   nothing of the wire table.
//! * **Decoding** (PE thread). [`Mesh::open`] decodes each `SysMsg` out
//!   of a chunk, stamped with the turn's one arrival time, and boxes it
//!   with [`pool::payload`], so the envelope is allocated on the thread
//!   whose pool `reclaim`s it. A body that is not an encoded envelope
//!   ends the worker the way a length prefix the splitter refuses does
//!   ([`bad_frame`]).
//! * **Control** (one reader thread). The parent's messages become flags
//!   in [`Arrivals`], each followed by the waker's half of the inbox's
//!   park/wake handshake: `Start` sets the clock origin every PE of the
//!   run counts from, `Halt` ends the loop, and a control socket that
//!   closes or carries garbage halts it too and is acted on by the PE
//!   thread after its loop ([`EXIT_CTL_LOST`]). A `Halt` before `Start`
//!   ends the worker without booting its node.
//! * **Crash hooks** ([`maybe_crash`]), counted in user steps, for the
//!   teardown tests.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use multicomputer::real::{Inbox, Link, RealCtx};
use multicomputer::{NetCtx, NodeFactory, NodeProgram, Packet, Payload, Pe, StepKind};

use crate::envelope::SysMsg;
use crate::node::CkNode;
use crate::pool;
use crate::program::Program;
use crate::registry::Registry;
use crate::wire::{decode_frame, encode_frame, reldata_nest, Wire};

use super::shim::LossShim;
use super::transport::{frame, recv_ctl, send_ctl, spawn_ctl_reader, Chunk, CtlMsg, Final, Go, Hello,
    Listener, Splitter, Stream};
use super::{CrashHook, CrashMode, ENV_ADDR, ENV_RANK, ENV_SPEC, EXIT_BAD_FRAME, EXIT_CTL_LOST,
    HANDSHAKE_TIMEOUT};

/// Divert into the worker loop when this process is a `run_procs`
/// worker; a no-op otherwise.
///
/// Call this before the first [`Program::run_procs`] — in a binary's
/// `main`, or as the first line of the test a
/// [`ProcConfig::for_test`](super::ProcConfig::for_test) re-invokes.
/// `build` must construct the same program the parent runs from the
/// opaque spec string (how it is run — the parent program's whole
/// `RunOpts`, strategies included — is shipped from the parent and
/// installed on top, so only the registrations need to match; the
/// fingerprint handshake verifies the wire table did).
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
    let prog = build(&spec);
    let addr =
        std::env::var(ENV_ADDR).unwrap_or_else(|_| panic!("worker {rank}: {ENV_ADDR} missing"));
    run_worker(rank, prog, &addr);
}

/// What the reader threads hand the PE thread: peer frames in the inbox,
/// the parent's word as flags.
#[derive(Default)]
struct Arrivals {
    /// Whole data-mesh frames from a peer PE, still encoded.
    inbox: Inbox<(u32, Chunk)>,
    /// `Start`'s epoch: nanoseconds since the Unix epoch.
    epoch: OnceLock<u64>,
    /// `Halt`, or the control socket's end.
    halt: AtomicBool,
    /// The control socket closed or carried a message that does not decode.
    lost: AtomicBool,
}

impl Arrivals {
    /// Park until `ready()` or until `within` has passed; whether it is.
    fn wait_until(&self, ready: impl Fn() -> bool, within: Duration) -> bool {
        let deadline = Instant::now() + within;
        while !ready() && Instant::now() < deadline {
            self.inbox.wait(&ready, false, deadline.saturating_duration_since(Instant::now()));
        }
        ready()
    }

    fn halted(&self) -> bool {
        self.halt.load(Ordering::Acquire)
    }
}

/// A worker PE's [`Link`]: the data mesh with one coalescing buffer of
/// encoded frames per peer, the loss shim, the inbox and flags the
/// readers fill, and what a handler asked of the machine.
struct Mesh {
    me: u32,
    reg: Arc<Registry>,
    /// Write half of each peer link (`None` for this PE).
    links: Vec<Option<Stream>>,
    /// Frames held for each peer, encoded.
    bufs: Box<[Vec<u8>]>,
    shim: Option<LossShim>,
    arrivals: Arc<Arrivals>,
    /// This PE's node stopped the machine.
    stopped_here: bool,
    result: Option<Payload>,
}

impl Mesh {
    fn new(me: u32, reg: Arc<Registry>, links: Vec<Option<Stream>>, shim: Option<LossShim>) -> Self {
        let bufs = links.iter().map(|_| Vec::new()).collect();
        let arrivals = Arc::default();
        Mesh { me, reg, links, bufs, shim, arrivals, stopped_here: false, result: None }
    }
}

impl Link for Mesh {
    type Mail = (u32, Chunk);
    fn hold(&mut self, to: Pe, pkt: Packet) -> usize {
        // Every kernel egress payload is a SysMsg (a retransmission is
        // a fresh `RelData` around the same slot); encode it. Frame
        // body: [sent_ns][declared bytes][sys].
        let Packet { bytes, sent_ns, payload, .. } = pkt;
        let sys = payload.downcast::<SysMsg>().unwrap_or_else(|_| {
            panic!("procs backend can only ship kernel SysMsg payloads across PEs")
        });
        let (reg, buf) = (&self.reg, &mut self.bufs[to.index()]);
        let before = buf.len();
        let body = |out: &mut Vec<u8>| {
            out.extend_from_slice(&sent_ns.to_le_bytes());
            out.extend_from_slice(&bytes.to_le_bytes());
            encode_frame(reg, &sys, out);
        };
        match self.shim.as_mut() {
            // The shim may park the frame, so it needs an owned body.
            Some(shim) => {
                let mut owned = Vec::with_capacity(bytes as usize + 16);
                body(&mut owned);
                for released in shim.outgoing(to.0, owned) {
                    frame(buf, |out| out.extend_from_slice(&released));
                }
            }
            None => frame(buf, body),
        }
        buf.len() - before
    }
    fn push(&mut self, to: Pe) {
        let buf = &mut self.bufs[to.index()];
        if let Some(link) = self.links[to.index()].as_mut() {
            // A write to a dead peer fails with EPIPE; that is teardown
            // noise (the parent detects the death), not our problem.
            let _ = link.write_all(buf);
        }
        buf.clear();
    }
    fn stop(&mut self) {
        self.stopped_here = true;
    }
    fn deposit(&mut self, result: Payload) {
        self.result = Some(result);
    }
    fn stopped(&self) -> bool {
        self.stopped_here || self.arrivals.halted()
    }
    fn inbox(&self) -> &Inbox<(u32, Chunk)> {
        &self.arrivals.inbox
    }
    /// Decode every frame of `chunk` and hand it to the node.
    fn open(&mut self, (from, chunk): (u32, Chunk), at_ns: u64, node: &mut impl NodeProgram) {
        for body in chunk.frames() {
            let sent_ns = u64::from_le_bytes(body[0..8].try_into().expect("8 bytes"));
            let bytes = u32::from_le_bytes(body[8..12].try_into().expect("4 bytes"));
            let sys = decode_frame(&self.reg, &body[12..])
                .unwrap_or_else(|e| bad_frame(self.me, from, &e.to_string()));
            let (from, payload) = (Pe(from), pool::payload(sys));
            node.incoming(Packet { from, bytes, at_ns, sent_ns, payload });
        }
    }
}

/// The worker's [`NetCtx`]: the shared send side over the data mesh.
type ProcCtx = RealCtx<Mesh>;

/// Start the read side of the link from PE `from` to PE `me`.
fn spawn_data_reader(me: u32, from: u32, mut stream: Stream, arrivals: Arc<Arrivals>) {
    std::thread::Builder::new()
        .name(format!("ck-mesh-{from}"))
        .spawn(move || {
            let mut splitter = Splitter::new();
            let mut batch = Vec::new();
            loop {
                match splitter.read_chunk(&mut stream) {
                    Ok(Some(chunk)) => {
                        batch.push((from, chunk));
                        arrivals.inbox.push(&mut batch);
                    }
                    // The stream can no longer be cut into frames.
                    Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                        bad_frame(me, from, &e.to_string())
                    }
                    // The peer closed, cleanly or by dying mid-frame. The
                    // *parent* owns abort detection and halts everyone.
                    Ok(None) | Err(_) => break,
                }
            }
        })
        .expect("spawn mesh reader");
}

/// Start the read side of the control socket: each message becomes a
/// flag of `arrivals`, and then the PE thread is woken.
fn spawn_ctl_flags(rank: u32, stream: Stream, arrivals: Arc<Arrivals>) {
    spawn_ctl_reader(rank, stream, move |(_, msg)| {
        match msg {
            Ok(CtlMsg::Start { epoch_ns }) => {
                let _ = arrivals.epoch.set(epoch_ns);
            }
            Ok(CtlMsg::Halt) => arrivals.halt.store(true, Ordering::Release),
            Ok(_) => {} // unexpected but harmless
            Err(_) => {
                arrivals.lost.store(true, Ordering::Relaxed);
                arrivals.halt.store(true, Ordering::Release);
            }
        }
        arrivals.inbox.wake_if_parked();
        true
    });
}

/// The control handshake up to `Go`: connect to the parent, bind the
/// data listener, say `Hello`, and install the parent's `RunOpts` —
/// whole, in the one statement every run option crosses the process
/// boundary by, and checked as [`Program::with_opts`] checks any (a
/// `Go` with a zero send window ends this worker with the
/// `ReliableConfigError` text, not the run in a hang). Returns the
/// control stream, the data listener, what `Go` said, and the program as
/// the parent runs it.
fn handshake(rank: u32, prog: &Program, addr: &str) -> (Stream, Listener, Go, Program) {
    let fingerprint = prog.registry().wire.fingerprint();
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

    let hello = CtlMsg::Hello(Hello {
        rank,
        fingerprint,
        data_addr,
    });
    send_ctl(&mut ctl, &hello).unwrap_or_else(|e| panic!("worker {rank}: send Hello: {e}"));

    let go = match recv_ctl(&mut ctl) {
        Ok(CtlMsg::Go(go)) => *go,
        Ok(_) => panic!("worker {rank}: expected Go"),
        Err(e) => panic!("worker {rank}: waiting for Go: {e}"),
    };
    assert!(
        (rank as usize) < go.opts.npes && go.peers.len() == go.opts.npes,
        "worker {rank}: Go names {} peers for {} PEs",
        go.peers.len(),
        go.opts.npes
    );
    let prog = prog.with_opts(|run| *run = go.opts.run.clone());
    (ctl, listener, go, prog)
}

/// Wire the data mesh: worker `rank` accepts from every `j > rank` and
/// connects to every `j < rank`; the connector identifies itself with a
/// 4-byte rank header. Returns the links by peer rank.
fn mesh(rank: u32, listener: Listener, peer_addrs: &[String]) -> Vec<Option<Stream>> {
    let npes = peer_addrs.len();
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
    for (j, peer_addr) in peer_addrs.iter().enumerate().take(rank as usize) {
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
    links
}

/// Run worker PE `rank` to completion and exit the process.
fn run_worker(rank: u32, prog: Program, addr: &str) -> ! {
    let (mut ctl, listener, Go { peers, opts }, prog) = handshake(rank, &prog, addr);
    let npes = opts.npes;
    let mut crash = opts.crash.filter(|hook| hook.rank == rank);
    let links = mesh(rank, listener, &peers);

    let mut node = prog.factory(opts.topology.clone(), 0, 0).build(Pe(rank), npes);
    let shim = opts.loss.map(|l| LossShim::new(l, rank, npes));
    let mesh = Mesh::new(rank, Arc::clone(prog.registry()), links, shim);
    let arrivals = Arc::clone(&mesh.arrivals);
    for (j, link) in mesh.links.iter().enumerate() {
        let Some(link) = link else { continue };
        let read_half = link.try_clone().expect("clone mesh stream");
        spawn_data_reader(rank, j as u32, read_half, Arc::clone(&arrivals));
    }
    spawn_ctl_flags(rank, ctl.try_clone().expect("clone control stream"), Arc::clone(&arrivals));
    send_ctl(&mut ctl, &CtlMsg::Ready).unwrap_or_else(|e| panic!("worker {rank}: Ready: {e}"));

    let (frames, bytes) = (opts.batch_frames, opts.batch_bytes);
    let mut ctx = RealCtx::with_link(Pe(rank), npes, Instant::now(), mesh, frames, bytes);
    let started = || arrivals.epoch.get().is_some() || arrivals.halted();
    assert!(
        arrivals.wait_until(started, HANDSHAKE_TIMEOUT),
        "worker {rank}: no Start within handshake deadline"
    );
    if let Some(&epoch_ns) = arrivals.epoch.get() {
        // Count from the parent's `Start` on this process's monotonic
        // clock (from now, if the epoch lies ahead or out of reach).
        let since = SystemTime::now().duration_since(UNIX_EPOCH + Duration::from_nanos(epoch_ns));
        ctx.start = Instant::now().checked_sub(since.unwrap_or_default()).unwrap_or(ctx.start);
        ctx.stamps = node.stamps();
        node.boot(&mut ctx);
    }
    let mut user_steps: u64 = 0;
    while !ctx.link.stopped() {
        if ctx.turn(&mut node, false) == Some(StepKind::User) {
            user_steps += 1;
            maybe_crash(&mut crash, user_steps, &mut ctx, &ctl);
        }
    }
    ctx.flush_all();
    report(ctl, ctx, node)
}

/// Teardown: say `Stopped` if this node stopped the machine, wait for
/// the parent's `Halt`, send `Final`, exit.
fn report(mut ctl: Stream, mut ctx: ProcCtx, node: CkNode) -> ! {
    let arrivals = Arc::clone(&ctx.link.arrivals);
    // Local stop: report it (with any exit result), then wait for the
    // parent's Halt so the Final exchange stays ordered. Reader threads
    // keep draining peer sockets throughout, so no peer can block on a
    // full pipe while this handshake completes. A parent stuck past the
    // deadline gets the report anyway.
    if !arrivals.halted() {
        let result = ctx.link.result.take().map(|p| {
            let mut out = Vec::new();
            ctx.link.reg.wire.encode_body("exit result", &*p, &mut out);
            out
        });
        let _ = send_ctl(&mut ctl, &CtlMsg::Stopped { result });
        arrivals.wait_until(|| arrivals.halted(), HANDSHAKE_TIMEOUT);
    }
    if arrivals.lost.load(Ordering::Relaxed) {
        std::process::exit(EXIT_CTL_LOST);
    }
    let last = Final { end_ns: ctx.now_ns(), shard: node.into_shard() };
    let _ = send_ctl(&mut ctl, &CtlMsg::Final(Box::new(last)));
    std::process::exit(0);
}

/// A link from PE `from` delivered bytes that are not frames of
/// envelopes: say which, and stop with the code the parent reports.
fn bad_frame(me: u32, from: u32, error: &str) -> ! {
    eprintln!("worker {me}: link from PE {from} is corrupt: {error}");
    std::process::exit(EXIT_BAD_FRAME);
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
            for link in ctx.link.links.iter().flatten() {
                link.shutdown();
            }
            std::thread::sleep(Duration::from_secs(600));
            std::process::exit(0);
        }
        CrashMode::BadLen(len) => {
            ctx.flush_all(); // the prefix must land on a frame boundary
            for link in ctx.link.links.iter_mut().flatten() {
                let _ = link.write_all(&len.to_le_bytes());
            }
        }
        CrashMode::BadCtl => {
            // A well-framed `Final` cut three bytes in.
            let mut last = Vec::new();
            CtlMsg::Final(Box::default()).encode(&mut last);
            let mut bytes = Vec::new();
            frame(&mut bytes, |b| b.extend_from_slice(&last[..4]));
            let _ = ctl.try_clone().and_then(|mut ctl| ctl.write_all(&bytes));
        }
        CrashMode::BadBody => write_peers(ctx, |b| b.push(0xff)), // no such `SysMsg` tag
        CrashMode::Nest(depth) => {
            let reg = Arc::clone(&ctx.link.reg);
            write_peers(ctx, |b| reldata_nest(&reg, depth, b));
        }
    }
}

/// Write every peer, at once, behind what it holds, one data frame with
/// a valid header and the envelope bytes `envelope` appends.
fn write_peers(ctx: &mut ProcCtx, envelope: impl FnOnce(&mut Vec<u8>)) {
    ctx.flush_all();
    let mut bytes = Vec::new();
    frame(&mut bytes, |b| {
        b.extend_from_slice(&[0; 12]); // [sent_ns][bytes]
        envelope(b);
    });
    for link in ctx.link.links.iter_mut().flatten() {
        let _ = link.write_all(&bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proc::{ProcOpts, ProcTransport};
    use crate::program::RunOpts;
    use crate::reliable::ReliableConfig;
    use multicomputer::FLUSH_EVERY_STEPS;
    use std::os::unix::net::UnixStream;

    /// PE 0 of an `npes` machine whose every outgoing link is one end of
    /// a socketpair; the other ends come back indexed by peer rank.
    fn ctx_over_socketpairs(
        npes: usize,
        batch_bytes: usize,
        batch_frames: usize,
    ) -> (ProcCtx, Vec<Option<UnixStream>>) {
        let mut links = vec![None];
        let mut far_ends = vec![None];
        for _ in 1..npes {
            let (near, far) = UnixStream::pair().expect("socketpair");
            far.set_nonblocking(true).expect("nonblocking far end");
            links.push(Some(Stream::Uds(near)));
            far_ends.push(Some(far));
        }
        let mesh = Mesh::new(0, Arc::new(Registry::new()), links, None);
        let ctx = RealCtx::with_link(Pe(0), npes, Instant::now(), mesh, batch_frames, batch_bytes);
        (ctx, far_ends)
    }

    fn send_poll(ctx: &mut ProcCtx, to: u32, wave: u64) {
        ctx.send(Pe(to), 8, pool::payload(SysMsg::QdPoll { wave }));
    }

    /// The chunk now waiting at a link's far end, if any bytes are.
    fn arrived(far: &mut UnixStream) -> Option<Chunk> {
        match Splitter::new().read_chunk(far) {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
            Err(e) => panic!("far end: {e}"),
        }
    }

    fn frames_arrived(far: &mut UnixStream) -> usize {
        arrived(far).map_or(0, |chunk| chunk.frames().count())
    }

    fn buffered(ctx: &ProcCtx) -> Vec<usize> {
        let mesh = &ctx.link;
        let held = mesh.links.iter().zip(mesh.bufs.iter());
        held.filter(|(link, _)| link.is_some()).map(|(_, buf)| buf.len()).collect()
    }

    #[test]
    fn the_flush_before_block_empties_every_buffer() {
        let (mut ctx, mut far) = ctx_over_socketpairs(4, 16 * 1024, 64);
        for to in 1..4 {
            send_poll(&mut ctx, to, u64::from(to));
        }
        assert!(buffered(&ctx).iter().all(|&n| n > 0), "below both thresholds: held");
        for far in far.iter_mut().flatten() {
            assert_eq!(frames_arrived(far), 0);
        }
        ctx.flush_all(); // what the idle branch does before it waits
        assert_eq!(buffered(&ctx), vec![0, 0, 0]);
        for far in far.iter_mut().flatten() {
            assert_eq!(frames_arrived(far), 1);
        }
    }

    #[test]
    fn unbatched_writes_every_frame_as_it_is_pushed() {
        let (mut ctx, mut far) = ctx_over_socketpairs(2, 1, 1);
        let far = far[1].as_mut().expect("link 0 -> 1");
        for wave in 0..3 {
            send_poll(&mut ctx, 1, wave);
            assert_eq!(buffered(&ctx), vec![0]);
            assert_eq!(frames_arrived(far), 1, "frame {wave} written by send itself");
        }
    }

    #[test]
    fn a_busy_pe_flushes_a_lone_frame_by_step_16() {
        let (mut ctx, mut far) = ctx_over_socketpairs(2, 16 * 1024, 64);
        let far = far[1].as_mut().expect("link 0 -> 1");
        send_poll(&mut ctx, 1, 7);
        let mut arrived_at = None;
        for step in 1..=17 {
            ctx.step_done();
            if frames_arrived(far) == 1 {
                assert_eq!(arrived_at.replace(step), None);
            }
        }
        assert_eq!(arrived_at, Some(FLUSH_EVERY_STEPS));
        assert_eq!(buffered(&ctx), vec![0]);
    }

    /// One worker-side handshake against a parent played by hand, which
    /// answers `Hello` with a `Go` that says to run as `run`.
    fn handshake_told(run: RunOpts) -> std::thread::Result<Program> {
        static RUNS: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        let n = RUNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("ck-worker-test-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (parent, addr) = Listener::bind(ProcTransport::Uds, &dir, "ctl").unwrap();
        let worker = std::thread::spawn(move || {
            let as_built = crate::program::ProgramBuilder::new().build();
            handshake(0, &as_built, &addr).3
        });
        let mut ctl = parent.accept_deadline(Instant::now() + Duration::from_secs(5)).unwrap();
        assert!(matches!(recv_ctl(&mut ctl), Ok(CtlMsg::Hello(h)) if h.rank == 0));
        let opts = ProcOpts {
            npes: 1,
            topology: multicomputer::Topology::Ring,
            batch_bytes: 1,
            batch_frames: 1,
            loss: None,
            crash: None,
            run,
        };
        send_ctl(&mut ctl, &CtlMsg::Go(Box::new(Go { peers: vec![String::new()], opts }))).unwrap();
        let installed = worker.join();
        let _ = std::fs::remove_dir_all(&dir);
        installed
    }

    #[test]
    fn run_options_in_go_are_installed_whole_and_checked_like_with_reliable() {
        let told = RunOpts {
            queueing: crate::queueing::QueueingStrategy::Lifo,
            balance: crate::balance::BalanceStrategy::Random,
            bcast: crate::bcast::BroadcastMode::Direct,
            combining: true,
            rng_seed: 9,
            reliable: Some(ReliableConfig { window: 3, ..ReliableConfig::default() }),
            tracing: Some(Default::default()),
            metrics: Some(Default::default()),
        };
        let prog = handshake_told(told.clone()).expect("a deliverable config installs");
        assert_eq!(prog.opts(), &told, "the parent's options replace the worker's own, whole");
        // A parent cannot say this through the API — its own program
        // went through the same check — so the `Go` is written by hand.
        // The worker must refuse it by name, not boot into a hang.
        let dead = ReliableConfig { window: 0, ..ReliableConfig::default() };
        let refused = handshake_told(RunOpts { reliable: Some(dead), ..told });
        let panic = refused.err().expect("a zero send window must not be installed");
        let text = panic.downcast_ref::<String>().expect("a formatted panic");
        assert_eq!(*text, dead.validate().unwrap_err().to_string());
    }

    /// Collects what `incoming` is handed.
    #[derive(Default)]
    struct Sink(Vec<Packet>);

    impl NodeProgram for Sink {
        fn boot(&mut self, _net: &mut dyn NetCtx) {}
        fn incoming(&mut self, pkt: Packet) {
            self.0.push(pkt);
        }
        fn step(&mut self, _net: &mut dyn NetCtx) -> Option<StepKind> {
            None
        }
        fn has_work(&self) -> bool {
            false
        }
    }

    /// Hand `chunk` to PE 0 the way its reader does, halt it, and run the
    /// one turn that delivers what waits, self-sends included.
    fn turn_over(ctx: &mut ProcCtx, chunk: Chunk) -> Sink {
        ctx.link.arrivals.inbox.push(&mut vec![(0, chunk)]);
        ctx.link.arrivals.halt.store(true, Ordering::Release);
        let mut node = Sink::default();
        assert_eq!(ctx.turn(&mut node, false), None, "a halted PE does not step");
        node
    }

    #[test]
    fn a_chunk_decodes_into_packets_with_one_arrival_stamp() {
        let (mut ctx, mut far) = ctx_over_socketpairs(2, 16 * 1024, 64);
        for wave in 10..15 {
            send_poll(&mut ctx, 1, wave);
        }
        ctx.flush_all();
        let chunk = arrived(far[1].as_mut().expect("link 0 -> 1")).expect("five frames");

        let node = turn_over(&mut ctx, chunk);
        let waves: Vec<u64> = node
            .0
            .iter()
            .map(|pkt| match pkt.payload.downcast_ref::<SysMsg>() {
                Some(SysMsg::QdPoll { wave }) => *wave,
                _ => panic!("not the QdPoll that was sent"),
            })
            .collect();
        assert_eq!(waves, vec![10, 11, 12, 13, 14]);
        let at_ns = node.0[0].at_ns;
        for pkt in &node.0 {
            assert_eq!((pkt.from, pkt.bytes, pkt.at_ns), (Pe(0), 8, at_ns));
            assert!(pkt.sent_ns <= pkt.at_ns);
        }
    }

    #[test]
    fn a_node_that_does_not_stamp_sends_and_gets_packets_stamped_zero() {
        let (mut ctx, mut far) = ctx_over_socketpairs(2, 16 * 1024, 64);
        ctx.stamps = false;
        send_poll(&mut ctx, 1, 1);
        send_poll(&mut ctx, 0, 2);
        ctx.flush_all();
        let chunk = arrived(far[1].as_mut().expect("link 0 -> 1")).expect("one frame");

        let node = turn_over(&mut ctx, chunk);
        assert_eq!(node.0.len(), 2, "the remote frame and the self-send");
        for pkt in &node.0 {
            assert_eq!((pkt.at_ns, pkt.sent_ns), (0, 0));
        }
    }
}
