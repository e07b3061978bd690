//! Socket plumbing for the multi-process backend.
//!
//! One small abstraction — [`Stream`] / [`Listener`] over Unix-domain
//! and TCP sockets — plus length-prefixed framing and the control
//! protocol ([`CtlMsg`]) spoken between parent and workers. Data-mesh
//! frames use the same `[u32 len][body]` framing; their bodies are
//! `[u64 sent_ns][u32 declared bytes][encoded SysMsg]` (see
//! `docs/PROCESS.md` for the full wire contract).
//!
//! Every frame is written by [`frame`]. The data mesh is read by a
//! [`Splitter`] — one `read` per wake-up, any number of frames per
//! `read`; the control socket, which carries half a dozen messages per
//! run and is read frame by frame during the handshake, keeps the
//! blocking [`read_frame`]. Both sides read it, once the handshake is
//! over, on the one reader thread [`spawn_ctl_reader`] starts; the parent
//! joins its readers when it tears a run down.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::probe::Shard;
use crate::wire::{Wire, WireReader};

use super::ProcOpts;

/// Socket flavor for the multi-process backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcTransport {
    /// Unix-domain sockets under a per-run temp directory (default).
    Uds,
    /// TCP over loopback (`127.0.0.1`, ephemeral ports).
    Tcp,
}

/// A connected byte stream of either flavor.
#[derive(Debug)]
pub(crate) enum Stream {
    Uds(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    /// Connect to an address string of the form `uds:<path>` or
    /// `tcp:<host:port>`.
    pub(crate) fn connect(addr: &str) -> io::Result<Stream> {
        if let Some(path) = addr.strip_prefix("uds:") {
            Ok(Stream::Uds(UnixStream::connect(path)?))
        } else if let Some(hostport) = addr.strip_prefix("tcp:") {
            let s = TcpStream::connect(hostport)?;
            s.set_nodelay(true)?;
            Ok(Stream::Tcp(s))
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("bad transport address {addr:?}"),
            ))
        }
    }

    /// Connect with retries — a peer's listener is bound before its
    /// address is published, but connect can still race process
    /// scheduling right after spawn.
    pub(crate) fn connect_retry(addr: &str, deadline: Instant) -> io::Result<Stream> {
        loop {
            match Stream::connect(addr) {
                Ok(s) => return Ok(s),
                Err(e) if Instant::now() < deadline => {
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Clone the underlying descriptor (separate read/write halves).
    pub(crate) fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Uds(s) => Stream::Uds(s.try_clone()?),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
        })
    }

    pub(crate) fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Uds(s) => s.set_read_timeout(t),
            Stream::Tcp(s) => s.set_read_timeout(t),
        }
    }

    /// Hard-close both directions (crash-injection and teardown).
    pub(crate) fn shutdown(&self) {
        let _ = match self {
            Stream::Uds(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Uds(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Uds(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Uds(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// A listening socket of either flavor.
pub(crate) enum Listener {
    Uds(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    /// Bind a listener; returns it plus its publishable address string.
    /// UDS sockets live in `dir` under `name.sock`; TCP binds an
    /// ephemeral loopback port (and ignores `dir`/`name`).
    pub(crate) fn bind(
        transport: ProcTransport,
        dir: &Path,
        name: &str,
    ) -> io::Result<(Listener, String)> {
        match transport {
            ProcTransport::Uds => {
                let path = dir.join(format!("{name}.sock"));
                let l = UnixListener::bind(&path)?;
                Ok((Listener::Uds(l), format!("uds:{}", path.display())))
            }
            ProcTransport::Tcp => {
                let l = TcpListener::bind("127.0.0.1:0")?;
                let addr = l.local_addr()?;
                Ok((Listener::Tcp(l), format!("tcp:{addr}")))
            }
        }
    }

    /// Accept one connection, polling nonblockingly until `deadline`.
    pub(crate) fn accept_deadline(&self, deadline: Instant) -> io::Result<Stream> {
        match self {
            Listener::Uds(l) => l.set_nonblocking(true)?,
            Listener::Tcp(l) => l.set_nonblocking(true)?,
        }
        let mut backoff = Backoff::new(Duration::from_millis(2));
        loop {
            let got = match self {
                Listener::Uds(l) => l.accept().map(|(s, _)| Stream::Uds(s)),
                Listener::Tcp(l) => l.accept().map(|(s, _)| {
                    let _ = s.set_nodelay(true);
                    Stream::Tcp(s)
                }),
            };
            match got {
                Ok(s) => {
                    // Accepted sockets inherit nonblocking on some
                    // platforms; force blocking mode for framed I/O.
                    match &s {
                        Stream::Uds(u) => u.set_nonblocking(false)?,
                        Stream::Tcp(t) => t.set_nonblocking(false)?,
                    }
                    return Ok(s);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "accept deadline exceeded",
                        ));
                    }
                    backoff.nap();
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Nap between polls of something that is usually ready within a few
/// hundred microseconds (a worker's first connect, a child's exit):
/// 50 µs, doubling up to `cap`, so the common case is not charged a
/// whole `cap` and a long wait still polls no faster than it used to.
pub(crate) struct Backoff {
    nap: Duration,
    cap: Duration,
}

impl Backoff {
    pub(crate) fn new(cap: Duration) -> Self {
        Backoff {
            nap: Duration::from_micros(50),
            cap,
        }
    }

    pub(crate) fn nap(&mut self) {
        std::thread::sleep(self.nap);
        self.nap = (self.nap * 2).min(self.cap);
    }
}

/// Hard cap on a single frame — far above any real message, low enough
/// that a corrupt length prefix fails fast instead of OOMing.
const MAX_FRAME: usize = 256 * 1024 * 1024;

/// Shortest legal data-mesh frame body: the `[u64 sent_ns][u32 bytes]`
/// header every body starts with.
const MIN_DATA_FRAME: usize = 12;

/// Size of a [`Splitter`]'s receive buffer: what one `read` can return.
const READ_BUF: usize = 64 * 1024;

/// Append one `[u32 len][body]` frame to `out`, the body written in
/// place by `body` and the length patched in afterwards — the one
/// framing routine of the backend, control and data alike.
pub(crate) fn frame(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    body(out);
    let len = out.len() - at - 4;
    assert!(len <= MAX_FRAME, "frame of {len} bytes exceeds the cap");
    out[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Read one `[u32 len][body]` frame (control socket only).
/// `UnexpectedEof` at the length prefix is the clean-close signal. The
/// body buffer grows with the bytes that arrive, never to the prefix's
/// say-so: a prefix with nothing behind it costs nothing.
pub(crate) fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap"),
        ));
    }
    let mut body = Vec::new();
    if r.take(len as u64).read_to_end(&mut body)? < len {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok(body)
}

/// Whole data-mesh frames, still encoded, exactly as they came off the
/// socket: `([u32 len][body])*` with every `len` already checked
/// against [`MIN_DATA_FRAME`] and [`MAX_FRAME`] and every body complete.
pub(crate) struct Chunk(Vec<u8>);

impl Chunk {
    /// The frame bodies, in arrival order.
    pub(crate) fn frames(&self) -> impl Iterator<Item = &[u8]> {
        let mut rest = &self.0[..];
        std::iter::from_fn(move || {
            if rest.is_empty() {
                return None;
            }
            let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
            let (body, tail) = rest[4..].split_at(len);
            rest = tail;
            Some(body)
        })
    }
}

/// The read side of one data-mesh link: cuts the byte stream into
/// [`Chunk`]s of whole frames without decoding or allocating per frame.
///
/// `buf[..filled]` is received and not yet handed on; it always starts
/// at a frame boundary, and whenever its first frame is incomplete the
/// buffer has room for the rest of it (it is grown, once, to fit a frame
/// larger than [`READ_BUF`]).
pub(crate) struct Splitter {
    buf: Vec<u8>,
    filled: usize,
}

impl Splitter {
    pub(crate) fn new() -> Self {
        Splitter {
            buf: vec![0; READ_BUF],
            filled: 0,
        }
    }

    /// Block until at least one whole frame is buffered — one `read`
    /// unless a frame straddles it — and return every whole frame
    /// buffered by then. `Ok(None)` is a clean close (end of stream at a
    /// frame boundary); end of stream inside a frame is `UnexpectedEof`,
    /// and a length prefix outside `MIN_DATA_FRAME..=MAX_FRAME` is
    /// `InvalidData`, raised before anything is allocated for it.
    pub(crate) fn read_chunk(&mut self, r: &mut impl Read) -> io::Result<Option<Chunk>> {
        loop {
            debug_assert!(self.filled < self.buf.len(), "no room for the next read");
            let n = match r.read(&mut self.buf[self.filled..]) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                other => other?,
            };
            if n == 0 {
                return if self.filled == 0 {
                    Ok(None)
                } else {
                    Err(io::ErrorKind::UnexpectedEof.into())
                };
            }
            self.filled += n;

            let mut whole = 0;
            while let Some(prefix) = self.buf[whole..self.filled].first_chunk::<4>() {
                let len = u32::from_le_bytes(*prefix) as usize;
                if !(MIN_DATA_FRAME..=MAX_FRAME).contains(&len) {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("data frame length {len} outside {MIN_DATA_FRAME}..={MAX_FRAME}"),
                    ));
                }
                if whole + 4 + len > self.filled {
                    if 4 + len > self.buf.len() {
                        self.buf.resize(4 + len, 0);
                    }
                    break;
                }
                whole += 4 + len;
            }
            if whole > 0 {
                let chunk = Chunk(self.buf[..whole].to_vec());
                self.buf.copy_within(whole..self.filled, 0);
                self.filled -= whole;
                return Ok(Some(chunk));
            }
        }
    }
}

/// Control-protocol messages between parent and workers. The sequence
/// per worker is `Hello → Go → Ready → Start → (run) → Stopped? → Halt
/// → Final`; `Stopped` comes only from the worker whose node called
/// `CkExit` (or quiesced), and `Final` carries the PE's shard — its
/// counters and what it recorded — for the parent to merge.
#[derive(Debug, PartialEq)]
pub(crate) enum CtlMsg {
    /// Worker → parent: identity, codec fingerprint, data-mesh address.
    Hello(Hello),
    /// Parent → worker: where the peers are and how to run.
    Go(Box<Go>),
    /// Worker → parent: data mesh wired, ready to start.
    Ready,
    /// Parent → worker: boot the node and run, counting time from
    /// `epoch_ns` (nanoseconds since the Unix epoch, read once by the
    /// parent), so every PE of the run reads one clock.
    Start { epoch_ns: u64 },
    /// Worker → parent: my node stopped the machine; `result` is the
    /// wire-encoded `exit` payload, if one was deposited here (a body
    /// only the program's wire table can decode, hence still bytes).
    Stopped { result: Option<Vec<u8>> },
    /// Parent → worker: stop scheduling and report.
    Halt,
    /// Worker → parent: final report. Boxed, like `Go`, because it is
    /// wide (two histograms) and the parent's supervisor channel moves a
    /// `CtlMsg`-sized slot per event.
    Final(Box<Final>),
}

#[derive(Debug, PartialEq)]
pub(crate) struct Hello {
    pub rank: u32,
    pub fingerprint: u64,
    pub data_addr: String,
}

#[derive(Debug, PartialEq)]
pub(crate) struct Go {
    /// Every worker's data address, indexed by rank.
    pub peers: Vec<String>,
    /// The machine shape and run overrides to apply.
    pub opts: ProcOpts,
}

#[derive(Debug, Default, PartialEq)]
pub(crate) struct Final {
    /// The worker's clock when it stopped scheduling.
    pub end_ns: u64,
    /// Its node's counters and what its probe recorded.
    pub shard: Shard,
}

crate::wire_struct!(Hello { rank, fingerprint, data_addr });
crate::wire_struct!(Go { peers, opts });
crate::wire_struct!(Final { end_ns, shard });
crate::wire_enum!(CtlMsg { Hello(hello), Go(go), Ready, Start { epoch_ns }, Stopped { result }, Halt, Final(last) });

/// Decode one control-frame body. Anything but exactly one well-formed
/// message is `InvalidData`.
pub(crate) fn decode_ctl(body: &[u8]) -> io::Result<CtlMsg> {
    let mut r = WireReader::new(body);
    let msg = CtlMsg::decode(&mut r);
    match r.finish() {
        Ok(()) => Ok(msg),
        Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e)),
    }
}

/// One control message, framed: the bytes [`send_ctl`] writes.
pub(crate) fn ctl_frame(msg: &CtlMsg) -> Vec<u8> {
    let mut out = Vec::new();
    frame(&mut out, |b| msg.encode(b));
    out
}

/// Send one control message (framed, one write).
pub(crate) fn send_ctl(w: &mut impl Write, msg: &CtlMsg) -> io::Result<()> {
    w.write_all(&ctl_frame(msg))
}

/// Receive one control message (framed); a body that does not decode is
/// an `InvalidData` error.
pub(crate) fn recv_ctl(r: &mut impl Read) -> io::Result<CtlMsg> {
    decode_ctl(&read_frame(r)?)
}

/// What a control reader forwards: the rank of the worker on the link,
/// and the message or the error that ended the reading.
pub(crate) type CtlEvent = (u32, io::Result<CtlMsg>);

/// Read `stream` on a thread of its own from here on, handing `forward`
/// each message until it returns `false` or the first error — a close,
/// or a message that does not decode — has been handed over. The thread
/// ends at the latest when the other end of `stream` closes.
pub(crate) fn spawn_ctl_reader(
    rank: u32,
    mut stream: Stream,
    mut forward: impl FnMut(CtlEvent) -> bool + Send + 'static,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("ck-ctl-{rank}"))
        .spawn(move || {
            let _ = stream.set_read_timeout(None);
            loop {
                let msg = recv_ctl(&mut stream);
                let last = msg.is_err();
                if !forward((rank, msg)) || last {
                    break;
                }
            }
        })
        .expect("spawn control reader")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Histogram, MetricsConfig, PeMetricSet, Slice};
    use crate::prelude::{BalanceStrategy, BroadcastMode, QueueingStrategy};
    use crate::probe::{merge, Probe};
    use crate::proc::{CrashHook, CrashMode, LossConfig};
    use crate::program::RunOpts;
    use crate::reliable::ReliableConfig;
    use crate::stats::KernelCounters;
    use crate::trace::{EventKind, MsgClass, TraceConfig};
    use multicomputer::{Cost, Pe, Topology};
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// `bodies` framed back to back, as a sender's coalescing buffer
    /// would hold them.
    fn framed(bodies: &[Vec<u8>]) -> Vec<u8> {
        let mut out = Vec::new();
        for body in bodies {
            frame(&mut out, |b| b.extend_from_slice(body));
        }
        out
    }

    fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
        w.write_all(&framed(&[body.to_vec()]))
    }

    /// A body of `len` bytes whose content depends on `tag`, so a frame
    /// delivered out of order or cut at the wrong byte compares unequal.
    fn body(len: usize, tag: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + tag * 7) as u8).collect()
    }

    /// A byte source that returns one scripted piece per `read` (less if
    /// the caller's buffer is smaller), then end of stream.
    struct Script(VecDeque<Vec<u8>>);

    impl Script {
        fn new(pieces: &[&[u8]]) -> Self {
            Script(pieces.iter().map(|p| p.to_vec()).collect())
        }
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let Some(mut piece) = self.0.pop_front() else {
                return Ok(0);
            };
            let n = piece.len().min(buf.len());
            buf[..n].copy_from_slice(&piece[..n]);
            if n < piece.len() {
                self.0.push_front(piece.split_off(n));
            }
            Ok(n)
        }
    }

    /// Read `r` to its end; the frame bodies of each chunk, in order.
    fn split_all(splitter: &mut Splitter, r: &mut impl Read) -> io::Result<Vec<Vec<Vec<u8>>>> {
        let mut chunks = Vec::new();
        while let Some(chunk) = splitter.read_chunk(r)? {
            chunks.push(chunk.frames().map(<[u8]>::to_vec).collect());
        }
        Ok(chunks)
    }

    #[test]
    fn splitter_hands_over_every_whole_frame_of_a_read() {
        let bodies = vec![body(12, 0), body(40, 1), body(1000, 2)];
        let bytes = framed(&bodies);
        // Two and a half frames, then the rest.
        let cut = 4 + 12 + 4 + 40 + 300;
        let mut r = Script::new(&[&bytes[..cut], &bytes[cut..]]);
        let chunks = split_all(&mut Splitter::new(), &mut r).unwrap();
        assert_eq!(chunks, vec![bodies[..2].to_vec(), bodies[2..].to_vec()]);
    }

    #[test]
    fn splitter_header_split_across_two_reads() {
        let bodies = vec![body(20, 0), body(33, 1)];
        let bytes = framed(&bodies);
        // The second frame's length prefix arrives two bytes at a time.
        let cut = 4 + 20 + 2;
        let mut r = Script::new(&[&bytes[..cut], &bytes[cut..cut + 2], &bytes[cut + 2..]]);
        let chunks = split_all(&mut Splitter::new(), &mut r).unwrap();
        assert_eq!(chunks, vec![bodies[..1].to_vec(), bodies[1..].to_vec()]);
    }

    #[test]
    fn splitter_frame_ending_exactly_at_the_buffer_end() {
        let bodies = vec![body(READ_BUF - 4 - 4 - 100, 0), body(100, 1), body(50, 2)];
        let bytes = framed(&bodies);
        assert_eq!(4 + bodies[0].len() + 4 + bodies[1].len(), READ_BUF);
        let mut splitter = Splitter::new();
        let chunks = split_all(&mut splitter, &mut Script::new(&[&bytes])).unwrap();
        assert_eq!(chunks, vec![bodies[..2].to_vec(), bodies[2..].to_vec()]);
        assert_eq!(splitter.buf.len(), READ_BUF, "a full buffer of whole frames needs no growth");
    }

    #[test]
    fn splitter_grows_once_for_a_larger_frame() {
        let big = 3 * READ_BUF + 17;
        let bodies = vec![body(30, 0), body(big, 1), body(big, 2), body(30, 3)];
        let mut splitter = Splitter::new();
        let chunks = split_all(&mut splitter, &mut Script::new(&[&framed(&bodies)])).unwrap();
        assert_eq!(chunks.concat(), bodies);
        assert_eq!(splitter.buf.len(), 4 + big, "grown to fit the frame, and only that far");
    }

    #[test]
    fn splitter_zero_length_read_is_a_clean_close_only_between_frames() {
        let bytes = framed(&[body(64, 0)]);
        let mut splitter = Splitter::new();
        assert!(splitter.read_chunk(&mut Script::new(&[])).unwrap().is_none());
        let chunks = split_all(&mut splitter, &mut Script::new(&[&bytes])).unwrap();
        assert_eq!(chunks.concat(), vec![body(64, 0)]);
        for cut in [1, 4, 30] {
            let err = split_all(&mut Splitter::new(), &mut Script::new(&[&bytes[..cut]]))
                .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn splitter_rejects_a_bad_header_before_allocating() {
        for len in [0, MIN_DATA_FRAME as u32 - 1, MAX_FRAME as u32 + 1, u32::MAX] {
            let mut bytes = framed(&[body(16, 0)]);
            bytes.extend_from_slice(&len.to_le_bytes());
            let mut splitter = Splitter::new();
            let err = split_all(&mut splitter, &mut Script::new(&[&bytes])).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "length {len}");
            assert_eq!(splitter.buf.len(), READ_BUF, "length {len} must not size a buffer");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Whatever the frame sizes and however the sender's writes cut
        /// the stream, the same frames come out in the same order.
        #[test]
        fn splitter_reassembles_any_slicing_over_a_socketpair(
            lens in proptest::collection::vec(
                prop_oneof![12usize..64, 12usize..4096, 60_000usize..70_000, 12usize..200 * 1024 + 1],
                1..12,
            ),
            slices in proptest::collection::vec(
                prop_oneof![1usize..8, 1usize..512, 1usize..64 * 1024 + 1],
                1..24,
            ),
        ) {
            let bodies: Vec<Vec<u8>> = lens.iter().enumerate().map(|(i, &n)| body(n, i)).collect();
            let bytes = framed(&bodies);
            let (mut tx, mut rx) = UnixStream::pair().expect("socketpair");
            let got = std::thread::scope(|s| {
                s.spawn(|| {
                    let mut rest = &bytes[..];
                    for &n in slices.iter().cycle() {
                        if rest.is_empty() {
                            break;
                        }
                        let (now, later) = rest.split_at(usize::min(n, rest.len()));
                        tx.write_all(now).expect("write slice");
                        rest = later;
                    }
                    tx.shutdown(std::net::Shutdown::Write).expect("close write half");
                });
                split_all(&mut Splitter::new(), &mut rx).expect("well-formed stream")
            });
            prop_assert_eq!(got.concat(), bodies);
        }
    }

    fn encoded(msg: &CtlMsg) -> Vec<u8> {
        let mut out = Vec::new();
        msg.encode(&mut out);
        out
    }

    /// Every optional config set, every `RunOpts` field off its default,
    /// and the topology and the balance strategy that carry fields.
    fn full_opts() -> ProcOpts {
        ProcOpts {
            npes: 8,
            topology: Topology::Mesh2D { rows: 2, cols: 4 },
            batch_bytes: 1,
            batch_frames: 1,
            loss: Some(LossConfig {
                seed: 42,
                drop_permille: 100,
                reorder_permille: 50,
            }),
            crash: Some(CrashHook { rank: 5, mode: CrashMode::Exit(-7), after: 1 << 40 }),
            run: RunOpts {
                queueing: QueueingStrategy::BitvecPriority,
                balance: BalanceStrategy::Acwn { max_hops: 9, low_mark: 3 },
                bcast: BroadcastMode::Direct,
                combining: true,
                rng_seed: 7,
                reliable: Some(ReliableConfig {
                    timeout: Cost::millis(3),
                    seed_retry_limit: 30,
                    window: 16,
                }),
                tracing: Some(TraceConfig),
                metrics: Some(MetricsConfig),
            },
        }
    }

    /// What a traced and metered worker reports: its counters, two
    /// events in its trace, and a metric set with a slice, a latency
    /// sample and the same events as its flight recorder.
    fn full_final() -> Final {
        let opts = RunOpts {
            tracing: Some(TraceConfig),
            metrics: Some(MetricsConfig),
            ..RunOpts::default()
        };
        let probe = Probe::for_run(Pe(1), &opts, 0, 0).expect("the run records");
        let recv = EventKind::MsgRecv {
            from: Pe(0),
            class: MsgClass::Seed,
            bytes: 48,
        };
        probe.record(100, 30, recv);
        probe.record(140, 0, EventKind::Retransmit { to: Pe(0), seq: 9 });
        let shard = probe.into_shard(KernelCounters {
            user_sent: 1,
            queue_hwm: 17,
            rel_unacked_end: 27,
            ..Default::default()
        });
        assert_eq!(shard.events.len(), 2);
        assert!(shard.metrics.is_some());
        Final { end_ns: 99, shard }
    }

    /// One instance of every variant, the two big ones fully populated.
    fn every_variant() -> Vec<CtlMsg> {
        vec![
            CtlMsg::Hello(Hello {
                rank: 3,
                fingerprint: 0xDEAD_BEEF,
                data_addr: "uds:/tmp/x.sock".into(),
            }),
            CtlMsg::Go(Box::new(Go {
                peers: vec!["a".into(), "tcp:127.0.0.1:9".into()],
                opts: full_opts(),
            })),
            CtlMsg::Ready,
            CtlMsg::Start { epoch_ns: 1_700_000_000_000_000_000 },
            CtlMsg::Stopped {
                result: Some(vec![1, 2, 3]),
            },
            CtlMsg::Halt,
            CtlMsg::Final(Box::new(full_final())),
        ]
    }

    fn is_invalid_data(got: io::Result<CtlMsg>) -> bool {
        got.is_err_and(|e| e.kind() == io::ErrorKind::InvalidData)
    }

    #[test]
    fn ctl_messages_roundtrip() {
        for msg in every_variant() {
            assert_eq!(decode_ctl(&encoded(&msg)).expect("decodes"), msg);
        }
        let full = full_opts();
        let library = RunOpts::default();
        assert!(
            full.run.queueing != library.queueing
                && full.run.balance != library.balance
                && full.run.bcast != library.bcast
                && full.run.combining != library.combining
                && full.run.rng_seed != library.rng_seed
                && full.run.reliable != library.reliable
                && full.run.tracing != library.tracing
                && full.run.metrics != library.metrics,
            "a field at its default would round-trip even if the codec skipped it"
        );
        let minimal = ProcOpts {
            loss: None,
            crash: None,
            topology: Topology::Hypercube,
            run: library,
            ..full
        };
        let go = CtlMsg::Go(Box::new(Go {
            peers: Vec::new(),
            opts: minimal,
        }));
        assert_eq!(decode_ctl(&encoded(&go)).expect("decodes"), go);
        let full = full_final();
        let quiet = Shard { counters: full.shard.counters, ..Shard::default() };
        let quiet = CtlMsg::Final(Box::new(Final { shard: quiet, ..full }));
        assert_eq!(decode_ctl(&encoded(&quiet)).expect("decodes"), quiet);
    }

    /// Two workers each report as many sends as a counter can hold: the
    /// run's total saturates there, where a plain sum would overflow.
    #[test]
    fn saturated_finals_total_u64_max_through_the_merge() {
        let counters = KernelCounters { user_sent: u64::MAX, ..Default::default() };
        let last = Final { end_ns: 5, shard: Shard { counters, ..Shard::default() } };
        let bytes = encoded(&CtlMsg::Final(Box::new(last)));
        let shards = (0..2).map(|_| match decode_ctl(&bytes) {
            Ok(CtlMsg::Final(last)) => last.shard,
            other => panic!("not a Final: {other:?}"),
        });
        let (per_pe, _, _) = merge(&RunOpts::default(), 5, shards);
        assert_eq!(per_pe, vec![counters; 2]);
        assert_eq!(KernelCounters::total(&per_pe).user_sent, u64::MAX);
    }

    /// Each `Final` encoded and decoded as the parent would receive it,
    /// in rank order: the shards the parent merges.
    fn decoded_shards(finals: Vec<Final>) -> Vec<Shard> {
        let decoded = |f| match decode_ctl(&encoded(&CtlMsg::Final(Box::new(f)))) {
            Ok(CtlMsg::Final(f)) => f.shard,
            other => panic!("not a Final: {other:?}"),
        };
        finals.into_iter().map(decoded).collect()
    }

    /// A metered worker's `Final`: `set`, its slices one nanosecond wide.
    fn metered_final(set: PeMetricSet) -> Final {
        Final { end_ns: 1000, shard: Shard { metrics: Some((1, set)), ..Shard::default() } }
    }

    fn metered() -> RunOpts {
        RunOpts { metrics: Some(MetricsConfig), ..RunOpts::default() }
    }

    /// Two workers each report histogram, slice and flight-drop counts
    /// as large as a counter holds: the merge and the machine-wide
    /// readers saturate there, where a plain sum would overflow.
    #[test]
    fn saturated_metric_shards_read_u64_max_through_the_merge() {
        let m = u64::MAX;
        // `c` samples in each of two buckets; count and sum saturated.
        let hist = |c: u64| {
            let mut bytes = Vec::new();
            vec![(3u8, c), (5u8, c)].encode(&mut bytes);
            [m, m, 40].iter().for_each(|v| v.encode(&mut bytes));
            Histogram::decode(&mut WireReader::new(&bytes))
        };
        let (half, full) = (hist(1 << 63), hist(m));
        assert_eq!(half.quantile_bound(1.0), 64, "the running count saturates");
        let slice = Slice {
            work_ns: m,
            dispatch_ns: m,
            ctl_ns: m,
            msgs_sent: m,
            msgs_recv: m,
            bytes_sent: m,
            bytes_recv: m,
            seeds_kept: m,
            seeds_forwarded: m,
            retransmits: m,
        };
        let set = |pe| PeMetricSet {
            slices: vec![slice; 8],
            latency: half.clone(),
            grain: half.clone(),
            flight_dropped: m,
            ..PeMetricSet::empty(Pe(pe))
        };
        let shards = decoded_shards(vec![metered_final(set(0)), metered_final(set(1))]);
        // 1000 ns in at most 256 slices: the merge coalesces each PE's
        // one-nanosecond slices in fours.
        let log = merge(&metered(), 1000, shards).2.expect("metered");
        assert_eq!(log.width_ns, 4);
        assert_eq!((log.slice_totals(0), log.slice_totals(0).busy_ns()), (slice, m));
        assert_eq!((log.latency_all(), log.grain_all()), (full.clone(), full));
        assert_eq!(log.flight_dropped(), m);
    }

    /// A worker's metric set names another rank: it is filed under the
    /// rank whose `Final` carried it, so no PE reads as all-idle.
    #[test]
    fn a_metric_set_naming_another_rank_is_filed_under_its_sender() {
        let set = |hwm: u64| {
            let mut set = PeMetricSet::empty(Pe(1));
            set.slices = vec![Slice { msgs_recv: hwm, ..Slice::default() }];
            set.latency.record(hwm);
            PeMetricSet { queue_hwm: hwm, ..set }
        };
        let shards = decoded_shards(vec![metered_final(set(3)), metered_final(set(7))]);
        let log = merge(&metered(), 1000, shards).2.expect("metered");
        let filed: Vec<(Pe, u64)> = log.per_pe.iter().map(|s| (s.pe, s.queue_hwm)).collect();
        assert_eq!(filed, vec![(Pe(0), 3), (Pe(1), 7)]);
        assert_eq!(log.slice_totals(0).msgs_recv, 10);
        assert_eq!((log.latency_all().count, log.latency_all().sum), (2, 10));
    }

    #[test]
    fn malformed_ctl_rejected() {
        assert!(is_invalid_data(decode_ctl(&[])));
        assert!(is_invalid_data(decode_ctl(&[42])));
        // A `Hello` tag and nothing else; a `Final` tag and three bytes.
        assert!(is_invalid_data(decode_ctl(&[0])));
        assert!(is_invalid_data(decode_ctl(&[6, 0, 0, 0])));
        // Trailing garbage is a protocol error, not silently ignored.
        let mut bytes = encoded(&CtlMsg::Ready);
        bytes.push(0);
        assert!(is_invalid_data(decode_ctl(&bytes)));
    }

    #[test]
    fn every_cut_and_every_overrun_of_every_variant_is_an_error() {
        for msg in every_variant() {
            let mut bytes = encoded(&msg);
            for cut in 0..bytes.len() {
                let got = decode_ctl(&bytes[..cut]);
                assert!(is_invalid_data(got), "{msg:?} cut to {cut} of {} bytes", bytes.len());
            }
            bytes.push(0);
            assert!(is_invalid_data(decode_ctl(&bytes)), "{msg:?} and one byte more");
        }
    }

    /// `ProcOpts` out of twelve words: what is optional is set or not
    /// by a bit of the first, the topology and the strategies picked by
    /// its higher bits.
    fn opts_from(w: Vec<u64>) -> ProcOpts {
        let set = |bit: u32| w[0] >> bit & 1 == 1;
        ProcOpts {
            npes: w[1] as usize,
            topology: match w[0] >> 8 & 7 {
                0 => Topology::Hypercube,
                1 => Topology::Ring,
                2 => Topology::FullyConnected,
                3 => Topology::Bus,
                _ => Topology::Mesh2D {
                    rows: w[2] as usize,
                    cols: w[3] as usize,
                },
            },
            batch_bytes: w[4] as usize,
            batch_frames: w[5] as usize,
            loss: set(0).then(|| LossConfig {
                seed: w[6],
                drop_permille: w[7] as u16,
                reorder_permille: (w[7] >> 16) as u16,
            }),
            crash: set(3).then(|| CrashHook {
                rank: (w[2] >> 32) as u32,
                mode: match w[0] >> 16 & 7 {
                    0 => CrashMode::Exit(w[3] as i32),
                    1 => CrashMode::Close,
                    2 => CrashMode::BadLen((w[3] >> 32) as u32),
                    3 => CrashMode::BadCtl,
                    4 => CrashMode::BadBody,
                    _ => CrashMode::Nest((w[3] >> 32) as u32),
                },
                after: w[4],
            }),
            run: RunOpts {
                queueing: QueueingStrategy::ALL[(w[0] >> 11 & 3) as usize],
                balance: match w[0] >> 13 & 7 {
                    0 => BalanceStrategy::Local,
                    1 => BalanceStrategy::Random,
                    2 => BalanceStrategy::CentralManager,
                    3 => BalanceStrategy::TokenIdle,
                    _ => BalanceStrategy::Acwn {
                        max_hops: w[11] as u32,
                        low_mark: (w[11] >> 32) as u32,
                    },
                },
                bcast: if set(5) { BroadcastMode::Direct } else { BroadcastMode::Tree },
                combining: set(6),
                rng_seed: w[8],
                reliable: set(1).then(|| ReliableConfig {
                    timeout: Cost::nanos(w[9]),
                    seed_retry_limit: w[10] as u32,
                    window: (w[10] >> 32) as u32,
                }),
                tracing: set(2).then_some(TraceConfig),
                metrics: set(4).then_some(MetricsConfig),
            },
        }
    }

    proptest! {
        /// Whatever arrives in a control frame, the decoder answers —
        /// under every tag, so the bytes reach every variant's fields.
        #[test]
        fn arbitrary_control_bytes_never_panic(
            tag in 0u8..9,
            tail in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            let _ = decode_ctl(&tail);
            let _ = decode_ctl(&[&[tag][..], &tail].concat());
        }

        /// A well-formed message with a few bytes overwritten: the
        /// shapes a real peer's corruption would have.
        #[test]
        fn damaged_control_messages_never_panic(
            which in 0usize..7,
            damage in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..5),
        ) {
            let mut bytes = encoded(&every_variant()[which]);
            for (at, byte) in damage {
                let at = at % bytes.len();
                bytes[at] = byte;
            }
            let _ = decode_ctl(&bytes);
        }

        #[test]
        fn generated_opts_survive_the_wire(
            words in proptest::collection::vec(any::<u64>(), 12..13),
        ) {
            let opts = opts_from(words);
            let mut bytes = Vec::new();
            opts.encode(&mut bytes);
            let mut r = WireReader::new(&bytes);
            prop_assert_eq!(ProcOpts::decode(&mut r), opts);
            prop_assert_eq!(r.finish(), Ok(()));
            // Cut anywhere, or followed by a byte: an error, not a value.
            for cut in 0..bytes.len() {
                let mut r = WireReader::new(&bytes[..cut]);
                let _ = ProcOpts::decode(&mut r);
                prop_assert!(r.finish().is_err(), "cut to {} of {} bytes", cut, bytes.len());
            }
            bytes.push(0);
            let mut r = WireReader::new(&bytes);
            let _ = ProcOpts::decode(&mut r);
            prop_assert!(r.finish().is_err(), "one byte more");
        }
    }

    #[test]
    fn frames_roundtrip_over_a_socketpair() {
        let (mut a, mut b) = UnixStream::pair().expect("socketpair");
        write_frame(&mut a, b"hello mesh").unwrap();
        write_frame(&mut a, b"").unwrap();
        assert_eq!(read_frame(&mut b).unwrap(), b"hello mesh");
        assert_eq!(read_frame(&mut b).unwrap(), b"");
        drop(a);
        assert_eq!(
            read_frame(&mut b).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn a_length_prefix_with_nothing_behind_it_sizes_no_buffer() {
        let (mut a, mut b) = UnixStream::pair().expect("socketpair");
        // One byte under the cap, five bytes of the body, then a close.
        let len = MAX_FRAME as u32 - 1;
        a.write_all(&len.to_le_bytes()).unwrap();
        a.write_all(b"hello").unwrap();
        drop(a);
        let mut got = None;
        let largest = crate::wire::tests::largest_alloc(|| got = Some(read_frame(&mut b)));
        assert_eq!(got.unwrap().unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
        assert!(largest <= 4096, "asked the allocator for {largest} bytes");
        // Over the cap is refused outright, as ever.
        let mut over = &(MAX_FRAME as u32 + 1).to_le_bytes()[..];
        assert_eq!(read_frame(&mut over).unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn uds_listener_binds_and_accepts() {
        let dir = std::env::temp_dir().join(format!("ck-transport-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (l, addr) = Listener::bind(ProcTransport::Uds, &dir, "t").unwrap();
        assert!(addr.starts_with("uds:"));
        let addr2 = addr.clone();
        let join = std::thread::spawn(move || {
            let mut s = Stream::connect(&addr2).unwrap();
            send_ctl(&mut s, &CtlMsg::Ready).unwrap();
        });
        let mut s = l
            .accept_deadline(Instant::now() + Duration::from_secs(5))
            .unwrap();
        assert!(matches!(recv_ctl(&mut s).unwrap(), CtlMsg::Ready));
        join.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tcp_listener_binds_and_accepts() {
        let dir = std::env::temp_dir();
        let (l, addr) = Listener::bind(ProcTransport::Tcp, &dir, "t").unwrap();
        assert!(addr.starts_with("tcp:127.0.0.1:"));
        let addr2 = addr.clone();
        let join = std::thread::spawn(move || {
            let mut s = Stream::connect_retry(&addr2, Instant::now() + Duration::from_secs(5))
                .unwrap();
            write_frame(&mut s, &[7; 3]).unwrap();
        });
        let mut s = l
            .accept_deadline(Instant::now() + Duration::from_secs(5))
            .unwrap();
        assert_eq!(read_frame(&mut s).unwrap(), vec![7; 3]);
        join.join().unwrap();
    }

    #[test]
    fn accept_deadline_times_out() {
        let dir = std::env::temp_dir().join(format!("ck-transport-to-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (l, _addr) = Listener::bind(ProcTransport::Uds, &dir, "t").unwrap();
        let err = l
            .accept_deadline(Instant::now() + Duration::from_millis(30))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_address_is_rejected() {
        assert!(Stream::connect("carrier-pigeon:coop-7").is_err());
    }
}
