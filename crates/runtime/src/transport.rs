//! Byte transports: how encoded frames move between live processes.
//!
//! A [`Transport`] opens one [`Endpoint`] per process; each endpoint is owned
//! by exactly one process thread and moves *bytes*, never typed messages —
//! every payload crossing a transport has been through the
//! [`agossip_core::codec`] byte encoder, so the live runtime genuinely
//! exercises the wire format.
//!
//! Two families are provided:
//!
//! * [`ChannelTransport`] — in-process crossbeam channels carrying
//!   length-delimited byte frames. No syscalls, no partial reads: the
//!   fastest substrate, and the reference one for deterministic (lockstep)
//!   runs.
//! * [`SocketTransport`] — loopback TCP or Unix-domain stream sockets with
//!   an explicit framing layer (`varint sender ++ varint length ++ payload`).
//!   Every frame really crosses the kernel: partial reads, connection
//!   establishment and peer-death are all real.
//!
//! ## Failure semantics
//!
//! A send to a peer that cannot be reached (its endpoint was dropped, its
//! thread exited, its listener refused the connection) is **message loss,
//! not an error**: in the paper's crash-stop model a message to a crashed
//! process is simply never delivered. Only errors that do not have this
//! interpretation (e.g. the local listener breaking) are surfaced.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};

use agossip_core::codec::{read_varint, write_varint, CodecError};
use agossip_sim::ProcessId;

use crate::error::{io_err, RuntimeError};

/// Hard cap on one frame's payload, so a corrupt length header cannot make
/// the receiver buffer gigabytes. Far above any frame the protocols emit.
pub const MAX_FRAME_BYTES: u64 = 1 << 24;

/// Longest out-of-line frame prefix [`Endpoint::send_shared`] accepts: two
/// LEB128 varints of at most 10 bytes each (the lockstep tick/seq stamp).
pub const MAX_HEAD_BYTES: usize = 20;

/// Inline storage for a frame's per-destination prefix, so the shared-body
/// fast path never heap-allocates for the ≤ 20-byte head.
#[derive(Debug, Clone, Copy)]
struct HeadBuf {
    bytes: [u8; MAX_HEAD_BYTES],
    len: u8,
}

impl HeadBuf {
    const EMPTY: HeadBuf = HeadBuf {
        bytes: [0; MAX_HEAD_BYTES],
        len: 0,
    };

    /// Copies `head` inline; `None` if it exceeds [`MAX_HEAD_BYTES`].
    fn new(head: &[u8]) -> Option<HeadBuf> {
        if head.len() > MAX_HEAD_BYTES {
            return None;
        }
        let len = u8::try_from(head.len()).ok()?;
        let mut bytes = [0u8; MAX_HEAD_BYTES];
        bytes[..head.len()].copy_from_slice(head);
        Some(HeadBuf { bytes, len })
    }

    fn as_slice(&self) -> &[u8] {
        self.bytes.get(..usize::from(self.len)).unwrap_or(&[])
    }
}

/// Body bytes of one frame: uniquely owned, or one encoded broadcast body
/// shared (by reference count) across every destination's frame.
#[derive(Debug, Clone)]
pub enum FrameBody {
    /// Bytes owned by this frame alone.
    Owned(Vec<u8>),
    /// A broadcast body shared across destinations.
    Shared(Arc<[u8]>),
}

impl FrameBody {
    /// The body bytes.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            FrameBody::Owned(bytes) => bytes,
            FrameBody::Shared(bytes) => bytes,
        }
    }
}

/// One received frame: who sent it and its (still encoded) payload, split
/// into a small per-destination head and a possibly shared body — the
/// logical payload is `head ++ body`. Frames reassembled off a byte stream
/// always have an empty head.
#[derive(Debug, Clone)]
pub struct RawFrame {
    /// The sending process.
    pub from: ProcessId,
    head: HeadBuf,
    body: FrameBody,
}

impl RawFrame {
    /// A frame whose payload is one owned byte buffer (empty head).
    pub fn owned(from: ProcessId, payload: Vec<u8>) -> Self {
        RawFrame {
            from,
            head: HeadBuf::EMPTY,
            body: FrameBody::Owned(payload),
        }
    }

    /// The per-destination prefix bytes (empty unless the frame came off a
    /// shared-body fast path).
    pub fn head(&self) -> &[u8] {
        self.head.as_slice()
    }

    /// The body bytes (the whole payload when the head is empty).
    pub fn body(&self) -> &[u8] {
        self.body.as_slice()
    }

    /// Consumes the frame, keeping its body allocation (shared or owned).
    pub fn into_body(self) -> FrameBody {
        self.body
    }

    /// The full logical payload, concatenated into one buffer. Allocates;
    /// meant for tests and cold paths.
    pub fn payload_to_vec(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(self.head().len() + self.body().len());
        payload.extend_from_slice(self.head());
        payload.extend_from_slice(self.body());
        payload
    }
}

impl PartialEq for RawFrame {
    fn eq(&self, other: &Self) -> bool {
        // Logical payload equality: where the head/body split falls (and
        // whether the body is shared) is a transport detail.
        self.from == other.from
            && self
                .head()
                .iter()
                .chain(self.body())
                .eq(other.head().iter().chain(other.body()))
    }
}

impl Eq for RawFrame {}

/// What became of one send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Handed to the transport; the peer can (eventually) read it.
    Sent,
    /// Dropped because the peer is unreachable (crashed): message loss.
    /// Reported — not swallowed — so callers that account for every frame
    /// (the lockstep settle handshake) can book it as consumed.
    Lost,
}

/// One process's handle on a transport.
///
/// `poll_into` is non-blocking: it drains whatever has arrived and returns.
/// The event loop owns pacing; the transport owns bytes.
pub trait Endpoint: Send + 'static {
    /// The process this endpoint belongs to.
    fn pid(&self) -> ProcessId;

    /// Sends one frame to `to`. An unreachable peer is message loss
    /// ([`SendOutcome::Lost`]), not an error (see the module docs).
    ///
    /// A `Sent` outcome means the transport *accepted* the frame; endpoints
    /// with local write queues hold the bytes until the next
    /// [`Endpoint::flush`] (sockets only queue, writing early only past
    /// their backpressure cap). The event loop flushes once at the end of
    /// every step that sent and once at the top of every poll.
    fn send(&mut self, to: ProcessId, payload: &[u8]) -> Result<SendOutcome, RuntimeError>;

    /// Sends one frame whose logical payload is `head ++ body`, where
    /// `body` is typically one encoded broadcast body shared across many
    /// destinations. Endpoints that can hand the receiver the shared buffer
    /// itself (channels) override this so a broadcast costs one reference-
    /// count bump per destination instead of one payload copy; sockets
    /// queue `head` and `body` straight behind the framing header. The
    /// default concatenates and delegates to [`Endpoint::send`]. Queued
    /// bytes move at the next [`Endpoint::flush`], as for `send`.
    fn send_shared(
        &mut self,
        to: ProcessId,
        head: &[u8],
        body: &Arc<[u8]>,
    ) -> Result<SendOutcome, RuntimeError> {
        let mut payload = Vec::with_capacity(head.len() + body.len());
        payload.extend_from_slice(head);
        payload.extend_from_slice(body);
        self.send(to, &payload)
    }

    /// Appends every frame that has fully arrived to `out`, without
    /// blocking.
    fn poll_into(&mut self, out: &mut Vec<RawFrame>) -> Result<(), RuntimeError>;

    /// Makes non-blocking progress on locally queued outbound bytes: for
    /// sockets, one write per peer with anything queued, all of that peer's
    /// frames since the last flush coalesced. Bytes a full kernel buffer
    /// refuses stay queued for the next call.
    ///
    /// Returns the number of previously `Sent` frames now known to be lost
    /// (their peer died with the frames still queued). Callers that account
    /// for every frame — the lockstep settle handshake — must book that
    /// count as consumed, exactly as they do for a [`SendOutcome::Lost`]
    /// send. Endpoints without write queues (channels) have nothing to do.
    fn flush(&mut self) -> Result<u64, RuntimeError> {
        Ok(0)
    }
}

/// A family of endpoints that can be opened as a connected clique.
pub trait Transport {
    /// The endpoint type this transport hands each process.
    type Endpoint: Endpoint;

    /// Short name for reports ("channel", "tcp", "uds").
    fn name(&self) -> &'static str;

    /// Opens `n` mutually connected endpoints, one per process id `0..n`.
    fn open(&self, n: usize) -> Result<Vec<Self::Endpoint>, RuntimeError>;
}

// ---------------------------------------------------------------------------
// Channel transport
// ---------------------------------------------------------------------------

/// In-process transport over crossbeam channels (one queue per receiver).
#[derive(Debug, Clone, Copy, Default)]
pub struct ChannelTransport;

/// Endpoint of the [`ChannelTransport`].
pub struct ChannelEndpoint {
    pid: ProcessId,
    /// One sender per process, shared by every endpoint of the clique: a
    /// table per endpoint would be n² handles. A crashed process is still
    /// detected by its dropped [`Receiver`]; that the shared table outlives
    /// it only means its own queue never reports `Disconnected`, which
    /// `poll_into` treats like `Empty` anyway.
    peers: Arc<[Sender<RawFrame>]>,
    rx: Receiver<RawFrame>,
}

impl Endpoint for ChannelEndpoint {
    fn pid(&self) -> ProcessId {
        self.pid
    }

    fn send(&mut self, to: ProcessId, payload: &[u8]) -> Result<SendOutcome, RuntimeError> {
        // A send error means the receiver dropped its endpoint (the process
        // crashed): the message is lost, exactly as the model prescribes.
        match self.peers[to.index()].send(RawFrame::owned(self.pid, payload.to_vec())) {
            Ok(()) => Ok(SendOutcome::Sent),
            Err(_) => Ok(SendOutcome::Lost),
        }
    }

    fn send_shared(
        &mut self,
        to: ProcessId,
        head: &[u8],
        body: &Arc<[u8]>,
    ) -> Result<SendOutcome, RuntimeError> {
        let Some(head) = HeadBuf::new(head) else {
            // Oversized head (never produced by the runtime): fall back to
            // the concatenating path.
            let mut payload = Vec::with_capacity(head.len() + body.len());
            payload.extend_from_slice(head);
            payload.extend_from_slice(body);
            return self.send(to, &payload);
        };
        match self.peers[to.index()].send(RawFrame {
            from: self.pid,
            head,
            body: FrameBody::Shared(Arc::clone(body)),
        }) {
            Ok(()) => Ok(SendOutcome::Sent),
            Err(_) => Ok(SendOutcome::Lost),
        }
    }

    fn poll_into(&mut self, out: &mut Vec<RawFrame>) -> Result<(), RuntimeError> {
        loop {
            match self.rx.try_recv() {
                Ok(frame) => out.push(frame),
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => return Ok(()),
            }
        }
    }
}

impl Transport for ChannelTransport {
    type Endpoint = ChannelEndpoint;

    fn name(&self) -> &'static str {
        "channel"
    }

    fn open(&self, n: usize) -> Result<Vec<ChannelEndpoint>, RuntimeError> {
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..n).map(|_| unbounded()).unzip();
        let peers: Arc<[Sender<RawFrame>]> = senders.into();
        Ok(receivers
            .into_iter()
            .enumerate()
            .map(|(i, rx)| ChannelEndpoint {
                pid: ProcessId(i),
                peers: Arc::clone(&peers),
                rx,
            })
            .collect())
    }
}

// ---------------------------------------------------------------------------
// Socket transport (loopback TCP / Unix-domain)
// ---------------------------------------------------------------------------

/// Which socket family a [`SocketTransport`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketKind {
    /// Loopback TCP (`127.0.0.1`, ephemeral ports).
    Tcp,
    /// Unix-domain stream sockets in a per-run temporary directory.
    #[cfg(unix)]
    Unix,
}

/// Loopback socket transport: every frame crosses the kernel.
#[derive(Debug, Clone, Copy)]
pub struct SocketTransport {
    kind: SocketKind,
}

impl SocketTransport {
    /// A loopback TCP transport.
    pub fn tcp() -> Self {
        SocketTransport {
            kind: SocketKind::Tcp,
        }
    }

    /// A Unix-domain-socket transport.
    #[cfg(unix)]
    pub fn uds() -> Self {
        SocketTransport {
            kind: SocketKind::Unix,
        }
    }
}

enum AnyListener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

enum AnyStream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

#[derive(Clone)]
enum PeerAddr {
    Tcp(SocketAddr),
    #[cfg(unix)]
    Unix(PathBuf),
}

impl AnyListener {
    fn accept(&self) -> std::io::Result<AnyStream> {
        match self {
            AnyListener::Tcp(l) => l.accept().map(|(s, _)| AnyStream::Tcp(s)),
            #[cfg(unix)]
            AnyListener::Unix(l) => l.accept().map(|(s, _)| AnyStream::Unix(s)),
        }
    }
}

impl AnyStream {
    fn connect(addr: &PeerAddr) -> std::io::Result<AnyStream> {
        match addr {
            PeerAddr::Tcp(addr) => TcpStream::connect(addr).map(AnyStream::Tcp),
            #[cfg(unix)]
            PeerAddr::Unix(path) => UnixStream::connect(path).map(AnyStream::Unix),
        }
    }

    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        match self {
            AnyStream::Tcp(s) => s.set_nonblocking(nonblocking),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.set_nonblocking(nonblocking),
        }
    }

    fn read_some(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            AnyStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.read(buf),
        }
    }

    fn write_some(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        match self {
            AnyStream::Tcp(s) => s.write(bytes),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.write(bytes),
        }
    }
}

/// True if an I/O error means "the peer is gone" — which the model reads as
/// message loss, not failure.
fn is_peer_death(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::NotFound
    )
}

/// Deletes the per-run UDS directory when the last endpoint drops.
struct TempDirGuard {
    path: PathBuf,
}

impl Drop for TempDirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Incremental frame extractor over a byte stream.
///
/// Wire framing: `varint sender ++ varint length ++ payload`. Feed arbitrary
/// byte chunks in with [`FrameBuf::extend`] — one byte at a time, split mid-
/// header, several frames coalesced — and pull complete frames out with
/// [`FrameBuf::next_frame`]. This is the reassembly layer both the socket
/// endpoints and the reactor read path share; it never panics on corrupt
/// input (typed errors only), which the segmentation proptests pin down.
#[derive(Debug, Default)]
pub struct FrameBuf {
    data: VecDeque<u8>,
    scratch: Vec<u8>,
}

impl FrameBuf {
    /// An empty reassembly buffer.
    pub fn new() -> Self {
        FrameBuf {
            data: VecDeque::new(),
            scratch: Vec::new(),
        }
    }

    /// Appends raw stream bytes (any segmentation).
    pub fn extend(&mut self, bytes: &[u8]) {
        self.data.extend(bytes);
    }

    /// Bytes buffered but not yet extracted as frames.
    pub fn buffered_len(&self) -> usize {
        self.data.len()
    }

    /// Extracts the next complete frame, or `None` if more bytes are needed.
    pub fn next_frame(&mut self) -> Result<Option<RawFrame>, RuntimeError> {
        // Parse the two varint headers from a contiguous copy of the front
        // (headers are ≤ 20 bytes).
        self.scratch.clear();
        self.scratch.extend(self.data.iter().take(20).copied());
        let (from, from_len) = match read_varint(&self.scratch) {
            Ok(v) => v,
            Err(CodecError::Truncated) if self.data.len() < 20 => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let (len, len_len) = match read_varint(self.scratch.get(from_len..).unwrap_or(&[])) {
            Ok(v) => v,
            Err(CodecError::Truncated) if self.data.len() < 20 => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        if len > MAX_FRAME_BYTES {
            return Err(CodecError::IdOutOfRange(len).into());
        }
        if from >= u64::from(u32::MAX) {
            return Err(CodecError::IdOutOfRange(from).into());
        }
        let len = usize::try_from(len).map_err(|_| CodecError::IdOutOfRange(len))?;
        let from = usize::try_from(from).map_err(|_| CodecError::IdOutOfRange(from))?;
        let header = from_len + len_len;
        if (self.data.len() - header) < len {
            return Ok(None);
        }
        self.data.drain(..header);
        let payload: Vec<u8> = self.data.drain(..len).collect();
        Ok(Some(RawFrame::owned(ProcessId(from), payload)))
    }
}

/// Prepends the stream framing header to a payload: the encoding side of
/// [`FrameBuf`]'s wire format.
pub fn frame_bytes(from: ProcessId, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(payload.len() + 12);
    write_varint(&mut frame, from.index() as u64);
    write_varint(&mut frame, payload.len() as u64);
    frame.extend_from_slice(payload);
    frame
}

struct Inbound {
    stream: AnyStream,
    buf: FrameBuf,
    closed: bool,
}

/// Soft cap on bytes queued toward one peer. A send that would leave the
/// queue above the cap spins on non-blocking flushes (yielding between
/// attempts) until the kernel drains it below the cap — per-connection
/// backpressure instead of unbounded memory growth.
const MAX_BACKLOG_BYTES: usize = 4 * 1024 * 1024;

/// How many yield-then-flush attempts a backpressured send makes before
/// concluding the connection is wedged and surfacing an error. Loopback
/// kernels drain in microseconds; hitting this means the receiver stopped
/// polling entirely.
const MAX_BACKPRESSURE_SPINS: u32 = 1_000_000;

/// A write queue whose consumed prefix exceeds this is compacted (the
/// unsent tail moved to the front) before the next frame is appended,
/// bounding buffer growth while keeping compaction amortized-cheap.
const COMPACT_QUEUE_BYTES: usize = 64 * 1024;

/// One established outbound connection with its write queue: frames are
/// appended into one contiguous buffer (`buf[written..]` is unsent) and the
/// event loop's once-per-step flush pushes them out in one non-blocking
/// write. Offset 0 is always a frame boundary, so the queue's own framing
/// headers say where each frame ends; that cold walk
/// ([`unfinished_frames`]) is all the loss accounting a dead peer needs.
/// A fully written queue releases its buffer.
struct OutboundConn {
    stream: AnyStream,
    buf: Vec<u8>,
    written: usize,
}

impl OutboundConn {
    fn new(stream: AnyStream) -> Self {
        OutboundConn {
            stream,
            buf: Vec::new(),
            written: 0,
        }
    }

    /// Bytes queued but not yet handed to the kernel.
    fn queued_bytes(&self) -> usize {
        self.buf.len() - self.written
    }

    /// Appends one frame (`framing header ++ head ++ body`) to the queue,
    /// first compacting away the fully written frames when the written
    /// prefix has grown.
    fn enqueue(&mut self, from: ProcessId, head: &[u8], body: &[u8]) {
        if self.written > COMPACT_QUEUE_BYTES {
            let (cut, _) = unfinished_frames(&self.buf, self.written);
            self.buf.drain(..cut);
            self.written -= cut;
        }
        write_varint(&mut self.buf, from.index() as u64);
        write_varint(&mut self.buf, (head.len() + body.len()) as u64);
        self.buf.extend_from_slice(head);
        self.buf.extend_from_slice(body);
    }
}

/// Walks a write queue's framing headers from offset 0 and returns the start
/// of the first frame not fully written by `written`, and how many frames
/// from there on are unfinished (the queue's length if every frame is done).
fn unfinished_frames(buf: &[u8], written: usize) -> (usize, u64) {
    let mut start = 0;
    let mut cut = None;
    let mut unfinished = 0;
    while let Some(end) = frame_end(buf, start) {
        if end > written {
            cut.get_or_insert(start);
            unfinished += 1;
        }
        start = end;
    }
    (cut.unwrap_or(start), unfinished)
}

/// End offset of the queued frame whose header starts at `start`; `None` at
/// the end of the queue.
fn frame_end(buf: &[u8], start: usize) -> Option<usize> {
    let rest = buf.get(start..)?;
    let (_, from_len) = read_varint(rest).ok()?;
    let (len, len_len) = read_varint(rest.get(from_len..)?).ok()?;
    (start + from_len + len_len).checked_add(usize::try_from(len).ok()?)
}

/// Endpoint of the [`SocketTransport`].
pub struct SocketEndpoint {
    pid: ProcessId,
    listener: AnyListener,
    peers: Vec<PeerAddr>,
    outbound: Vec<Option<OutboundConn>>,
    /// Peers whose connections have failed: further sends are dropped
    /// without reconnect attempts.
    dead: Vec<bool>,
    /// Frames accepted as `Sent` whose peer has since died with the frame
    /// still queued; handed to the caller (and reset) by `flush`.
    pending_lost: u64,
    inbound: Vec<Inbound>,
    read_buf: Vec<u8>,
    _cleanup: Option<Arc<TempDirGuard>>,
}

impl SocketEndpoint {
    /// Non-blocking write progress on one peer's queue. Peer death discards
    /// the queue into `pending_lost`; `WouldBlock` leaves the rest queued.
    fn flush_slot(&mut self, slot: usize) -> Result<(), RuntimeError> {
        let Some(conn) = self.outbound[slot].as_mut() else {
            return Ok(());
        };
        loop {
            if conn.written == conn.buf.len() {
                // Release rather than clear: a buffer kept per connection
                // would hold every peer's largest step burst for the run.
                conn.buf = Vec::new();
                conn.written = 0;
                return Ok(());
            }
            match conn.stream.write_some(&conn.buf[conn.written..]) {
                Ok(0) => {
                    // A zero-byte write on a non-empty buffer: the socket
                    // can take nothing; treat like WouldBlock.
                    return Ok(());
                }
                Ok(k) => conn.written += k,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if is_peer_death(&e) => {
                    // Every unfinished frame (including a partially written
                    // front) was accepted as Sent and will never arrive.
                    self.pending_lost += unfinished_frames(&conn.buf, conn.written).1;
                    self.outbound[slot] = None;
                    self.dead[slot] = true;
                    return Ok(());
                }
                Err(e) => return Err(io_err("writing frame")(e)),
            }
        }
    }

    /// Bytes currently queued toward `slot`.
    fn backlog_bytes(&self, slot: usize) -> usize {
        self.outbound[slot]
            .as_ref()
            .map_or(0, |conn| conn.queued_bytes())
    }

    /// Queues `head ++ body` toward `to` behind the stream framing header.
    /// Nothing is written here unless the queue exceeds the backpressure
    /// cap: the bytes move at the caller's next [`Endpoint::flush`].
    fn send_parts(
        &mut self,
        to: ProcessId,
        head: &[u8],
        body: &[u8],
    ) -> Result<SendOutcome, RuntimeError> {
        let slot = to.index();
        if self.dead[slot] {
            return Ok(SendOutcome::Lost);
        }
        if self.outbound[slot].is_none() {
            match AnyStream::connect(&self.peers[slot]) {
                Ok(stream) => {
                    stream
                        .set_nonblocking(true)
                        .map_err(io_err("configuring outbound stream"))?;
                    self.outbound[slot] = Some(OutboundConn::new(stream));
                }
                Err(e) if is_peer_death(&e) => {
                    self.dead[slot] = true;
                    return Ok(SendOutcome::Lost);
                }
                Err(e) => return Err(io_err("connecting to peer")(e)),
            }
        }
        let Some(conn) = self.outbound[slot].as_mut() else {
            // Connected just above; a lost send is the safe degradation if
            // that invariant ever broke.
            return Ok(SendOutcome::Lost);
        };
        conn.enqueue(self.pid, head, body);
        // Backpressure: refuse to let one slow peer absorb unbounded memory.
        let mut spins = 0u32;
        while self.backlog_bytes(slot) > MAX_BACKLOG_BYTES {
            spins += 1;
            if spins > MAX_BACKPRESSURE_SPINS {
                return Err(io_err("write backlog stuck above cap")(
                    std::io::Error::new(std::io::ErrorKind::WouldBlock, "peer not draining"),
                ));
            }
            std::thread::yield_now();
            self.flush_slot(slot)?;
        }
        Ok(SendOutcome::Sent)
    }
}

impl Endpoint for SocketEndpoint {
    fn pid(&self) -> ProcessId {
        self.pid
    }

    fn send(&mut self, to: ProcessId, payload: &[u8]) -> Result<SendOutcome, RuntimeError> {
        self.send_parts(to, &[], payload)
    }

    fn send_shared(
        &mut self,
        to: ProcessId,
        head: &[u8],
        body: &Arc<[u8]>,
    ) -> Result<SendOutcome, RuntimeError> {
        // The shared body is appended straight into the connection's write
        // buffer behind its head: no intermediate concatenation.
        self.send_parts(to, head, body)
    }

    fn flush(&mut self) -> Result<u64, RuntimeError> {
        for slot in 0..self.outbound.len() {
            self.flush_slot(slot)?;
        }
        Ok(std::mem::take(&mut self.pending_lost))
    }

    fn poll_into(&mut self, out: &mut Vec<RawFrame>) -> Result<(), RuntimeError> {
        // Accept any newly established inbound connections.
        loop {
            match self.listener.accept() {
                Ok(stream) => {
                    stream
                        .set_nonblocking(true)
                        .map_err(io_err("configuring accepted stream"))?;
                    self.inbound.push(Inbound {
                        stream,
                        buf: FrameBuf::new(),
                        closed: false,
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(io_err("accepting connection")(e)),
            }
        }
        // Drain every inbound stream and extract complete frames.
        for conn in &mut self.inbound {
            loop {
                match conn.stream.read_some(&mut self.read_buf) {
                    Ok(0) => {
                        conn.closed = true;
                        break;
                    }
                    Ok(k) => conn.buf.extend(&self.read_buf[..k]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) if is_peer_death(&e) => {
                        conn.closed = true;
                        break;
                    }
                    Err(e) => return Err(io_err("reading frames")(e)),
                }
            }
            while let Some(frame) = conn.buf.next_frame()? {
                out.push(frame);
            }
        }
        // Closed connections have had their buffered frames extracted above;
        // an incomplete trailing frame on a dead connection is lost, which
        // is the correct model semantics for a sender that died mid-write.
        self.inbound.retain(|c| !c.closed);
        Ok(())
    }
}

static UDS_RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

impl Transport for SocketTransport {
    type Endpoint = SocketEndpoint;

    fn name(&self) -> &'static str {
        match self.kind {
            SocketKind::Tcp => "tcp",
            #[cfg(unix)]
            SocketKind::Unix => "uds",
        }
    }

    fn open(&self, n: usize) -> Result<Vec<SocketEndpoint>, RuntimeError> {
        // Each kind assembles its listeners and addresses in one
        // self-contained branch, so the UDS branch owns its cleanup guard
        // directly instead of re-borrowing an `Option` per iteration.
        let (listeners, peers, cleanup) = match self.kind {
            SocketKind::Tcp => {
                let mut listeners = Vec::with_capacity(n);
                let mut peers = Vec::with_capacity(n);
                for _ in 0..n {
                    let listener =
                        TcpListener::bind("127.0.0.1:0").map_err(io_err("binding listener"))?;
                    listener
                        .set_nonblocking(true)
                        .map_err(io_err("configuring listener"))?;
                    peers.push(PeerAddr::Tcp(
                        listener
                            .local_addr()
                            .map_err(io_err("reading local addr"))?,
                    ));
                    listeners.push(AnyListener::Tcp(listener));
                }
                (listeners, peers, None)
            }
            #[cfg(unix)]
            SocketKind::Unix => {
                let dir = std::env::temp_dir().join(format!(
                    "agossip-uds-{}-{}",
                    std::process::id(),
                    UDS_RUN_COUNTER.fetch_add(1, Ordering::Relaxed)
                ));
                std::fs::create_dir_all(&dir).map_err(io_err("creating UDS directory"))?;
                let guard = Arc::new(TempDirGuard { path: dir });
                let mut listeners = Vec::with_capacity(n);
                let mut peers = Vec::with_capacity(n);
                for i in 0..n {
                    let path = guard.path.join(format!("p{i}.sock"));
                    let listener =
                        UnixListener::bind(&path).map_err(io_err("binding UDS listener"))?;
                    listener
                        .set_nonblocking(true)
                        .map_err(io_err("configuring listener"))?;
                    peers.push(PeerAddr::Unix(path));
                    listeners.push(AnyListener::Unix(listener));
                }
                (listeners, peers, Some(guard))
            }
        };
        Ok(listeners
            .into_iter()
            .enumerate()
            .map(|(i, listener)| SocketEndpoint {
                pid: ProcessId(i),
                listener,
                peers: peers.clone(),
                outbound: (0..n).map(|_| None).collect(),
                dead: vec![false; n],
                pending_lost: 0,
                inbound: Vec::new(),
                read_buf: vec![0u8; 16 * 1024],
                _cleanup: cleanup.clone(),
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exchange<T: Transport>(transport: &T) {
        let mut endpoints = transport.open(3).unwrap();
        let mut c = endpoints.pop().unwrap();
        let mut b = endpoints.pop().unwrap();
        let mut a = endpoints.pop().unwrap();
        a.send(ProcessId(1), b"hello").unwrap();
        c.send(ProcessId(1), b"world").unwrap();
        a.send(ProcessId(2), b"x").unwrap();

        let mut got = Vec::new();
        // Socket delivery needs the connection handshake to complete; retry
        // the non-blocking poll briefly, flushing the senders' write queues.
        for _ in 0..200 {
            a.flush().unwrap();
            c.flush().unwrap();
            b.poll_into(&mut got).unwrap();
            if got.len() == 2 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        got.sort_by(|x, y| x.body().cmp(y.body()));
        assert_eq!(
            got,
            vec![
                RawFrame::owned(ProcessId(0), b"hello".to_vec()),
                RawFrame::owned(ProcessId(2), b"world".to_vec()),
            ]
        );
        let mut got_c = Vec::new();
        for _ in 0..200 {
            a.flush().unwrap();
            c.poll_into(&mut got_c).unwrap();
            if !got_c.is_empty() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(got_c[0].from, ProcessId(0));
        assert_eq!(got_c[0].body(), b"x");
    }

    fn exchange_shared<T: Transport>(transport: &T) {
        let mut endpoints = transport.open(2).unwrap();
        let mut b = endpoints.pop().unwrap();
        let mut a = endpoints.pop().unwrap();
        let body: Arc<[u8]> = Arc::from(&b"shared-broadcast-body"[..]);
        a.send_shared(ProcessId(1), b"hd", &body).unwrap();
        let mut got = Vec::new();
        for _ in 0..200 {
            a.flush().unwrap();
            b.poll_into(&mut got).unwrap();
            if !got.is_empty() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].from, ProcessId(0));
        assert_eq!(got[0].payload_to_vec(), b"hdshared-broadcast-body".to_vec());
    }

    #[test]
    fn channel_send_shared_delivers_head_then_body() {
        exchange_shared(&ChannelTransport);
        // The channel fast path hands over the shared buffer itself.
        let mut endpoints = ChannelTransport.open(2).unwrap();
        let mut b = endpoints.pop().unwrap();
        let mut a = endpoints.pop().unwrap();
        let body: Arc<[u8]> = Arc::from(&b"body"[..]);
        a.send_shared(ProcessId(1), b"h", &body).unwrap();
        let mut got = Vec::new();
        b.poll_into(&mut got).unwrap();
        assert_eq!(got[0].head(), b"h");
        assert_eq!(got[0].body(), b"body");
        assert!(matches!(got[0].clone().into_body(), FrameBody::Shared(_)));
    }

    #[test]
    fn socket_send_shared_delivers_head_then_body() {
        exchange_shared(&SocketTransport::tcp());
    }

    #[test]
    fn channel_transport_exchanges_frames() {
        exchange(&ChannelTransport);
    }

    #[test]
    fn tcp_transport_exchanges_frames() {
        exchange(&SocketTransport::tcp());
    }

    #[cfg(unix)]
    #[test]
    fn uds_transport_exchanges_frames() {
        exchange(&SocketTransport::uds());
    }

    #[test]
    fn send_to_a_dropped_endpoint_is_message_loss() {
        let mut endpoints = ChannelTransport.open(2).unwrap();
        let dead = endpoints.pop().unwrap();
        let mut alive = endpoints.pop().unwrap();
        drop(dead);
        assert_eq!(
            alive.send(ProcessId(1), b"into the void").unwrap(),
            SendOutcome::Lost
        );
    }

    #[test]
    fn tcp_send_to_a_dropped_endpoint_is_message_loss() {
        let mut endpoints = SocketTransport::tcp().open(2).unwrap();
        let dead = endpoints.pop().unwrap();
        let mut alive = endpoints.pop().unwrap();
        drop(dead);
        // Depending on kernel timing the first send may still be accepted
        // into a doomed socket; once the refusal is observed the peer is
        // marked dead. Either way no send errors.
        for _ in 0..3 {
            alive.send(ProcessId(1), b"into the void").unwrap();
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }

    /// Queues `K` frames behind one the peer never accepted, drops the peer,
    /// and checks that flushing reports exactly those `K` as lost, once.
    fn queued_frames_to_a_dropped_peer_are_lost_exactly_once<T: Transport>(transport: &T) {
        const K: u64 = 5;
        let mut endpoints = transport.open(2).unwrap();
        let dead = endpoints.pop().unwrap();
        let mut alive = endpoints.pop().unwrap();
        // Connect and hand one frame to the kernel. The peer never accepts
        // the connection, so dropping it resets the connection outright.
        assert_eq!(alive.send(ProcessId(1), b"hi").unwrap(), SendOutcome::Sent);
        assert_eq!(alive.flush().unwrap(), 0);
        for _ in 0..K {
            assert_eq!(
                alive.send(ProcessId(1), b"doomed").unwrap(),
                SendOutcome::Sent
            );
        }
        drop(dead);
        std::thread::sleep(std::time::Duration::from_millis(20));
        let lost: u64 = (0..4).map(|_| alive.flush().unwrap()).sum();
        assert_eq!(lost, K);
        assert_eq!(
            alive.send(ProcessId(1), b"after").unwrap(),
            SendOutcome::Lost
        );
        assert_eq!(alive.flush().unwrap(), 0);
    }

    #[test]
    fn tcp_queued_frames_to_a_dropped_peer_are_lost_exactly_once() {
        queued_frames_to_a_dropped_peer_are_lost_exactly_once(&SocketTransport::tcp());
    }

    #[cfg(unix)]
    #[test]
    fn uds_queued_frames_to_a_dropped_peer_are_lost_exactly_once() {
        queued_frames_to_a_dropped_peer_are_lost_exactly_once(&SocketTransport::uds());
    }

    #[test]
    fn header_walk_finds_the_first_unfinished_frame_at_every_offset() {
        // Payloads on both sides of the 1- and 2-byte length varint edges,
        // and senders on both sides of the 1-byte edge.
        let mut buf = Vec::new();
        let mut ends = Vec::new();
        for (from, size) in [(0, 0), (127, 127), (128, 128), (300, 300), (1, 0), (2, 128)] {
            buf.extend(frame_bytes(ProcessId(from), &vec![0xA5; size]));
            ends.push(buf.len());
        }
        for written in 0..=buf.len() {
            // Running-sum model: frame i spans `ends[i - 1]..ends[i]`.
            let first = ends.iter().position(|&end| end > written);
            let cut = first.map_or(buf.len(), |i| if i == 0 { 0 } else { ends[i - 1] });
            let unfinished = ends.iter().filter(|&&end| end > written).count() as u64;
            assert_eq!(
                unfinished_frames(&buf, written),
                (cut, unfinished),
                "written = {written}"
            );
        }
        assert_eq!(unfinished_frames(&[], 0), (0, 0));
    }

    #[test]
    fn frame_buf_reassembles_split_frames() {
        let mut buf = FrameBuf::new();
        let frame = frame_bytes(ProcessId(7), b"payload bytes");
        let (a, b) = frame.split_at(3);
        buf.extend(a);
        assert_eq!(buf.next_frame().unwrap(), None);
        buf.extend(b);
        let got = buf.next_frame().unwrap().unwrap();
        assert_eq!(got.from, ProcessId(7));
        assert_eq!(got.body(), b"payload bytes");
        assert_eq!(buf.next_frame().unwrap(), None);

        // Two frames back to back, fed byte by byte.
        let mut buf = FrameBuf::new();
        let mut bytes = frame_bytes(ProcessId(1), b"one");
        bytes.extend(frame_bytes(ProcessId(2), b"two"));
        let mut got = Vec::new();
        for byte in bytes {
            buf.extend(&[byte]);
            while let Some(frame) = buf.next_frame().unwrap() {
                got.push(frame);
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].body(), b"one");
        assert_eq!(got[1].from, ProcessId(2));
    }

    #[test]
    fn frame_buf_rejects_oversized_length_headers() {
        let mut buf = FrameBuf::new();
        let mut bytes = Vec::new();
        write_varint(&mut bytes, 0);
        write_varint(&mut bytes, MAX_FRAME_BYTES + 1);
        buf.extend(&bytes);
        assert!(buf.next_frame().is_err());
    }
}
