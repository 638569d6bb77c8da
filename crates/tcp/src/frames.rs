//! Stream framing and the fabric's two frame vocabularies.
//!
//! Every TCP stream carries length-prefixed frames: a `u32` little-endian
//! body length followed by the [`Wire`]-encoded body. Streams come in two
//! kinds, announced by a single kind byte right after connect:
//!
//! * **data streams** (`b'D'`, one per node pair) carry [`DataFrame`]s —
//!   protocol payloads only. A whole server-step's worth of coalesced sends
//!   to one destination travels as one [`DataFrame::Batch`]: the socket
//!   analogue of `munin_rt::NodeEvent::Batch`, with the source node implied
//!   by the stream.
//! * **control streams** (`b'C'`, one per child node, terminating at the
//!   coordinator) carry [`CtrlFrame`]s — handshake, forwarded application
//!   operations and their resumes, registry request/reply/update traffic,
//!   watchdog heartbeats, state-dump requests, and teardown.
//!
//! Frame bodies are capped at [`MAX_FRAME_BYTES`]; a peer announcing a
//! larger frame is treated as corrupt and the stream is torn down.

use crate::wire::{put_u8, take_u8, ProtoTag, Wire, WireError, WireResult};
use munin_net::NetStats;
use munin_proto::{wire_enum, wire_struct};
use munin_sim::{DsmOp, OpResult};
use munin_types::{NodeId, ObjectDecl, ObjectId, SharingType, SyncDecls, ThreadId};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Stream-kind byte sent immediately after connect.
pub const STREAM_DATA: u8 = b'D';
/// Stream-kind byte for a child's control connection to the coordinator.
pub const STREAM_CTRL: u8 = b'C';

/// Upper bound on one frame body. Generous (the largest legitimate frames
/// are whole-object data replies plus batching overhead) while still
/// rejecting corrupt length prefixes before they become allocations.
pub const MAX_FRAME_BYTES: usize = 256 << 20;

/// The first read of a frame body: [`read_frame`] grows its buffer from here.
const FIRST_READ_CHUNK: usize = 32 << 10;

/// One frame on a per-pair data stream. The source node is implied by the
/// stream (one stream per ordered node pair), so batches are plain payload
/// vectors in send order — per-(src,dst) FIFO is the vector order, exactly
/// as in the in-process fabric's `NodeEvent::Batch`.
#[derive(Debug, Clone, PartialEq)]
pub enum DataFrame<P> {
    /// First frame after the kind byte: identifies the dialing node.
    Hello { src: NodeId },
    /// One protocol message.
    Msg(P),
    /// Every message one server step sent to this destination, coalesced.
    Batch(Vec<P>),
}

const DATA_TAG_HELLO: u8 = 0;
const DATA_TAG_MSG: u8 = 1;
const DATA_TAG_BATCH: u8 = 2;

impl<P: Wire> Wire for DataFrame<P> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            DataFrame::Hello { src } => {
                put_u8(DATA_TAG_HELLO, out);
                src.put(out);
            }
            DataFrame::Msg(p) => {
                put_u8(DATA_TAG_MSG, out);
                p.put(out);
            }
            DataFrame::Batch(items) => {
                put_u8(DATA_TAG_BATCH, out);
                items.put(out);
            }
        }
    }
    fn take(inp: &mut &[u8]) -> WireResult<Self> {
        match take_u8(inp)? {
            DATA_TAG_HELLO => Ok(DataFrame::Hello { src: Wire::take(inp)? }),
            DATA_TAG_MSG => Ok(DataFrame::Msg(Wire::take(inp)?)),
            DATA_TAG_BATCH => Ok(DataFrame::Batch(Wire::take(inp)?)),
            t => Err(WireError(format!("bad DataFrame tag {t}"))),
        }
    }
}

/// Deterministic fault injection for the fault-path tests: children know
/// their own misbehaviour from the start config, so tests need no
/// process-global environment variables (which racing test threads could
/// not set safely).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TestFault {
    /// `node` exits abruptly (no teardown protocol) after `after`.
    Exit { node: NodeId, after: Duration },
    /// `node` half-closes its data stream to `peer` after `after`.
    HalfClose { node: NodeId, peer: NodeId, after: Duration },
}

wire_enum!(TestFault {
    0 => Exit { node, after },
    1 => HalfClose { node, peer, after },
});

/// Everything a child process needs to become node `node` of the run.
#[derive(Debug, Clone, PartialEq)]
pub struct StartConfig {
    pub node: NodeId,
    pub n_nodes: u16,
    /// [`munin_proto::Protocol::TAG`] of the run's protocol. The child
    /// looks the tag up in its protocol registry (see
    /// [`crate::node::run_node`]) — the fabric itself never names a
    /// protocol type.
    pub proto_tag: ProtoTag,
    /// The protocol's `Wire`-encoded config, decoded by the registry
    /// entry that matched `proto_tag`. Opaque to the fabric.
    pub proto_cfg: Vec<u8>,
    /// Build-time object declarations (the initial registry snapshot).
    pub decls: Vec<ObjectDecl>,
    pub sync: SyncDecls,
    /// Server-loop inbox batching bound (`RtTuning::batch_max`).
    pub batch_max: usize,
    /// Coalesce outbound sends into per-destination batch frames.
    pub coalesce: bool,
    /// Watchdog heartbeat period.
    pub heartbeat: Duration,
    /// Loopback data-listener ports of every node, indexed by `NodeId`
    /// order (`peers[i]` belongs to node `i`; entry 0 is the coordinator).
    pub peers: Vec<(NodeId, u16)>,
    pub test_fault: Option<TestFault>,
    /// Telemetry mode of the run (`RtTuning::telemetry`); children size
    /// their observability collectors from this.
    pub telemetry: munin_types::Telemetry,
    /// Application threads of the run (all coordinator-hosted). Children
    /// need the count to preallocate per-thread server-span slots.
    pub n_threads: usize,
    /// Record protocol-state transition coverage (campaign explore mode):
    /// the child keeps a local `CoverageMap` and ships its rows home in
    /// the `Done` frame.
    pub coverage: bool,
}

wire_struct!(StartConfig {
    node,
    n_nodes,
    proto_tag,
    proto_cfg,
    decls,
    sync,
    batch_max,
    coalesce,
    heartbeat,
    peers,
    test_fault,
    telemetry,
    n_threads,
    coverage,
});

/// A registry write, sent by any node's kernel to the coordinator-hosted
/// registry service (reads are answered from the local versioned snapshot).
#[derive(Debug, Clone, PartialEq)]
pub enum RegRequest {
    /// Allocate an id for `decl` and publish it (the `KernelApi::
    /// register_decl` path).
    Decl { decl: ObjectDecl, home: NodeId },
    /// Change an object's sharing annotation (`KernelApi::retype`).
    Retype { obj: ObjectId, sharing: SharingType },
}

wire_enum!(RegRequest {
    0 => Decl { decl, home },
    1 => Retype { obj, sharing },
});

/// The registry service's reply, sent only after the write has been applied
/// to **every** node's snapshot (ack-barrier): any protocol message the
/// writer sends afterwards is causally ordered after every peer learned the
/// update, even though registry and protocol traffic ride different
/// streams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RegReply {
    Decl { id: ObjectId, version: u64 },
    Retype { version: u64 },
}

wire_enum!(RegReply {
    0 => Decl { id, version },
    1 => Retype { version },
});

/// One frame on a child's control stream.
#[derive(Debug, Clone, PartialEq)]
pub enum CtrlFrame {
    /// Child → coordinator, first frame: who am I, where do I accept data
    /// streams.
    Hello { node: NodeId, data_port: u16 },
    /// Coordinator → child: the run configuration.
    Start(Box<StartConfig>),
    /// Child → coordinator: mesh established, server loop running.
    Ready,
    /// Coordinator → child: an application thread (hosted by the
    /// coordinator) issued a DSM operation against this node's server.
    /// `fwd_us` is the forwarder's wall-clock stamp (µs since epoch) when
    /// the run records spans, `0` otherwise — the span's "hit the wire"
    /// mark.
    Op { thread: ThreadId, op: DsmOp, fwd_us: u64 },
    /// Child → coordinator: the operation completed; resume the thread.
    /// `span` carries the server half of the op's telemetry span (dispatch
    /// and reply stamps) when the run records spans.
    Resume { thread: ThreadId, result: OpResult, span: Option<munin_obs::SrvSpan> },
    /// Child → coordinator: registry write.
    Reg(RegRequest),
    /// Coordinator → child: registry write reply (ack-barrier done).
    RegReply(RegReply),
    /// Coordinator → child: apply this declaration to your snapshot.
    /// `seq` identifies the ack-barrier this update belongs to.
    RegUpdate { decl: ObjectDecl, version: u64, seq: u64 },
    /// Child → coordinator: snapshot updated (echoes the update's `seq`,
    /// so a late ack from a timed-out barrier can never satisfy a later
    /// one).
    RegUpdateAck { seq: u64 },
    /// Child → coordinator: periodic liveness/progress report for the
    /// distributed stall watchdog.
    Heartbeat { activity: u64, timers_pending: u64 },
    /// Coordinator → child: capture `debug_stuck_state` and reply.
    DumpReq,
    /// Child → coordinator: the captured state (possibly empty).
    DumpReply { text: String },
    /// Child → coordinator: an asynchronous error worth reporting now
    /// (the rest arrive with `Done`).
    ReportError { msg: String },
    /// Coordinator → child: clean shutdown (the run is quiescent).
    Finish,
    /// Child → coordinator: final traffic shard, accumulated errors,
    /// (spans mode) home-leg stamps `(thread, wall_us)` recorded while
    /// handling peers' protocol messages, and (explore mode) the child's
    /// protocol-state coverage rows — all merged into the coordinator's
    /// collectors at teardown.
    Done {
        stats: NetStats,
        errors: Vec<String>,
        homes: Vec<(ThreadId, u64)>,
        cover: Vec<munin_obs::CovRow>,
    },
    /// Coordinator → child: the run is poisoned; tear down immediately.
    Poison,
    /// Coordinator → child, after every node's `Done` arrived: all peers
    /// are known quiescent, so closing your sockets can no longer look
    /// like a mid-run fault to anyone — exit now. (Without this second
    /// phase, the first child to exit closes data streams that a sibling —
    /// which may not have processed its own `Finish` yet — would report as
    /// a lost peer, poisoning a perfectly clean run.)
    Bye,
    /// Coordinator → child: several forwarded ops in one frame. With
    /// pipelined clients the forwarder's channel accumulates ops while a
    /// frame is on the wire; draining them into one frame amortizes the
    /// syscall + frame header across the in-flight window. Per-thread
    /// order within the batch is channel (= issue) order. `fwd_us` is the
    /// drain instant's wall stamp shared by every op in the frame (`0`
    /// when the run does not record spans).
    OpBatch { ops: Vec<(ThreadId, DsmOp)>, fwd_us: u64 },
}

wire_enum!(CtrlFrame {
    0 => Hello { node, data_port },
    1 => Start(cfg),
    2 => Ready,
    3 => Op { thread, op, fwd_us },
    4 => Resume { thread, result, span },
    5 => Reg(req),
    6 => RegReply(reply),
    7 => RegUpdate { decl, version, seq },
    8 => RegUpdateAck { seq },
    9 => Heartbeat { activity, timers_pending },
    10 => DumpReq,
    11 => DumpReply { text },
    12 => ReportError { msg },
    13 => Finish,
    14 => Done { stats, errors, homes, cover },
    15 => Poison,
    16 => Bye,
    17 => OpBatch { ops, fwd_us },
});

impl Wire for Box<StartConfig> {
    fn put(&self, out: &mut Vec<u8>) {
        (**self).put(out);
    }
    fn take(inp: &mut &[u8]) -> WireResult<Self> {
        Ok(Box::new(StartConfig::take(inp)?))
    }
}

// ---- framed stream IO ------------------------------------------------------

/// Accept `expected` connections on `listener` before `deadline`, reading
/// each stream's kind byte and handing the (blocking, `TCP_NODELAY`,
/// deadline-bounded-read) stream to `handle`. Shared by the coordinator's
/// two handshake phases and the child mesh accept. Reads on a freshly
/// accepted stream carry a read timeout bounded by the remaining deadline
/// (cleared in `handle`'s successor code path once the stream joins the
/// run), so a connected-but-silent peer — a port scanner, a wedged
/// process — cannot hang the handshake past the deadline.
pub fn accept_streams(
    listener: &TcpListener,
    deadline: std::time::Instant,
    expected: usize,
    mut handle: impl FnMut(u8, TcpStream) -> io::Result<()>,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut accepted = 0usize;
    while accepted < expected {
        match listener.accept() {
            Ok((mut stream, _)) => {
                stream.set_nonblocking(false)?;
                stream.set_nodelay(true)?;
                let left = deadline.saturating_duration_since(std::time::Instant::now());
                stream.set_read_timeout(Some(left.max(Duration::from_millis(10))))?;
                // One malformed connection (a port scanner, a stray local
                // prober, a crashed peer's half-written Hello) must not
                // kill a handshake whose real peers are healthy: reject
                // the stream and keep waiting — a genuinely missing peer
                // still fails loudly via the deadline.
                let mut kind = [0u8; 1];
                if let Err(e) = stream.read_exact(&mut kind) {
                    eprintln!("handshake: rejecting connection with unreadable kind byte: {e}");
                    continue;
                }
                if let Err(e) = handle(kind[0], stream) {
                    eprintln!("handshake: rejecting malformed connection: {e}");
                    continue;
                }
                accepted += 1;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if std::time::Instant::now() > deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("handshake timed out with {accepted}/{expected} streams"),
                    ));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(e),
        }
    }
    listener.set_nonblocking(false)?;
    Ok(())
}

/// Append `frame` to `scratch` as one length-prefixed frame (clearing
/// `scratch` first) and write it with a single `write_all`. An oversized
/// frame surfaces as `InvalidData` (not a panic), so the fabric's
/// named-error/poison teardown handles it like any other stream failure.
pub fn write_frame<T: Wire>(
    stream: &mut TcpStream,
    scratch: &mut Vec<u8>,
    frame: &T,
) -> io::Result<()> {
    scratch.clear();
    scratch.extend_from_slice(&[0u8; 4]);
    frame.put(scratch);
    finish_frame(scratch)?;
    stream.write_all(scratch)
}

/// Read one length-prefixed frame. Decode failures and oversized length
/// prefixes surface as `io::ErrorKind::InvalidData`; a clean EOF at a frame
/// boundary is `UnexpectedEof` (callers treat any error on a live run as a
/// lost peer).
pub fn read_frame<T: Wire>(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<T> {
    let mut len_bytes = [0u8; 4];
    stream.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {MAX_FRAME_BYTES}"),
        ));
    }
    // Grow the buffer only as body bytes arrive, doubling from a first
    // chunk below 64 KiB: a peer that announces a large frame and sends
    // nothing costs no memory, and a large frame costs O(log n) reads.
    // Exact reservations keep a reader's reused buffer at its largest
    // frame; amortized growth would leave up to twice that resident.
    buf.clear();
    while buf.len() < len {
        let start = buf.len();
        let chunk = (len - start).min(start.max(FIRST_READ_CHUNK));
        buf.reserve_exact(chunk);
        buf.resize(start + chunk, 0);
        stream.read_exact(&mut buf[start..])?;
    }
    T::decode(buf).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// A mutex-shared framed writer. Data streams have a single writer (the
/// node's server thread) so the lock is uncontended; control streams are
/// shared between the server thread, the heartbeat thread and the control
/// reader's ack path, and the lock makes each frame atomic on the wire.
pub struct FrameWriter {
    stream: TcpStream,
    scratch: Vec<u8>,
}

impl FrameWriter {
    pub fn new(stream: TcpStream) -> Self {
        FrameWriter { stream, scratch: Vec::new() }
    }

    pub fn send<T: Wire>(&mut self, frame: &T) -> io::Result<()> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let r = write_frame(&mut self.stream, &mut scratch, frame);
        self.scratch = scratch;
        r
    }

    /// Write pre-encoded frame bytes (already length-prefixed).
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }
}

pub type SharedWriter = Arc<Mutex<FrameWriter>>;

pub fn shared_writer(stream: TcpStream) -> SharedWriter {
    Arc::new(Mutex::new(FrameWriter::new(stream)))
}

/// Send on a shared writer, surfacing the IO error to the caller.
pub fn send_shared<T: Wire>(w: &SharedWriter, frame: &T) -> io::Result<()> {
    w.lock().expect("frame writer poisoned").send(frame)
}

/// Encode one `DataFrame::Msg` without constructing the enum (the kernel
/// encodes straight from a borrowed payload).
pub fn encode_data_msg<P: Wire>(scratch: &mut Vec<u8>, payload: &P) -> io::Result<()> {
    scratch.clear();
    scratch.extend_from_slice(&[0u8; 4]);
    put_u8(DATA_TAG_MSG, scratch);
    payload.put(scratch);
    finish_frame(scratch)
}

/// Encode one `DataFrame::Batch` from borrowed payloads (multicast items
/// stay behind their shared `Arc` until this serialization point).
pub fn encode_data_batch<'a, P: Wire + 'a>(
    scratch: &mut Vec<u8>,
    items: impl ExactSizeIterator<Item = &'a P>,
) -> io::Result<()> {
    scratch.clear();
    scratch.extend_from_slice(&[0u8; 4]);
    put_u8(DATA_TAG_BATCH, scratch);
    u32::try_from(items.len()).expect("batch lengths fit u32").put(scratch);
    for p in items {
        p.put(scratch);
    }
    finish_frame(scratch)
}

/// Patch the length prefix in, rejecting oversized bodies as an IO error —
/// a frame the receiver would refuse must not be sent (and must not panic
/// the server thread; the caller's stream-failure path names the peer and
/// poisons the run instead).
fn finish_frame(scratch: &mut [u8]) -> io::Result<()> {
    let body = scratch.len() - 4;
    if body > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("outgoing frame of {body} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let len = u32::try_from(body).expect("cap fits u32");
    scratch[..4].copy_from_slice(&len.to_le_bytes());
    Ok(())
}
