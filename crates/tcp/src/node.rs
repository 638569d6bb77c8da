//! The child-node runtime: what the `munin-node` binary runs.
//!
//! A child process is one node's coherence server and nothing else — the
//! application threads all live in the coordinator process and reach this
//! server through forwarded `Op` frames on the control stream. Lifecycle:
//!
//! 1. bind a loopback data listener, connect the control stream to the
//!    coordinator, send `Hello { node, data_port }`;
//! 2. receive `Start` (protocol config, declarations, peer ports, tuning);
//! 3. build the mesh: dial every lower-numbered node's data listener,
//!    accept a connection from every higher-numbered one (one TCP stream
//!    per node pair, which gives per-(src,dst) FIFO for free);
//! 4. send `Ready`, then run the **same server loop** as the in-process
//!    real-time kernel (`munin_rt::server_loop`), its kernel running over a
//!    [`SocketLink`];
//! 5. on `Finish`, drain out, report `Done { stats, errors }` and exit;
//!    on `Poison`, a lost peer, or a lost coordinator, tear down
//!    immediately with the cause recorded.

use crate::frames::{
    accept_streams, read_frame, send_shared, shared_writer, write_frame, CtrlFrame, DataFrame,
    SharedWriter, StartConfig, TestFault, STREAM_CTRL, STREAM_DATA,
};
use crate::link::{ResumeSink, SocketLink};
use crate::registry::{RegClient, RegWritePath};
use crate::wire::Wire;
use munin_proto::Protocol;
use munin_rt::timer::run_timer_thread;
use munin_rt::{server_loop, MsgBody, NodeEvent, NodeKernel, Shared, SharedRegistry};
use munin_sim::Server;
use munin_types::{CostModel, NodeId};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long mesh setup may take before the child gives up (covers a
/// coordinator that died mid-handshake).
const MESH_TIMEOUT: Duration = Duration::from_secs(30);

fn loopback(port: u16) -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], port))
}

/// One registered protocol: its wire tag and the function that runs a
/// child node under it. Obtained from [`node_entry`]; the `munin-node`
/// binary passes the full registry to [`run_node`], which is how a new
/// protocol plugs into the fabric without this crate naming it.
pub type NodeRunFn = fn(TcpStream, TcpListener, StartConfig) -> io::Result<bool>;

/// The registry entry for protocol `Pr`.
pub fn node_entry<Pr: Protocol>() -> (u8, NodeRunFn) {
    (Pr::TAG, run_proto_node::<Pr>)
}

/// Become a node of a `Pr` run: decode the protocol config from the start
/// frame, build the server, and hand off to the generic node main loop.
fn run_proto_node<Pr: Protocol>(
    ctrl: TcpStream,
    listener: TcpListener,
    start: StartConfig,
) -> io::Result<bool> {
    let cfg = Pr::Config::decode(&start.proto_cfg).map_err(|e| {
        io::Error::new(io::ErrorKind::InvalidData, format!("bad {} config: {e}", Pr::NAME))
    })?;
    let server = Pr::server(&cfg, start.node, start.n_nodes as usize, &start.decls, &start.sync);
    let cost = Pr::cost(&cfg).clone();
    node_main(ctrl, listener, start, server, cost)
}

/// Entry point of the `munin-node` binary. `protos` is the binary's
/// protocol registry (one [`node_entry`] per linked protocol). Returns the
/// process exit code.
pub fn run_node(coordinator: &str, node_index: u16, protos: &[(u8, NodeRunFn)]) -> i32 {
    match run_node_inner(coordinator, node_index, protos) {
        Ok(clean) => {
            if clean {
                0
            } else {
                1
            }
        }
        Err(e) => {
            eprintln!("munin-node n{node_index}: {e}");
            2
        }
    }
}

fn run_node_inner(
    coordinator: &str,
    node_index: u16,
    protos: &[(u8, NodeRunFn)],
) -> io::Result<bool> {
    let me = NodeId(node_index);
    let listener = TcpListener::bind(loopback(0))?;
    let data_port = listener.local_addr()?.port();

    let addr: SocketAddr = coordinator
        .parse()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("bad address: {e}")))?;
    let mut ctrl = TcpStream::connect_timeout(&addr, MESH_TIMEOUT)?;
    ctrl.set_nodelay(true)?;
    ctrl.write_all(&[STREAM_CTRL])?;
    let mut scratch = Vec::new();
    write_frame(&mut ctrl, &mut scratch, &CtrlFrame::Hello { node: me, data_port })?;

    let mut buf = Vec::new();
    let start = match read_frame::<CtrlFrame>(&mut ctrl, &mut buf)? {
        CtrlFrame::Start(cfg) => *cfg,
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected Start, got {other:?}"),
            ))
        }
    };
    debug_assert_eq!(start.node, me, "coordinator and spawn args disagree on node id");

    let Some((_, run)) = protos.iter().find(|(tag, _)| *tag == start.proto_tag.0) else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "coordinator requested protocol tag {} but this binary only links {:?}",
                start.proto_tag.0,
                protos.iter().map(|(t, _)| *t).collect::<Vec<_>>()
            ),
        ));
    };
    run(ctrl, listener, start)
}

fn node_main<S>(
    ctrl: TcpStream,
    listener: TcpListener,
    start: StartConfig,
    server: S,
    cost: CostModel,
) -> io::Result<bool>
where
    S: Server + 'static,
    S::Payload: Wire + Send + Sync + Clone + std::fmt::Debug,
{
    let me = start.node;
    let n_nodes = start.n_nodes as usize;
    // No application threads live here, but the observability collector
    // still needs one server-span slot per (coordinator-hosted) thread —
    // forwarded ops dispatch on this node under their issuing thread's id.
    let mut shared0 = Shared::new(start.n_threads, start.telemetry);
    if start.coverage {
        shared0.coverage = Some(Arc::new(munin_obs::CoverageMap::new()));
    }
    let shared = Arc::new(shared0);
    let finishing = Arc::new(AtomicBool::new(false));
    let cache = Arc::new(SharedRegistry::new(start.decls.clone()));
    let (inbox_tx, inbox_rx) = channel::<NodeEvent<S::Payload>>();
    let ctrl_writer = shared_writer(ctrl.try_clone()?);

    // ---- mesh: dial lower-numbered nodes, accept higher-numbered ones ----
    let mut peers: Vec<Option<SharedWriter>> = (0..n_nodes).map(|_| None).collect();
    let mut raw_streams: Vec<Option<TcpStream>> = (0..n_nodes).map(|_| None).collect();
    let mut scratch = Vec::new();
    for j in 0..me.index() {
        let port = start.peers[j].1;
        let mut s = TcpStream::connect_timeout(&loopback(port), MESH_TIMEOUT)?;
        s.set_nodelay(true)?;
        s.write_all(&[STREAM_DATA])?;
        write_frame(&mut s, &mut scratch, &DataFrame::<S::Payload>::Hello { src: me })?;
        spawn_data_reader::<S::Payload>(
            s.try_clone()?,
            NodeId(j as u16),
            inbox_tx.clone(),
            shared.clone(),
            finishing.clone(),
            Some(ctrl_writer.clone()),
        );
        raw_streams[j] = Some(s.try_clone()?);
        peers[j] = Some(shared_writer(s));
    }
    let deadline = Instant::now() + MESH_TIMEOUT;
    accept_streams(&listener, deadline, n_nodes - 1 - me.index(), |kind, mut s| {
        if kind != STREAM_DATA {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected stream kind byte {kind:#x}"),
            ));
        }
        let mut buf = Vec::new();
        let src = match read_frame::<DataFrame<S::Payload>>(&mut s, &mut buf)? {
            DataFrame::Hello { src } => src,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected data Hello, got {other:?}"),
                ))
            }
        };
        s.set_read_timeout(None)?;
        spawn_data_reader::<S::Payload>(
            s.try_clone()?,
            src,
            inbox_tx.clone(),
            shared.clone(),
            finishing.clone(),
            Some(ctrl_writer.clone()),
        );
        raw_streams[src.index()] = Some(s.try_clone()?);
        peers[src.index()] = Some(shared_writer(s));
        Ok(())
    })?;

    // ---- timers, heartbeats, control reader, fault injection -------------
    let (timer_tx, timer_rx) = channel();
    let timer_join = {
        let inboxes = vec![inbox_tx.clone(); n_nodes];
        let shared = shared.clone();
        std::thread::Builder::new()
            .name(format!("tcp-n{}-timer", me.index()))
            .spawn(move || run_timer_thread(timer_rx, inboxes, shared))
            .expect("failed to spawn timer thread")
    };
    let (hb_stop_tx, hb_stop_rx) = channel::<()>();
    {
        let ctrl_writer = ctrl_writer.clone();
        let shared = shared.clone();
        let period = start.heartbeat;
        std::thread::Builder::new()
            .name(format!("tcp-n{}-hb", me.index()))
            .spawn(move || loop {
                match hb_stop_rx.recv_timeout(period) {
                    Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                        let frame = CtrlFrame::Heartbeat {
                            activity: shared.activity.load(Ordering::Relaxed),
                            timers_pending: shared.timers_pending.load(Ordering::Acquire) as u64,
                        };
                        if send_shared(&ctrl_writer, &frame).is_err() {
                            return;
                        }
                    }
                    _ => return,
                }
            })
            .expect("failed to spawn heartbeat thread");
    }
    let (reg_reply_tx, reg_reply_rx) = channel();
    let (bye_tx, bye_rx) = channel::<()>();
    spawn_ctrl_reader::<S::Payload>(
        ctrl,
        inbox_tx.clone(),
        reg_reply_tx,
        cache.clone(),
        ctrl_writer.clone(),
        shared.clone(),
        finishing.clone(),
        bye_tx,
    );
    spawn_test_fault(me, start.test_fault, &raw_streams);

    // ---- the same server loop as the in-process rt kernel ----------------
    let link = SocketLink {
        node: me,
        shared: shared.clone(),
        peers,
        scratch: Vec::new(),
        resumes: ResumeSink::Remote(ctrl_writer.clone()),
        registry: RegClient {
            path: RegWritePath::Remote { ctrl: ctrl_writer.clone() },
            reply_rx: reg_reply_rx,
            shared: shared.clone(),
        },
    };
    let kernel =
        NodeKernel::new(me, n_nodes, cost, link, timer_tx, shared.clone(), cache, start.coalesce);
    send_shared(&ctrl_writer, &CtrlFrame::Ready)
        .map_err(|e| io::Error::new(e.kind(), format!("sending Ready: {e}")))?;

    let stats = server_loop(server, kernel, inbox_rx, start.batch_max);

    finishing.store(true, Ordering::SeqCst);
    let errors = shared.errors.lock().expect("error log poisoned").clone();
    let poisoned = shared.is_poisoned();
    let homes = shared.obs.take_homes();
    let cover = shared.coverage.as_ref().map(|c| c.rows()).unwrap_or_default();
    let _ = send_shared(&ctrl_writer, &CtrlFrame::Done { stats, errors, homes, cover });
    if !poisoned {
        // Phase two of the clean shutdown: hold our sockets open until the
        // coordinator confirms every node's Done arrived (`Bye`), so our
        // exit cannot look like a mid-run fault to a slower sibling. The
        // channel also unblocks if the control stream dies (sender drops).
        let _ = bye_rx.recv_timeout(Duration::from_secs(5));
    }
    drop(hb_stop_tx);
    drop(inbox_tx);
    let _ = timer_join.join();
    Ok(!poisoned)
}

/// Reader thread for one incoming data stream: decode frames into the
/// node's inbox. A stream failure on a live run means the peer is gone —
/// record it with the peer named, poison the local run, and (children only)
/// tell the coordinator right away.
pub(crate) fn spawn_data_reader<P>(
    mut stream: TcpStream,
    src: NodeId,
    inbox: Sender<NodeEvent<P>>,
    shared: Arc<Shared>,
    finishing: Arc<AtomicBool>,
    ctrl: Option<SharedWriter>,
) where
    P: Wire + Send + Sync + Clone + 'static,
{
    std::thread::Builder::new()
        .name(format!("tcp-read-n{}", src.index()))
        .spawn(move || {
            let mut buf = Vec::new();
            loop {
                match read_frame::<DataFrame<P>>(&mut stream, &mut buf) {
                    Ok(DataFrame::Msg(p)) => {
                        if inbox.send(NodeEvent::Msg(src, MsgBody::Owned(p))).is_err() {
                            return;
                        }
                    }
                    Ok(DataFrame::Batch(items)) => {
                        let batch = items.into_iter().map(MsgBody::Owned).collect();
                        if inbox.send(NodeEvent::Batch(src, batch)).is_err() {
                            return;
                        }
                    }
                    Ok(DataFrame::Hello { .. }) => {
                        report_lost_peer(
                            &shared,
                            &finishing,
                            ctrl.as_ref(),
                            src,
                            "protocol error: repeated Hello on established stream".into(),
                        );
                        return;
                    }
                    Err(e) => {
                        report_lost_peer(&shared, &finishing, ctrl.as_ref(), src, e.to_string());
                        return;
                    }
                }
            }
        })
        .expect("failed to spawn data reader thread");
}

fn report_lost_peer(
    shared: &Shared,
    finishing: &AtomicBool,
    ctrl: Option<&SharedWriter>,
    src: NodeId,
    cause: String,
) {
    if finishing.load(Ordering::SeqCst) || shared.is_poisoned() {
        return;
    }
    let msg = format!("data stream from peer n{} failed: {cause} — peer lost", src.index());
    shared.error(msg.clone());
    shared.poisoned.store(true, Ordering::Release);
    if let Some(ctrl) = ctrl {
        let _ = send_shared(ctrl, &CtrlFrame::ReportError { msg });
    }
}

/// The child's control-stream reader: forwards application ops into the
/// inbox, routes registry replies, applies snapshot updates (acking them),
/// answers dump requests, and maps `Finish`/`Poison` onto the server loop.
#[allow(clippy::too_many_arguments)]
fn spawn_ctrl_reader<P>(
    mut stream: TcpStream,
    inbox: Sender<NodeEvent<P>>,
    reg_reply_tx: Sender<crate::frames::RegReply>,
    cache: Arc<SharedRegistry>,
    ctrl_writer: SharedWriter,
    shared: Arc<Shared>,
    finishing: Arc<AtomicBool>,
    bye_tx: Sender<()>,
) where
    P: Send + Sync + Clone + 'static,
{
    std::thread::Builder::new()
        .name("tcp-ctrl-read".into())
        .spawn(move || {
            let mut buf = Vec::new();
            loop {
                match read_frame::<CtrlFrame>(&mut stream, &mut buf) {
                    Ok(CtrlFrame::Op { thread, op, fwd_us }) => {
                        // Queue the forwarder's wire stamp out-of-band (the
                        // inbox event vocabulary is fabric-agnostic); the
                        // gate dispatches this thread's ops in the same
                        // order, so stamps pair up by position.
                        shared.obs.note_wire_arrival(thread, fwd_us);
                        if inbox.send(NodeEvent::Op(thread, op)).is_err() {
                            return;
                        }
                    }
                    Ok(CtrlFrame::OpBatch { ops, fwd_us }) => {
                        // Expand in frame order: the forwarder drained its
                        // channel FIFO, so this preserves per-thread issue
                        // order into the server's op gate.
                        for (thread, op) in ops {
                            shared.obs.note_wire_arrival(thread, fwd_us);
                            if inbox.send(NodeEvent::Op(thread, op)).is_err() {
                                return;
                            }
                        }
                    }
                    Ok(CtrlFrame::RegReply(r)) => {
                        let _ = reg_reply_tx.send(r);
                    }
                    Ok(CtrlFrame::RegUpdate { decl, version, seq }) => {
                        cache.write(|r| r.apply(decl, version));
                        let _ = send_shared(&ctrl_writer, &CtrlFrame::RegUpdateAck { seq });
                    }
                    Ok(CtrlFrame::DumpReq) => {
                        let text = munin_rt::request_dump(&inbox, Duration::from_secs(2));
                        let _ = send_shared(&ctrl_writer, &CtrlFrame::DumpReply { text });
                    }
                    Ok(CtrlFrame::Finish) => {
                        finishing.store(true, Ordering::SeqCst);
                        let _ = inbox.send(NodeEvent::Shutdown);
                    }
                    Ok(CtrlFrame::Poison) => {
                        shared.poisoned.store(true, Ordering::Release);
                    }
                    Ok(CtrlFrame::Bye) => {
                        let _ = bye_tx.send(());
                    }
                    Ok(other) => {
                        shared.error(format!("unexpected control frame: {other:?}"));
                    }
                    Err(e) => {
                        if !finishing.load(Ordering::SeqCst) && !shared.is_poisoned() {
                            shared.error(format!(
                                "control stream to coordinator failed: {e} — coordinator lost"
                            ));
                            shared.poisoned.store(true, Ordering::Release);
                        }
                        return;
                    }
                }
            }
        })
        .expect("failed to spawn control reader thread");
}

/// Arm this node's share of a test-injected fault (see [`TestFault`]).
fn spawn_test_fault(me: NodeId, fault: Option<TestFault>, raw_streams: &[Option<TcpStream>]) {
    match fault {
        Some(TestFault::Exit { node, after }) if node == me => {
            std::thread::Builder::new()
                .name("tcp-test-fault".into())
                .spawn(move || {
                    std::thread::sleep(after);
                    eprintln!("munin-node n{}: test fault — exiting abruptly", me.index());
                    std::process::exit(42);
                })
                .expect("failed to spawn fault thread");
        }
        Some(TestFault::HalfClose { node, peer, after }) if node == me => {
            let Some(stream) = raw_streams
                .get(peer.index())
                .and_then(|s| s.as_ref())
                .and_then(|s| s.try_clone().ok())
            else {
                eprintln!("munin-node n{}: test fault — no stream to n{}", me.index(), peer);
                return;
            };
            std::thread::Builder::new()
                .name("tcp-test-fault".into())
                .spawn(move || {
                    std::thread::sleep(after);
                    eprintln!(
                        "munin-node n{}: test fault — half-closing stream to n{}",
                        me.index(),
                        peer.index()
                    );
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                })
                .expect("failed to spawn fault thread");
        }
        _ => {}
    }
}
