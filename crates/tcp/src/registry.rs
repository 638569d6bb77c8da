//! The coordinator-hosted object-declaration registry.
//!
//! Node processes cannot share one registry in memory. Here node 0's
//! process keeps the master copy (a [`Registry`]) and every node (including
//! node 0's own kernel) works against a **versioned local snapshot** (a
//! [`SharedRegistry`]):
//!
//! * **reads** (`decl`, `assoc_objects`, `registry_version`) are answered
//!   from the snapshot without any communication — matching the paper's
//!   premise that declarations are "compiled into the program";
//! * **writes** (`register_decl`, `retype`) are request/reply messages to
//!   the registry service, which applies the write to the master map,
//!   pushes a `RegUpdate` to every other node's snapshot, **waits for all
//!   acks, and only then replies** to the writer.
//!
//! The ack-barrier is what makes the split correct without cross-stream
//! ordering guarantees: when the writer's kernel returns from the blocking
//! write, every peer snapshot already contains the update, so any protocol
//! message the writer sends next — on whatever stream — is causally ordered
//! after the update everywhere it could matter. Writes are rare (dynamic
//! allocation, adaptive retyping), so the barrier costs nothing on the
//! steady-state path.

use crate::frames::{send_shared, CtrlFrame, RegReply, RegRequest, SharedWriter};
use munin_rt::{Shared, SharedRegistry};
use munin_sim::Registry;
use munin_types::{NodeId, ObjectDecl};
use std::collections::{BTreeSet, VecDeque};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the registry service waits for snapshot acks before giving up
/// on a silent node (the run is already failing if a node stops acking; the
/// fault paths will name it).
const ACK_TIMEOUT: Duration = Duration::from_secs(10);

/// Input to the registry service thread: write requests and snapshot acks,
/// funneled from every node's control reader plus node 0's local client.
pub enum RegEvent {
    Request {
        from: NodeId,
        req: RegRequest,
    },
    /// A node applied the update broadcast with barrier sequence `seq`.
    Ack {
        from: NodeId,
        seq: u64,
    },
}

/// Where the service sends a node's replies and updates.
pub enum RegPort {
    /// Node 0: its snapshot lives in this process; replies go down a local
    /// channel, updates are applied directly (no ack round-trip needed).
    Local { cache: Arc<SharedRegistry>, reply_tx: Sender<RegReply> },
    /// A child node, reached over its control stream.
    Remote { ctrl: SharedWriter },
}

/// The registry service: runs on its own coordinator thread for the whole
/// run, exits when the last funnel sender drops at teardown.
pub fn run_registry_service(
    rx: Receiver<RegEvent>,
    ports: Vec<RegPort>,
    initial: Vec<ObjectDecl>,
    shared: Arc<Shared>,
) {
    let mut master = Registry::new(initial);
    // Barrier sequence: every broadcast gets a fresh value, and only acks
    // echoing the *current* value count — a late ack from a barrier that
    // timed out (its node descheduled past ACK_TIMEOUT) must not release
    // a later barrier before that node's snapshot actually applied it.
    let mut seq: u64 = 0;
    // Requests that arrived while an ack-barrier was in progress.
    let mut backlog: VecDeque<RegEvent> = VecDeque::new();
    loop {
        let ev = match backlog.pop_front() {
            Some(ev) => ev,
            None => match rx.recv() {
                Ok(ev) => ev,
                Err(_) => return,
            },
        };
        let (from, req) = match ev {
            RegEvent::Request { from, req } => (from, req),
            // An ack outside a barrier is the tail of one that timed out;
            // with per-seq attribution it is safely ignorable noise.
            RegEvent::Ack { .. } => continue,
        };
        let (update, reply) = match req {
            RegRequest::Decl { decl, home } => {
                let id = master.register(decl, home);
                (master.decl(id).cloned(), RegReply::Decl { id, version: master.version() })
            }
            RegRequest::Retype { obj, sharing } => {
                let decl = master.retype(obj, sharing).cloned();
                (decl, RegReply::Retype { version: master.version() })
            }
        };
        if let Some(decl) = update {
            seq += 1;
            broadcast(&ports, &rx, &mut backlog, &shared, decl, master.version(), seq);
        }
        match &ports[from.index()] {
            RegPort::Local { reply_tx, .. } => {
                let _ = reply_tx.send(reply);
            }
            RegPort::Remote { ctrl } => {
                let _ = send_shared(ctrl, &CtrlFrame::RegReply(reply));
            }
        }
    }
}

/// Push `decl` to every node's snapshot and wait until all remote nodes
/// acked **this barrier** (acks carry the barrier's `seq` and are
/// attributed per node, so neither a stale ack from a timed-out earlier
/// barrier nor a duplicate from one node can release it early). Unrelated
/// requests arriving mid-barrier are buffered into `backlog`.
fn broadcast(
    ports: &[RegPort],
    rx: &Receiver<RegEvent>,
    backlog: &mut VecDeque<RegEvent>,
    shared: &Shared,
    decl: ObjectDecl,
    version: u64,
    seq: u64,
) {
    let mut pending: BTreeSet<NodeId> = BTreeSet::new();
    for (i, port) in ports.iter().enumerate() {
        match port {
            RegPort::Local { cache, .. } => cache.write(|r| r.apply(decl.clone(), version)),
            RegPort::Remote { ctrl } => {
                let update = CtrlFrame::RegUpdate { decl: decl.clone(), version, seq };
                if send_shared(ctrl, &update).is_ok() {
                    pending.insert(NodeId(i as u16));
                }
                // A failed send means the node is gone; the reader threads
                // report lost peers, so just don't wait for its ack.
            }
        }
    }
    let deadline = Instant::now() + ACK_TIMEOUT;
    while !pending.is_empty() {
        let timeout = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(timeout) {
            Ok(RegEvent::Ack { from, seq: ack_seq }) => {
                // Acks for older barriers are late tails of a timeout —
                // ignore them; only this barrier's acks release it.
                if ack_seq == seq {
                    pending.remove(&from);
                }
            }
            Ok(other) => backlog.push_back(other),
            Err(RecvTimeoutError::Timeout) => {
                shared.error(format!(
                    "registry: node(s) {pending:?} did not ack update of {} (v{version}) within \
                     {ACK_TIMEOUT:?}",
                    decl.id
                ));
                return;
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// A node-side handle for registry **writes** (reads go straight to the
/// snapshot). One outstanding write at a time per node — writes only ever
/// originate from the node's single server thread.
pub struct RegClient {
    pub path: RegWritePath,
    pub reply_rx: Receiver<RegReply>,
    pub shared: Arc<Shared>,
}

pub enum RegWritePath {
    /// Node 0: funnel straight into the service thread.
    Local { tx: Sender<RegEvent>, node: NodeId },
    /// Child: over the control stream (the control reader routes the
    /// service's `RegReply` back into `reply_rx`).
    Remote { ctrl: SharedWriter },
}

impl RegClient {
    /// Issue a write and block until the service's ack-barriered reply.
    /// Returns `None` if the run tore down underneath us (poisoned or
    /// disconnected) — the caller records an error and proceeds, since the
    /// run is already failing.
    pub fn write(&self, req: RegRequest) -> Option<RegReply> {
        match &self.path {
            RegWritePath::Local { tx, node } => {
                if tx.send(RegEvent::Request { from: *node, req }).is_err() {
                    return None;
                }
            }
            RegWritePath::Remote { ctrl } => {
                if send_shared(ctrl, &CtrlFrame::Reg(req)).is_err() {
                    return None;
                }
            }
        }
        loop {
            match self.reply_rx.recv_timeout(Duration::from_millis(100)) {
                Ok(r) => return Some(r),
                Err(RecvTimeoutError::Timeout) => {
                    if self.shared.is_poisoned() {
                        return None;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return None,
            }
        }
    }
}
