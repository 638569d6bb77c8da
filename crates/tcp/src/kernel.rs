//! [`TcpKernel`]: the socket implementation of the kernel seam.
//!
//! One instance per node process, owned by that node's server thread (the
//! same single-writer discipline as `munin_rt::RtKernel`). Remote sends
//! serialize protocol payloads into length-prefixed frames on the
//! per-node-pair TCP stream; with coalescing on, everything one server step
//! sends to a destination leaves as a single
//! [`DataFrame::Batch`](crate::frames::DataFrame::Batch) frame — the
//! kernel's batching seam is exactly the message boundary a socket wants, so `flush_outbound` is where syscalls are coalesced
//! (Nagle-without-the-latency; the sockets themselves run `TCP_NODELAY`).

use crate::frames::{encode_data_batch, encode_data_msg, send_shared, CtrlFrame, SharedWriter};
use crate::frames::{RegReply, RegRequest};
use crate::registry::RegClient;
use crate::wire::Wire;
use munin_net::PayloadInfo;
use munin_rt::timer::TimerReq;
use munin_rt::{MsgBody, NodeKernel, Shared};
use munin_sim::{KernelApi, OpResult};
use munin_types::{CostModel, NodeId, ObjectDecl, ObjectId, SharingType, ThreadId, VirtualTime};
use std::sync::atomic::Ordering;
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where completed operations resume their thread.
pub enum ResumeSink {
    /// The coordinator process hosts every application thread: resume on
    /// the thread's in-process channel.
    Local(Vec<Sender<OpResult>>),
    /// A child process: the thread lives in the coordinator, so the resume
    /// travels back over the control stream.
    Remote(SharedWriter),
}

/// Kernel services for one node's server thread, over sockets.
pub struct TcpKernel<P> {
    pub(crate) node: NodeId,
    pub(crate) cost: CostModel,
    /// Per-pair data-stream writers, indexed by destination node
    /// (`None` at our own index).
    pub(crate) peers: Vec<Option<SharedWriter>>,
    pub(crate) resumes: ResumeSink,
    pub(crate) timer_tx: Sender<TimerReq>,
    pub(crate) shared: Arc<Shared>,
    pub(crate) registry: RegClient,
    pub(crate) stats: munin_net::NetStats,
    pub(crate) coalesce: bool,
    /// Outbound messages buffered during the current server step, one queue
    /// per destination. Multicast payloads ride one `Arc` until they are
    /// serialized here.
    pub(crate) outbox: Vec<Vec<MsgBody<P>>>,
    /// Reusable frame-encoding buffer.
    pub(crate) scratch: Vec<u8>,
    /// Threads whose blocked op completed this step (via
    /// [`KernelApi::complete`]); drained by the server loop's op gate.
    pub(crate) completions: Vec<ThreadId>,
}

impl<P: Wire> TcpKernel<P> {
    /// Write the scratch frame to `dst` (unless encoding already failed),
    /// reporting a dead stream or an unencodable frame exactly once — by
    /// poisoning the run with an error naming the peer — instead of
    /// panicking the server thread.
    fn write_scratch(&mut self, dst: usize, encoded: std::io::Result<()>) {
        let Some(w) = &self.peers[dst] else {
            // No writer can only mean a send to our own node index. The
            // other fabrics would deliver it, so dropping silently would
            // turn a protocol change into an unexplained stall — surface
            // it loudly instead (and fail fast in debug builds).
            debug_assert!(false, "send to self over the socket fabric");
            self.shared.error(format!(
                "node n{}: dropped a frame addressed to n{dst} with no stream (self-send?)",
                self.node.index()
            ));
            return;
        };
        let r =
            encoded.and_then(|()| w.lock().expect("frame writer poisoned").send_raw(&self.scratch));
        if let Err(e) = r {
            if !self.shared.is_poisoned() {
                self.shared.error(format!(
                    "node n{}: data stream to peer n{dst} failed: {e} — poisoning run",
                    self.node.index()
                ));
                self.shared.poisoned.store(true, Ordering::Release);
            }
        }
    }

    fn deliver(&mut self, dst: NodeId, body: MsgBody<P>) {
        if self.coalesce {
            self.outbox[dst.index()].push(body);
        } else {
            let mut scratch = std::mem::take(&mut self.scratch);
            let encoded = encode_data_msg(&mut scratch, body.payload());
            self.scratch = scratch;
            self.write_scratch(dst.index(), encoded);
        }
    }
}

impl<P: PayloadInfo + Wire + Clone> NodeKernel<P> for TcpKernel<P> {
    fn node_id(&self) -> NodeId {
        self.node
    }

    fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    fn resume(&mut self, thread: ThreadId, result: OpResult) {
        // The loop's Done path: deliver without recording a completion (the
        // loop dispatches the thread's next queued op itself).
        self.deliver_result(thread, result);
    }

    fn take_completions(&mut self) -> Vec<ThreadId> {
        std::mem::take(&mut self.completions)
    }

    fn take_stats(&mut self) -> munin_net::NetStats {
        std::mem::take(&mut self.stats)
    }
}

impl<P: PayloadInfo + Wire + Clone> TcpKernel<P> {
    fn deliver_result(&mut self, thread: ThreadId, result: OpResult) {
        // Close the op's server span half. On node 0 (Local) the span stays
        // in the coordinator's collector directly; on a child (Remote) it
        // rides the Resume frame back to the coordinator's span table.
        let span = self.shared.obs.srv_finish(thread);
        match &self.resumes {
            ResumeSink::Local(resumes) => {
                let _ = resumes[thread.index()].send(result);
            }
            ResumeSink::Remote(ctrl) => {
                if let Err(e) = send_shared(ctrl, &CtrlFrame::Resume { thread, result, span }) {
                    if !self.shared.is_poisoned() {
                        self.shared.error(format!(
                            "node n{}: control stream failed while resuming {thread}: {e}",
                            self.node.index()
                        ));
                        self.shared.poisoned.store(true, Ordering::Release);
                    }
                }
            }
        }
    }
}

impl<P: PayloadInfo + Wire + Clone> KernelApi<P> for TcpKernel<P> {
    fn now(&self) -> VirtualTime {
        VirtualTime::micros(self.shared.now_us())
    }

    fn cost(&self) -> &CostModel {
        &self.cost
    }

    fn send(&mut self, src: NodeId, dst: NodeId, payload: P) {
        debug_assert_eq!(src, self.node, "tcp kernels send on behalf of their own node");
        debug_assert_ne!(src, dst, "servers handle local work locally, not by self-send");
        self.stats.record(payload.class(), payload.kind(), payload.wire_bytes());
        self.deliver(dst, MsgBody::Owned(payload));
    }

    fn multicast(&mut self, src: NodeId, dsts: &[NodeId], payload: P) {
        // Match the other fabrics: an empty destination list is not a
        // multicast (keeps `stats.multicasts` comparable across kernels).
        if dsts.is_empty() {
            return;
        }
        for _ in dsts {
            self.stats.record(payload.class(), payload.kind(), payload.wire_bytes());
        }
        // No hardware multicast on a socket fabric: fanout == sends. The
        // payload is shared behind one `Arc` until each destination's frame
        // is serialized.
        self.stats.record_multicast(dsts.len(), dsts.len());
        let shared_payload = Arc::new(payload);
        for &dst in dsts {
            debug_assert_ne!(src, dst);
            self.deliver(dst, MsgBody::Shared(shared_payload.clone()));
        }
    }

    fn flush_outbound(&mut self) {
        if !self.coalesce {
            return;
        }
        for dst in 0..self.outbox.len() {
            match self.outbox[dst].len() {
                0 => continue,
                // A lone message needs no batch wrapper (and no Vec on the
                // receiving side).
                1 => {
                    let body = self.outbox[dst].pop().expect("len checked");
                    let mut scratch = std::mem::take(&mut self.scratch);
                    let encoded = encode_data_msg(&mut scratch, body.payload());
                    self.scratch = scratch;
                    self.write_scratch(dst, encoded);
                }
                _ => {
                    let items = std::mem::take(&mut self.outbox[dst]);
                    let mut scratch = std::mem::take(&mut self.scratch);
                    let encoded =
                        encode_data_batch(&mut scratch, items.iter().map(|b| b.payload()));
                    self.scratch = scratch;
                    self.write_scratch(dst, encoded);
                }
            }
        }
    }

    fn complete(&mut self, thread: ThreadId, result: OpResult, _extra_cost_us: u64) {
        self.deliver_result(thread, result);
        self.completions.push(thread);
    }

    fn set_timer(&mut self, node: NodeId, delay_us: u64, token: u64) {
        debug_assert_eq!(node, self.node, "servers only arm timers for themselves");
        // Same additive discipline as the rt kernel: count the timer as
        // pending *before* mailing the request so the distributed watchdog
        // (which sums heartbeat-reported pending counts) can never catch
        // the arm in flight.
        self.shared.timers_pending.fetch_add(1, Ordering::Release);
        let req = TimerReq { due: Instant::now() + Duration::from_micros(delay_us), node, token };
        if self.timer_tx.send(req).is_err() {
            self.shared.timers_pending.fetch_sub(1, Ordering::Release);
        }
    }

    fn register_decl(&mut self, decl: ObjectDecl, home: NodeId) -> ObjectId {
        match self.registry.write(RegRequest::Decl { decl, home }) {
            Some(RegReply::Decl { id, .. }) => id,
            _ => {
                // Only reachable when the run is tearing down underneath
                // the server; the sentinel id keeps the (already failing)
                // protocol from dereferencing a real object.
                self.shared.error(format!(
                    "node n{}: registry unavailable for register_decl (run tearing down)",
                    self.node.index()
                ));
                ObjectId(u64::MAX)
            }
        }
    }

    fn decl(&self, obj: ObjectId) -> Option<ObjectDecl> {
        self.registry.cache.decl(obj)
    }

    fn assoc_objects(&self, lock: munin_types::LockId) -> Vec<ObjectId> {
        self.registry.cache.assoc_objects(lock)
    }

    fn retype(&mut self, obj: ObjectId, sharing: SharingType) {
        if self.registry.write(RegRequest::Retype { obj, sharing }).is_none() {
            self.shared.error(format!(
                "node n{}: registry unavailable for retype of {obj} (run tearing down)",
                self.node.index()
            ));
        }
    }

    fn registry_version(&self) -> u64 {
        self.registry.cache.version()
    }

    fn error(&mut self, msg: String) {
        self.shared.error(msg);
    }

    fn coverage(&self) -> Option<&munin_obs::CoverageMap> {
        self.shared.coverage.as_deref()
    }
}
