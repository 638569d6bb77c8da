//! [`NodeKernel`]: the one wall-clock implementation of the
//! [`munin_sim::KernelApi`] seam, shared by every wall-clock fabric.
//!
//! The kernel owns everything that is the same on every fabric: traffic
//! accounting, the per-destination outbox, completions, timers and
//! registry reads. What differs — how a message reaches another node, how
//! a blocked thread is woken, where a registry write goes — is the
//! fabric's [`Link`]: [`ChannelLink`] here, a socket link in `munin-tcp`.

use crate::fabric::{MsgBody, NodeEvent, Shared};
use crate::timer::TimerReq;
use munin_net::PayloadInfo;
use munin_obs::SrvSpan;
use munin_sim::{KernelApi, OpResult, Registry};
use munin_types::{
    CostModel, LockId, NodeId, ObjectDecl, ObjectId, SharingType, ThreadId, VirtualTime,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// What a fabric supplies to the [`NodeKernel`]: the transport under one
/// node's server. Calls come only from that node's server thread.
pub trait Link<P> {
    /// Deliver one protocol message to `dst`'s server.
    fn deliver(&mut self, dst: NodeId, body: MsgBody<P>);

    /// Deliver every message one server step sent to `dst`, in send order
    /// (per-(src,dst) FIFO is the vector order).
    fn deliver_batch(&mut self, dst: NodeId, items: Vec<MsgBody<P>>);

    /// Wake `thread` with its op's `result`. `span` is the op's closed
    /// server span, for fabrics whose threads live in another process.
    fn resume(&mut self, thread: ThreadId, result: OpResult, span: Option<SrvSpan>);

    /// Allocate an id for `decl` in every node's registry.
    fn register_decl(&mut self, decl: ObjectDecl, home: NodeId) -> ObjectId;

    /// Change `obj`'s sharing annotation in every node's registry.
    fn retype(&mut self, obj: ObjectId, sharing: SharingType);
}

/// One process's declaration registry, shared by the node servers it
/// hosts. Reads take the lock; the version is mirrored in an atomic so
/// the per-op cache check (`KernelApi::registry_version`) never does.
pub struct SharedRegistry {
    reg: RwLock<Registry>,
    version: AtomicU64,
}

impl SharedRegistry {
    pub fn new(decls: Vec<ObjectDecl>) -> Self {
        SharedRegistry { reg: RwLock::new(Registry::new(decls)), version: AtomicU64::new(0) }
    }

    pub fn decl(&self, obj: ObjectId) -> Option<ObjectDecl> {
        self.reg.read().expect("registry poisoned").decl(obj).cloned()
    }

    pub fn assoc_objects(&self, lock: LockId) -> Vec<ObjectId> {
        self.reg.read().expect("registry poisoned").assoc_objects(lock)
    }

    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Run one write against the registry, then publish its version.
    pub fn write<R>(&self, f: impl FnOnce(&mut Registry) -> R) -> R {
        let mut reg = self.reg.write().expect("registry poisoned");
        let out = f(&mut reg);
        self.version.store(reg.version(), Ordering::Release);
        out
    }
}

/// Kernel services for one node's server thread.
///
/// Each server thread owns its own kernel and link, so sends from node A
/// to node B always travel through A's own path to B, preserving the
/// per-(src,dst) FIFO ordering the protocols assume.
///
/// With `coalesce` on (the default), protocol sends issued while the server
/// handles one batch of inbox events are buffered per destination and
/// handed to the link as one batch when the step ends
/// ([`KernelApi::flush_outbound`], called by the server loop before it
/// blocks again) — a K-item fan-out costs the fabric one delivery and one
/// receiver wake-up per destination instead of one per item. The outbox
/// is strictly per-destination and in send order, so coalescing never
/// reorders a (src,dst) pair.
pub struct NodeKernel<P, L> {
    node: NodeId,
    cost: CostModel,
    link: L,
    timer_tx: Sender<TimerReq>,
    shared: Arc<Shared>,
    registry: Arc<SharedRegistry>,
    /// This node's traffic counters, returned by the server loop when it
    /// exits and merged into the run totals there — keeps the send path
    /// free of cross-node locking.
    stats: munin_net::NetStats,
    /// Coalesce outbound sends into per-destination batches (see above);
    /// off, every message goes to the link at send time.
    coalesce: bool,
    /// Outbound messages buffered during the current server step, one queue
    /// per destination node.
    outbox: Vec<Vec<MsgBody<P>>>,
    /// Threads whose blocked op completed this step (via
    /// [`KernelApi::complete`]); drained by the server loop's op gate.
    completions: Vec<ThreadId>,
}

impl<P, L: Link<P>> NodeKernel<P, L> {
    pub fn new(
        node: NodeId,
        n_nodes: usize,
        cost: CostModel,
        link: L,
        timer_tx: Sender<TimerReq>,
        shared: Arc<Shared>,
        registry: Arc<SharedRegistry>,
        coalesce: bool,
    ) -> Self {
        NodeKernel {
            node,
            cost,
            link,
            timer_tx,
            shared,
            registry,
            stats: munin_net::NetStats::new(),
            coalesce,
            outbox: (0..n_nodes).map(|_| Vec::new()).collect(),
            completions: Vec::new(),
        }
    }

    pub(crate) fn node_id(&self) -> NodeId {
        self.node
    }

    pub(crate) fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// Resume a thread whose op the server finished inline (the loop's
    /// Done path), closing the op's server span.
    pub(crate) fn resume(&mut self, thread: ThreadId, result: OpResult) {
        let span = self.shared.obs.srv_finish(thread);
        self.link.resume(thread, result, span);
    }

    /// Threads whose *blocked* op the protocol completed (via
    /// [`KernelApi::complete`]) since the last call.
    pub(crate) fn take_completions(&mut self) -> Vec<ThreadId> {
        std::mem::take(&mut self.completions)
    }

    /// This node's traffic counters, taken when the server loop exits.
    pub(crate) fn take_stats(&mut self) -> munin_net::NetStats {
        std::mem::take(&mut self.stats)
    }

    fn deliver(&mut self, dst: NodeId, body: MsgBody<P>) {
        debug_assert_ne!(self.node, dst, "servers handle local work locally, not by self-send");
        if self.coalesce {
            self.outbox[dst.index()].push(body);
        } else {
            self.link.deliver(dst, body);
        }
    }
}

impl<P: PayloadInfo + Clone, L: Link<P>> KernelApi<P> for NodeKernel<P, L> {
    fn now(&self) -> VirtualTime {
        VirtualTime::micros(self.shared.now_us())
    }

    fn cost(&self) -> &CostModel {
        &self.cost
    }

    fn send(&mut self, src: NodeId, dst: NodeId, payload: P) {
        debug_assert_eq!(src, self.node, "node kernels send on behalf of their own node");
        self.stats.record(payload.class(), payload.kind(), payload.wire_bytes());
        self.deliver(dst, MsgBody::Owned(payload));
    }

    fn multicast(&mut self, src: NodeId, dsts: &[NodeId], payload: P) {
        debug_assert_eq!(src, self.node, "node kernels send on behalf of their own node");
        // As in the simulated transport, an empty destination list is not a
        // multicast.
        if dsts.is_empty() {
            return;
        }
        for _ in dsts {
            self.stats.record(payload.class(), payload.kind(), payload.wire_bytes());
        }
        // No hardware multicast on a wall-clock fabric: fanout == sends.
        // The payload is shared behind one `Arc` instead of deep-cloned per
        // destination.
        self.stats.record_multicast(dsts.len(), dsts.len());
        let shared_payload = Arc::new(payload);
        for &dst in dsts {
            self.deliver(dst, MsgBody::Shared(shared_payload.clone()));
        }
    }

    fn flush_outbound(&mut self) {
        if !self.coalesce {
            return;
        }
        for i in 0..self.outbox.len() {
            let dst = NodeId(i as u16);
            match self.outbox[i].len() {
                0 => continue,
                // A lone message needs no batch wrapper.
                1 => {
                    let body = self.outbox[i].pop().expect("len checked");
                    self.link.deliver(dst, body);
                }
                _ => {
                    let items = std::mem::take(&mut self.outbox[i]);
                    self.link.deliver_batch(dst, items);
                }
            }
        }
    }

    fn complete(&mut self, thread: ThreadId, result: OpResult, _extra_cost_us: u64) {
        // Modelled completion cost is a virtual-time concept; here the
        // thread's real wait *is* the cost, so resume immediately. Record
        // the thread so the server loop's op gate can dispatch whatever
        // pipelined ops queued behind the one that just completed.
        self.resume(thread, result);
        self.completions.push(thread);
    }

    fn set_timer(&mut self, node: NodeId, delay_us: u64, token: u64) {
        debug_assert_eq!(node, self.node, "servers only arm timers for themselves");
        // Count the timer as pending *before* the request is mailed, so the
        // watchdog can never catch the arm in flight (it would otherwise
        // see "all threads blocked, no activity, no pending timer" while
        // the request sits in the timer thread's queue).
        self.shared.timers_pending.fetch_add(1, Ordering::Release);
        let req = TimerReq { due: Instant::now() + Duration::from_micros(delay_us), node, token };
        if self.timer_tx.send(req).is_err() {
            // Teardown: the timer thread is gone, the timer will never
            // fire — don't leave the counter stuck above zero.
            self.shared.timers_pending.fetch_sub(1, Ordering::Release);
        }
    }

    fn register_decl(&mut self, decl: ObjectDecl, home: NodeId) -> ObjectId {
        self.link.register_decl(decl, home)
    }

    fn decl(&self, obj: ObjectId) -> Option<ObjectDecl> {
        self.registry.decl(obj)
    }

    fn assoc_objects(&self, lock: LockId) -> Vec<ObjectId> {
        self.registry.assoc_objects(lock)
    }

    fn retype(&mut self, obj: ObjectId, sharing: SharingType) {
        self.link.retype(obj, sharing);
    }

    fn registry_version(&self) -> u64 {
        self.registry.version()
    }

    fn error(&mut self, msg: String) {
        self.shared.error(msg);
    }

    fn coverage(&self) -> Option<&munin_obs::CoverageMap> {
        self.shared.coverage.as_deref()
    }
}

/// The in-process fabric's link: one inbox channel per node, one resume
/// channel per thread, and the process-wide registry written in place.
/// Send failures are ignored by design: they only happen when the
/// destination already shut down during teardown.
pub(crate) struct ChannelLink<P> {
    pub(crate) node: NodeId,
    pub(crate) inboxes: Vec<Sender<NodeEvent<P>>>,
    pub(crate) resumes: Vec<Sender<OpResult>>,
    pub(crate) registry: Arc<SharedRegistry>,
}

impl<P> Link<P> for ChannelLink<P> {
    fn deliver(&mut self, dst: NodeId, body: MsgBody<P>) {
        let _ = self.inboxes[dst.index()].send(NodeEvent::Msg(self.node, body));
    }

    fn deliver_batch(&mut self, dst: NodeId, items: Vec<MsgBody<P>>) {
        let _ = self.inboxes[dst.index()].send(NodeEvent::Batch(self.node, items));
    }

    fn resume(&mut self, thread: ThreadId, result: OpResult, _span: Option<SrvSpan>) {
        // No wire hop: the span stays in this process's collector.
        let _ = self.resumes[thread.index()].send(result);
    }

    fn register_decl(&mut self, decl: ObjectDecl, home: NodeId) -> ObjectId {
        self.registry.write(|r| r.register(decl, home))
    }

    fn retype(&mut self, obj: ObjectId, sharing: SharingType) {
        self.registry.write(|r| {
            r.retype(obj, sharing);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use munin_net::{MsgClass, NetStats};
    use std::sync::mpsc::{channel, Receiver};

    #[derive(Debug, Clone, PartialEq)]
    struct Ping(u32);

    impl PayloadInfo for Ping {
        fn class(&self) -> MsgClass {
            MsgClass::Data
        }
        fn kind(&self) -> &'static str {
            "Ping"
        }
        fn wire_bytes(&self) -> usize {
            8
        }
    }

    /// What the kernel handed its link, in call order.
    #[derive(Debug, PartialEq)]
    enum Sent {
        Msg(NodeId, Ping),
        Batch(NodeId, Vec<Ping>),
    }

    #[derive(Default)]
    struct RecordingLink(Vec<Sent>);

    impl Link<Ping> for RecordingLink {
        fn deliver(&mut self, dst: NodeId, body: MsgBody<Ping>) {
            self.0.push(Sent::Msg(dst, body.into_payload()));
        }
        fn deliver_batch(&mut self, dst: NodeId, items: Vec<MsgBody<Ping>>) {
            self.0.push(Sent::Batch(dst, items.into_iter().map(MsgBody::into_payload).collect()));
        }
        fn resume(&mut self, _: ThreadId, _: OpResult, _: Option<SrvSpan>) {}
        fn register_decl(&mut self, _: ObjectDecl, _: NodeId) -> ObjectId {
            unreachable!("not exercised")
        }
        fn retype(&mut self, _: ObjectId, _: SharingType) {}
    }

    const ME: NodeId = NodeId(0);

    fn kernel(coalesce: bool) -> (NodeKernel<Ping, RecordingLink>, Receiver<TimerReq>) {
        let (timer_tx, timer_rx) = channel();
        let k = NodeKernel::new(
            ME,
            4,
            CostModel::default(),
            RecordingLink::default(),
            timer_tx,
            Arc::new(Shared::new(0, munin_types::Telemetry::Off)),
            Arc::new(SharedRegistry::new(Vec::new())),
            coalesce,
        );
        (k, timer_rx)
    }

    #[test]
    fn multicast_to_nobody_records_nothing() {
        for coalesce in [true, false] {
            let (mut k, _timers) = kernel(coalesce);
            k.multicast(ME, &[], Ping(1));
            k.flush_outbound();
            assert_eq!(k.stats, NetStats::new());
            assert!(k.link.0.is_empty());
        }
    }

    #[test]
    fn n_way_multicast_is_n_sends_and_one_multicast() {
        let (mut k, _timers) = kernel(false);
        k.multicast(ME, &[NodeId(1), NodeId(2), NodeId(3)], Ping(7));
        assert_eq!((k.stats.messages, k.stats.bytes), (3, 24));
        assert_eq!(k.stats.by_kind["Ping"].count, 3);
        assert_eq!((k.stats.multicasts, k.stats.multicast_saved), (1, 0), "fan-out 3, 3 sends");
        let want: Vec<Sent> = (1..4).map(|d| Sent::Msg(NodeId(d), Ping(7))).collect();
        assert_eq!(k.link.0, want);
    }

    #[test]
    fn coalescing_batches_per_destination_in_send_order() {
        let (mut k, _timers) = kernel(true);
        k.send(ME, NodeId(3), Ping(1));
        for i in 2..5 {
            k.send(ME, NodeId(2), Ping(i));
        }
        k.multicast(ME, &[NodeId(2)], Ping(5));
        assert!(k.link.0.is_empty(), "nothing leaves before the step ends");
        k.flush_outbound();
        let batch = (2..6).map(Ping).collect();
        assert_eq!(k.link.0, vec![Sent::Batch(NodeId(2), batch), Sent::Msg(NodeId(3), Ping(1))]);
        k.flush_outbound();
        assert_eq!(k.link.0.len(), 2, "a flush empties the outbox");
    }

    #[test]
    fn without_coalescing_every_message_leaves_at_send_time() {
        let (mut k, _timers) = kernel(false);
        k.send(ME, NodeId(2), Ping(1));
        assert_eq!(k.link.0, vec![Sent::Msg(NodeId(2), Ping(1))]);
        k.send(ME, NodeId(2), Ping(2));
        k.flush_outbound();
        assert_eq!(k.link.0, vec![Sent::Msg(NodeId(2), Ping(1)), Sent::Msg(NodeId(2), Ping(2))]);
    }

    #[test]
    fn set_timer_counts_pending_and_rolls_back_without_a_timer_thread() {
        let (mut k, timers) = kernel(true);
        k.set_timer(ME, 10, 1);
        assert_eq!(k.shared.timers_pending.load(Ordering::Acquire), 1);
        assert_eq!(timers.try_recv().map(|r| r.token).ok(), Some(1));
        drop(timers);
        k.set_timer(ME, 10, 2);
        assert_eq!(k.shared.timers_pending.load(Ordering::Acquire), 1, "the lost arm rolled back");
    }
}
