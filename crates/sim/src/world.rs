//! The simulation world: event loop, kernel services, and the [`Server`]
//! trait that coherence runtimes implement.
//!
//! One [`World`] = one distributed system: `n` nodes, each hosting one
//! protocol server and any number of application threads. The world owns a
//! virtual clock and an event queue; application threads are real OS threads
//! but exactly one executes at a time (rendezvous with the loop), so the
//! entire run — message counts, interleavings, traces — is a deterministic
//! function of (program, configuration, seed).

use crate::event::{EventKind, EventQueue};
use crate::kernel::KernelApi;
use crate::op::{DsmOp, OpOutcome, OpResult};
use crate::registry::Registry;
use crate::report::{RunReport, WaitTable};
use crate::spec::WorldSpec;
use crate::thread::{ThreadCtx, ThreadReq};
use crate::tracer::{NullTracer, TraceEvent, Tracer};
use crate::transport::{Transport, TransportConfig, Wire};
use crossbeam_channel::{unbounded, Receiver, Sender};
use munin_net::PayloadInfo;
use munin_types::{CostModel, NodeId, ObjectDecl, ObjectId, ThreadId, VirtualTime};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::JoinHandle;

/// A per-node coherence server: the software that the paper's page-fault
/// handler invokes ("the server checks what type of object the thread
/// faulted on and invokes the appropriate fault handler").
pub trait Server: Send {
    /// Protocol message type exchanged between servers.
    type Payload: PayloadInfo + Clone + Send + std::fmt::Debug + 'static;

    /// Handle an operation issued by a local application thread.
    ///
    /// Return [`OpOutcome::Done`] for local completion, or
    /// [`OpOutcome::Blocked`] and later call [`KernelApi::complete`] once the
    /// protocol finishes the fault.
    fn on_op(
        &mut self,
        kernel: &mut dyn KernelApi<Self::Payload>,
        thread: ThreadId,
        op: DsmOp,
    ) -> OpOutcome;

    /// Handle a protocol message from another node's server.
    fn on_message(
        &mut self,
        kernel: &mut dyn KernelApi<Self::Payload>,
        from: NodeId,
        payload: Self::Payload,
    );

    /// Handle a timer previously registered with [`KernelApi::set_timer`].
    fn on_timer(&mut self, _kernel: &mut dyn KernelApi<Self::Payload>, _token: u64) {}

    /// Describe internal state for the deadlock report (diagnostic only).
    fn debug_stuck_state(&self) -> String {
        String::new()
    }
}

struct ThreadRec {
    node: NodeId,
    resume_tx: Sender<OpResult>,
    done: bool,
    /// (issue time, op label) of the operation currently awaiting completion.
    pending: Option<(VirtualTime, &'static str)>,
    waits: WaitTable,
}

/// Kernel services available to servers while they handle ops, messages and
/// timers: the clock, the transport, the object-declaration registry,
/// timers and error reporting.
pub struct Kernel<P: PayloadInfo + Clone> {
    now: VirtualTime,
    events: EventQueue<Wire<P>>,
    transport: Transport<P>,
    stats_ext: munin_net::NetStats,
    registry: Registry,
    threads: Vec<ThreadRec>,
    tracer: Box<dyn Tracer>,
    ops: u64,
    errors: Vec<String>,
    /// Protocol-state coverage recorder, when the run is instrumented
    /// (campaign explore mode attaches one through the [`WorldSpec`]).
    coverage: Option<std::sync::Arc<munin_obs::CoverageMap>>,
}

/// The virtual-time kernel exposes its services through the kernel seam, so
/// the same servers run here and on the wall-clock fabrics.
impl<P: PayloadInfo + Clone> KernelApi<P> for Kernel<P> {
    fn now(&self) -> VirtualTime {
        self.now
    }

    fn cost(&self) -> &CostModel {
        self.transport.cost()
    }

    fn send(&mut self, src: NodeId, dst: NodeId, payload: P) {
        debug_assert_ne!(src, dst, "servers handle local work locally, not by self-send");
        self.tracer.record(TraceEvent::MessageSent {
            at: self.now,
            src,
            dst,
            class: payload.class(),
            kind: payload.kind(),
            bytes: payload.wire_bytes(),
        });
        self.transport.send(self.now, &mut self.events, &mut self.stats_ext, src, dst, payload);
    }

    /// Destination list order does not affect determinism (deliveries are
    /// scheduled in list order with stable tie-breaking), but callers
    /// should pass sorted lists so traces are stable across refactorings.
    fn multicast(&mut self, src: NodeId, dsts: &[NodeId], payload: P) {
        for &d in dsts {
            self.tracer.record(TraceEvent::MessageSent {
                at: self.now,
                src,
                dst: d,
                class: payload.class(),
                kind: payload.kind(),
                bytes: payload.wire_bytes(),
            });
        }
        self.transport.multicast(
            self.now,
            &mut self.events,
            &mut self.stats_ext,
            src,
            dsts,
            payload,
        );
    }

    fn flush_outbound(&mut self) {
        // Trivial pass-through: `send`/`multicast` already pushed their
        // deliveries into the event queue — there is nothing buffered.
    }

    /// The thread resumes `extra_cost_us` of virtual time from now.
    fn complete(&mut self, thread: ThreadId, result: OpResult, extra_cost_us: u64) {
        debug_assert!(
            !self.threads[thread.index()].done,
            "completing an op for exited thread {thread}"
        );
        self.events.push(self.now + extra_cost_us, EventKind::ThreadResume { thread, result });
    }

    fn set_timer(&mut self, node: NodeId, delay_us: u64, token: u64) {
        self.events.push(self.now + delay_us, EventKind::Timer { node, token });
    }

    fn register_decl(&mut self, decl: ObjectDecl, home: NodeId) -> ObjectId {
        self.registry.register(decl, home)
    }

    fn decl(&self, obj: ObjectId) -> Option<ObjectDecl> {
        self.registry.decl(obj).cloned()
    }

    fn assoc_objects(&self, lock: munin_types::LockId) -> Vec<ObjectId> {
        self.registry.assoc_objects(lock)
    }

    fn retype(&mut self, obj: ObjectId, sharing: munin_types::SharingType) {
        self.registry.retype(obj, sharing);
    }

    fn registry_version(&self) -> u64 {
        self.registry.version()
    }

    fn error(&mut self, msg: String) {
        if std::env::var_os("MUNIN_DEBUG_ERRORS").is_some() {
            eprintln!("[kernel error] {msg}");
        }
        self.errors.push(msg);
    }

    fn coverage(&self) -> Option<&munin_obs::CoverageMap> {
        self.coverage.as_deref()
    }
}

/// A fully built distributed system, ready to run.
pub struct World<S: Server> {
    kernel: Kernel<S::Payload>,
    servers: Vec<S>,
    req_rx: Receiver<(ThreadId, ThreadReq)>,
    joins: Vec<JoinHandle<()>>,
}

impl<S: Server> World<S> {
    /// Build the world for `spec` with one server per node (`servers[i]`
    /// serves `NodeId(i)`), the simulated `transport`, and an optional
    /// tracer. Threads start simultaneously at virtual time zero, in spawn
    /// order.
    pub fn new(
        spec: WorldSpec<ThreadCtx>,
        servers: Vec<S>,
        transport: TransportConfig,
        tracer: Option<Box<dyn Tracer>>,
    ) -> Self {
        let n_nodes = spec.n_nodes();
        assert_eq!(servers.len(), n_nodes, "need exactly one server per node");
        let coverage = spec.coverage.clone();
        let (decls, spawns) = spec.into_parts();
        let (req_tx, req_rx) = unbounded();
        let n_threads = spawns.len();
        let mut threads = Vec::with_capacity(n_threads);
        let mut joins = Vec::with_capacity(n_threads);

        for (idx, (node, body)) in spawns.into_iter().enumerate() {
            let tid = ThreadId(idx as u32);
            let (resume_tx, resume_rx) = unbounded();
            let mut ctx = ThreadCtx {
                thread: tid,
                node,
                n_nodes,
                n_threads,
                req_tx: req_tx.clone(),
                resume_rx,
            };
            let join = std::thread::Builder::new()
                .name(format!("sim-{tid}"))
                .spawn(move || {
                    // Wait for the initial resume before running the body.
                    if ctx.resume_rx.recv().is_err() {
                        return; // World torn down before start.
                    }
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        body(&mut ctx);
                        // Graceful exit is itself a synchronization point
                        // (flushes the delayed update queue).
                        ctx.op(DsmOp::Exit);
                    }));
                    let exit = match result {
                        Ok(()) => ThreadReq::Exited(None),
                        Err(p) => {
                            let msg = p
                                .downcast_ref::<String>()
                                .cloned()
                                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                                .unwrap_or_else(|| "non-string panic payload".to_string());
                            ThreadReq::Exited(Some(msg))
                        }
                    };
                    let _ = ctx.req_tx.send((tid, exit));
                })
                .expect("failed to spawn simulation thread");
            joins.push(join);
            threads.push(ThreadRec {
                node,
                resume_tx,
                done: false,
                pending: None,
                waits: WaitTable::new(),
            });
        }

        World {
            kernel: Kernel {
                now: VirtualTime::ZERO,
                events: EventQueue::new(),
                transport: Transport::new(transport),
                stats_ext: munin_net::NetStats::new(),
                registry: Registry::new(decls),
                threads,
                tracer: tracer.unwrap_or_else(|| Box::new(NullTracer)),
                ops: 0,
                errors: Vec::new(),
                coverage,
            },
            servers,
            req_rx,
            joins,
        }
    }

    /// Run the world to completion: until every thread has exited and every
    /// in-flight message has been delivered. Returns the run report; the
    /// world (and its tracer) are consumed — retrieve tracer output via the
    /// tracer's own shared state.
    pub fn run(mut self) -> RunReport {
        let n_threads = self.kernel.threads.len();
        let mut live = n_threads;

        // All threads become runnable at t=0 in spawn order.
        for idx in 0..n_threads {
            self.kernel.events.push(
                VirtualTime::ZERO,
                EventKind::ThreadResume { thread: ThreadId(idx as u32), result: OpResult::Unit },
            );
        }

        while let Some(ev) = self.kernel.events.pop() {
            self.kernel.now = ev.at;
            match ev.kind {
                EventKind::ThreadResume { thread, result } => {
                    let rec = &mut self.kernel.threads[thread.index()];
                    if rec.done {
                        continue;
                    }
                    if let Some((issued, label)) = rec.pending.take() {
                        let waited = self.kernel.now.since(issued);
                        let e = rec.waits.entry(label).or_insert((0, 0));
                        e.0 += 1;
                        e.1 += waited;
                        let node = rec.node;
                        self.kernel.tracer.record(TraceEvent::OpCompleted {
                            at: self.kernel.now,
                            thread,
                            node,
                            label,
                            waited_us: waited,
                        });
                    }
                    if self.kernel.threads[thread.index()].resume_tx.send(result).is_err() {
                        // Thread body aborted outside our protocol.
                        self.kernel.threads[thread.index()].done = true;
                        live -= 1;
                        self.kernel.error(format!("{thread} dropped its resume channel"));
                        continue;
                    }
                    // The resumed thread is the only runnable one; it either
                    // issues the next op or exits.
                    match self.req_rx.recv() {
                        Ok((tid, ThreadReq::Op(op))) => {
                            debug_assert_eq!(tid, thread, "rendezvous protocol violated");
                            self.dispatch_op(tid, op);
                        }
                        Ok((tid, ThreadReq::Exited(panic))) => {
                            debug_assert_eq!(tid, thread);
                            self.kernel.threads[tid.index()].done = true;
                            live -= 1;
                            if let Some(msg) = panic {
                                self.kernel.error(format!("{tid} panicked: {msg}"));
                            }
                        }
                        Err(_) => {
                            self.kernel.error("request channel closed unexpectedly".to_string());
                            break;
                        }
                    }
                }
                EventKind::Deliver { src, dst, seq, wire } => {
                    let released = self.kernel.transport.receive(
                        self.kernel.now,
                        &mut self.kernel.events,
                        &mut self.kernel.stats_ext,
                        src,
                        dst,
                        seq,
                        wire,
                    );
                    for payload in released {
                        self.servers[dst.index()].on_message(&mut self.kernel, src, payload);
                    }
                }
                EventKind::Timer { node, token } => {
                    self.servers[node.index()].on_timer(&mut self.kernel, token);
                }
                EventKind::RetxTimer { src, dst } => {
                    self.kernel.transport.on_retx_timer(
                        self.kernel.now,
                        &mut self.kernel.events,
                        &mut self.kernel.stats_ext,
                        src,
                        dst,
                    );
                }
            }
        }

        if self.kernel.stats_ext.gave_up > 0 {
            // A link fault outlasted the retransmission budget: messages were
            // silently abandoned, so protocol state may be inconsistent. The
            // run must not read as clean.
            self.kernel.error(format!(
                "transport gave up on {} message(s) after exhausting retransmissions \
                 (link fault outlasted the retry budget)",
                self.kernel.stats_ext.gave_up
            ));
        }

        let deadlocked = live > 0;
        if deadlocked {
            let blocked: Vec<String> = self
                .kernel
                .threads
                .iter()
                .enumerate()
                .filter(|(_, r)| !r.done)
                .map(|(i, r)| {
                    let label = r.pending.map(|(_, l)| l).unwrap_or("<not blocked in an op>");
                    format!("t{i} blocked in '{label}'")
                })
                .collect();
            self.kernel.error(format!(
                "deadlock: {} thread(s) still blocked with no pending events: {}",
                live,
                blocked.join(", ")
            ));
            if std::env::var_os("MUNIN_DEBUG_ERRORS").is_some() {
                for (i, srv) in self.servers.iter().enumerate() {
                    let dump = srv.debug_stuck_state();
                    if !dump.is_empty() {
                        eprintln!("[deadlock dump n{i}] {dump}");
                    }
                }
            }
            // Tear down: dropping resume senders makes blocked threads panic
            // out of their recv, which their wrappers catch.
            for rec in &mut self.kernel.threads {
                let (dead_tx, _) = unbounded();
                rec.resume_tx = dead_tx;
            }
        }

        // The world-side req receiver must outlive thread teardown; drain it.
        drop(self.req_rx);
        for j in self.joins {
            let _ = j.join();
        }

        RunReport {
            finished_at: self.kernel.now,
            stats: self.kernel.stats_ext,
            ops: self.kernel.ops,
            thread_waits: self.kernel.threads.into_iter().map(|t| t.waits).collect(),
            errors: self.kernel.errors,
            deadlocked,
            wall: None,
            dumps: Vec::new(),
            metrics: None,
        }
    }

    fn dispatch_op(&mut self, thread: ThreadId, op: DsmOp) {
        self.kernel.ops += 1;
        let node = self.kernel.threads[thread.index()].node;
        self.kernel.tracer.record(TraceEvent::OpIssued {
            at: self.kernel.now,
            thread,
            node,
            op: &op,
        });
        self.kernel.threads[thread.index()].pending = Some((self.kernel.now, op.label()));
        match op {
            DsmOp::Compute(us) => {
                self.kernel.complete(thread, OpResult::Unit, us);
            }
            other => {
                let outcome = self.servers[node.index()].on_op(&mut self.kernel, thread, other);
                match outcome {
                    OpOutcome::Done { result, cost_us } => {
                        self.kernel.complete(thread, result, cost_us);
                    }
                    OpOutcome::Blocked => {}
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Par;
    use munin_net::MsgClass;
    use munin_types::{ByteRange, SharingType};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// A toy protocol: every `Read` asks the remote node `1` for bytes; node
    /// 1 replies with the requested length filled with the request count.
    #[derive(Debug, Clone)]
    enum EchoMsg {
        Req { thread: ThreadId, len: u32 },
        Reply { thread: ThreadId, data: Vec<u8> },
    }

    impl PayloadInfo for EchoMsg {
        fn class(&self) -> MsgClass {
            match self {
                EchoMsg::Req { .. } => MsgClass::Control,
                EchoMsg::Reply { .. } => MsgClass::Data,
            }
        }
        fn kind(&self) -> &'static str {
            match self {
                EchoMsg::Req { .. } => "EchoReq",
                EchoMsg::Reply { .. } => "EchoReply",
            }
        }
        fn wire_bytes(&self) -> usize {
            match self {
                EchoMsg::Req { .. } => 0,
                EchoMsg::Reply { data, .. } => data.len(),
            }
        }
    }

    struct EchoServer {
        node: NodeId,
        served: u8,
    }

    impl Server for EchoServer {
        type Payload = EchoMsg;

        fn on_op(
            &mut self,
            k: &mut dyn KernelApi<EchoMsg>,
            thread: ThreadId,
            op: DsmOp,
        ) -> OpOutcome {
            match op {
                DsmOp::Read { range, .. } => {
                    if self.node == NodeId(1) {
                        // Local hit.
                        OpOutcome::done(OpResult::Bytes(vec![0; range.len as usize]), 1)
                    } else {
                        k.send(self.node, NodeId(1), EchoMsg::Req { thread, len: range.len });
                        OpOutcome::Blocked
                    }
                }
                DsmOp::Exit | DsmOp::Phase(_) | DsmOp::Flush => OpOutcome::unit(0),
                other => panic!("echo server got {other:?}"),
            }
        }

        fn on_message(&mut self, k: &mut dyn KernelApi<EchoMsg>, from: NodeId, payload: EchoMsg) {
            match payload {
                EchoMsg::Req { thread, len } => {
                    self.served += 1;
                    let data = vec![self.served; len as usize];
                    k.send(self.node, from, EchoMsg::Reply { thread, data });
                }
                EchoMsg::Reply { thread, data } => {
                    k.complete(thread, OpResult::Bytes(data), 10);
                }
            }
        }
    }

    fn echo_world(bodies: Vec<(NodeId, Box<dyn FnOnce(&mut ThreadCtx) + Send>)>) -> RunReport {
        let mut spec = WorldSpec::new(2);
        for (node, body) in bodies {
            spec.spawn(node, body);
        }
        let servers = vec![
            EchoServer { node: NodeId(0), served: 0 },
            EchoServer { node: NodeId(1), served: 0 },
        ];
        World::new(spec, servers, TransportConfig::default(), None).run()
    }

    #[test]
    fn remote_read_round_trip_advances_virtual_time() {
        let got = Arc::new(AtomicU64::new(0));
        let got2 = got.clone();
        let report = echo_world(vec![(
            NodeId(0),
            Box::new(move |ctx: &mut ThreadCtx| {
                let bytes = ctx.read(ObjectId(0), ByteRange::new(0, 4));
                got2.store(bytes[0] as u64, Ordering::SeqCst);
            }),
        )]);
        report.assert_clean();
        assert_eq!(got.load(Ordering::SeqCst), 1);
        assert_eq!(report.stats.messages, 2, "request + reply");
        // Two 1 ms-class messages: finishes at >= 2 ms of virtual time.
        assert!(report.finished_at.as_micros() >= 2_000, "{}", report.finished_at);
        assert_eq!(report.total_ops("read"), 1);
        assert!(report.total_wait_us("read") >= 2_000);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let report = echo_world(vec![
                (
                    NodeId(0),
                    Box::new(|ctx: &mut ThreadCtx| {
                        for _ in 0..5 {
                            ctx.read(ObjectId(0), ByteRange::new(0, 64));
                            ctx.compute(100);
                        }
                    }) as Box<dyn FnOnce(&mut ThreadCtx) + Send>,
                ),
                (
                    NodeId(0),
                    Box::new(|ctx: &mut ThreadCtx| {
                        for _ in 0..3 {
                            ctx.read(ObjectId(0), ByteRange::new(0, 16));
                        }
                    }) as Box<dyn FnOnce(&mut ThreadCtx) + Send>,
                ),
            ]);
            (report.finished_at, report.stats.messages, report.stats.bytes, report.ops)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn local_reads_send_no_messages() {
        let report = echo_world(vec![(
            NodeId(1),
            Box::new(|ctx: &mut ThreadCtx| {
                for _ in 0..10 {
                    ctx.read(ObjectId(0), ByteRange::new(0, 8));
                }
            }),
        )]);
        report.assert_clean();
        assert_eq!(report.stats.messages, 0);
    }

    #[test]
    fn panicking_thread_is_reported_not_hung() {
        let report = echo_world(vec![(
            NodeId(0),
            Box::new(|_ctx: &mut ThreadCtx| {
                panic!("application bug!");
            }),
        )]);
        assert!(!report.is_clean());
        assert!(report.errors[0].contains("application bug"), "{:?}", report.errors);
        assert!(!report.deadlocked);
    }

    /// A server that never completes a read: the world must detect deadlock
    /// and tear down rather than hang the test process.
    struct BlackHoleServer;

    impl Server for BlackHoleServer {
        type Payload = EchoMsg;
        fn on_op(&mut self, _k: &mut dyn KernelApi<EchoMsg>, _t: ThreadId, op: DsmOp) -> OpOutcome {
            match op {
                DsmOp::Read { .. } => OpOutcome::Blocked,
                _ => OpOutcome::unit(0),
            }
        }
        fn on_message(&mut self, _k: &mut dyn KernelApi<EchoMsg>, _f: NodeId, _p: EchoMsg) {}
    }

    #[test]
    fn deadlock_is_detected_and_reported() {
        let mut spec = WorldSpec::new(1);
        spec.spawn(NodeId(0), |ctx: &mut ThreadCtx| {
            ctx.read(ObjectId(0), ByteRange::new(0, 4));
        });
        let report =
            World::new(spec, vec![BlackHoleServer], TransportConfig::default(), None).run();
        assert!(report.deadlocked);
        assert!(report.errors.iter().any(|e| e.contains("deadlock")), "{:?}", report.errors);
        assert!(report.errors.iter().any(|e| e.contains("read")), "{:?}", report.errors);
    }

    #[test]
    fn declared_objects_are_visible_in_registry() {
        let mut spec = WorldSpec::new(2);
        let decl = ObjectDecl::new(ObjectId(0), "m", 64, SharingType::WriteMany, NodeId(0));
        let id = spec.declare(decl, NodeId(1));
        assert_eq!(id, ObjectId(0));
        spec.spawn(NodeId(0), move |ctx: &mut ThreadCtx| {
            ctx.compute(1);
        });
        let servers = vec![
            EchoServer { node: NodeId(0), served: 0 },
            EchoServer { node: NodeId(1), served: 0 },
        ];
        let w = World::new(spec, servers, TransportConfig::default(), None);
        assert_eq!(w.kernel.decl(id).unwrap().home, NodeId(1));
        assert_eq!(w.kernel.decl(id).unwrap().name, "m");
        let report = w.run();
        report.assert_clean();
    }

    #[test]
    fn compute_costs_virtual_time_without_server_involvement() {
        let report = echo_world(vec![(
            NodeId(0),
            Box::new(|ctx: &mut ThreadCtx| {
                ctx.compute(12_345);
            }),
        )]);
        report.assert_clean();
        assert_eq!(report.stats.messages, 0);
        assert!(report.finished_at.as_micros() >= 12_345);
    }

    #[test]
    fn threads_interleave_by_virtual_time_not_spawn_order() {
        // Thread B (spawned second) does cheap ops; thread A does one huge
        // compute. B must finish long before A's op completes.
        let order = Arc::new(parking_lot_free_vec());
        let o1 = order.clone();
        let o2 = order.clone();
        let report = echo_world(vec![
            (
                NodeId(0),
                Box::new(move |ctx: &mut ThreadCtx| {
                    ctx.compute(1_000_000);
                    o1.lock().unwrap().push('A');
                }),
            ),
            (
                NodeId(0),
                Box::new(move |ctx: &mut ThreadCtx| {
                    ctx.compute(10);
                    o2.lock().unwrap().push('B');
                }),
            ),
        ]);
        report.assert_clean();
        assert_eq!(*order.lock().unwrap(), vec!['B', 'A']);
    }

    fn parking_lot_free_vec() -> std::sync::Mutex<Vec<char>> {
        std::sync::Mutex::new(Vec::new())
    }
}
