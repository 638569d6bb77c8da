//! The node-server event loop, shared by every wall-clock fabric.
//!
//! The in-process channel fabric runs it on one thread per node; the TCP
//! fabric (`munin-tcp`) runs exactly the same loop in each node process.
//! Both hand it the one [`NodeKernel`]; only the kernel's fabric link
//! differs.

use crate::fabric::{MsgBody, NodeEvent};
use crate::kernel::{Link, NodeKernel};
use munin_net::PayloadInfo;
use munin_sim::{KernelApi, OpOutcome, Server};
use munin_types::{NodeId, ThreadId};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::Duration;

/// The per-thread op gate: the protocol servers were written for at most
/// one outstanding op per thread (their pending structures are keyed by
/// thread), so pipelining is a *fabric* property — clients may have K ops
/// in flight, but the loop feeds the server a thread's ops strictly one at
/// a time, queueing the rest here. Completions are per-thread FIFO by
/// construction, which is what lets the client match results to tokens with
/// a plain sequence counter.
#[derive(Default)]
struct OpGate {
    /// Ops waiting behind the thread's in-flight op, oldest first.
    queued: Vec<std::collections::VecDeque<munin_sim::DsmOp>>,
    /// Thread has an op inside the server that hasn't completed yet.
    busy: Vec<bool>,
}

impl OpGate {
    fn ensure(&mut self, t: ThreadId) {
        let i = t.index();
        if i >= self.busy.len() {
            self.busy.resize(i + 1, false);
            self.queued.resize_with(i + 1, Default::default);
        }
    }

    fn is_busy(&mut self, t: ThreadId) -> bool {
        self.ensure(t);
        self.busy[t.index()]
    }

    fn enqueue(&mut self, t: ThreadId, op: munin_sim::DsmOp) {
        self.ensure(t);
        self.queued[t.index()].push_back(op);
    }

    /// Mark `t`'s blocked op done and hand back its next queued op, if any.
    fn unblock(&mut self, t: ThreadId) -> Option<munin_sim::DsmOp> {
        self.ensure(t);
        self.busy[t.index()] = false;
        self.queued[t.index()].pop_front()
    }
}

/// Run one application thread's body to completion: catch panics, issue the
/// implicit `Exit` synchronization, decrement the live count, and return the
/// thread's wait table. Shared by the in-process rt world and the tcp
/// coordinator (which hosts every application thread of a distributed run).
pub fn drive_app_thread<P: Send + Sync + Clone + 'static>(
    mut ctx: crate::RtCtx<P>,
    body: Box<dyn FnOnce(&mut crate::RtCtx<P>) + Send>,
) -> munin_sim::report::WaitTable {
    use munin_sim::DsmOp;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let shared = ctx.shared.clone();
    let tid = ctx.thread;
    match catch_unwind(AssertUnwindSafe(|| body(&mut ctx))) {
        Ok(()) => {
            // Graceful exit is itself a synchronization point (flushes the
            // delayed update queue). A panic here means the watchdog tore
            // the run down mid-exit; it already reported.
            let _ = catch_unwind(AssertUnwindSafe(|| ctx.op(DsmOp::Exit)));
        }
        Err(p) => {
            let msg = panic_message(p);
            // Teardown panics raised by RtCtx::op after poisoning are a
            // consequence of the stall, not an application bug — the
            // watchdog already reported the cause.
            if !msg.starts_with("real-time kernel") {
                shared.error(format!("{tid} panicked: {msg}"));
            }
        }
    }
    shared.live.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
    ctx.waits
}

pub(crate) fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Ask a server loop for its `debug_stuck_state` through its inbox,
/// bounded by `timeout` so a wedged (or gone) server cannot hang the
/// requester. Used by the tcp fabric's on-demand/stall dump paths on both
/// ends of the wire.
pub fn request_dump<P>(inbox: &std::sync::mpsc::Sender<NodeEvent<P>>, timeout: Duration) -> String {
    let (tx, rx) = std::sync::mpsc::channel();
    if inbox.send(NodeEvent::DumpTo(tx)).is_err() {
        return "(server loop gone)".into();
    }
    rx.recv_timeout(timeout).unwrap_or_else(|_| "(server loop unresponsive)".into())
}

/// One node's event loop: drain the inbox in bounded batches, hand
/// everything to the server. Single-threaded per node by construction —
/// the concurrency model the protocol servers were written for.
///
/// Each wake-up takes one blocking `recv` then greedily `try_recv`s up to
/// `batch_max` events in total, under a single activity-epoch bump; the
/// step ends by flushing the kernel's coalesced outbound batches (so
/// nothing this step sent can be stranded while the loop blocks again).
/// Returns this node's traffic shard for the world to merge at teardown.
pub fn server_loop<S, L>(
    mut server: S,
    mut kernel: NodeKernel<S::Payload, L>,
    inbox: Receiver<NodeEvent<S::Payload>>,
    batch_max: usize,
) -> munin_net::NetStats
where
    S: Server,
    L: Link<S::Payload>,
{
    let shared = kernel.shared().clone();
    let node = kernel.node_id();
    let batch_max = batch_max.max(1);
    let mut gate = OpGate::default();
    let mut done = false;

    // Feed one thread's op to the server, then keep feeding that thread's
    // queue while ops complete synchronously; a Blocked outcome closes the
    // thread's gate until the protocol calls `complete`.
    fn dispatch<S: Server, L: Link<S::Payload>>(
        server: &mut S,
        kernel: &mut NodeKernel<S::Payload, L>,
        gate: &mut OpGate,
        thread: ThreadId,
        first: munin_sim::DsmOp,
    ) {
        let mut next = Some(first);
        while let Some(op) = next {
            // Gate dispatch *is* the protocol server's handle instant: the
            // span's dispatch timestamp and its server half open here. The
            // matching `srv_finish` happens in the kernel's resume, which
            // both the Done path and `complete` go through.
            kernel.shared().obs.srv_dispatch(thread);
            match server.on_op(kernel, thread, op) {
                OpOutcome::Done { result, cost_us: _ } => {
                    kernel.resume(thread, result);
                    gate.ensure(thread);
                    next = gate.queued[thread.index()].pop_front();
                }
                OpOutcome::Blocked => {
                    gate.ensure(thread);
                    gate.busy[thread.index()] = true;
                    next = None;
                }
            }
        }
    }
    // Hand one protocol message to the server, stamping the op span's home
    // leg first when the message carries one.
    fn on_message<S: Server, L: Link<S::Payload>>(
        server: &mut S,
        kernel: &mut NodeKernel<S::Payload, L>,
        from: NodeId,
        body: MsgBody<S::Payload>,
    ) {
        let obs = &kernel.shared().obs;
        if obs.spans() {
            if let Some(t) = body.payload().span_home_thread() {
                obs.srv_home(t);
            }
        }
        server.on_message(kernel, from, body.into_payload());
    }
    while !done {
        let first = match inbox.recv_timeout(Duration::from_millis(50)) {
            Ok(ev) => ev,
            Err(RecvTimeoutError::Timeout) => {
                // An idle poll is *not* activity — bumping the epoch here
                // would reset the watchdog's stability window every 50 ms
                // and stop it from ever firing on a genuinely stalled run.
                if shared.is_poisoned() {
                    break;
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        };
        // One epoch bump covers the whole drained batch: the watchdog only
        // needs to know the server made progress, not how much.
        shared.mark_activity();
        let mut next = Some(first);
        let mut handled = 0usize;
        while let Some(ev) = next {
            handled += 1;
            match ev {
                NodeEvent::Op(thread, op) => {
                    if gate.is_busy(thread) {
                        gate.enqueue(thread, op);
                    } else {
                        dispatch(&mut server, &mut kernel, &mut gate, thread, op);
                    }
                }
                NodeEvent::Msg(from, body) => on_message(&mut server, &mut kernel, from, body),
                NodeEvent::Batch(from, items) => {
                    // One delivery from one peer step; per-(src,dst) FIFO
                    // is the vector order.
                    for body in items {
                        on_message(&mut server, &mut kernel, from, body);
                    }
                }
                NodeEvent::Timer(token) => server.on_timer(&mut kernel, token),
                NodeEvent::DumpStuck => {
                    let dump = server.debug_stuck_state();
                    if !dump.is_empty() {
                        let msg = format!("[stall dump n{}] {dump}", node.index());
                        if shared.debug_errors {
                            eprintln!("{msg}");
                        }
                        // Captured state is both an error-log diagnostic and
                        // a `RunReport::dumps` entry — the rt fabric used to
                        // fill only the error log, leaving `dumps` a
                        // tcp-only field.
                        shared.dump(msg.clone());
                        shared.errors.lock().expect("error log poisoned").push(msg);
                    }
                }
                NodeEvent::DumpTo(reply) => {
                    // On-demand diagnostics: the caller decides where the
                    // text goes (stderr, the report's dump section, a wire
                    // reply), so nothing lands in the error log here.
                    let _ = reply.send(server.debug_stuck_state());
                }
                NodeEvent::Shutdown => {
                    done = true;
                    break;
                }
            }
            // Settle: any event (a Done op, a protocol message, a timer)
            // can complete other threads' blocked ops; reopen their gates
            // and dispatch what queued behind them — repeatedly, since a
            // dispatched op can itself complete further threads.
            loop {
                let completed = kernel.take_completions();
                if completed.is_empty() {
                    break;
                }
                for t in completed {
                    if let Some(op) = gate.unblock(t) {
                        dispatch(&mut server, &mut kernel, &mut gate, t, op);
                    }
                }
            }
            next = if handled < batch_max { inbox.try_recv().ok() } else { None };
        }
        // Everything the server sent while handling this batch goes out as
        // one channel message per destination, before the loop can block.
        kernel.flush_outbound();
    }
    kernel.take_stats()
}
