//! The application-thread side of the rendezvous.
//!
//! Application code receives a [`ThreadCtx`] and performs blocking DSM
//! operations on it. Each operation is a rendezvous: the thread sends the
//! request to the event loop and parks until the loop resumes it with the
//! result. Exactly one application thread executes at any wall-clock moment,
//! which is what makes runs deterministic.

use crate::op::{DsmOp, OpResult};
use crate::par::OpPort;
use crossbeam_channel::{Receiver, Sender};
use munin_types::{NodeId, ThreadId};

/// What a thread tells the world.
#[derive(Debug)]
pub(crate) enum ThreadReq {
    Op(DsmOp),
    /// The thread body returned (`None`) or panicked (`Some(msg)`).
    Exited(Option<String>),
}

/// Handle through which application code talks to the simulated DSM.
pub struct ThreadCtx {
    pub(crate) thread: ThreadId,
    pub(crate) node: NodeId,
    pub(crate) n_nodes: usize,
    pub(crate) n_threads: usize,
    pub(crate) req_tx: Sender<(ThreadId, ThreadReq)>,
    pub(crate) resume_rx: Receiver<OpResult>,
}

impl ThreadCtx {
    /// This thread's global id.
    pub fn thread_id(&self) -> ThreadId {
        self.thread
    }

    /// The node this thread runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Total nodes in the world.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Total application threads in the world.
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// Issue a raw operation and block until it completes.
    ///
    /// Panics if the simulation kernel went away (deadlock teardown) — the
    /// panic is caught by the thread wrapper and reported as a run error.
    pub fn op(&mut self, op: DsmOp) -> OpResult {
        self.req_tx
            .send((self.thread, ThreadReq::Op(op)))
            .expect("simulation kernel vanished while thread was running");
        self.resume_rx
            .recv()
            .expect("simulation kernel tore down (deadlock?) while thread was blocked")
    }
}

impl OpPort for ThreadCtx {
    fn self_id(&self) -> usize {
        self.thread.index()
    }
    fn n_threads(&self) -> usize {
        self.n_threads
    }
    fn op(&mut self, op: DsmOp) -> OpResult {
        ThreadCtx::op(self, op)
    }
}

#[cfg(test)]
mod tests {
    // ThreadCtx is exercised end-to-end in world.rs tests, and the Par
    // mapping in par.rs; here we only pin down its metadata accessors.
    use super::*;
    use crossbeam_channel::unbounded;

    #[test]
    fn metadata_accessors() {
        let (req_tx, _) = unbounded();
        let (_, resume_rx) = unbounded();
        let ctx = ThreadCtx {
            thread: ThreadId(3),
            node: NodeId(1),
            n_nodes: 4,
            n_threads: 8,
            req_tx,
            resume_rx,
        };
        assert_eq!(ctx.thread_id(), ThreadId(3));
        assert_eq!(ctx.node(), NodeId(1));
        assert_eq!(ctx.n_nodes(), 4);
        assert_eq!(ctx.n_threads(), 8);
    }
}
