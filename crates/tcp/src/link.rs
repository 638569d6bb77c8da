//! [`SocketLink`]: the TCP fabric's link under the one node kernel
//! ([`munin_rt::NodeKernel`]).
//!
//! Remote deliveries serialize protocol payloads into length-prefixed
//! frames on the per-node-pair TCP stream. With coalescing on, everything
//! one server step sends to a destination reaches the link as one batch
//! and leaves as a single
//! [`DataFrame::Batch`](crate::frames::DataFrame::Batch) frame — the
//! kernel's step boundary is where syscalls are coalesced
//! (Nagle-without-the-latency; the sockets themselves run `TCP_NODELAY`).

use crate::frames::{encode_data_batch, encode_data_msg, send_shared, CtrlFrame, SharedWriter};
use crate::frames::{RegReply, RegRequest};
use crate::registry::RegClient;
use crate::wire::Wire;
use munin_obs::SrvSpan;
use munin_rt::{Link, MsgBody, Shared};
use munin_sim::OpResult;
use munin_types::{NodeId, ObjectDecl, ObjectId, SharingType, ThreadId};
use std::sync::atomic::Ordering;
use std::sync::mpsc::Sender;
use std::sync::Arc;

/// Where completed operations resume their thread.
pub enum ResumeSink {
    /// The coordinator process hosts every application thread: resume on
    /// the thread's in-process channel.
    Local(Vec<Sender<OpResult>>),
    /// A child process: the thread lives in the coordinator, so the resume
    /// travels back over the control stream.
    Remote(SharedWriter),
}

/// One node's sockets: the per-pair data-stream writers, the resume path,
/// and the registry service client.
pub struct SocketLink {
    pub(crate) node: NodeId,
    pub(crate) shared: Arc<Shared>,
    /// Per-pair data-stream writers, indexed by destination node
    /// (`None` at our own index).
    pub(crate) peers: Vec<Option<SharedWriter>>,
    /// Reusable frame-encoding buffer.
    pub(crate) scratch: Vec<u8>,
    pub(crate) resumes: ResumeSink,
    pub(crate) registry: RegClient,
}

impl SocketLink {
    /// Write the scratch frame to `dst` (unless encoding already failed),
    /// reporting a dead stream or an unencodable frame exactly once — by
    /// poisoning the run with an error naming the peer — instead of
    /// panicking the server thread.
    fn write_scratch(&mut self, dst: NodeId, encoded: std::io::Result<()>) {
        let Some(w) = &self.peers[dst.index()] else {
            // No writer can only mean a send to our own node index. The
            // other fabrics would deliver it, so dropping silently would
            // turn a protocol change into an unexplained stall — surface
            // it loudly instead.
            self.shared.error(format!(
                "node n{}: dropped a frame addressed to {dst} with no stream (self-send?)",
                self.node.index()
            ));
            return;
        };
        let r =
            encoded.and_then(|()| w.lock().expect("frame writer poisoned").send_raw(&self.scratch));
        if let Err(e) = r {
            self.fail(format!("data stream to peer {dst} failed: {e} — poisoning run"));
        }
    }

    /// Record the first stream failure of the run and poison it.
    fn fail(&self, what: String) {
        if !self.shared.is_poisoned() {
            self.shared.error(format!("node n{}: {what}", self.node.index()));
            self.shared.poisoned.store(true, Ordering::Release);
        }
    }

    /// Report a registry write lost to teardown; the run is already failing.
    fn registry_gone(&self, what: String) {
        self.shared.error(format!(
            "node n{}: registry unavailable for {what} (run tearing down)",
            self.node.index()
        ));
    }
}

impl<P: Wire> Link<P> for SocketLink {
    fn deliver(&mut self, dst: NodeId, body: MsgBody<P>) {
        let encoded = encode_data_msg(&mut self.scratch, body.payload());
        self.write_scratch(dst, encoded);
    }

    fn deliver_batch(&mut self, dst: NodeId, items: Vec<MsgBody<P>>) {
        let encoded = encode_data_batch(&mut self.scratch, items.iter().map(|b| b.payload()));
        self.write_scratch(dst, encoded);
    }

    fn resume(&mut self, thread: ThreadId, result: OpResult, span: Option<SrvSpan>) {
        match &self.resumes {
            // On node 0 the span stays in the coordinator's collector.
            ResumeSink::Local(resumes) => {
                let _ = resumes[thread.index()].send(result);
            }
            // On a child it rides the Resume frame back to the
            // coordinator's span table.
            ResumeSink::Remote(ctrl) => {
                if let Err(e) = send_shared(ctrl, &CtrlFrame::Resume { thread, result, span }) {
                    self.fail(format!("control stream failed while resuming {thread}: {e}"));
                }
            }
        }
    }

    fn register_decl(&mut self, decl: ObjectDecl, home: NodeId) -> ObjectId {
        match self.registry.write(RegRequest::Decl { decl, home }) {
            Some(RegReply::Decl { id, .. }) => id,
            _ => {
                // The sentinel id keeps the (already failing) protocol from
                // dereferencing a real object.
                self.registry_gone("register_decl".into());
                ObjectId(u64::MAX)
            }
        }
    }

    fn retype(&mut self, obj: ObjectId, sharing: SharingType) {
        if self.registry.write(RegRequest::Retype { obj, sharing }).is_none() {
            self.registry_gone(format!("retype of {obj}"));
        }
    }
}
