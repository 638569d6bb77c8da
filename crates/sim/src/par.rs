//! The one application-facing op surface and its single mapping onto
//! [`DsmOp`]s.
//!
//! [`Par`] is the object-safe contract every parallel program is written
//! against: identity, synchronization and raw byte access. A DSM fabric
//! does not implement it method by method. It implements the much smaller
//! [`OpPort`] (issue one [`DsmOp`], blocking or pipelined), and the blanket
//! `impl<C: OpPort> Par for C` below is the only place in the tree where a
//! `Par` call becomes a `DsmOp`. Backends with no op protocol underneath
//! (the native shared-memory backend, in-memory test fakes) implement
//! [`Par`] directly.

use crate::op::{DsmOp, OpResult};
use munin_types::{BarrierId, ByteRange, CondId, LockId, ObjectId, TokenState};

/// What a parallel program may do: shared-object access plus explicit
/// synchronization. DSM fabrics get it through [`OpPort`]; the native
/// backend and test fakes implement it directly.
///
/// Applications should not call the byte-level methods directly — use the
/// typed layer (`munin_api::ParTyped`) through `SharedArray` /
/// `SharedScalar` handles instead.
pub trait Par {
    /// This thread's index (0-based, dense).
    fn self_id(&self) -> usize;
    /// Total threads in the program.
    fn n_threads(&self) -> usize;
    /// Read `range` of a shared object into `out` (`out.len()` must equal
    /// `range.len`). The zero-copy foundation of the typed layer.
    fn read_raw_into(&mut self, obj: ObjectId, range: ByteRange, out: &mut [u8]);
    /// Write `data` at byte offset `start` of a shared object.
    fn write_raw(&mut self, obj: ObjectId, start: u32, data: &[u8]);
    /// Atomic fetch-and-add on the little-endian i64 at `offset`.
    fn fetch_add(&mut self, obj: ObjectId, offset: u32, delta: i64) -> i64;
    fn lock(&mut self, lock: LockId);
    fn unlock(&mut self, lock: LockId);
    fn barrier(&mut self, barrier: BarrierId);
    /// Monitor wait: release `lock`, sleep until signalled, re-acquire.
    /// (Unsupported by the Ivy backend, true to the original system.)
    fn cond_wait(&mut self, cond: CondId, lock: LockId);
    /// Wake one (`broadcast=false`) or all waiters. Caller holds the lock.
    fn cond_signal(&mut self, cond: CondId, broadcast: bool);
    /// Mark a program phase boundary (phase 0 = initialization).
    fn phase(&mut self, phase: u32);
    /// Model `us` microseconds of local computation.
    fn compute(&mut self, us: u64);
    /// Flush this thread's delayed updates (no-op on strict backends).
    fn flush(&mut self);

    /// Read a byte range into a fresh buffer. Allocating shim over
    /// [`Par::read_raw_into`]; backends may override when they already own
    /// a buffer (an op reply does).
    fn read(&mut self, obj: ObjectId, range: ByteRange) -> Vec<u8> {
        let mut out = vec![0u8; range.len as usize];
        self.read_raw_into(obj, range, &mut out);
        out
    }

    /// Write bytes at an offset of a shared object (by-value shim over
    /// [`Par::write_raw`]).
    fn write(&mut self, obj: ObjectId, start: u32, data: Vec<u8>) {
        self.write_raw(obj, start, &data);
    }

    // ---- pipelined (asynchronous) ops -----------------------------------
    //
    // The defaults complete the op immediately and hand back a Ready token,
    // which is the correct degenerate pipelining for backends whose ops
    // already finish inline (the simulator's rendezvous, the native
    // backend). The real-time kernels override these with a genuinely
    // asynchronous issue path bounded by `RtTuning::max_inflight`.

    /// Issue a write without waiting for completion. The op is complete by
    /// the time the returned state is redeemed ([`Par::token_wait`]) or the
    /// next sync point, whichever comes first.
    fn write_raw_async(&mut self, obj: ObjectId, start: u32, data: &[u8]) -> TokenState {
        self.write_raw(obj, start, data);
        TokenState::Ready(0)
    }

    /// Issue an atomic fetch-and-add without waiting; the old value rides
    /// in the redeemed token.
    fn fetch_add_async(&mut self, obj: ObjectId, offset: u32, delta: i64) -> TokenState {
        TokenState::Ready(self.fetch_add(obj, offset, delta))
    }

    /// Redeem a token state: the raw result of its async op. Backends that
    /// never return [`TokenState::Pending`] keep this default.
    fn token_wait(&mut self, state: TokenState) -> i64 {
        redeem_ready(state)
    }

    /// Complete every op this thread has in flight (including any
    /// client-side write-combining buffer). Implicit at every sync point;
    /// a no-op on backends whose ops complete inline.
    fn drain_ops(&mut self) {}
}

/// The token redemption of a backend that completes every op inline.
fn redeem_ready(state: TokenState) -> i64 {
    match state {
        TokenState::Ready(v) => v,
        TokenState::Pending(seq) => {
            panic!("this backend never issued pending token {seq} — token from another ctx?")
        }
    }
}

/// A thread's port into a DSM fabric: issue one [`DsmOp`] and get its
/// [`OpResult`]. Implementing this is all a fabric's thread handle needs to
/// be a [`Par`].
///
/// The pipelined half defaults to inline completion; a fabric with a real
/// asynchronous issue path (the real-time kernel) overrides all three.
pub trait OpPort {
    /// This thread's index (0-based, dense).
    fn self_id(&self) -> usize;
    /// Total threads in the program.
    fn n_threads(&self) -> usize;
    /// Issue `op` and block until it completes.
    fn op(&mut self, op: DsmOp) -> OpResult;

    /// Issue `op` without waiting. The default completes it inline and
    /// unwraps the result exactly as the blocking `Par` call would, so a
    /// failed op panics with the same message on either path.
    fn op_async(&mut self, op: DsmOp) -> TokenState {
        let atomic = matches!(op, DsmOp::AtomicFetchAdd { .. });
        let result = self.op(op);
        TokenState::Ready(if atomic {
            result.into_value()
        } else {
            result.expect_unit();
            0
        })
    }

    /// Redeem a token returned by [`OpPort::op_async`].
    fn token_wait(&mut self, state: TokenState) -> i64 {
        redeem_ready(state)
    }

    /// Complete every op issued through [`OpPort::op_async`].
    fn drain_ops(&mut self) {}
}

/// The single `Par` → `DsmOp` mapping. Writes take the pipelined path so a
/// fabric that combines writes (rt) can; everything else blocks.
impl<C: OpPort> Par for C {
    fn self_id(&self) -> usize {
        OpPort::self_id(self)
    }
    fn n_threads(&self) -> usize {
        OpPort::n_threads(self)
    }
    fn read_raw_into(&mut self, obj: ObjectId, range: ByteRange, out: &mut [u8]) {
        let bytes = self.op(DsmOp::Read { obj, range }).into_bytes();
        assert_eq!(
            out.len(),
            bytes.len(),
            "read_into buffer is {} bytes for a {} byte range",
            out.len(),
            bytes.len()
        );
        out.copy_from_slice(&bytes);
    }
    fn read(&mut self, obj: ObjectId, range: ByteRange) -> Vec<u8> {
        // The op reply already owns a buffer; return it rather than copying
        // into a second one.
        self.op(DsmOp::Read { obj, range }).into_bytes()
    }
    fn write_raw(&mut self, obj: ObjectId, start: u32, data: &[u8]) {
        self.write(obj, start, data.to_vec());
    }
    fn write(&mut self, obj: ObjectId, start: u32, data: Vec<u8>) {
        // Nothing to redeem (unit result): a pipelined write completes by
        // the next blocking op, and a failure there fails closed.
        let range = ByteRange::new(start, data.len() as u32);
        self.op_async(DsmOp::Write { obj, range, data });
    }
    fn write_raw_async(&mut self, obj: ObjectId, start: u32, data: &[u8]) -> TokenState {
        let range = ByteRange::new(start, data.len() as u32);
        self.op_async(DsmOp::Write { obj, range, data: data.to_vec() })
    }
    fn fetch_add(&mut self, obj: ObjectId, offset: u32, delta: i64) -> i64 {
        self.op(DsmOp::AtomicFetchAdd { obj, offset, delta }).into_value()
    }
    fn fetch_add_async(&mut self, obj: ObjectId, offset: u32, delta: i64) -> TokenState {
        self.op_async(DsmOp::AtomicFetchAdd { obj, offset, delta })
    }
    fn lock(&mut self, lock: LockId) {
        self.op(DsmOp::Lock(lock)).expect_unit();
    }
    fn unlock(&mut self, lock: LockId) {
        self.op(DsmOp::Unlock(lock)).expect_unit();
    }
    fn barrier(&mut self, barrier: BarrierId) {
        self.op(DsmOp::BarrierWait(barrier)).expect_unit();
    }
    fn cond_wait(&mut self, cond: CondId, lock: LockId) {
        self.op(DsmOp::CondWait { cond, lock }).expect_unit();
    }
    fn cond_signal(&mut self, cond: CondId, broadcast: bool) {
        self.op(DsmOp::CondSignal { cond, broadcast }).expect_unit();
    }
    fn phase(&mut self, phase: u32) {
        self.op(DsmOp::Phase(phase)).expect_unit();
    }
    fn compute(&mut self, us: u64) {
        self.op(DsmOp::Compute(us)).expect_unit();
    }
    fn flush(&mut self) {
        self.op(DsmOp::Flush).expect_unit();
    }
    fn token_wait(&mut self, state: TokenState) -> i64 {
        OpPort::token_wait(self, state)
    }
    fn drain_ops(&mut self) {
        OpPort::drain_ops(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use munin_types::DsmError;

    /// Which `OpPort` entry point an op went through.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Path {
        Blocking,
        Pipelined,
    }

    /// An op port that records every op and answers it with a canned
    /// result of the right shape (or `fail` for every op, when set).
    #[derive(Default)]
    struct Recorder {
        issued: Vec<(Path, DsmOp)>,
        fail: Option<DsmError>,
    }

    impl Recorder {
        fn answer(&mut self, path: Path, op: DsmOp) -> OpResult {
            let result = match (&self.fail, &op) {
                (Some(e), _) => OpResult::Err(e.clone()),
                (None, DsmOp::Read { range, .. }) => OpResult::Bytes(vec![7; range.len as usize]),
                (None, DsmOp::AtomicFetchAdd { .. }) => OpResult::Value(41),
                (None, _) => OpResult::Unit,
            };
            self.issued.push((path, op));
            result
        }

        /// Run `call` and return the one op it issued.
        fn single(call: impl FnOnce(&mut Recorder)) -> (Path, DsmOp) {
            let mut port = Recorder::default();
            call(&mut port);
            assert_eq!(port.issued.len(), 1, "one Par call issues exactly one op");
            port.issued.pop().unwrap()
        }
    }

    impl OpPort for Recorder {
        fn self_id(&self) -> usize {
            2
        }
        fn n_threads(&self) -> usize {
            5
        }
        fn op(&mut self, op: DsmOp) -> OpResult {
            self.answer(Path::Blocking, op)
        }
        fn op_async(&mut self, op: DsmOp) -> TokenState {
            match self.answer(Path::Pipelined, op) {
                OpResult::Value(v) => TokenState::Ready(v),
                _ => TokenState::Ready(0),
            }
        }
    }

    #[test]
    fn every_par_call_maps_to_one_dsm_op() {
        use Path::{Blocking, Pipelined};
        let (o, l, b, c) = (ObjectId(5), LockId(1), BarrierId(2), CondId(3));
        let w = |data: Vec<u8>| DsmOp::Write { obj: o, range: ByteRange::new(8, 3), data };
        let r = ByteRange::new(4, 2);
        let cases: Vec<(&str, fn(&mut Recorder), Path, DsmOp)> = vec![
            (
                "read_raw_into",
                |p| p.read_raw_into(ObjectId(5), ByteRange::new(4, 2), &mut [0; 2]),
                Blocking,
                DsmOp::Read { obj: o, range: r },
            ),
            (
                "read",
                |p| assert_eq!(p.read(ObjectId(5), ByteRange::new(4, 2)), vec![7, 7]),
                Blocking,
                DsmOp::Read { obj: o, range: r },
            ),
            // The range comes from the data length on every write flavour.
            ("write_raw", |p| p.write_raw(ObjectId(5), 8, &[1, 2, 3]), Pipelined, w(vec![1, 2, 3])),
            ("write", |p| p.write(ObjectId(5), 8, vec![4, 5, 6]), Pipelined, w(vec![4, 5, 6])),
            (
                "write_raw_async",
                |p| assert_eq!(p.write_raw_async(ObjectId(5), 8, &[9; 3]), TokenState::Ready(0)),
                Pipelined,
                w(vec![9; 3]),
            ),
            (
                "fetch_add",
                |p| assert_eq!(p.fetch_add(ObjectId(5), 16, -2), 41),
                Blocking,
                DsmOp::AtomicFetchAdd { obj: o, offset: 16, delta: -2 },
            ),
            (
                "fetch_add_async",
                |p| assert_eq!(p.fetch_add_async(ObjectId(5), 16, 3), TokenState::Ready(41)),
                Pipelined,
                DsmOp::AtomicFetchAdd { obj: o, offset: 16, delta: 3 },
            ),
            ("lock", |p| p.lock(LockId(1)), Blocking, DsmOp::Lock(l)),
            ("unlock", |p| p.unlock(LockId(1)), Blocking, DsmOp::Unlock(l)),
            ("barrier", |p| p.barrier(BarrierId(2)), Blocking, DsmOp::BarrierWait(b)),
            (
                "cond_wait",
                |p| p.cond_wait(CondId(3), LockId(1)),
                Blocking,
                DsmOp::CondWait { cond: c, lock: l },
            ),
            (
                "cond_signal",
                |p| p.cond_signal(CondId(3), false),
                Blocking,
                DsmOp::CondSignal { cond: c, broadcast: false },
            ),
            (
                "cond_signal broadcast",
                |p| p.cond_signal(CondId(3), true),
                Blocking,
                DsmOp::CondSignal { cond: c, broadcast: true },
            ),
            ("phase", |p| p.phase(4), Blocking, DsmOp::Phase(4)),
            ("compute", |p| p.compute(250), Blocking, DsmOp::Compute(250)),
            ("flush", |p| p.flush(), Blocking, DsmOp::Flush),
        ];
        for (name, call, path, op) in cases {
            assert_eq!(Recorder::single(call), (path, op), "Par::{name}");
        }
    }

    #[test]
    fn identity_and_token_calls_issue_no_ops() {
        let mut port = Recorder::default();
        assert_eq!(Par::self_id(&port), 2);
        assert_eq!(Par::n_threads(&port), 5);
        assert_eq!(Par::token_wait(&mut port, TokenState::Ready(9)), 9);
        Par::drain_ops(&mut port);
        assert!(port.issued.is_empty());
    }

    /// The inline `op_async` default unwraps like the blocking call, so a
    /// failed op keeps its blocking-path panic message.
    struct Inline(Recorder);

    impl OpPort for Inline {
        fn self_id(&self) -> usize {
            0
        }
        fn n_threads(&self) -> usize {
            1
        }
        fn op(&mut self, op: DsmOp) -> OpResult {
            self.0.op(op)
        }
    }

    fn failing() -> Inline {
        Inline(Recorder { issued: Vec::new(), fail: Some(DsmError::UnknownObject(ObjectId(5))) })
    }

    #[test]
    fn inline_async_completes_through_the_blocking_op() {
        let mut port = Inline(Recorder::default());
        assert_eq!(port.fetch_add_async(ObjectId(5), 0, 1), TokenState::Ready(41));
        assert_eq!(port.write_raw_async(ObjectId(5), 0, &[1]), TokenState::Ready(0));
        let paths: Vec<Path> = port.0.issued.iter().map(|(p, _)| *p).collect();
        assert_eq!(paths, [Path::Blocking, Path::Blocking]);
    }

    #[test]
    #[should_panic(expected = "DSM op failed")]
    fn inline_async_write_failure_panics_like_a_blocking_write() {
        failing().write_raw(ObjectId(5), 0, &[1]);
    }

    #[test]
    #[should_panic(expected = "DSM atomic failed")]
    fn inline_async_fetch_add_failure_panics_like_a_blocking_atomic() {
        failing().fetch_add_async(ObjectId(5), 0, 1);
    }

    #[test]
    #[should_panic(expected = "never issued pending token 3")]
    fn inline_backend_rejects_a_pending_token() {
        Par::token_wait(&mut Inline(Recorder::default()), TokenState::Pending(3));
    }
}
