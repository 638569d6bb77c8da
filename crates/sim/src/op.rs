//! The operations an application thread can request from its node's DSM
//! server, and the results it gets back.
//!
//! This is the boundary that replaces the paper's page-fault trap: every
//! shared access funnels through one of these operations, and the node
//! server's fault handlers see exactly what a VM-based implementation's
//! handlers would see (object, byte range, read/write).

use munin_types::{BarrierId, ByteRange, CondId, DsmError, LockId, ObjectDecl, ObjectId};

/// One request from an application thread to the DSM runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum DsmOp {
    /// Dynamically allocate a shared object (setup-time allocation goes
    /// through the same path before threads start).
    Alloc(ObjectDecl),
    /// Read `range` of `obj`; resolves to [`OpResult::Bytes`].
    Read { obj: ObjectId, range: ByteRange },
    /// Write `data` at `range.start` of `obj` (`data.len() == range.len`).
    Write { obj: ObjectId, range: ByteRange, data: Vec<u8> },
    /// Atomic fetch-and-add on an 8-byte little-endian integer at `offset`.
    /// Used for distributed counters and work-queue indices; resolves to the
    /// *previous* value as [`OpResult::Value`].
    AtomicFetchAdd { obj: ObjectId, offset: u32, delta: i64 },
    /// Acquire a distributed lock (blocks until granted).
    Lock(LockId),
    /// Release a distributed lock.
    Unlock(LockId),
    /// Wait at a barrier until all participants arrive.
    BarrierWait(BarrierId),
    /// Release the lock and wait on the condition variable (monitor-style);
    /// re-acquires the lock before returning.
    CondWait { cond: CondId, lock: LockId },
    /// Wake one (or all) waiters of a condition variable. The caller must
    /// hold the associated monitor lock.
    CondSignal { cond: CondId, broadcast: bool },
    /// Flush this thread's delayed update queue without synchronizing.
    Flush,
    /// Mark a program phase boundary; phase 0 is initialization. Consumed by
    /// the tracer (the study's init-vs-compute split) and by the write-once
    /// protocol (publication point).
    Phase(u32),
    /// Pure computation costing `us` of virtual time; no DSM interaction.
    Compute(u64),
    /// Thread termination. Sent automatically when the thread body returns
    /// (or panics — the panic flag is carried in the wrapper, not here).
    Exit,
}

impl DsmOp {
    /// Is this one of the explicit synchronization operations that flush the
    /// delayed update queue? ("the delayed update queue must be flushed
    /// whenever a thread synchronizes", including thread exit.)
    pub fn is_synchronizing(&self) -> bool {
        matches!(
            self,
            DsmOp::Lock(_)
                | DsmOp::Unlock(_)
                | DsmOp::BarrierWait(_)
                | DsmOp::CondWait { .. }
                | DsmOp::CondSignal { .. }
                | DsmOp::Flush
                | DsmOp::Exit
        )
    }

    /// Short label for traces.
    pub fn label(&self) -> &'static str {
        match self {
            DsmOp::Alloc(_) => "alloc",
            DsmOp::Read { .. } => "read",
            DsmOp::Write { .. } => "write",
            DsmOp::AtomicFetchAdd { .. } => "fetch-add",
            DsmOp::Lock(_) => "lock",
            DsmOp::Unlock(_) => "unlock",
            DsmOp::BarrierWait(_) => "barrier",
            DsmOp::CondWait { .. } => "cond-wait",
            DsmOp::CondSignal { .. } => "cond-signal",
            DsmOp::Flush => "flush",
            DsmOp::Phase(_) => "phase",
            DsmOp::Compute(_) => "compute",
            DsmOp::Exit => "exit",
        }
    }
}

/// Completion value of a [`DsmOp`].
#[derive(Debug, Clone, PartialEq)]
pub enum OpResult {
    Unit,
    Bytes(Vec<u8>),
    Value(i64),
    Object(ObjectId),
    Err(DsmError),
}

impl OpResult {
    /// Unwrap bytes; panics (with the runtime error if present) otherwise.
    pub fn into_bytes(self) -> Vec<u8> {
        match self {
            OpResult::Bytes(b) => b,
            OpResult::Err(e) => panic!("DSM read failed: {e}"),
            other => panic!("expected bytes, got {other:?}"),
        }
    }

    pub fn into_value(self) -> i64 {
        match self {
            OpResult::Value(v) => v,
            OpResult::Err(e) => panic!("DSM atomic failed: {e}"),
            other => panic!("expected value, got {other:?}"),
        }
    }

    pub fn into_object(self) -> ObjectId {
        match self {
            OpResult::Object(o) => o,
            OpResult::Err(e) => panic!("DSM alloc failed: {e}"),
            other => panic!("expected object id, got {other:?}"),
        }
    }

    /// Panic if this result is an error (for unit-valued ops).
    pub fn expect_unit(self) {
        match self {
            OpResult::Unit => {}
            OpResult::Err(e) => panic!("DSM op failed: {e}"),
            other => panic!("expected unit, got {other:?}"),
        }
    }

    pub fn err(&self) -> Option<&DsmError> {
        match self {
            OpResult::Err(e) => Some(e),
            _ => None,
        }
    }
}

/// What the server tells the kernel after seeing an op.
#[derive(Debug)]
pub enum OpOutcome {
    /// The op finished locally: resume the thread after `cost_us` of virtual
    /// time with `result`.
    Done { result: OpResult, cost_us: u64 },
    /// The op needs remote interaction (or must wait for a lock/barrier);
    /// the server will call [`crate::KernelApi::complete`] later.
    Blocked,
}

impl OpOutcome {
    pub fn done(result: OpResult, cost_us: u64) -> Self {
        OpOutcome::Done { result, cost_us }
    }

    pub fn unit(cost_us: u64) -> Self {
        OpOutcome::Done { result: OpResult::Unit, cost_us }
    }

    pub fn fail(err: DsmError) -> Self {
        OpOutcome::Done { result: OpResult::Err(err), cost_us: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use munin_types::NodeId;
    use munin_types::SharingType;

    #[test]
    fn synchronizing_ops() {
        assert!(DsmOp::Lock(LockId(0)).is_synchronizing());
        assert!(DsmOp::Unlock(LockId(0)).is_synchronizing());
        assert!(DsmOp::BarrierWait(BarrierId(0)).is_synchronizing());
        assert!(DsmOp::Exit.is_synchronizing());
        assert!(DsmOp::Flush.is_synchronizing());
        assert!(!DsmOp::Read { obj: ObjectId(0), range: ByteRange::new(0, 4) }.is_synchronizing());
        assert!(!DsmOp::Compute(10).is_synchronizing());
        assert!(!DsmOp::Phase(1).is_synchronizing());
    }

    #[test]
    fn result_unwrappers() {
        assert_eq!(OpResult::Bytes(vec![1, 2]).into_bytes(), vec![1, 2]);
        assert_eq!(OpResult::Value(-3).into_value(), -3);
        assert_eq!(OpResult::Object(ObjectId(9)).into_object(), ObjectId(9));
        OpResult::Unit.expect_unit();
    }

    #[test]
    #[should_panic(expected = "DSM read failed")]
    fn error_result_panics_with_context() {
        OpResult::Err(DsmError::UnknownObject(ObjectId(1))).into_bytes();
    }

    #[test]
    fn alloc_label() {
        let decl = ObjectDecl::new(ObjectId(0), "x", 8, SharingType::WriteMany, NodeId(0));
        assert_eq!(DsmOp::Alloc(decl).label(), "alloc");
    }
}
