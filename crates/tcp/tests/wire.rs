//! Round-trip property tests for the wire codec: `decode(encode(x)) == x`
//! for **every** `MuninMsg`, `IvyMsg` and `TardisMsg` variant, for batch
//! frames (including payloads that travel behind a multicast's shared
//! `Arc`), for the control-plane vocabulary, and for boundary-shaped
//! diffs. Corrupt and truncated inputs must fail as `WireError`s, never
//! panic.

use munin_core::{MuninMsg, UpdateItem};
use munin_ivy::IvyMsg;
use munin_mem::{Diff, PageId};
use munin_rt::MsgBody;
use munin_sim::{DsmOp, OpResult};
use munin_tardis::TardisMsg;
use munin_tcp::frames::{
    encode_data_batch, encode_data_msg, CtrlFrame, DataFrame, RegReply, RegRequest, StartConfig,
    TestFault,
};
use munin_tcp::wire::{ProtoTag, Wire};
use munin_types::{
    BarrierId, ByteRange, CondId, DsmError, IvyConfig, LockId, MuninConfig, NodeId, ObjectDecl,
    ObjectId, SharingType, SyncDecls, TardisConfig, ThreadId,
};
use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

const MUNIN_VARIANTS: usize = 32;
const IVY_VARIANTS: usize = 15;
const TARDIS_VARIANTS: usize = 13;
const DSMOP_VARIANTS: usize = 13;

fn arb_bytes(rng: &mut SmallRng, max: usize) -> Vec<u8> {
    let n = rng.gen_range(0..=max);
    (0..n).map(|_| rng.gen_range(0..=255u64) as u8).collect()
}

fn arb_diff(rng: &mut SmallRng) -> Diff {
    let mut d = Diff::default();
    let mut start = rng.gen_range(0u64..1024) as u32;
    for _ in 0..rng.gen_range(0u64..5) {
        let len = rng.gen_range(1u64..64) as u32;
        let bytes: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        assert!(d.append_run(start, &bytes));
        // Leave a gap so runs stay non-adjacent (the canonical layout).
        start += len + rng.gen_range(1u64..32) as u32;
    }
    d
}

fn arb_items(rng: &mut SmallRng) -> Vec<UpdateItem> {
    (0..rng.gen_range(0u64..4))
        .map(|i| UpdateItem { obj: ObjectId(i), diff: Arc::new(arb_diff(rng)) })
        .collect()
}

fn arb_obj(rng: &mut SmallRng) -> ObjectId {
    ObjectId(rng.gen_range(0u64..u64::MAX))
}

fn arb_page(rng: &mut SmallRng) -> Option<u32> {
    rng.gen_bool(0.5).then(|| rng.gen_range(0u64..4096) as u32)
}

fn arb_munin(rng: &mut SmallRng, variant: usize) -> MuninMsg {
    let obj = arb_obj(rng);
    match variant % MUNIN_VARIANTS {
        0 => MuninMsg::ReadReq { obj, page: arb_page(rng) },
        1 => MuninMsg::ReadReply {
            obj,
            page: arb_page(rng),
            data: arb_bytes(rng, 512),
            install: rng.gen_bool(0.5),
            confirm: rng.gen_bool(0.5),
        },
        2 => MuninMsg::ReadConfirm { obj },
        3 => MuninMsg::FwdRead { obj, requester: NodeId(rng.gen_range(0u64..16) as u16) },
        4 => MuninMsg::WriteReq { obj },
        5 => MuninMsg::OwnerYield { obj },
        6 => MuninMsg::OwnerData { obj, data: arb_bytes(rng, 512) },
        7 => MuninMsg::OwnerGrant { obj, data: rng.gen_bool(0.5).then(|| arb_bytes(rng, 512)) },
        8 => MuninMsg::Inval { obj, session: rng.gen_bool(0.5).then(|| rng.gen_range(0u64..1000)) },
        9 => MuninMsg::InvalAck { obj, session: rng.gen_range(0u64..1000) },
        10 => MuninMsg::MigrateReq { obj },
        11 => MuninMsg::MigrateYield { obj, requester: NodeId(rng.gen_range(0u64..16) as u16) },
        12 => MuninMsg::MigrateData { obj, data: arb_bytes(rng, 512) },
        13 => MuninMsg::MigrateNotify { obj },
        14 => MuninMsg::FlushIn { session: rng.gen_range(0u64..1000), items: arb_items(rng) },
        15 => MuninMsg::FlushOut { session: rng.gen_range(0u64..1000), items: arb_items(rng) },
        16 => MuninMsg::FlushInval {
            session: rng.gen_range(0u64..1000),
            objs: (0..rng.gen_range(0u64..5)).map(ObjectId).collect(),
        },
        17 => MuninMsg::FlushOutAck {
            session: rng.gen_range(0u64..1000),
            used: (0..rng.gen_range(0u64..5)).map(|i| (ObjectId(i), i % 2 == 0)).collect(),
        },
        18 => MuninMsg::FlushDone { session: rng.gen_range(0u64..1000) },
        19 => MuninMsg::Eager { items: arb_items(rng) },
        20 => MuninMsg::EagerOut { items: arb_items(rng) },
        21 => MuninMsg::AtomicReq {
            obj,
            offset: rng.gen_range(0u64..4096) as u32,
            delta: rng.gen_range(-1000i64..1000),
            thread: ThreadId(rng.gen_range(0u64..64) as u32),
        },
        22 => MuninMsg::AtomicReply {
            thread: ThreadId(rng.gen_range(0u64..64) as u32),
            old: rng.gen_range(-1000i64..1000),
        },
        23 => MuninMsg::LockReq { lock: LockId(rng.gen_range(0u64..32) as u32) },
        24 => MuninMsg::LockFetch {
            lock: LockId(rng.gen_range(0u64..32) as u32),
            to: NodeId(rng.gen_range(0u64..16) as u16),
        },
        25 => MuninMsg::LockPass {
            lock: LockId(rng.gen_range(0u64..32) as u32),
            piggyback: (0..rng.gen_range(0u64..3))
                .map(|i| (ObjectId(i), arb_bytes(rng, 128)))
                .collect(),
        },
        26 => MuninMsg::LockNotify { lock: LockId(rng.gen_range(0u64..32) as u32) },
        27 => MuninMsg::BarrierArrive {
            barrier: BarrierId(rng.gen_range(0u64..8) as u32),
            threads: rng.gen_range(1u64..16) as u32,
        },
        28 => MuninMsg::BarrierRelease { barrier: BarrierId(rng.gen_range(0u64..8) as u32) },
        29 => MuninMsg::CvWait {
            cond: CondId(rng.gen_range(0u64..8) as u32),
            thread: ThreadId(rng.gen_range(0u64..64) as u32),
        },
        30 => MuninMsg::CvSignal {
            cond: CondId(rng.gen_range(0u64..8) as u32),
            broadcast: rng.gen_bool(0.5),
        },
        _ => MuninMsg::CvWake {
            cond: CondId(rng.gen_range(0u64..8) as u32),
            thread: ThreadId(rng.gen_range(0u64..64) as u32),
        },
    }
}

fn arb_ivy(rng: &mut SmallRng, variant: usize) -> IvyMsg {
    let page = PageId(rng.gen_range(0u64..1 << 20));
    match variant % IVY_VARIANTS {
        0 => IvyMsg::RReq { page },
        1 => IvyMsg::FwdRead { page, requester: NodeId(rng.gen_range(0u64..16) as u16) },
        2 => IvyMsg::PData { page, data: arb_bytes(rng, 1024), confirm: rng.gen_bool(0.5) },
        3 => IvyMsg::RConfirm { page },
        4 => IvyMsg::WReq { page },
        5 => IvyMsg::Yield { page },
        6 => IvyMsg::YieldData { page, data: arb_bytes(rng, 1024) },
        7 => IvyMsg::Inval { page },
        8 => IvyMsg::InvalAck { page },
        9 => IvyMsg::Grant { page, data: rng.gen_bool(0.5).then(|| arb_bytes(rng, 1024)) },
        10 => IvyMsg::CLockReq {
            lock: LockId(rng.gen_range(0u64..32) as u32),
            thread: ThreadId(rng.gen_range(0u64..64) as u32),
        },
        11 => IvyMsg::CLockGrant { thread: ThreadId(rng.gen_range(0u64..64) as u32) },
        12 => IvyMsg::CUnlock { lock: LockId(rng.gen_range(0u64..32) as u32) },
        13 => IvyMsg::CBarrierArrive {
            barrier: BarrierId(rng.gen_range(0u64..8) as u32),
            threads: rng.gen_range(1u64..16) as u32,
        },
        _ => IvyMsg::CBarrierRelease { barrier: BarrierId(rng.gen_range(0u64..8) as u32) },
    }
}

fn arb_tardis(rng: &mut SmallRng, variant: usize) -> TardisMsg {
    let obj = arb_obj(rng);
    let thread = ThreadId(rng.gen_range(0u64..64) as u32);
    let pts = rng.gen_range(0u64..u64::MAX);
    match variant % TARDIS_VARIANTS {
        0 => TardisMsg::ReadReq { obj, thread, pts },
        1 => TardisMsg::ReadReply {
            thread,
            obj,
            data: arb_bytes(rng, 1024),
            wts: rng.gen_range(0u64..u64::MAX),
            rts: rng.gen_range(0u64..u64::MAX),
        },
        2 => TardisMsg::RenewReq { obj, thread, pts, have_wts: rng.gen_range(0u64..u64::MAX) },
        3 => TardisMsg::RenewAck {
            thread,
            obj,
            wts: rng.gen_range(0u64..u64::MAX),
            rts: rng.gen_range(0u64..u64::MAX),
        },
        4 => {
            let data = arb_bytes(rng, 1024);
            TardisMsg::WriteReq {
                obj,
                range: ByteRange::new(rng.gen_range(0u64..1024) as u32, data.len() as u32),
                data,
                thread,
                pts,
            }
        }
        5 => TardisMsg::WriteAck { thread, wts: rng.gen_range(0u64..u64::MAX) },
        6 => TardisMsg::AtomicReq {
            obj,
            offset: rng.gen_range(0u64..1024) as u32,
            delta: rng.gen_range(-100i64..100),
            thread,
            pts,
        },
        7 => TardisMsg::AtomicReply {
            thread,
            old: rng.gen_range(i64::MIN..i64::MAX),
            wts: rng.gen_range(0u64..u64::MAX),
        },
        8 => TardisMsg::LockReq { lock: LockId(rng.gen_range(0u64..32) as u32), thread, pts },
        9 => TardisMsg::LockGrant { thread, ts: rng.gen_range(0u64..u64::MAX) },
        10 => TardisMsg::Unlock { lock: LockId(rng.gen_range(0u64..32) as u32), pts },
        11 => TardisMsg::BarrierArrive {
            barrier: BarrierId(rng.gen_range(0u64..8) as u32),
            threads: rng.gen_range(1u64..16) as u32,
            pts,
        },
        _ => TardisMsg::BarrierRelease { barrier: BarrierId(rng.gen_range(0u64..8) as u32), pts },
    }
}

fn arb_decl(rng: &mut SmallRng) -> ObjectDecl {
    let sharing = SharingType::ALL[rng.gen_range(0u64..SharingType::ALL.len() as u64) as usize];
    let mut d = ObjectDecl::new(
        arb_obj(rng),
        format!("obj-{}", rng.gen_range(0u64..100)),
        rng.gen_range(1u64..1 << 20) as u32,
        sharing,
        NodeId(rng.gen_range(0u64..16) as u16),
    );
    if rng.gen_bool(0.3) {
        d.associated_lock = Some(LockId(rng.gen_range(0u64..32) as u32));
    }
    d.eager = rng.gen_bool(0.3);
    d
}

fn arb_dsmop(rng: &mut SmallRng, variant: usize) -> DsmOp {
    let obj = arb_obj(rng);
    match variant % DSMOP_VARIANTS {
        0 => DsmOp::Alloc(arb_decl(rng)),
        1 => DsmOp::Read { obj, range: ByteRange::new(rng.gen_range(0u64..100) as u32, 8) },
        2 => {
            let data = arb_bytes(rng, 128);
            DsmOp::Write {
                obj,
                range: ByteRange::new(rng.gen_range(0u64..100) as u32, data.len() as u32),
                data,
            }
        }
        3 => DsmOp::AtomicFetchAdd {
            obj,
            offset: rng.gen_range(0u64..100) as u32,
            delta: rng.gen_range(-5i64..5),
        },
        4 => DsmOp::Lock(LockId(rng.gen_range(0u64..32) as u32)),
        5 => DsmOp::Unlock(LockId(rng.gen_range(0u64..32) as u32)),
        6 => DsmOp::BarrierWait(BarrierId(rng.gen_range(0u64..8) as u32)),
        7 => DsmOp::CondWait {
            cond: CondId(rng.gen_range(0u64..8) as u32),
            lock: LockId(rng.gen_range(0u64..32) as u32),
        },
        8 => DsmOp::CondSignal {
            cond: CondId(rng.gen_range(0u64..8) as u32),
            broadcast: rng.gen_bool(0.5),
        },
        9 => DsmOp::Flush,
        10 => DsmOp::Phase(rng.gen_range(0u64..10) as u32),
        11 => DsmOp::Compute(rng.gen_range(0u64..1000)),
        _ => DsmOp::Exit,
    }
}

fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
    let bytes = v.encode();
    let back = T::decode(&bytes).expect("decode of a just-encoded value");
    assert_eq!(&back, v);
}

proptest! {
    /// Every `MuninMsg` variant survives frame encode → decode untouched
    /// (each case sweeps all 32 variants with fresh random fields).
    #[test]
    fn munin_msg_roundtrips(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for variant in 0..MUNIN_VARIANTS {
            let msg = arb_munin(&mut rng, variant);
            roundtrip(&msg);
            roundtrip(&DataFrame::Msg(msg));
        }
    }

    /// Every `IvyMsg` variant likewise.
    #[test]
    fn ivy_msg_roundtrips(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for variant in 0..IVY_VARIANTS {
            let msg = arb_ivy(&mut rng, variant);
            roundtrip(&msg);
            roundtrip(&DataFrame::Msg(msg));
        }
    }

    /// Every `TardisMsg` variant likewise — timestamps sweep the full u64
    /// range so lease arithmetic at the edges still has a faithful wire
    /// form.
    #[test]
    fn tardis_msg_roundtrips(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for variant in 0..TARDIS_VARIANTS {
            let msg = arb_tardis(&mut rng, variant);
            roundtrip(&msg);
            roundtrip(&DataFrame::Msg(msg));
        }
    }

    /// Batch frames — the wire form of `NodeEvent::Batch` — round-trip for
    /// arbitrary mixed-variant contents, and the zero-copy encode path from
    /// `MsgBody::Shared` (multicast payloads behind one `Arc`) produces
    /// byte-identical frames to encoding owned payloads.
    #[test]
    fn batch_frames_roundtrip_including_shared_payloads(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(1u64..8) as usize;
        let msgs: Vec<MuninMsg> = (0..n)
            .map(|i| {
                let variant = rng.gen_range(0u64..999) as usize + i;
                arb_munin(&mut rng, variant)
            })
            .collect();
        let frame = DataFrame::Batch(msgs.clone());
        roundtrip(&frame);

        // The kernel's encode path: a mix of owned and Arc-shared bodies.
        let bodies: Vec<MsgBody<MuninMsg>> = msgs
            .iter()
            .enumerate()
            .map(|(i, m)| {
                if i % 2 == 0 {
                    MsgBody::Owned(m.clone())
                } else {
                    MsgBody::Shared(Arc::new(m.clone()))
                }
            })
            .collect();
        let mut from_bodies = Vec::new();
        encode_data_batch(&mut from_bodies, bodies.iter().map(|b| b.payload()))
            .expect("batch under the frame cap");
        let mut reference = Vec::new();
        reference.extend_from_slice(&(frame.encode().len() as u32).to_le_bytes());
        reference.extend_from_slice(&frame.encode());
        prop_assert_eq!(from_bodies, reference);
    }

    /// Application operations and results (the forwarded-op control plane).
    #[test]
    fn ops_and_results_roundtrip(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for variant in 0..DSMOP_VARIANTS {
            roundtrip(&arb_dsmop(&mut rng, variant));
        }
        roundtrip(&OpResult::Unit);
        roundtrip(&OpResult::Bytes(arb_bytes(&mut rng, 256)));
        roundtrip(&OpResult::Value(rng.gen_range(i64::MIN..i64::MAX)));
        roundtrip(&OpResult::Object(arb_obj(&mut rng)));
        roundtrip(&OpResult::Err(DsmError::OutOfBounds {
            obj: arb_obj(&mut rng),
            range: ByteRange::new(4, 16),
            size: 8,
        }));
        roundtrip(&OpResult::Err(DsmError::SharingViolation {
            obj: arb_obj(&mut rng),
            sharing: SharingType::WriteOnce,
            detail: "already published",
        }));
        roundtrip(&OpResult::Err(DsmError::Internal("x".into())));
    }

    /// Diffs of arbitrary write patterns round-trip exactly (run table,
    /// payload bytes, and wire-size accounting all preserved).
    #[test]
    fn diffs_roundtrip(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let size = rng.gen_range(16u64..512) as usize;
        let old: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        let mut new = old.clone();
        for _ in 0..rng.gen_range(0u64..10) {
            let at = rng.gen_range(0u64..size as u64) as usize;
            new[at] = new[at].wrapping_add(rng.gen_range(1u64..255) as u8);
        }
        let d = Diff::between(&old, &new);
        let back = Diff::decode(&d.encode()).expect("diff decode");
        assert_eq!(back, d);
        assert_eq!(back.wire_bytes(), d.wire_bytes());
    }
}

/// The largest legal diff shapes: a run ending exactly at the u32 boundary,
/// and a megabyte-sized single-run payload (a whole-object overwrite).
#[test]
fn max_size_diffs_roundtrip() {
    let mut d = Diff::default();
    let tail = vec![0xabu8; 100];
    assert!(d.append_run(u32::MAX - 100, &tail), "run ending at u32::MAX is legal");
    roundtrip(&d);

    let big = Diff::overwrite(ByteRange::new(0, 1 << 20), vec![0x5au8; 1 << 20]);
    let bytes = big.encode();
    assert!(bytes.len() >= 1 << 20);
    assert_eq!(Diff::decode(&bytes).expect("big diff decode"), big);

    // One byte past the boundary is rejected, not wrapped.
    let mut over = Diff::default();
    assert!(!over.append_run(u32::MAX - 99, &tail), "run crossing u32::MAX must be rejected");
}

/// Control-plane vocabulary round-trips, including a fully-populated
/// `StartConfig` for each protocol. The start frame carries the protocol
/// config as an opaque byte blob behind a tag, so the fabric never learns
/// the config types — here we check the blob survives and decodes back to
/// the original config on the far side, exactly as `run_proto_node` does.
#[test]
fn control_frames_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(7);
    for f in sample_ctrl_frames(&mut rng) {
        roundtrip(&f);
    }
}

/// One of every control frame, with a `Start` per protocol.
fn sample_ctrl_frames(rng: &mut SmallRng) -> Vec<CtrlFrame> {
    let decls: Vec<ObjectDecl> = (0..6).map(|_| arb_decl(rng)).collect();
    let mut frames = Vec::new();
    let protos: [(u8, Vec<u8>); 3] = [
        (0, MuninConfig::default().encode()),
        (1, IvyConfig::default().encode()),
        (2, TardisConfig::default().encode()),
    ];
    for (tag, proto_cfg) in protos {
        let start = StartConfig {
            node: NodeId(2),
            n_nodes: 4,
            proto_tag: ProtoTag(tag),
            proto_cfg,
            decls: decls.clone(),
            sync: SyncDecls::round_robin(3, 2, 4, 4),
            batch_max: 128,
            coalesce: true,
            heartbeat: Duration::from_millis(25),
            peers: vec![(NodeId(0), 4000), (NodeId(1), 4001), (NodeId(2), 4002)],
            test_fault: Some(TestFault::HalfClose {
                node: NodeId(1),
                peer: NodeId(0),
                after: Duration::from_millis(250),
            }),
            telemetry: munin_types::Telemetry::Spans,
            coverage: true,
            n_threads: 6,
        };
        frames.push(CtrlFrame::Start(Box::new(start)));
    }
    frames.extend([
        CtrlFrame::Hello { node: NodeId(3), data_port: 40123 },
        CtrlFrame::Ready,
        CtrlFrame::Op {
            thread: ThreadId(5),
            op: DsmOp::Lock(LockId(1)),
            fwd_us: 1_754_000_000_017,
        },
        CtrlFrame::Resume {
            thread: ThreadId(5),
            result: OpResult::Bytes(vec![1, 2, 3]),
            span: Some(munin_obs::SrvSpan {
                seq: 42,
                fwd_us: 1_754_000_000_017,
                dispatch_us: 1_754_000_000_103,
                reply_us: 1_754_000_000_251,
            }),
        },
        CtrlFrame::Resume { thread: ThreadId(6), result: OpResult::Unit, span: None },
        CtrlFrame::Reg(RegRequest::Retype {
            obj: ObjectId(9),
            sharing: SharingType::ProducerConsumer,
        }),
        CtrlFrame::RegReply(RegReply::Decl { id: ObjectId(17), version: 3 }),
        CtrlFrame::RegUpdate { decl: arb_decl(rng), version: 4, seq: 6 },
        CtrlFrame::RegUpdateAck { seq: 6 },
        CtrlFrame::Heartbeat { activity: 12345, timers_pending: 2 },
        CtrlFrame::DumpReq,
        CtrlFrame::DumpReply { text: "proxy l0: token=true".into() },
        CtrlFrame::ReportError { msg: "data stream from peer n2 failed".into() },
        CtrlFrame::Finish,
        CtrlFrame::Done {
            stats: sample_stats(),
            errors: vec!["e1".into()],
            homes: vec![(ThreadId(5), 1_754_000_000_200), (ThreadId(7), 1_754_000_000_300)],
            cover: vec![munin_obs::CovRow {
                proto: "tardis".into(),
                object: "write-many".into(),
                state: "lease".into(),
                event: "expired-renew".into(),
                count: 3,
            }],
        },
        CtrlFrame::Poison,
        CtrlFrame::Bye,
        CtrlFrame::OpBatch {
            ops: vec![
                (ThreadId(5), DsmOp::AtomicFetchAdd { obj: ObjectId(2), offset: 8, delta: -3 }),
                (ThreadId(7), DsmOp::Lock(LockId(1))),
            ],
            fwd_us: 1_754_000_000_001,
        },
    ]);
    frames
}

fn sample_stats() -> munin_net::NetStats {
    let mut s = munin_net::NetStats::new();
    s.record(munin_net::MsgClass::Data, "ReadReply", 4096);
    s.record(munin_net::MsgClass::Sync, "LockReq", 0);
    s.record_multicast(3, 3);
    s
}

/// Truncating a valid encoding at any byte boundary yields a decode error,
/// never a panic or a bogus success; flipped tag bytes are rejected too.
#[test]
fn corrupt_input_fails_closed() {
    let mut rng = SmallRng::seed_from_u64(11);
    let mut encodings: Vec<Vec<u8>> = Vec::new();
    for variant in 0..MUNIN_VARIANTS {
        encodings.push(arb_munin(&mut rng, variant).encode());
    }
    encodings.push(
        CtrlFrame::Done {
            stats: sample_stats(),
            errors: vec!["x".into()],
            homes: vec![(ThreadId(1), 7)],
            cover: Vec::new(),
        }
        .encode(),
    );
    for bytes in &encodings {
        for cut in 0..bytes.len() {
            assert!(
                MuninMsg::decode(&bytes[..cut]).is_err()
                    || CtrlFrame::decode(&bytes[..cut]).is_err(),
                "truncation accepted at {cut}/{}",
                bytes.len()
            );
        }
    }
    assert!(MuninMsg::decode(&[0xff, 0, 0, 0]).is_err(), "bad tag must be rejected");
    // A count prefix larger than the remaining input must be rejected
    // before allocation.
    let mut evil = Vec::new();
    evil.push(19u8); // Eager tag
    evil.extend_from_slice(&u32::MAX.to_le_bytes()); // item count
    assert!(MuninMsg::decode(&evil).is_err());
}

/// The same fail-closed discipline for every `TardisMsg` variant:
/// truncation at any boundary errors, flipped tags error, and an oversized
/// data-length prefix is rejected before allocation.
#[test]
fn tardis_corrupt_input_fails_closed() {
    let mut rng = SmallRng::seed_from_u64(13);
    for variant in 0..TARDIS_VARIANTS {
        let bytes = arb_tardis(&mut rng, variant).encode();
        for cut in 0..bytes.len() {
            assert!(
                TardisMsg::decode(&bytes[..cut]).is_err(),
                "truncation accepted at {cut}/{} for variant {variant}",
                bytes.len()
            );
        }
    }
    assert!(TardisMsg::decode(&[0xff, 0, 0, 0]).is_err(), "bad tag must be rejected");
    // ReadReply with a data length far beyond the remaining input.
    let mut evil = Vec::new();
    evil.push(1u8); // ReadReply tag
    evil.extend_from_slice(&7u32.to_le_bytes()); // thread
    evil.extend_from_slice(&9u64.to_le_bytes()); // obj
    evil.extend_from_slice(&u32::MAX.to_le_bytes()); // data length
    assert!(TardisMsg::decode(&evil).is_err());
}

/// An encoded `Msg` frame written by `encode_data_msg` parses back as the
/// same message through the reader's `DataFrame` path.
#[test]
fn single_msg_frame_encode_matches_dataframe() {
    let mut rng = SmallRng::seed_from_u64(3);
    let msg = arb_munin(&mut rng, 1);
    let mut framed = Vec::new();
    encode_data_msg(&mut framed, &msg).expect("message under the frame cap");
    let (len_bytes, body) = framed.split_at(4);
    assert_eq!(u32::from_le_bytes(len_bytes.try_into().unwrap()) as usize, body.len());
    match DataFrame::<MuninMsg>::decode(body).expect("frame decodes") {
        DataFrame::Msg(m) => assert_eq!(m, msg),
        other => panic!("expected Msg frame, got {other:?}"),
    }
}

/// Feed `bytes` to every decoder; each must return `Ok` or `Err`. A panic
/// is reported with the decoder's name and the input that caused it.
fn every_decoder_fails_closed(bytes: &[u8]) {
    fn check<T: Wire>(name: &str, bytes: &[u8]) {
        let decoded = std::panic::catch_unwind(|| T::decode(bytes).is_ok());
        assert!(decoded.is_ok(), "{name} decoder panicked on {bytes:02x?}");
    }
    check::<MuninMsg>("MuninMsg", bytes);
    check::<IvyMsg>("IvyMsg", bytes);
    check::<TardisMsg>("TardisMsg", bytes);
    check::<DsmOp>("DsmOp", bytes);
    check::<OpResult>("OpResult", bytes);
    check::<CtrlFrame>("CtrlFrame", bytes);
    check::<DataFrame<MuninMsg>>("DataFrame<MuninMsg>", bytes);
}

/// Hostile bytes fail closed: seeded random buffers (tag bytes biased into
/// the valid range so decoding gets past the first byte) and bit-flipped
/// valid encodings of every decoded type either decode or return a
/// `WireError` — no decoder panics, whatever the input.
#[test]
fn hostile_bytes_fail_closed() {
    let mut rng = SmallRng::seed_from_u64(17);
    for _ in 0..2_000 {
        let mut bytes = arb_bytes(&mut rng, 96);
        if let Some(tag) = bytes.first_mut() {
            *tag %= 40;
        }
        every_decoder_fails_closed(&bytes);
    }

    let mut valid: Vec<Vec<u8>> = Vec::new();
    for variant in 0..MUNIN_VARIANTS {
        let msg = arb_munin(&mut rng, variant);
        valid.push(msg.encode());
        valid.push(DataFrame::Msg(msg).encode());
    }
    let batch: Vec<MuninMsg> = (0..4).map(|v| arb_munin(&mut rng, v * 7)).collect();
    valid.push(DataFrame::Batch(batch).encode());
    valid.push(DataFrame::<MuninMsg>::Hello { src: NodeId(2) }.encode());
    valid.extend((0..IVY_VARIANTS).map(|v| arb_ivy(&mut rng, v).encode()));
    valid.extend((0..TARDIS_VARIANTS).map(|v| arb_tardis(&mut rng, v).encode()));
    valid.extend((0..DSMOP_VARIANTS).map(|v| arb_dsmop(&mut rng, v).encode()));
    valid.push(OpResult::Bytes(arb_bytes(&mut rng, 64)).encode());
    valid.push(OpResult::Value(-5).encode());
    valid.push(OpResult::Object(arb_obj(&mut rng)).encode());
    valid.push(OpResult::Err(DsmError::Internal("x".into())).encode());
    valid.extend(sample_ctrl_frames(&mut rng).iter().map(Wire::encode));

    for bytes in &valid {
        for _ in 0..24 {
            let mut flipped = bytes.clone();
            for _ in 0..rng.gen_range(1u64..4) {
                let bit = rng.gen_range(0u64..flipped.len() as u64 * 8) as usize;
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
            every_decoder_fails_closed(&flipped);
        }
    }
}

/// The stream reader grows its buffer as a frame body arrives; frames on
/// both sides of every growth step must still read back whole, in order.
#[test]
fn frames_of_every_size_read_back_whole_over_a_socket() {
    use munin_tcp::frames::{read_frame, write_frame};
    use std::net::{TcpListener, TcpStream};
    let sizes = [0usize, 1, (32 << 10) - 5, 32 << 10, (32 << 10) + 1, 300 << 10, (1 << 20) + 3];
    let frames: Vec<Vec<u8>> =
        sizes.iter().map(|&n| (0..n).map(|i| (i * 7 + n) as u8).collect()).collect();
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback");
    let mut out = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
    let (mut input, _) = listener.accept().expect("accept");
    let sent = frames.clone();
    let writer = std::thread::spawn(move || {
        let mut scratch = Vec::new();
        for f in &sent {
            write_frame(&mut out, &mut scratch, f).expect("write frame");
        }
    });
    let mut buf = Vec::new();
    for f in &frames {
        assert_eq!(&read_frame::<Vec<u8>>(&mut input, &mut buf).expect("read frame"), f);
    }
    writer.join().expect("writer thread");
}
