//! End-to-end tests of the Ivy baseline: strict coherence, page
//! granularity and false sharing, DSM-resident synchronization.

use munin_ivy::IvyServer;
use munin_sim::{Par, RunReport, ThreadCtx, TransportConfig, World, WorldSpec};
use munin_types::{
    AllocPolicy, BarrierId, ByteRange, IvyConfig, LockId, NodeId, ObjectDecl, ObjectId,
    SharingType, SyncDecls,
};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex};

/// Ivy ignores sharing annotations; declare everything as general.
fn decl(name: &str, size: u32) -> ObjectDecl {
    ObjectDecl::new(ObjectId(0), name, size, SharingType::GeneralReadWrite, NodeId(0))
}

/// Build and run an n-node Ivy world. `objects` are (name, size, home).
fn run_ivy(
    n_nodes: usize,
    cfg: IvyConfig,
    sync: SyncDecls,
    objects: &[(&str, u32)],
    setup: impl FnOnce(&mut WorldSpec<ThreadCtx>, &[ObjectId]),
) -> RunReport {
    let mut b = WorldSpec::new(n_nodes);
    let ids: Vec<ObjectId> = objects
        .iter()
        .enumerate()
        .map(|(i, (name, size))| b.declare(decl(name, *size), NodeId((i % n_nodes) as u16)))
        .collect();
    setup(&mut b, &ids);
    let servers: Vec<IvyServer> = (0..n_nodes)
        .map(|i| IvyServer::new(NodeId(i as u16), cfg.clone(), n_nodes, b.decls(), &sync))
        .collect();
    World::new(b, servers, TransportConfig::default(), None).run()
}

#[test]
fn reads_and_writes_roundtrip_locally() {
    let report = run_ivy(1, IvyConfig::default(), SyncDecls::default(), &[("x", 64)], |b, ids| {
        let x = ids[0];
        b.spawn(NodeId(0), move |ctx: &mut ThreadCtx| {
            ctx.write(x, 0, vec![42; 64]);
            assert_eq!(ctx.read(x, ByteRange::new(0, 64)), vec![42; 64]);
        });
    });
    report.assert_clean();
    assert_eq!(report.stats.messages, 0, "single node: everything is local");
}

#[test]
fn strict_coherence_write_invalidates_readers() {
    // Node 1 reads x (gets a copy); node 0 then writes x; node 1's next
    // read MUST see the new value (no sync needed — that is strictness).
    let sync = SyncDecls::round_robin(0, 1, 2, 2);
    let seen = Arc::new(AtomicI64::new(-1));
    let s2 = seen.clone();
    // Central-server sync so the barrier words don't share page 0 traffic
    // with x (we want to observe the data-page invalidation cleanly).
    let report =
        run_ivy(2, IvyConfig::default().with_central_locks(), sync, &[("x", 8)], |b, ids| {
            let x = ids[0];
            b.spawn(NodeId(1), move |ctx: &mut ThreadCtx| {
                let _ = ctx.read(x, ByteRange::new(0, 8)); // cache a copy
                ctx.barrier(BarrierId(0));
                // Node 0 wrote during the barrier window... actually after;
                // poll until the value changes, counting on invalidation.
                loop {
                    let v = ctx.read(x, ByteRange::new(0, 8));
                    let val = i64::from_le_bytes(v.try_into().unwrap());
                    if val == 7 {
                        s2.store(val, Ordering::SeqCst);
                        break;
                    }
                    ctx.compute(1_000);
                }
            });
            b.spawn(NodeId(0), move |ctx: &mut ThreadCtx| {
                ctx.barrier(BarrierId(0));
                ctx.write(x, 0, 7i64.to_le_bytes().to_vec());
            });
        });
    report.assert_clean();
    assert_eq!(seen.load(Ordering::SeqCst), 7);
    assert!(report.stats.kind("Inval").count >= 1, "{:?}", report.stats.by_kind);
}

#[test]
fn packed_objects_false_share_pages() {
    // Two 64-byte objects share one 1 KiB page under packed allocation:
    // independent writers ping-pong the page.
    let run = |alloc: AllocPolicy| {
        let mut cfg = IvyConfig::default();
        cfg.alloc = alloc;
        cfg.sync = munin_types::SyncStrategy::CentralServer;
        let sync = SyncDecls::round_robin(0, 1, 2, 2);
        let report = run_ivy(2, cfg, sync, &[("a", 64), ("b", 64)], |b, ids| {
            let (a, bb) = (ids[0], ids[1]);
            b.spawn(NodeId(0), move |ctx: &mut ThreadCtx| {
                for i in 0..20u8 {
                    ctx.write(a, 0, vec![i; 64]);
                    ctx.barrier(BarrierId(0));
                }
            });
            b.spawn(NodeId(1), move |ctx: &mut ThreadCtx| {
                for i in 0..20u8 {
                    ctx.write(bb, 0, vec![i; 64]);
                    ctx.barrier(BarrierId(0));
                }
            });
        });
        report.assert_clean();
        report.stats.kind("WReq").count
    };
    let packed = run(AllocPolicy::Packed);
    let aligned = run(AllocPolicy::PageAligned);
    assert!(
        packed >= aligned + 15,
        "false sharing causes ownership ping-pong: packed={packed} aligned={aligned}"
    );
}

#[test]
fn dsm_spin_lock_provides_mutual_exclusion() {
    let n = 3usize;
    let sync = SyncDecls::round_robin(1, 0, 0, n);
    let log = Arc::new(Mutex::new(Vec::new()));
    let report = {
        let mut b = WorldSpec::new(n);
        let counter = b.declare(decl("counter", 8), NodeId(0));
        for i in 0..n {
            let log = log.clone();
            b.spawn(NodeId(i as u16), move |ctx: &mut ThreadCtx| {
                for _ in 0..4 {
                    ctx.lock(LockId(0));
                    let v = ctx.read(counter, ByteRange::new(0, 8));
                    let cur = i64::from_le_bytes(v.try_into().unwrap());
                    ctx.compute(200);
                    ctx.write(counter, 0, (cur + 1).to_le_bytes().to_vec());
                    log.lock().unwrap().push(cur);
                    ctx.unlock(LockId(0));
                }
            });
        }
        let cfg = IvyConfig::default(); // DsmSpin
        let servers: Vec<IvyServer> = (0..n)
            .map(|i| IvyServer::new(NodeId(i as u16), cfg.clone(), n, b.decls(), &sync))
            .collect();
        World::new(b, servers, TransportConfig::default(), None).run()
    };
    report.assert_clean();
    let values = log.lock().unwrap().clone();
    assert_eq!(values, (0..12).collect::<Vec<i64>>(), "mutual exclusion held");
    // The whole point: DSM-resident locks cost real page traffic.
    assert!(report.stats.messages > 20, "spin locks are chatty: {}", report.stats.messages);
}

#[test]
fn dsm_spin_barrier_synchronizes() {
    let n = 3usize;
    let sync = SyncDecls::round_robin(0, 1, n as u32, n);
    let order = Arc::new(Mutex::new(Vec::new()));
    let report = run_ivy(n, IvyConfig::default(), sync, &[("pad", 8)], |b, _ids| {
        for i in 0..n {
            let order = order.clone();
            b.spawn(NodeId(i as u16), move |ctx: &mut ThreadCtx| {
                ctx.compute(i as u64 * 7_000);
                order.lock().unwrap().push(('b', i));
                ctx.barrier(BarrierId(0));
                order.lock().unwrap().push(('a', i));
            });
        }
    });
    report.assert_clean();
    let order = order.lock().unwrap();
    let first_after = order.iter().position(|(p, _)| *p == 'a').unwrap();
    assert!(order[..first_after].iter().all(|(p, _)| *p == 'b'), "{order:?}");
}

#[test]
fn central_lock_ablation_is_quieter_than_spin() {
    let n = 4usize;
    let work = |cfg: IvyConfig| {
        let sync = SyncDecls::round_robin(1, 0, 0, n);
        let report = run_ivy(n, cfg, sync, &[("pad", 8)], |b, _ids| {
            for i in 0..n {
                b.spawn(NodeId(i as u16), move |ctx: &mut ThreadCtx| {
                    for _ in 0..5 {
                        ctx.lock(LockId(0));
                        ctx.compute(500);
                        ctx.unlock(LockId(0));
                    }
                });
            }
        });
        report.assert_clean();
        report.stats.messages
    };
    let spin = work(IvyConfig::default());
    let central = work(IvyConfig::default().with_central_locks());
    assert!(
        spin > central,
        "DSM-resident spin locks must cost more messages (spin={spin}, central={central})"
    );
}

#[test]
fn atomic_fetch_add_is_exact_under_contention() {
    let n = 4usize;
    let sync = SyncDecls::round_robin(0, 1, n as u32, n);
    let finals = Arc::new(Mutex::new(Vec::new()));
    let report = run_ivy(n, IvyConfig::default(), sync, &[("ctr", 8)], |b, ids| {
        let ctr = ids[0];
        for i in 0..n {
            let finals = finals.clone();
            b.spawn(NodeId(i as u16), move |ctx: &mut ThreadCtx| {
                let mut mine = Vec::new();
                for _ in 0..8 {
                    mine.push(ctx.fetch_add(ctr, 0, 1));
                }
                ctx.barrier(BarrierId(0));
                finals.lock().unwrap().extend(mine);
            });
        }
    });
    report.assert_clean();
    let mut vals = finals.lock().unwrap().clone();
    vals.sort_unstable();
    assert_eq!(vals, (0..32).collect::<Vec<i64>>());
}

#[test]
fn object_spanning_pages_is_accessed_whole() {
    let mut cfg = IvyConfig::default();
    cfg.page_size = 256;
    let sync = SyncDecls::round_robin(0, 1, 2, 2);
    let report = run_ivy(2, cfg, sync, &[("big", 1000)], |b, ids| {
        let big = ids[0];
        b.spawn(NodeId(0), move |ctx: &mut ThreadCtx| {
            ctx.write(big, 0, (0..250).flat_map(|i| vec![i as u8; 4]).collect());
            ctx.barrier(BarrierId(0));
        });
        b.spawn(NodeId(1), move |ctx: &mut ThreadCtx| {
            ctx.barrier(BarrierId(0));
            // Read a range straddling pages 0..=3.
            let v = ctx.read(big, ByteRange::new(200, 600));
            assert_eq!(v[0], 50);
            assert_eq!(v[599], 199);
        });
    });
    report.assert_clean();
    // Pages 1 and 3 are managed by node 1 itself (page % 2), so only the
    // node-0-managed pages cross the wire.
    assert!(report.stats.kind("RReq").count >= 2, "read spans several remotely-managed pages");
}

#[test]
fn ivy_runs_are_deterministic() {
    let run = || {
        let n = 3;
        let sync = SyncDecls::round_robin(1, 1, n as u32, n);
        let report = run_ivy(n, IvyConfig::default(), sync, &[("x", 512)], |b, ids| {
            let x = ids[0];
            for i in 0..n {
                b.spawn(NodeId(i as u16), move |ctx: &mut ThreadCtx| {
                    for r in 0..3u8 {
                        ctx.lock(LockId(0));
                        ctx.write(x, (i as u32) * 128, vec![r; 128]);
                        ctx.unlock(LockId(0));
                        ctx.barrier(BarrierId(0));
                    }
                });
            }
        });
        report.assert_clean();
        (report.finished_at, report.stats.messages, report.stats.bytes)
    };
    assert_eq!(run(), run());
}
