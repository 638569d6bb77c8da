//! Real-time fabric throughput: batched vs unbatched message pipeline.
//!
//! The rt kernel's batching pipeline (`RtTuning::batch_max` /
//! `RtTuning::coalesce`) exists for exactly one workload shape: a server
//! step that emits many protocol messages at once. The canonical producer
//! is the eager flush fan-out — worker threads publish writes to eager
//! producer-consumer objects, and their node's server pushes each update to
//! every subscribed copyholder. On the unbatched fabric that is one channel
//! send (and one receiver wake-up) per update per subscriber; batched, the
//! server drains a whole backlog of worker writes in one step
//! (`batch_max`) and flushes all resulting pushes as one channel message
//! per destination (`NodeEvent::Batch`).
//!
//! The workload: `SUBSCRIBERS` nodes each hold copies of every object;
//! 1..4 worker threads share one publisher node (co-location is what gives
//! one server step several same-destination pushes to coalesce — the
//! paper's placement puts the producers of one object family together) and
//! run write-all/flush rounds. Results go to `BENCH_traffic.json`
//! (regenerate with `scripts/bench.sh traffic`): wall clock and protocol
//! messages per second for both fabrics, per worker count. The acceptance
//! floor is batched >= 1.5x messages/s at 4 workers.
//!
//! Protocol message counts are reported per fabric: with several co-located
//! publishers the split between eager pushes and flush-fence traffic
//! depends on op interleaving, so counts may differ by a percent or two
//! between runs — the strict bit-identical and identical-NetStats claims
//! are asserted by `tests/tests/rt_batching.rs` on schedule-deterministic
//! workloads, and the matrix section below re-checks all six study apps on
//! the in-process (sim and rt) cells of `Backend::matrix()` plus Native
//! under the default (batched) tuning.

use munin_api::{Backend, ComputeMode, Par, ParTyped, ProgramBuilder, RtTuning};
use munin_apps::App;
use munin_bench::read_heavy::{inval_msgs, read_heavy_stats, RH_READS, RH_ROUNDS};
use munin_net::NetStats;
use munin_types::{MuninConfig, ObjectDecl, SharedArray, SharingType};
use std::fmt::Write as _;
use std::time::Instant;

/// Subscriber nodes holding a copy of every object: the fan-out breadth of
/// each eager push.
const SUBSCRIBERS: usize = 16;
/// Objects each worker thread owns and rewrites every round.
const OBJS_PER_WORKER: usize = 16;
/// i64 elements per object (small on purpose: the bench measures
/// per-message fabric overhead, not payload bandwidth).
const OBJ_ELEMS: u32 = 4;
/// Write-flush rounds per worker.
const ROUNDS: usize = 20;

fn tuning(batched: bool) -> RtTuning {
    let mut t = RtTuning::default();
    t.compute = ComputeMode::Skip;
    if !batched {
        t = t.unbatched();
    }
    t
}

/// Run the flush fan-out workload once; returns (protocol messages, wall
/// seconds). Node 0 hosts all `workers` publisher threads and every object;
/// nodes 1..=SUBSCRIBERS each run one thread that reads every object
/// (becoming a copyholder), then parks while the publishers run their
/// rounds. Every eager write is pushed to all subscribers as it happens,
/// and each round's flush fences the pushes. The data is deterministic, so
/// the subscribers' final read doubles as a correctness check.
fn flush_fanout(workers: usize, batched: bool) -> (u64, f64) {
    let nodes = 1 + SUBSCRIBERS;
    let mut p = ProgramBuilder::new(nodes);
    p.rt_tuning(tuning(batched));
    let mut objs: Vec<Vec<SharedArray<i64>>> = Vec::with_capacity(workers);
    for w in 0..workers {
        objs.push(
            (0..OBJS_PER_WORKER)
                .map(|i| {
                    p.array_decl::<i64>(
                        ObjectDecl::template(format!("pc{w}_{i}"), SharingType::ProducerConsumer)
                            .with_eager(true),
                        OBJ_ELEMS,
                        0,
                    )
                })
                .collect(),
        );
    }
    let n_threads = (workers + SUBSCRIBERS) as u32;
    // `subscribed`: every subscriber holds copies of every object before
    // the first push; `done`: publishers finished, subscribers may verify.
    let subscribed = p.barrier(0, n_threads);
    let done = p.barrier(0, n_threads);
    for w in 0..workers {
        let objs = objs.clone();
        p.thread(0, move |par: &mut dyn Par| {
            let mut buf = vec![0i64; OBJ_ELEMS as usize];
            par.barrier(subscribed);
            for round in 0..ROUNDS {
                for (i, o) in objs[w].iter().enumerate() {
                    let v = (w * 1_000_000 + i * 1_000 + round) as i64;
                    buf.fill(v);
                    // Eager producer-consumer: this write is pushed to all
                    // SUBSCRIBERS copyholders as soon as it lands.
                    par.write_from(o, 0, &buf);
                }
                par.flush();
            }
            par.barrier(done);
        });
    }
    for s in 0..SUBSCRIBERS {
        let objs = objs.clone();
        p.thread(1 + s, move |par: &mut dyn Par| {
            let mut buf = vec![0i64; OBJ_ELEMS as usize];
            for theirs in &objs {
                for o in theirs {
                    par.read_into(o, 0, &mut buf);
                }
            }
            par.barrier(subscribed);
            // Park here while the publishers run: from now on this node's
            // traffic is pure server-side eager-update ingestion.
            par.barrier(done);
            let last = ROUNDS - 1;
            for (w, theirs) in objs.iter().enumerate() {
                for (i, o) in theirs.iter().enumerate() {
                    par.read_into(o, 0, &mut buf);
                    let want = (w * 1_000_000 + i * 1_000 + last) as i64;
                    assert!(
                        buf.iter().all(|&b| b == want),
                        "subscriber {s} read stale data for pc{w}_{i}"
                    );
                }
            }
        });
    }
    let started = Instant::now();
    let o = p.run(Backend::MuninRt(MuninConfig::default()));
    let wall = started.elapsed().as_secs_f64();
    o.assert_clean();
    (o.report().stats.messages, wall)
}

/// Best throughput over `reps` runs (max msgs/s filters scheduler noise the
/// same way best-of wall clock does), plus that run's (msgs, wall).
fn measure(workers: usize, batched: bool, reps: usize) -> (u64, f64) {
    let mut best: Option<(u64, f64)> = None;
    for _ in 0..reps {
        let (m, wall) = flush_fanout(workers, batched);
        let better = match best {
            None => true,
            Some((bm, bw)) => (m as f64 / wall) > (bm as f64 / bw),
        };
        if better {
            best = Some((m, wall));
        }
    }
    best.expect("reps >= 1")
}

struct Mode {
    msgs: u64,
    wall: f64,
}

impl Mode {
    fn rate(&self) -> f64 {
        self.msgs as f64 / self.wall
    }
}

struct Row {
    workers: usize,
    batched: Mode,
    unbatched: Mode,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.batched.rate() / self.unbatched.rate()
    }
}

fn main() {
    if std::env::args().any(|a| a == "--test") {
        println!("traffic_rt: skipping measurement under --test");
        return;
    }
    const REPS: usize = 3;

    let mut rows = Vec::new();
    for workers in 1..=4usize {
        let (mb, wb) = measure(workers, true, REPS);
        let (mu, wu) = measure(workers, false, REPS);
        rows.push(Row {
            workers,
            batched: Mode { msgs: mb, wall: wb },
            unbatched: Mode { msgs: mu, wall: wu },
        });
    }

    let mut json_rows = String::new();
    for r in &rows {
        println!(
            "traffic {}w x{} subs: batched {:>6} msgs {:>7.1} ms ({:>9.0} msg/s) | unbatched \
             {:>6} msgs {:>7.1} ms ({:>9.0} msg/s) | batched/unbatched {:>5.2}x",
            r.workers,
            SUBSCRIBERS,
            r.batched.msgs,
            r.batched.wall * 1e3,
            r.batched.rate(),
            r.unbatched.msgs,
            r.unbatched.wall * 1e3,
            r.unbatched.rate(),
            r.speedup(),
        );
        let _ = writeln!(
            json_rows,
            "    {{\"workers\": {}, \"batched\": {{\"protocol_messages\": {}, \"wall_s\": \
             {:.6}, \"msgs_per_s\": {:.0}}}, \"unbatched\": {{\"protocol_messages\": {}, \
             \"wall_s\": {:.6}, \"msgs_per_s\": {:.0}}}, \"batched_over_unbatched\": {:.3}}},",
            r.workers,
            r.batched.msgs,
            r.batched.wall,
            r.batched.rate(),
            r.unbatched.msgs,
            r.unbatched.wall,
            r.unbatched.rate(),
            r.speedup(),
        );
    }
    let json_rows = json_rows.trim_end_matches(",\n").to_string();

    let at4 = rows.iter().find(|r| r.workers == 4).expect("4-worker row");
    assert!(
        at4.speedup() >= 1.5,
        "acceptance: batched fabric must deliver >= 1.5x messages/s over unbatched at 4 \
         workers (got {:.2}x)",
        at4.speedup()
    );

    // The six study apps stay bit-identical to the sequential reference on
    // every in-process cell of `Backend::matrix()` plus native threads,
    // with the rt backends running the default batched pipeline. (The TCP
    // cells are covered by `tcp_fabric` and `tests/tests/cross_backend.rs`.)
    let mut backends: Vec<Backend> =
        Backend::matrix().into_iter().filter(|b| !b.is_distributed()).collect();
    backends.push(Backend::Native);
    let n_backends = backends.len();
    for app in App::ALL {
        for backend in &backends {
            let name = backend.name();
            let (p, verify) = app.build_default(4);
            p.run(backend.clone()).assert_clean();
            let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(verify));
            assert!(ok.is_ok(), "{} on {name}: result diverged under batched fabric", app.name());
        }
    }
    println!("matrix: 6 apps x {n_backends} backends bit-identical (rt backends batched)");

    // Read-heavy protocol comparison on the deterministic simulator: the
    // lease-based protocol must finish the workload with *zero*
    // invalidation messages and zero invalidation multicasts, while the
    // write-invalidate baseline visibly pays them.
    let proto_rows: Vec<(&'static str, NetStats)> = Backend::matrix()
        .into_iter()
        .filter(|b| !b.is_realtime())
        .map(|b| (b.name(), read_heavy_stats(b)))
        .collect();
    for (name, stats) in &proto_rows {
        println!(
            "read-heavy   {name:>7}: {:>5} msgs {:>8} B | {:>3} inval msgs | {:>2} multicasts",
            stats.messages,
            stats.bytes,
            inval_msgs(stats),
            stats.multicasts,
        );
    }
    let by_name = |n: &str| &proto_rows.iter().find(|(name, _)| *name == n).expect(n).1;
    let tardis = by_name("Tardis");
    assert_eq!(
        inval_msgs(tardis),
        0,
        "Tardis must complete the read-heavy workload with zero invalidation messages \
         (and therefore zero invalidation multicasts)"
    );
    // The only multicasts Tardis ever performs are barrier releases (two
    // per round here); a write is one timestamp bump at the home, never a
    // fan-out.
    assert!(
        tardis.multicasts <= (2 * RH_ROUNDS) as u64,
        "Tardis multicast count {} exceeds the barrier-release budget — a write fanned out",
        tardis.multicasts
    );
    assert!(
        inval_msgs(by_name("Ivy")) > 0,
        "the write-invalidate baseline must pay invalidations on this workload, \
         or the comparison is vacuous"
    );

    let mut proto_json = String::new();
    for (name, stats) in &proto_rows {
        let _ = writeln!(
            proto_json,
            "    {{\"backend\": \"{name}\", \"messages\": {}, \"bytes\": {}, \
             \"inval_msgs\": {}, \"multicasts\": {}}},",
            stats.messages,
            stats.bytes,
            inval_msgs(stats),
            stats.multicasts,
        );
    }
    let proto_json = proto_json.trim_end_matches(",\n").to_string();

    let json = format!(
        "{{\n  \"bench\": \"traffic_rt\",\n  \"workload\": \"flush_fanout\",\n  \
         \"subscribers\": {SUBSCRIBERS},\n  \"objs_per_worker\": {OBJS_PER_WORKER},\n  \
         \"obj_bytes\": {},\n  \"rounds\": {ROUNDS},\n  \"compute_mode\": \"skip\",\n  \
         \"reps_best_of\": {REPS},\n  \"rows\": [\n{json_rows}\n  ],\n  \
         \"batched_over_unbatched_msgs_per_s_at_4w\": {:.3},\n  \"matrix\": {{\"apps\": 6, \
         \"backends\": {n_backends}, \"nodes\": 4, \"bit_identical\": true, \"rt_tuning\": \
         \"default (batched)\"}},\n  \"read_heavy_sim\": {{\"nodes\": 4, \"rounds\": \
         {RH_ROUNDS}, \"reads_per_reader_per_round\": {RH_READS}, \"rows\": \
         [\n{proto_json}\n  ]}}\n}}\n",
        OBJ_ELEMS * 8,
        at4.speedup(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_traffic.json");
    std::fs::write(path, &json).expect("write BENCH_traffic.json");
    println!("wrote {path}");
}
