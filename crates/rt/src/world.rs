//! Running a [`WorldSpec`] on the real-time kernel: one server thread per
//! node, free-running application threads, a timer thread and a stall
//! watchdog.

use crate::ctx::RtCtx;
use crate::fabric::{NodeEvent, Shared};
use crate::kernel::RtKernel;
use crate::serve::{drive_app_thread, server_loop};
use crate::stall::StallDetector;
use crate::timer::run_timer_thread;
use munin_sim::report::{RunReport, WaitTable, WallClock};
use munin_sim::{Server, WorldSpec};
use munin_types::{CostModel, NodeId, Telemetry, ThreadId, VirtualTime};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What an application `compute(us)` call does on the real-time kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComputeMode {
    /// Timed wait of `us` microseconds (default). Waits overlap across
    /// workers even when the host has fewer cores than workers, so measured
    /// speedup isolates the runtime's overlap/overhead behaviour from host
    /// core count.
    Sleep,
    /// Busy-spin for `us` microseconds: occupies a core, for CPU-bound
    /// realism on hosts with enough cores.
    Spin,
    /// Drop modelled compute entirely (pure protocol stress).
    Skip,
}

/// Tuning knobs of the real-time kernel. Everything has a sensible default;
/// the stall timeout can also be overridden with `MUNIN_RT_STALL_MS` (handy
/// for tests that *want* fast stall detection).
#[derive(Debug, Clone)]
pub struct RtTuning {
    pub compute: ComputeMode,
    /// How long all live threads must sit blocked, with zero kernel
    /// activity and no pending timer, before the run is declared stalled
    /// (see [`crate::stall`]).
    pub stall_timeout: Duration,
    /// Most inbox events one server wake-up drains (and processes under a
    /// single activity-epoch bump) before flushing its outbound batches and
    /// re-checking the channel. `1` reproduces the one-event-per-wake-up
    /// fabric; larger values amortize channel and wake-up overhead under
    /// heavy traffic.
    pub batch_max: usize,
    /// Coalesce the protocol messages a server sends during one step into
    /// one channel message per destination (flush-fan-out batching; see
    /// [`crate::RtKernel`]). Off, every protocol message is its own
    /// channel send.
    pub coalesce: bool,
    /// How a thread waits for an op completion: park immediately, or spin
    /// first in the hope of skipping the futex wake + context switch.
    pub spin_wait: SpinWait,
    /// Most pipelined (async) ops one thread keeps in flight before an
    /// issue blocks on the oldest completion. `1` reproduces the fully
    /// synchronous one-round-trip-per-op fabric.
    pub max_inflight: usize,
    /// Coalesce adjacent/overlapping writes to the same object in the
    /// issuing thread and emit them as one combined (async) write at the
    /// next non-write op. Program order per thread is preserved: any read,
    /// atomic, or sync op flushes the buffer first.
    pub write_combine: bool,
    /// What the run records about itself: `Off` (nothing; hot paths reduce
    /// to one predicted branch), `Counters` (latency histograms + per-object
    /// access counters; the default), or `Spans` (counters plus causal
    /// per-op timestamp spans). See [`munin_obs`].
    pub telemetry: Telemetry,
}

/// How a blocked application thread waits on its resume channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpinWait {
    /// Park on the channel immediately.
    Off,
    /// Spin for twice the EWMA-tracked completion time of this thread's
    /// recent ops, bounded by `cap_us`. Tracks the fast path (in-process
    /// round trips are ~14 µs) without burning a core on slow waits such
    /// as barriers or contended locks. Spinning is disabled entirely when
    /// the host cannot run waiter and server in parallel
    /// (`available_parallelism() < 2`, e.g. a 1-core CI runner).
    Adaptive { cap_us: u64 },
}

impl Default for RtTuning {
    fn default() -> Self {
        let stall_ms = std::env::var("MUNIN_RT_STALL_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(5_000);
        RtTuning {
            compute: ComputeMode::Sleep,
            stall_timeout: Duration::from_millis(stall_ms),
            batch_max: 128,
            coalesce: true,
            spin_wait: SpinWait::Adaptive { cap_us: 40 },
            max_inflight: 16,
            write_combine: true,
            telemetry: Telemetry::default(),
        }
    }
}

impl RtTuning {
    /// The pre-batching fabric: one inbox event per wake-up, one channel
    /// send per protocol message. The baseline the batching pipeline is
    /// benchmarked against (`benches/traffic_rt.rs`), and a useful A/B for
    /// tests asserting batching changes no observable result.
    pub fn unbatched(mut self) -> Self {
        self.batch_max = 1;
        self.coalesce = false;
        self
    }
}

/// Run `spec` to completion on the real-time kernel with one server per
/// node (`servers[i]` serves `NodeId(i)`). `cost` is handed to the servers
/// (their bookkeeping reads it; the kernel itself never charges modelled
/// latencies). Unlike the simulator there is no start rendezvous: threads
/// begin running as soon as the world does. Returns a [`RunReport`] whose
/// `wall` section and wait tables are real (host) microseconds.
pub fn run_world<P, S>(
    spec: WorldSpec<RtCtx<P>>,
    servers: Vec<S>,
    cost: CostModel,
    tuning: &RtTuning,
) -> RunReport
where
    P: munin_net::PayloadInfo + Send + Sync + Clone + 'static,
    S: Server<Payload = P> + 'static,
{
    let n_nodes = spec.n_nodes();
    assert_eq!(servers.len(), n_nodes, "need exactly one server per node");
    let n_threads = spec.n_threads();
    let coverage = spec.coverage.clone();
    let (decls, spawns) = spec.into_parts();
    let mut shared0 = Shared::new(decls, n_threads, tuning.telemetry);
    shared0.coverage = coverage;
    let shared = Arc::new(shared0);

    let mut inbox_txs: Vec<Sender<NodeEvent<P>>> = Vec::with_capacity(n_nodes);
    let mut inbox_rxs: Vec<Receiver<NodeEvent<P>>> = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        let (tx, rx) = channel();
        inbox_txs.push(tx);
        inbox_rxs.push(rx);
    }
    let mut resume_txs = Vec::with_capacity(n_threads);
    let mut resume_rxs = Vec::with_capacity(n_threads);
    for _ in 0..n_threads {
        let (tx, rx) = channel();
        resume_txs.push(tx);
        resume_rxs.push(rx);
    }
    let (timer_tx, timer_rx) = channel();

    let timer_join = {
        let inboxes = inbox_txs.clone();
        let shared = shared.clone();
        std::thread::Builder::new()
            .name("rt-timer".into())
            .spawn(move || run_timer_thread(timer_rx, inboxes, shared))
            .expect("failed to spawn timer thread")
    };

    let mut server_joins = Vec::with_capacity(n_nodes);
    for (i, (server, inbox)) in servers.into_iter().zip(inbox_rxs).enumerate() {
        let kernel = RtKernel {
            node: NodeId(i as u16),
            cost: cost.clone(),
            inboxes: inbox_txs.clone(),
            resumes: resume_txs.clone(),
            timer_tx: timer_tx.clone(),
            shared: shared.clone(),
            stats: munin_net::NetStats::new(),
            coalesce: tuning.coalesce,
            outbox: (0..n_nodes).map(|_| Vec::new()).collect(),
            completions: Vec::new(),
        };
        let batch_max = tuning.batch_max;
        server_joins.push(
            std::thread::Builder::new()
                .name(format!("rt-node-{i}"))
                .spawn(move || server_loop(server, kernel, inbox, batch_max))
                .expect("failed to spawn server thread"),
        );
    }

    // The watchdog parks on this channel between polls; dropping the
    // sender wakes it instantly at teardown (a plain sleep would add a
    // full poll interval to every run's wall clock).
    let (watchdog_stop_tx, watchdog_stop_rx) = channel::<()>();
    let watchdog_join = {
        let shared = shared.clone();
        let inboxes = inbox_txs.clone();
        let stall = StallDetector::new(tuning.stall_timeout);
        std::thread::Builder::new()
            .name("rt-watchdog".into())
            .spawn(move || watchdog(shared, inboxes, stall, watchdog_stop_rx))
            .expect("failed to spawn watchdog thread")
    };

    let mut app_joins = Vec::with_capacity(n_threads);
    for ((idx, (node, body)), resume_rx) in spawns.into_iter().enumerate().zip(resume_rxs) {
        let tid = ThreadId(idx as u32);
        let ctx = RtCtx::new(
            tid,
            node,
            n_nodes,
            n_threads,
            inbox_txs[node.index()].clone(),
            resume_rx,
            shared.clone(),
            tuning.clone(),
        );
        app_joins.push(
            std::thread::Builder::new()
                .name(format!("rt-{tid}"))
                .spawn(move || drive_app_thread(ctx, body))
                .expect("failed to spawn application thread"),
        );
    }

    let thread_waits: Vec<WaitTable> =
        app_joins.into_iter().map(|j| j.join().unwrap_or_default()).collect();

    drop(watchdog_stop_tx);
    let _ = watchdog_join.join();

    for tx in &inbox_txs {
        let _ = tx.send(NodeEvent::Shutdown);
    }
    // Each server thread returns its node's traffic shard; summing them
    // here at teardown is the only place the counters ever meet — the
    // send path never touches a cross-node lock.
    let mut stats = munin_net::NetStats::new();
    for j in server_joins {
        if let Ok(node_stats) = j.join() {
            stats.merge(&node_stats);
        }
    }
    drop(inbox_txs);
    drop(timer_tx);
    let _ = timer_join.join();

    let elapsed = shared.start.elapsed();
    let errors = shared.errors.lock().expect("error log poisoned").clone();
    let metrics = tuning.telemetry.enabled().then(|| shared.obs.snapshot(stats.clone()));
    RunReport {
        finished_at: VirtualTime::micros(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX)),
        stats,
        ops: shared.ops.load(Ordering::Relaxed),
        thread_waits,
        errors,
        deadlocked: shared.is_poisoned(),
        wall: Some(WallClock { elapsed, workers: n_threads, nodes: n_nodes }),
        dumps: shared.take_dumps(),
        metrics,
    }
}

/// On a stall (see [`crate::stall`]): report, capture every server's
/// `debug_stuck_state`, then poison the run so blocked threads tear down.
fn watchdog<P: Send + Sync + 'static>(
    shared: Arc<Shared>,
    inboxes: Vec<Sender<NodeEvent<P>>>,
    mut stall: StallDetector,
    stop: Receiver<()>,
) {
    while stall.poll(&stop) {
        let activity = shared.activity.load(Ordering::Relaxed);
        let live = shared.live.load(Ordering::SeqCst);
        let blocked = shared.blocked.load(Ordering::SeqCst);
        let timers = shared.timers_pending.load(Ordering::Acquire) as u64;
        if !stall.stalled(Instant::now(), &[activity], live, blocked, timers) {
            continue;
        }
        shared.error(format!(
            "stall: all {live} live thread(s) blocked in DSM operations with no kernel \
             activity and no pending timer for {:?} — real-time deadlock",
            stall.timeout()
        ));
        for tx in &inboxes {
            let _ = tx.send(NodeEvent::DumpStuck);
        }
        // Give the (idle, hence responsive) servers a beat to dump state
        // before the teardown panics start flying.
        std::thread::sleep(Duration::from_millis(300));
        shared.poisoned.store(true, Ordering::Release);
        return;
    }
}
