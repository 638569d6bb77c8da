//! The measured loop: rounds of worlds on the rt and TCP fabrics until the
//! time budget is spent, then the end-to-end metrics (untraced pass) or the
//! per-layer metrics (traced pass) computed from them.

use crate::layers;
use crate::os::{cpu_steal_s, peak_rss_mib, Net};
use crate::stats::{grouped_median, hist_quantile_us, median, quantile_ns_as_us};
use crate::workload::{setup_probe, Class, Plan, Samples, Size, Workload};
use crate::world::{self, Fabric, WorldResult};
use munin_api::Telemetry;
use munin_net::MsgClass;
use munin_obs::{Histogram, OpClass};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// One named reason per failed world.
    pub failures: Vec<String>,
    /// Sample counts and per-fabric totals behind the metrics.
    pub detail: BTreeMap<String, f64>,
    /// Metrics that could not be measured on this host.
    pub missing: Vec<String>,
}

/// Fewest rounds a run makes, whatever the time budget.
const MIN_ROUNDS: usize = 2;

/// Length of one rt turn of rounds (a TCP turn is twice as long).
const BLOCK: Duration = Duration::from_secs(1);

/// Rounds that run set-up probe worlds for the study apps. Set-up time
/// barely varies (its spread is under 1%), so a few samples per app give a
/// steady median, and later rounds spend their time on the apps.
const PROBE_ROUNDS: usize = 4;

/// Share of the CPU time the hypervisor may steal during a round that is
/// still timed (unless fewer than a quarter of the rounds are that quiet;
/// see `Runs::quiet_rounds`).
const QUIET_STEAL: f64 = 0.02;

/// Round index of the warm-up worlds each run starts with, untimed, so that
/// lazy set-up in the process (thread stacks, page faults, first sockets)
/// is paid before measuring.
const WARM_UP: usize = usize::MAX;

struct Entry {
    round: usize,
    telemetry: Telemetry,
    /// A set-up probe world rather than a workload program.
    probe: bool,
    w: WorldResult,
}

/// One measured round of one (fabric, telemetry) cell.
struct RoundStat {
    fabric: Fabric,
    telemetry: Telemetry,
    round: usize,
    /// Share of the machine's CPU time stolen by the hypervisor while the
    /// round ran (0 without `/proc`).
    steal: f64,
    /// p50 and p99 (µs) of the round's blocking data-access calls, pooled,
    /// and their count; `None` when a world failed. Timed by the benchmark
    /// where it wraps the calls, else read from the runtime's own
    /// blocking-op histograms (the study apps).
    latency: Option<(f64, f64, u64)>,
}

/// Every world a run made.
struct Runs {
    entries: Vec<Entry>,
    stats: Vec<RoundStat>,
    tcp_support: Result<(), String>,
    /// Keep each world's raw samples and telemetry (the traced pass).
    keep_detail: bool,
}

/// Sums over the ok program worlds of one (fabric, telemetry) cell.
#[derive(Default)]
struct Totals {
    worlds: u64,
    ops: u64,
    msgs: u64,
    payload_bytes: u64,
    by_class: BTreeMap<MsgClass, u64>,
    net: Option<Net>,
    virtual_s: f64,
    total_s: f64,
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

impl Runs {
    fn new(keep_detail: bool) -> Runs {
        Runs {
            entries: Vec::new(),
            stats: Vec::new(),
            tcp_support: munin_tcp::tcp_support(),
            keep_detail,
        }
    }

    /// One world per program of the plan on `fabric`. In the first
    /// [`PROBE_ROUNDS`] rounds, a study app's world is preceded by a set-up
    /// probe world with the app's object table.
    fn round(&mut self, plan: &Plan, round: usize, fabric: Fabric, telemetry: Telemetry) {
        let first = self.entries.len();
        let (steal_before, t) = (cpu_steal_s(), Instant::now());
        for prog in plan.programs() {
            let probe = (prog.probe.is_none() && round < PROBE_ROUNDS)
                .then(|| setup_probe(prog.name, &prog.builder.objects()));
            for (p, probe) in probe.into_iter().map(|p| (p, true)).chain([(prog, false)]) {
                let w = match (&self.tcp_support, fabric) {
                    (Err(e), Fabric::Tcp) => WorldResult::failed(fabric, p.name, e.clone()),
                    _ => world::run(p, fabric, telemetry),
                };
                self.entries.push(Entry { round, telemetry, probe, w });
            }
        }
        let stolen = cpu_steal_s().zip(steal_before).map_or(0.0, |(b, a)| b - a);
        let worlds = &mut self.entries[first..];
        if round != WARM_UP {
            let latency = worlds.iter().all(|e| e.w.ok()).then(|| {
                let mut own = Vec::new();
                let mut hist = Histogram::default();
                for e in worlds.iter().filter(|e| !e.probe) {
                    own.extend(e.w.samples.data_access());
                    hist.merge(&blocking_hist(&e.w));
                }
                let n = if own.is_empty() { hist.count } else { own.len() as u64 };
                Some((op_quantile(&own, &hist, 0.50)?, op_quantile(&own, &hist, 0.99)?, n))
            });
            let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
            let steal = stolen / (t.elapsed().as_secs_f64() * cpus);
            self.stats.push(RoundStat {
                fabric,
                telemetry,
                round,
                steal,
                latency: latency.flatten(),
            });
        }
        if !self.keep_detail {
            // The untraced pass needs no more than the round's summary:
            // dropping the raw samples keeps `peak_rss_mib` a reading of
            // the runtime rather than of the benchmark's own buffers.
            for e in worlds {
                e.w.samples = Samples::default();
                e.w.metrics = None;
            }
        }
    }

    /// Every measured world of one (fabric, telemetry) cell: warm-up
    /// worlds are left out.
    fn measured(&self, fabric: Fabric, tel: Telemetry) -> impl Iterator<Item = &Entry> {
        self.entries
            .iter()
            .filter(move |e| e.w.fabric == fabric && e.telemetry == tel && e.round != WARM_UP)
    }

    /// The measured worlds of a cell that ran clean.
    fn cell(&self, fabric: Fabric, tel: Telemetry) -> impl Iterator<Item = &Entry> {
        self.measured(fabric, tel).filter(|e| e.w.ok())
    }

    /// The rounds of a cell that timings are taken from: those during
    /// which the hypervisor stole at most [`QUIET_STEAL`] of the CPU time,
    /// or, where fewer than a quarter of the rounds are that quiet, the
    /// quietest quarter. Steal is other guests' load, not the program's;
    /// on bare metal every round is quiet.
    fn quiet_rounds(&self, fabric: Fabric, tel: Telemetry) -> BTreeSet<usize> {
        let cell: Vec<&RoundStat> =
            self.stats.iter().filter(|r| r.fabric == fabric && r.telemetry == tel).collect();
        let mut steal: Vec<f64> = cell.iter().map(|r| r.steal).collect();
        let cut = crate::stats::quantile(&mut steal, 0.25).unwrap_or(0.0).max(QUIET_STEAL);
        cell.iter().filter(|r| r.steal <= cut).map(|r| r.round).collect()
    }

    /// p50, p99 (µs) and sample count of each quiet round with no failed
    /// world.
    fn round_latency(&self, fabric: Fabric, tel: Telemetry) -> Vec<(f64, f64, u64)> {
        let quiet = self.quiet_rounds(fabric, tel);
        self.stats
            .iter()
            .filter(|r| r.fabric == fabric && r.telemetry == tel && quiet.contains(&r.round))
            .filter_map(|r| r.latency)
            .collect()
    }

    /// Set-up times (s) of every ok world that stamped its first start.
    fn setups(&self, fabric: Fabric, tel: Telemetry) -> Vec<f64> {
        self.cell(fabric, tel).filter_map(|e| e.w.setup.map(secs)).collect()
    }

    fn teardowns(&self, fabric: Fabric, tel: Telemetry) -> Vec<f64> {
        self.cell(fabric, tel).filter_map(|e| e.w.teardown.map(secs)).collect()
    }

    /// Per quiet round, the summed wall time (first worker start → `run()`
    /// returns) of its program worlds. A study app cannot stamp its own
    /// start, so its wall is its `run()` time less the median set-up of its
    /// probe worlds. Rounds with a failed world are left out.
    fn round_walls(&self, fabric: Fabric, tel: Telemetry) -> Vec<f64> {
        let mut probe_setups: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for e in self.cell(fabric, tel).filter(|e| e.probe) {
            if let Some(s) = e.w.setup {
                probe_setups.entry(e.w.program).or_default().push(secs(s));
            }
        }
        let probe_setup: BTreeMap<&str, f64> = probe_setups
            .into_iter()
            .filter_map(|(app, mut v)| median(&mut v).map(|m| (app, m)))
            .collect();
        let quiet = self.quiet_rounds(fabric, tel);
        let mut rounds: BTreeMap<usize, Option<f64>> = BTreeMap::new();
        for e in self.measured(fabric, tel).filter(|e| !e.probe && quiet.contains(&e.round)) {
            let wall = match (e.w.ok(), e.w.wall) {
                (false, _) => None,
                (true, Some(w)) => Some(secs(w)),
                (true, None) => probe_setup.get(e.w.program).map(|s| secs(e.w.total) - s),
            };
            let slot = rounds.entry(e.round).or_insert(Some(0.0));
            *slot = slot.zip(wall).map(|(a, b)| a + b);
        }
        rounds.into_values().flatten().collect()
    }

    /// Benchmark-timed blocking-call samples, and the runtime's own
    /// blocking-op histograms per telemetry class (the only latency source
    /// for the study apps, whose calls the benchmark cannot wrap).
    fn latency(&self, fabric: Fabric, tel: Telemetry) -> (Samples, BTreeMap<usize, Histogram>) {
        let mut samples = Samples::default();
        let mut hists: BTreeMap<usize, Histogram> = BTreeMap::new();
        for e in self.cell(fabric, tel).filter(|e| !e.probe) {
            samples.extend(&e.w.samples);
            for c in e.w.metrics.iter().flat_map(|m| &m.hists) {
                if !c.pipelined && c.class != OpClass::Other {
                    hists.entry(c.class.index()).or_default().merge(&c.hist);
                }
            }
        }
        (samples, hists)
    }

    fn totals(&self, fabric: Fabric, tel: Telemetry) -> Totals {
        let mut t = Totals { net: Some(Net { segments: 0, octets: 0 }), ..Totals::default() };
        for e in self.cell(fabric, tel).filter(|e| !e.probe) {
            t.worlds += 1;
            t.ops += e.w.ops;
            t.msgs += e.w.stats.messages;
            t.payload_bytes += e.w.stats.bytes;
            for (c, k) in &e.w.stats.by_class {
                *t.by_class.entry(*c).or_default() += k.count;
            }
            t.net = t.net.zip(e.w.net).map(|(a, b)| a + b);
            t.virtual_s += e.w.virtual_s;
            t.total_s += secs(e.w.total);
        }
        t
    }
}

/// Latency quantile (µs) of one cell: the benchmark's own samples where it
/// timed the calls, else the runtime's histograms.
fn op_quantile(samples: &[u64], hist: &Histogram, q: f64) -> Option<f64> {
    if samples.is_empty() {
        hist_quantile_us(hist, q)
    } else {
        quantile_ns_as_us(samples, q)
    }
}

/// The runtime's histogram of a world's blocking data-access ops (read,
/// write, fetch-add): the counterpart of [`Samples::data_access`] for
/// programs the benchmark cannot time itself.
fn blocking_hist(w: &WorldResult) -> Histogram {
    let mut all = Histogram::default();
    for c in w.metrics.iter().flat_map(|m| &m.hists) {
        if !c.pipelined && matches!(c.class, OpClass::Read | OpClass::Write | OpClass::FetchAdd) {
            all.merge(&c.hist);
        }
    }
    all
}

fn per(num: f64, den: u64) -> Option<f64> {
    (den > 0).then(|| num / den as f64)
}

struct Sink<'a> {
    out: &'a mut Outcome,
}

impl Sink<'_> {
    fn put(&mut self, name: impl Into<String>, value: Option<f64>, unit: &'static str) {
        let name = name.into();
        match value.filter(|v| v.is_finite()) {
            Some(value) => self.out.metrics.push(Metric { name, value, unit }),
            None => self.out.missing.push(name),
        }
    }

    fn note(&mut self, key: impl Into<String>, value: f64) {
        self.out.detail.insert(key.into(), value);
    }
}

/// Run the workload for the time budget and compute its metrics: the
/// end-to-end set, or with `trace` the per-layer set.
pub fn run(opts: &Options) -> Outcome {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds);
    let plan = Plan::new(opts.workload, opts.seed, opts.size);
    let mut runs = Runs::new(opts.trace);
    let (modes, world_budget) = if opts.trace {
        // Telemetry levels interleaved, so drift hits all three alike; the
        // rest of the budget goes to the simulator and the microbenchmarks.
        (&[Telemetry::Counters, Telemetry::Off, Telemetry::Spans][..], budget.mul_f64(0.85))
    } else {
        (&[Telemetry::Counters][..], budget)
    };
    for fabric in [Fabric::Rt, Fabric::Tcp] {
        runs.round(&plan, WARM_UP, fabric, Telemetry::Counters);
    }
    // The fabrics take turns in blocks of rounds: BLOCK on rt, then twice
    // that on TCP, whose rounds are several times dearer. An rt world that
    // starts right after a TCP world's teardown more often lands in the
    // slow mode of the adaptive spin's bimodal latency, so turns are long
    // enough to make such starts rare, and short enough that drift in the
    // host reaches both fabrics.
    let mut rounds = [0usize; 2];
    while rounds.iter().any(|r| *r < MIN_ROUNDS) || start.elapsed() < world_budget {
        for (i, turn) in [(0, BLOCK), (1, BLOCK * 2)] {
            let block = Instant::now();
            loop {
                for &tel in modes {
                    runs.round(&plan, rounds[i], [Fabric::Rt, Fabric::Tcp][i], tel);
                }
                rounds[i] += 1;
                if block.elapsed() >= turn || start.elapsed() >= world_budget {
                    break;
                }
            }
        }
    }
    let mut sim_reps = 0;
    if opts.trace {
        while sim_reps == 0 || (sim_reps < 5 && start.elapsed() < budget.mul_f64(0.92)) {
            runs.round(&plan, sim_reps, Fabric::Sim, Telemetry::Counters);
            sim_reps += 1;
        }
    }

    let mut out = Outcome {
        correct: false,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        failures: Vec::new(),
        detail: BTreeMap::new(),
        missing: Vec::new(),
    };
    count_ops(&runs, &mut out);
    let mut sink = Sink { out: &mut out };
    sink.note("rounds.rt", rounds[0] as f64);
    sink.note("rounds.tcp", rounds[1] as f64);
    let c = Telemetry::Counters;
    for f in [Fabric::Sim, Fabric::Rt, Fabric::Tcp] {
        let t = runs.totals(f, c);
        sink.note(format!("worlds.{}", f.label()), t.worlds as f64);
        sink.note(format!("ops.{}", f.label()), t.ops as f64);
        sink.note(format!("msgs.{}", f.label()), t.msgs as f64);
        // Per program, messages and ops of its first ok world: equal on
        // every fabric for a program whose traffic is deterministic.
        for e in runs.cell(f, c).filter(|e| !e.probe && e.round == 0) {
            sink.note(format!("msgs.{}.{}", f.label(), e.w.program), e.w.stats.messages as f64);
            sink.note(format!("ops.{}.{}", f.label(), e.w.program), e.w.ops as f64);
        }
    }
    if opts.trace {
        per_layer(&runs, &plan, sim_reps, &mut sink);
    } else {
        end_to_end(&runs, &mut sink);
    }
    out.correct = out.failed == 0;
    out
}

/// Attempted and failed ops over every world of the run. A failed world
/// counts all of its ops as failed: where it died before counting them,
/// as many as the same program's ok worlds issued. A set-up probe world
/// counts as one op.
fn count_ops(runs: &Runs, out: &mut Outcome) {
    let mut typical: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for e in runs.entries.iter().filter(|e| e.w.ok() && !e.probe) {
        typical.entry(e.w.program).or_default().push(e.w.ops as f64);
    }
    for e in &runs.entries {
        let ops = match (e.probe, &e.w.error) {
            (true, _) => 1,
            (false, None) => e.w.ops,
            (false, Some(_)) => {
                let usual = typical.get_mut(e.w.program).and_then(|v| median(v)).unwrap_or(1.0);
                e.w.ops.max(usual as u64)
            }
        };
        out.attempted += ops;
        if let Some(reason) = &e.w.error {
            out.failed += ops;
            out.failures.push(format!("{}: {reason}", e.w.fabric.label()));
        }
    }
}

fn end_to_end(runs: &Runs, sink: &mut Sink) {
    let c = Telemetry::Counters;
    let mut setups = runs.setups(Fabric::Tcp, c);
    sink.note("setup_samples", setups.len() as f64);
    sink.put("setup_s", median(&mut setups), "s");
    for f in [Fabric::Rt, Fabric::Tcp] {
        let l = f.label();
        let mut walls = runs.round_walls(f, c);
        sink.note(format!("wall_samples.{l}"), walls.len() as f64);
        sink.put(format!("wall_s.{l}"), median(&mut walls), "s");
        let lat = runs.round_latency(f, c);
        sink.note(format!("op_latency_samples.{l}"), lat.iter().map(|r| r.2).sum::<u64>() as f64);
        let mut p50: Vec<f64> = lat.iter().map(|r| r.0).collect();
        let mut p99: Vec<f64> = lat.iter().map(|r| r.1).collect();
        sink.put(format!("op_p50_us.{l}"), median(&mut p50), "us");
        sink.put(format!("op_p99_us.{l}"), median(&mut p99), "us");
    }
    let t = runs.totals(Fabric::Tcp, c);
    sink.put("msgs_per_op", per(t.msgs as f64, t.ops), "msg/op");
    sink.put("wire_bytes_per_op", t.net.and_then(|n| per(n.octets as f64, t.ops)), "B/op");
    let ok = sink.out.attempted - sink.out.failed;
    sink.put("success_ratio", per(ok as f64, sink.out.attempted), "ratio");
    sink.put("peak_rss_mib", peak_rss_mib(), "MiB");
}

/// The span segments each fabric's remote ops pass through, named by the
/// stamp that ends them.
const SEGMENTS: [(Fabric, &[&str]); 2] = [
    (Fabric::Rt, &["dispatch", "home", "reply", "resume"]),
    (Fabric::Tcp, &["fwd", "dispatch", "home", "reply", "resume"]),
];

fn per_layer(runs: &Runs, plan: &Plan, sim_reps: usize, sink: &mut Sink) {
    let (c, off, spans) = (Telemetry::Counters, Telemetry::Off, Telemetry::Spans);
    // api: per-class latency of blocking calls under default telemetry. A
    // class the workload never issues reads 0 with a sample count of 0.
    for f in [Fabric::Rt, Fabric::Tcp] {
        let (samples, hists) = runs.latency(f, c);
        for class in Class::ALL {
            let name = format!("api.{}.{}", f.label(), class.label());
            let own = samples.class(class);
            let hist = class.obs().and_then(|o| hists.get(&o.index())).cloned().unwrap_or_default();
            let n = if own.is_empty() { hist.count } else { own.len() as u64 };
            sink.note(format!("{name}.samples"), n as f64);
            for (q, tag) in [(0.50, "p50_us"), (0.99, "p99_us")] {
                let v = if n == 0 { Some(0.0) } else { op_quantile(own, &hist, q) };
                sink.put(format!("{name}.{tag}"), v, "us");
            }
        }
    }
    // rt / tcp segments from the Spans worlds' tail sample.
    let (mut kept, mut dropped) = (0u64, 0u64);
    for (f, labels) in SEGMENTS {
        let mut seg: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
        for e in runs.cell(f, spans).filter(|e| !e.probe) {
            let Some(m) = &e.w.metrics else { continue };
            kept += m.spans.len() as u64;
            dropped += m.spans_dropped;
            for s in &m.spans {
                for (label, a, b) in s.segments() {
                    seg.entry(label).or_default().push(b.saturating_sub(a));
                }
            }
        }
        for label in labels {
            let mut v = seg.remove(label).unwrap_or_default();
            sink.note(format!("{}.seg.{label}.samples", f.label()), v.len() as f64);
            let p50 = if v.is_empty() { Some(0.0) } else { grouped_median(&mut v) };
            sink.put(format!("{}.seg.{label}_p50_us", f.label()), p50, "us");
        }
    }
    sink.put("obs.spans_dropped_share", per(dropped as f64, kept + dropped), "ratio");
    // obs: wall with recording on ÷ wall with it off, both fabrics summed.
    let wall = |tel| -> Option<f64> {
        let mut rt = runs.round_walls(Fabric::Rt, tel);
        let mut tcp = runs.round_walls(Fabric::Tcp, tel);
        Some(median(&mut rt)? + median(&mut tcp)?)
    };
    let base = wall(off);
    sink.put("obs.counters_cost", wall(c).zip(base).map(|(a, b)| a / b), "ratio");
    sink.put("obs.spans_cost", wall(spans).zip(base).map(|(a, b)| a / b), "ratio");
    // tcp and rt from outside the fabric.
    let mut teardowns = runs.teardowns(Fabric::Tcp, c);
    sink.put("tcp.teardown_s", median(&mut teardowns), "s");
    let t = runs.totals(Fabric::Tcp, c);
    sink.put("tcp.segments_per_op", t.net.and_then(|n| per(n.segments as f64, t.ops)), "seg/op");
    sink.put("tcp.wire_bytes_per_op", t.net.and_then(|n| per(n.octets as f64, t.ops)), "B/op");
    sink.put("net.payload_bytes_per_op.tcp", per(t.payload_bytes as f64, t.ops), "B/op");
    let mut rt_setups = runs.setups(Fabric::Rt, c);
    sink.put("rt.setup_s", median(&mut rt_setups), "s");
    let mut rows = Vec::new();
    if let Err(e) = layers::frames(&mut rows) {
        sink.out.failures.push(format!("tcp frame echo: {e}"));
        sink.out.failed += 1;
    }
    sink.out.attempted += 1;
    layers::proto(&mut rows);
    let s = &plan.size;
    let twinned = [s.gauss_n as usize * 8, s.fft_n as usize * 8, (s.matmul_n as usize).pow(2) * 8];
    layers::mem(&twinned, &mut rows);
    for (name, v) in rows {
        let unit = if name.starts_with("tcp.") {
            "us"
        } else if name.starts_with("mem.") {
            "ns/KiB"
        } else {
            "ns"
        };
        sink.put(name, Some(v), unit);
    }
    // core / net / sim from the simulator run of the same programs.
    let sim = runs.totals(Fabric::Sim, c);
    for class in MsgClass::ALL {
        let n = sim.by_class.get(&class).copied().unwrap_or(0);
        sink.put(format!("core.msgs_per_op.{}", class.label()), per(n as f64, sim.ops), "msg/op");
    }
    sink.put("core.payload_bytes_per_op", per(sim.payload_bytes as f64, sim.ops), "B/op");
    let reps = sim_reps as u64;
    sink.put("sim.virtual_s", per(sim.virtual_s, reps), "model_s");
    sink.put("sim.wall_s", per(sim.total_s, reps), "s");
    sink.put(
        "sim.msgs_per_wall_s",
        (sim.total_s > 0.0).then(|| sim.msgs as f64 / sim.total_s),
        "msg/s",
    );
}
