//! Running one program on one fabric, and what the benchmark keeps of it.

use crate::os::Net;
use crate::workload::{panic_text, Program, Samples};
use munin_api::{Backend, ComputeMode, RtTuning, Telemetry};
use munin_net::NetStats;
use munin_obs::MetricsSnapshot;
use munin_sim::report::RunReport;
use munin_types::MuninConfig;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    /// The virtual-time simulator (model output only).
    Sim,
    /// `MuninRt`: the in-process real-time kernel.
    Rt,
    /// `MuninTcp`: `munin-node` processes over loopback.
    Tcp,
}

impl Fabric {
    pub fn label(self) -> &'static str {
        match self {
            Fabric::Sim => "sim",
            Fabric::Rt => "rt",
            Fabric::Tcp => "tcp",
        }
    }
}

/// The one tuning the benchmark runs with: `RtTuning::default()` except
/// that modelled compute is skipped — it is not the runtime's work, and
/// sleeping it adds timer jitter.
pub fn tuning(telemetry: Telemetry) -> RtTuning {
    RtTuning { compute: ComputeMode::Skip, telemetry, ..RtTuning::default() }
}

/// Op labels of the report's wait tables that are not Par calls of the
/// program: thread exit, skipped modelled compute, and the fabric's own
/// waits for async completions.
const NOT_CALLS: [&str; 4] = ["exit", "compute", "token_wait", "drain"];

/// Par calls that reached the runtime, from the report's wait tables —
/// the op count for programs the benchmark cannot instrument.
pub fn calls_in(report: &RunReport) -> u64 {
    report
        .thread_waits
        .iter()
        .flat_map(|w| w.iter())
        .filter(|(label, _)| !NOT_CALLS.contains(label))
        .map(|(_, (n, _))| *n)
        .sum()
}

/// What one world left behind.
pub struct WorldResult {
    pub fabric: Fabric,
    pub program: &'static str,
    /// Why the world failed (error, stall, panic or wrong output).
    pub error: Option<String>,
    /// Par calls issued by the program's threads.
    pub ops: u64,
    /// `run()` call → `run()` return.
    pub total: Duration,
    /// `run()` call → first worker body starts (instrumented programs).
    pub setup: Option<Duration>,
    /// First worker body starts → `run()` returns (instrumented programs).
    pub wall: Option<Duration>,
    /// Last worker body ends → `run()` returns (instrumented programs).
    pub teardown: Option<Duration>,
    /// Benchmark-timed blocking calls (instrumented programs).
    pub samples: Samples,
    pub stats: NetStats,
    pub metrics: Option<MetricsSnapshot>,
    /// Loopback TCP output over the `run()` call.
    pub net: Option<Net>,
    /// Virtual seconds at completion (simulator only).
    pub virtual_s: f64,
}

impl WorldResult {
    /// A world that could not run at all.
    pub fn failed(fabric: Fabric, program: &'static str, reason: String) -> WorldResult {
        WorldResult {
            fabric,
            program,
            error: Some(format!("{program}: {reason}")),
            ops: 1,
            total: Duration::ZERO,
            setup: None,
            wall: None,
            teardown: None,
            samples: Samples::default(),
            stats: NetStats::default(),
            metrics: None,
            net: None,
            virtual_s: 0.0,
        }
    }

    pub fn ok(&self) -> bool {
        self.error.is_none()
    }
}

/// Run `program` on `fabric` with the given telemetry and check its outputs.
pub fn run(program: Program, fabric: Fabric, telemetry: Telemetry) -> WorldResult {
    let Program { name, mut builder, probe, verify } = program;
    builder.rt_tuning(tuning(telemetry));
    let cfg = MuninConfig::default();
    let backend = match fabric {
        Fabric::Sim => Backend::Munin(cfg),
        Fabric::Rt => Backend::MuninRt(cfg),
        Fabric::Tcp => Backend::MuninTcp(cfg),
    };
    let net_before = Net::read();
    let called = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| builder.run(backend)));
    let returned = Instant::now();
    let net = Net::read().zip(net_before).map(|(after, before)| after.since(before));

    let first = probe.as_ref().and_then(|p| p.first_start());
    let mut world = WorldResult {
        fabric,
        program: name,
        error: None,
        ops: 0,
        total: returned - called,
        setup: first.map(|f| f.saturating_duration_since(called)),
        wall: first.map(|f| returned.saturating_duration_since(f)),
        teardown: probe
            .as_ref()
            .and_then(|p| p.last_end())
            .map(|l| returned.saturating_duration_since(l)),
        samples: probe.as_ref().map(|p| p.samples()).unwrap_or_default(),
        stats: NetStats::default(),
        metrics: None,
        net,
        virtual_s: 0.0,
    };
    let report = match outcome {
        Ok(out) => match out.try_report() {
            Some(r) => r.clone(),
            None => {
                world.error = Some(format!("{name}: no run report"));
                return world;
            }
        },
        Err(p) => {
            world.error = Some(format!("{name}: run panicked: {}", panic_text(p.as_ref())));
            world.ops = probe.as_ref().map_or(1, |p| p.ops().max(1));
            return world;
        }
    };
    world.ops = match &probe {
        Some(p) => p.ops(),
        None => calls_in(&report),
    };
    world.error = if report.deadlocked {
        Some(format!("{name}: stalled: {}", report.errors.join("; ")))
    } else if let Some(e) = report.errors.first() {
        Some(format!("{name}: {e}"))
    } else {
        verify().err()
    };
    if fabric == Fabric::Sim {
        world.virtual_s = report.finished_at.as_micros() as f64 / 1e6;
    }
    world.stats = report.stats;
    world.metrics = report.metrics;
    world.ops = world.ops.max(1);
    world
}
