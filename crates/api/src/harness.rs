//! The program harness: declare shared objects and synchronization objects,
//! spawn threads, pick a backend, run.
//!
//! The same [`ProgramBuilder`] program runs on Munin (type-specific
//! coherence), Ivy (page-based strict coherence) or native threads; the
//! experiments in `munin-bench` are all phrased as "build program once, run
//! under several backends/configurations, compare reports".

use crate::native::{NativeCtx, NativeWorld};
use crate::par::Par;
use munin_core::MuninProto;
use munin_ivy::IvyProto;
use munin_proto::Protocol;
use munin_rt::{RtCtx, RtTuning};
use munin_sim::{RunReport, ThreadCtx, Tracer, TransportConfig, World, WorldSpec};
use munin_tardis::TardisProto;
use munin_tcp::{TcpTuning, TestFault};
use munin_types::{
    BarrierDecl, BarrierId, CondDecl, CondId, Element, IvyConfig, LockDecl, LockId, MuninConfig,
    NodeId, ObjectDecl, ObjectId, SharedArray, SharedScalar, SharingType, TardisConfig,
};

/// Which runtime executes the program.
#[derive(Debug, Clone)]
pub enum Backend {
    /// The Munin runtime on the deterministic simulator.
    Munin(MuninConfig),
    /// The Ivy baseline on the deterministic simulator.
    Ivy(IvyConfig),
    /// The Munin runtime on the real-time kernel: one OS thread per node
    /// server, truly parallel app threads, wall-clock measurements.
    MuninRt(MuninConfig),
    /// The Ivy baseline on the real-time kernel.
    IvyRt(IvyConfig),
    /// The Munin runtime on the multi-process TCP fabric: one OS process
    /// per node (`munin-node` children), protocol messages as
    /// length-prefixed frames on one stream per node pair, application
    /// threads hosted by the coordinator. Probe
    /// [`tcp_support`](munin_tcp::tcp_support) before selecting this in an
    /// environment that may lack loopback sockets or the node binary.
    MuninTcp(MuninConfig),
    /// The Ivy baseline on the TCP fabric.
    IvyTcp(IvyConfig),
    /// Tardis timestamp-lease coherence on the deterministic simulator.
    Tardis(TardisConfig),
    /// Tardis on the real-time kernel.
    TardisRt(TardisConfig),
    /// Tardis on the TCP fabric.
    TardisTcp(TardisConfig),
    /// Real threads, real shared memory (semantic reference).
    Native,
}

/// Which kernel a backend runs its servers on. Every non-native backend is
/// a (protocol × fabric) product; this is the fabric axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fabric {
    /// The deterministic virtual-time simulator.
    Sim = 0,
    /// The in-process real-time kernel (one OS thread per node server).
    Rt = 1,
    /// The multi-process TCP fabric (one OS process per node).
    Tcp = 2,
}

impl Backend {
    /// The fabric axis of the (protocol × fabric) decomposition; `None`
    /// for the native reference backend.
    fn fabric(&self) -> Option<Fabric> {
        match self {
            Backend::Munin(_) | Backend::Ivy(_) | Backend::Tardis(_) => Some(Fabric::Sim),
            Backend::MuninRt(_) | Backend::IvyRt(_) | Backend::TardisRt(_) => Some(Fabric::Rt),
            Backend::MuninTcp(_) | Backend::IvyTcp(_) | Backend::TardisTcp(_) => Some(Fabric::Tcp),
            Backend::Native => None,
        }
    }

    /// The protocol axis: the protocol's per-fabric backend-name table
    /// ([`Protocol::BACKEND_NAMES`]). `None` for native.
    fn proto_names(&self) -> Option<[&'static str; 3]> {
        match self {
            Backend::Munin(_) | Backend::MuninRt(_) | Backend::MuninTcp(_) => {
                Some(MuninProto::BACKEND_NAMES)
            }
            Backend::Ivy(_) | Backend::IvyRt(_) | Backend::IvyTcp(_) => {
                Some(IvyProto::BACKEND_NAMES)
            }
            Backend::Tardis(_) | Backend::TardisRt(_) | Backend::TardisTcp(_) => {
                Some(TardisProto::BACKEND_NAMES)
            }
            Backend::Native => None,
        }
    }

    /// Default lossless transport matching the backend's cost model. The
    /// real-time backends use OS channels, not the simulated transport, so
    /// (like Native) the value is unused for them.
    fn transport(&self) -> TransportConfig {
        match self {
            Backend::Munin(c) => TransportConfig::lossless(c.cost.clone()),
            Backend::Ivy(c) => TransportConfig::lossless(c.cost.clone()),
            Backend::Tardis(c) => TransportConfig::lossless(c.cost.clone()),
            _ => TransportConfig::default(),
        }
    }

    /// Short display name, used in reports and error messages. Sourced
    /// from each protocol's [`Protocol::BACKEND_NAMES`], so a protocol's
    /// naming lives in its own crate.
    pub fn name(&self) -> &'static str {
        match (self.proto_names(), self.fabric()) {
            (Some(names), Some(fabric)) => names[fabric as usize],
            _ => "Native",
        }
    }

    /// Does this backend run on a wall-clock kernel (in-process rt or the
    /// multi-process TCP fabric)?
    pub fn is_realtime(&self) -> bool {
        matches!(self.fabric(), Some(Fabric::Rt | Fabric::Tcp))
    }

    /// Does this backend span multiple OS processes?
    pub fn is_distributed(&self) -> bool {
        self.fabric() == Some(Fabric::Tcp)
    }

    /// Every (protocol × fabric) backend with default configs, in
    /// protocol-major order. The one list the cross-backend tests and
    /// traffic benches iterate — a new protocol shows up everywhere by
    /// extending this (and [`Backend::parse`]), nowhere else. `Native` is
    /// excluded: it is the semantic reference, not a protocol backend, and
    /// callers that want it add it explicitly. Distributed entries are
    /// included; gate them with [`Backend::is_distributed`] +
    /// [`munin_tcp::tcp_support`] where the environment may lack them.
    pub fn matrix() -> Vec<Backend> {
        vec![
            Backend::Munin(MuninConfig::default()),
            Backend::MuninRt(MuninConfig::default()),
            Backend::MuninTcp(MuninConfig::default()),
            Backend::Ivy(IvyConfig::default()),
            Backend::IvyRt(IvyConfig::default()),
            Backend::IvyTcp(IvyConfig::default()),
            Backend::Tardis(TardisConfig::default()),
            Backend::TardisRt(TardisConfig::default()),
            Backend::TardisTcp(TardisConfig::default()),
        ]
    }

    /// Parse a backend name (as printed by [`Backend::name`], or the
    /// kebab-case CLI spelling like `munin-tcp`/`tardis-rt`) into a
    /// default-config backend. Drives the study/bench CLIs.
    pub fn parse(name: &str) -> Option<Backend> {
        if name.eq_ignore_ascii_case("native") {
            return Some(Backend::Native);
        }
        let canon: String = name.chars().filter(|c| *c != '-' && *c != '_').collect();
        Backend::matrix().into_iter().find(|b| b.name().eq_ignore_ascii_case(&canon))
    }
}

/// Result of a run.
pub struct Outcome {
    /// Simulation report (None for native runs).
    pub report: Option<RunReport>,
    /// Wall-clock duration of the run (host time; only meaningful for
    /// native runs).
    pub wall: std::time::Duration,
    /// Which backend produced this outcome (for diagnostics).
    backend: &'static str,
}

impl Outcome {
    /// The simulation report; panics (naming the backend) if the run has
    /// none. Use [`Outcome::try_report`] when the backend may be native.
    pub fn report(&self) -> &RunReport {
        match &self.report {
            Some(r) => r,
            None => panic!(
                "no simulation report: this program ran on the {} backend, which executes \
                 real threads and produces only wall-clock timing — use try_report() (or \
                 Outcome::wall) for backend-agnostic code",
                self.backend
            ),
        }
    }

    /// The simulation report, if the backend produced one (native runs do
    /// not).
    pub fn try_report(&self) -> Option<&RunReport> {
        self.report.as_ref()
    }

    /// Name of the backend that produced this outcome.
    pub fn backend_name(&self) -> &'static str {
        self.backend
    }

    /// The run's telemetry snapshot, if the backend records one (wall-clock
    /// fabrics with `RtTuning::telemetry` not `Off`; the simulator and
    /// native backends never do).
    pub fn metrics(&self) -> Option<&munin_obs::MetricsSnapshot> {
        self.report.as_ref().and_then(|r| r.metrics.as_ref())
    }

    /// Panic unless the run was clean (native runs are clean if they joined).
    pub fn assert_clean(&self) -> &Self {
        if let Some(r) = &self.report {
            r.assert_clean();
        }
        self
    }
}

/// Builder for a portable parallel program.
pub struct ProgramBuilder {
    spec: WorldSpec<dyn Par>,
    rt_tuning: RtTuning,
    tcp_fault: Option<TestFault>,
}

impl ProgramBuilder {
    pub fn new(n_nodes: usize) -> Self {
        ProgramBuilder {
            spec: WorldSpec::new(n_nodes),
            rt_tuning: RtTuning::default(),
            tcp_fault: None,
        }
    }

    /// Tuning for the real-time backends (compute mode, stall timeout);
    /// ignored by the simulator and native backends.
    pub fn rt_tuning(&mut self, tuning: RtTuning) -> &mut Self {
        self.rt_tuning = tuning;
        self
    }

    /// Inject a process-level fault (node kill, half-closed stream) on the
    /// TCP backends — the fault-campaign hook for real-fabric failures.
    /// Ignored by every other backend.
    pub fn inject_tcp_fault(&mut self, fault: TestFault) -> &mut Self {
        self.tcp_fault = Some(fault);
        self
    }

    /// Attach a protocol-state coverage recorder; the run's servers note
    /// (protocol, object, state, event) transitions into it on every
    /// backend (sim, rt, tcp). Ignored by the native backend, which has no
    /// protocol underneath. `None` (the default) keeps the note sites to a
    /// single predicted branch.
    pub fn coverage(&mut self, map: std::sync::Arc<munin_obs::CoverageMap>) -> &mut Self {
        self.spec.coverage = Some(map);
        self
    }

    pub fn n_nodes(&self) -> usize {
        self.spec.n_nodes()
    }

    /// Declare a typed shared array of `len` elements of `T`, homed on node
    /// `home`. The returned handle carries the element type, length and
    /// sharing annotation, so every access through it is bounds- and
    /// type-checked at the API layer.
    #[track_caller]
    pub fn array<T: Element>(
        &mut self,
        name: &str,
        len: u32,
        sharing: SharingType,
        home: usize,
    ) -> SharedArray<T> {
        let bytes = (len as u64).checked_mul(T::SIZE as u64).filter(|b| *b <= u32::MAX as u64);
        let bytes =
            bytes.unwrap_or_else(|| panic!("array `{name}`: {len} x {} overflows u32", T::NAME));
        let id = self.object(name, bytes as u32, sharing, home);
        SharedArray::from_raw(id, len, sharing)
    }

    /// Declare a typed shared array from a declaration template (see
    /// [`ObjectDecl::template`]) — for lock-associated migratory arrays and
    /// eager producer-consumer arrays. The template's id, size and home are
    /// filled in here.
    #[track_caller]
    pub fn array_decl<T: Element>(
        &mut self,
        mut decl: ObjectDecl,
        len: u32,
        home: usize,
    ) -> SharedArray<T> {
        let bytes = (len as u64).checked_mul(T::SIZE as u64).filter(|b| *b <= u32::MAX as u64);
        decl.size = bytes
            .unwrap_or_else(|| panic!("array `{}`: {len} x {} overflows u32", decl.name, T::NAME))
            as u32;
        let sharing = decl.sharing;
        let id = self.object_decl(decl, home);
        SharedArray::from_raw(id, len, sharing)
    }

    /// Declare a typed shared scalar of `T`, homed on node `home`.
    pub fn scalar<T: Element>(
        &mut self,
        name: &str,
        sharing: SharingType,
        home: usize,
    ) -> SharedScalar<T> {
        let id = self.object(name, T::SIZE as u32, sharing, home);
        SharedScalar::from_raw(id, sharing)
    }

    /// Declare a typed shared scalar from a declaration template (the
    /// scalar analogue of [`ProgramBuilder::array_decl`]).
    pub fn scalar_decl<T: Element>(
        &mut self,
        mut decl: ObjectDecl,
        home: usize,
    ) -> SharedScalar<T> {
        decl.size = T::SIZE as u32;
        let sharing = decl.sharing;
        let id = self.object_decl(decl, home);
        SharedScalar::from_raw(id, sharing)
    }

    /// Declare an untyped shared object homed on `home` (node index) and
    /// return its raw id. Prefer the typed [`ProgramBuilder::array`] /
    /// [`ProgramBuilder::scalar`]; the raw form remains for runtimes and
    /// experiment plumbing that work below the typed layer.
    pub fn object(&mut self, name: &str, size: u32, sharing: SharingType, home: usize) -> ObjectId {
        let decl = ObjectDecl::new(ObjectId(0), name, size, sharing, NodeId(home as u16));
        self.object_decl(decl, home)
    }

    /// Declare a shared object from a full declaration template (for
    /// lock-associated migratory objects and eager producer-consumer
    /// objects). The id and home are overwritten.
    pub fn object_decl(&mut self, decl: ObjectDecl, home: usize) -> ObjectId {
        self.spec.declare(decl, NodeId(home as u16))
    }

    /// Declare a distributed lock homed on `home`.
    pub fn lock(&mut self, home: usize) -> LockId {
        let id = LockId(self.spec.sync.locks.len() as u32);
        self.spec.sync.locks.push(LockDecl { id, home: NodeId(home as u16) });
        id
    }

    /// Declare a barrier with `count` participants, homed on `home`.
    pub fn barrier(&mut self, home: usize, count: u32) -> BarrierId {
        let id = BarrierId(self.spec.sync.barriers.len() as u32);
        self.spec.sync.barriers.push(BarrierDecl { id, home: NodeId(home as u16), count });
        id
    }

    /// Declare a condition variable homed on `home` (Munin backend only).
    pub fn cond(&mut self, home: usize) -> CondId {
        let id = CondId(self.spec.sync.conds.len() as u32);
        self.spec.sync.conds.push(CondDecl { id, home: NodeId(home as u16) });
        id
    }

    /// Spawn a program thread on node `node`.
    pub fn thread(&mut self, node: usize, f: impl FnOnce(&mut dyn Par) + Send + 'static) {
        assert!(node < self.n_nodes(), "thread placed on unknown node {node}");
        self.spec.spawn(NodeId(node as u16), move |par| f(par));
    }

    /// Number of threads spawned so far.
    pub fn n_threads(&self) -> usize {
        self.spec.n_threads()
    }

    /// Snapshot of the declared objects (for the sharing-study classifier,
    /// which compares observed behaviour against the annotations).
    pub fn objects(&self) -> Vec<ObjectDecl> {
        self.spec.decls().to_vec()
    }

    /// Clear (or set) the eager flag on every producer-consumer object —
    /// the lazy-propagation ablation of experiment E7.
    pub fn set_eager_all(&mut self, eager: bool) {
        for d in self.spec.decls_mut() {
            if d.sharing == SharingType::ProducerConsumer {
                d.eager = eager;
            }
        }
    }

    /// Rewrite every object's sharing annotation — the "single static
    /// protocol" ablation (e.g. force everything to `GeneralReadWrite` to
    /// measure what Munin's type-specific dispatch buys). Lock associations
    /// are dropped when the type changes away from `Migratory`.
    pub fn retype_all(&mut self, f: impl Fn(SharingType) -> SharingType) {
        for d in self.spec.decls_mut() {
            let nt = f(d.sharing);
            if nt != d.sharing {
                d.sharing = nt;
                if nt != SharingType::Migratory {
                    d.associated_lock = None;
                }
                d.eager = false;
            }
        }
    }

    /// Run on the chosen backend with the default (lossless) transport.
    pub fn run(self, backend: Backend) -> Outcome {
        let transport = backend.transport();
        self.run_with(backend, transport, None)
    }

    /// Run with an explicit transport configuration (loss injection, shared
    /// medium) and/or a tracer.
    pub fn run_with(
        self,
        backend: Backend,
        transport: TransportConfig,
        tracer: Option<Box<dyn Tracer>>,
    ) -> Outcome {
        let started = std::time::Instant::now();
        let backend_name = backend.name();
        let Some(fabric) = backend.fabric() else {
            let world = NativeWorld::new(
                self.spec.decls().iter().map(|d| (d.id, d.size as usize)),
                self.spec.sync.locks.len(),
                &self.spec.sync.barriers.iter().map(|b| b.count as usize).collect::<Vec<_>>(),
                self.spec.sync.conds.len(),
                self.spec.n_threads(),
            );
            let mut joins = Vec::new();
            for (i, (_node, body)) in self.spec.into_parts().1.into_iter().enumerate() {
                let w = world.clone();
                joins.push(std::thread::spawn(move || {
                    let mut ctx = NativeCtx::new(w, i);
                    body(&mut ctx);
                }));
            }
            for j in joins {
                j.join().expect("native program thread panicked");
            }
            return Outcome { report: None, wall: started.elapsed(), backend: backend_name };
        };
        let report = match backend {
            // A protocol backend is a (protocol × fabric) product: one arm
            // per protocol, the fabric picked inside `run_proto`.
            Backend::Munin(c) | Backend::MuninRt(c) | Backend::MuninTcp(c) => {
                self.run_proto::<MuninProto>(fabric, c, transport, tracer, backend_name)
            }
            Backend::Ivy(c) | Backend::IvyRt(c) | Backend::IvyTcp(c) => {
                self.run_proto::<IvyProto>(fabric, c, transport, tracer, backend_name)
            }
            Backend::Tardis(c) | Backend::TardisRt(c) | Backend::TardisTcp(c) => {
                self.run_proto::<TardisProto>(fabric, c, transport, tracer, backend_name)
            }
            Backend::Native => unreachable!("the native backend has no fabric"),
        };
        Outcome { report: Some(report), wall: started.elapsed(), backend: backend_name }
    }

    /// Run protocol `Pr` on `fabric`.
    fn run_proto<Pr: Protocol>(
        self,
        fabric: Fabric,
        cfg: Pr::Config,
        transport: TransportConfig,
        tracer: Option<Box<dyn Tracer>>,
        backend: &'static str,
    ) -> RunReport {
        let spec = self.spec;
        let servers = |spec: &WorldSpec<dyn Par>| -> Vec<Pr::Server> {
            let n = spec.n_nodes();
            (0..n)
                .map(|i| Pr::server(&cfg, NodeId(i as u16), n, spec.decls(), &spec.sync))
                .collect()
        };
        match fabric {
            Fabric::Sim => {
                let servers = servers(&spec);
                World::new(spec.for_ctx::<ThreadCtx>(), servers, transport, tracer).run()
            }
            // The wall-clock fabrics run over OS channels or sockets:
            // simulated-wire features (loss injection, shared medium,
            // tracing) cannot be honored, and silently dropping them would
            // let an experiment measure something other than what it
            // configured — reject loudly instead.
            Fabric::Rt => {
                assert_rt_supports(&transport, &tracer, backend);
                let servers = servers(&spec);
                let spec = spec.for_ctx::<RtCtx<Pr::Msg>>();
                munin_rt::run_world(spec, servers, Pr::cost(&cfg).clone(), &self.rt_tuning)
            }
            // Same thread bodies, same `RtCtx` surface: the coordinator
            // forwards remote-node operations over the per-node control
            // streams.
            Fabric::Tcp => {
                assert_rt_supports(&transport, &tracer, backend);
                let mut tuning = TcpTuning::from(self.rt_tuning);
                tuning.test_fault = self.tcp_fault;
                munin_tcp::run_world::<Pr>(spec.for_ctx::<RtCtx<Pr::Msg>>(), cfg, &tuning)
            }
        }
    }
}

/// The real-time kernel's wires are OS channels: no loss injection, no
/// shared-medium serialization, no tracer. Reject configurations that ask
/// for them so experiments fail loudly instead of measuring the wrong
/// thing. (The transport's cost model is irrelevant here — rt servers take
/// their cost model from the backend config.)
fn assert_rt_supports(
    transport: &TransportConfig,
    tracer: &Option<Box<dyn Tracer>>,
    backend: &str,
) {
    assert!(
        tracer.is_none(),
        "the {backend} backend runs on the real-time kernel, which has no tracer hook; \
         run the program on the simulator backend to trace it"
    );
    assert!(
        transport.drop_prob == 0.0 && !transport.serialize_medium,
        "the {backend} backend runs over OS channels and cannot simulate message loss or a \
         shared medium; use the simulator backend for transport experiments"
    );
}

/// Convenience: run a simple report-returning simulation and unwrap it.
pub fn run_sim(builder: ProgramBuilder, backend: Backend) -> RunReport {
    let out = builder.run(backend);
    out.report.expect("sim backend")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::ParTyped;
    use std::sync::atomic::{AtomicI64, Ordering};
    use std::sync::Arc;

    /// One program, three backends, identical results.
    fn counting_program(n: usize) -> (ProgramBuilder, Arc<AtomicI64>) {
        let mut p = ProgramBuilder::new(n);
        let ctr = p.scalar::<i64>("ctr", SharingType::GeneralReadWrite, 0);
        let l = p.lock(0);
        let bar = p.barrier(0, n as u32);
        let total = Arc::new(AtomicI64::new(-1));
        for i in 0..n {
            let total = total.clone();
            p.thread(i, move |par| {
                for _ in 0..5 {
                    par.lock(l);
                    let v = par.load(&ctr);
                    par.store(&ctr, v + 1);
                    par.unlock(l);
                }
                par.barrier(bar);
                if par.self_id() == 0 {
                    par.lock(l);
                    total.store(par.load(&ctr), Ordering::SeqCst);
                    par.unlock(l);
                }
            });
        }
        (p, total)
    }

    #[test]
    fn try_report_present_on_sim_absent_on_native() {
        let (p, _) = counting_program(2);
        let o = p.run(Backend::Munin(MuninConfig::default()));
        assert!(o.try_report().is_some());
        assert_eq!(o.backend_name(), "Munin");

        let (p, _) = counting_program(2);
        let o = p.run(Backend::Native);
        assert!(o.try_report().is_none());
        assert_eq!(o.backend_name(), "Native");
    }

    #[test]
    fn native_report_panic_names_the_backend() {
        let (p, _) = counting_program(2);
        let o = p.run(Backend::Native);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = o.report();
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("Native backend"), "panic message was: {msg}");
        assert!(msg.contains("try_report"), "panic message was: {msg}");
    }

    #[test]
    fn same_program_runs_on_munin() {
        let (p, total) = counting_program(3);
        p.run(Backend::Munin(MuninConfig::default())).assert_clean();
        assert_eq!(total.load(Ordering::SeqCst), 15);
    }

    #[test]
    fn same_program_runs_on_ivy() {
        let (p, total) = counting_program(3);
        p.run(Backend::Ivy(IvyConfig::default())).assert_clean();
        assert_eq!(total.load(Ordering::SeqCst), 15);
    }

    #[test]
    fn same_program_runs_on_ivy_central_locks() {
        let (p, total) = counting_program(3);
        p.run(Backend::Ivy(IvyConfig::default().with_central_locks())).assert_clean();
        assert_eq!(total.load(Ordering::SeqCst), 15);
    }

    #[test]
    fn same_program_runs_native() {
        let (p, total) = counting_program(3);
        p.run(Backend::Native).assert_clean();
        assert_eq!(total.load(Ordering::SeqCst), 15);
    }

    #[test]
    fn uncontended_remote_lock_costs_constant_messages_on_both() {
        // Repeated lock/unlock by one remote node: Munin's proxy fetches
        // the token once and re-grants locally; Ivy's spin lock acquires
        // the page once and TASes locally. Both exploit locality — the
        // difference the paper cares about appears under *contention*
        // (experiment E13), not here.
        let build = |n: usize| {
            let mut p = ProgramBuilder::new(n);
            let l = p.lock(0);
            p.thread(n - 1, move |par| {
                for _ in 0..50 {
                    par.lock(l);
                    par.unlock(l);
                }
            });
            p
        };
        let munin = run_sim(build(2), Backend::Munin(MuninConfig::default()));
        munin.assert_clean();
        let ivy = run_sim(build(2), Backend::Ivy(IvyConfig::default()));
        ivy.assert_clean();
        assert!(
            munin.stats.messages <= 6,
            "proxy locks: constant messages, got {}",
            munin.stats.messages
        );
        assert!(
            ivy.stats.messages <= 6,
            "owned spin page: constant messages, got {}",
            ivy.stats.messages
        );
    }
}
