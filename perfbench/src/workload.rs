//! The three workloads: their seeded inputs, the programs they build on the
//! public `ProgramBuilder` / `ParTyped` surface, and the checks that decide
//! whether a world's outputs are right.
//!
//! Every workload is a closed loop: two nodes, one worker thread per node,
//! each worker issuing its next call only after the previous blocking call
//! returned.

use munin_api::{Par, ParTyped, ProgramBuilder};
use munin_apps::{fft, gauss, life, matmul, OutputCell};
use munin_types::{ObjectDecl, SharingType};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Nodes in every world; one worker thread runs on each.
pub const NODES: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RemoteAtomic,
    StudyApps,
    ReplicatedRw,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::RemoteAtomic, Workload::StudyApps, Workload::ReplicatedRw];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RemoteAtomic => "remote_atomic",
            Workload::StudyApps => "study_apps",
            Workload::ReplicatedRw => "replicated_rw",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Blocking Par call classes the benchmark times around the call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Read,
    Write,
    FetchAdd,
    Lock,
    Unlock,
    Barrier,
    Drain,
}

impl Class {
    pub const ALL: [Class; 7] = [
        Class::Read,
        Class::Write,
        Class::FetchAdd,
        Class::Lock,
        Class::Unlock,
        Class::Barrier,
        Class::Drain,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Class::Read => "read",
            Class::Write => "write",
            Class::FetchAdd => "fetch_add",
            Class::Lock => "lock",
            Class::Unlock => "unlock",
            Class::Barrier => "barrier",
            Class::Drain => "drain",
        }
    }

    /// Synchronization calls: they wait for the other worker.
    pub fn is_sync(self) -> bool {
        matches!(self, Class::Lock | Class::Unlock | Class::Barrier)
    }

    /// The runtime telemetry class this corresponds to (for programs whose
    /// Par calls live inside `munin-apps`, where the benchmark cannot wrap
    /// them). `Drain` has no telemetry class: a drain waits on ops that are
    /// themselves recorded.
    pub fn obs(self) -> Option<munin_obs::OpClass> {
        use munin_obs::OpClass as O;
        Some(match self {
            Class::Read => O::Read,
            Class::Write => O::Write,
            Class::FetchAdd => O::FetchAdd,
            Class::Lock => O::Lock,
            Class::Unlock => O::Unlock,
            Class::Barrier => O::Barrier,
            Class::Drain => return None,
        })
    }
}

/// Latency samples (ns) of blocking calls, one vector per [`Class`].
#[derive(Debug, Clone, Default)]
pub struct Samples(pub [Vec<u64>; 7]);

impl Samples {
    pub fn push(&mut self, class: Class, ns: u64) {
        self.0[class as usize].push(ns);
    }

    pub fn extend(&mut self, other: &Samples) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            a.extend_from_slice(b);
        }
    }

    pub fn class(&self, class: Class) -> &[u64] {
        &self.0[class as usize]
    }

    /// The samples of the data-access classes, pooled: everything but
    /// lock, unlock and barrier, whose latency is mostly waiting for the
    /// other worker rather than the runtime's own path.
    pub fn data_access(&self) -> Vec<u64> {
        Class::ALL.iter().filter(|c| !c.is_sync()).flat_map(|c| self.class(*c)).copied().collect()
    }
}

/// What the instrumented worker bodies leave behind for the benchmark.
#[derive(Default)]
pub struct Probe(Mutex<ProbeState>);

#[derive(Default)]
struct ProbeState {
    first_start: Option<Instant>,
    last_end: Option<Instant>,
    samples: Samples,
    ops: u64,
    errors: Vec<String>,
}

impl Probe {
    fn state(&self) -> std::sync::MutexGuard<'_, ProbeState> {
        self.0.lock().expect("probe lock poisoned by a panicking worker")
    }

    pub fn first_start(&self) -> Option<Instant> {
        self.state().first_start
    }

    pub fn last_end(&self) -> Option<Instant> {
        self.state().last_end
    }

    pub fn samples(&self) -> Samples {
        self.state().samples.clone()
    }

    pub fn ops(&self) -> u64 {
        self.state().ops
    }

    pub fn errors(&self) -> Vec<String> {
        self.state().errors.clone()
    }

    fn fail(&self, msg: String) {
        self.state().errors.push(msg);
    }
}

/// A worker's view of the probe: times blocking calls into thread-local
/// buffers and hands them over once, when the body ends.
struct Worker<'a> {
    par: &'a mut dyn Par,
    probe: Arc<Probe>,
    samples: Samples,
    ops: u64,
}

impl<'a> Worker<'a> {
    fn start(par: &'a mut dyn Par, probe: Arc<Probe>) -> Self {
        let now = Instant::now();
        let mut s = probe.state();
        s.first_start = Some(s.first_start.map_or(now, |t| t.min(now)));
        drop(s);
        Worker { par, probe, samples: Samples::default(), ops: 0 }
    }

    /// One blocking Par call, timed around the call.
    fn timed<R>(&mut self, class: Class, f: impl FnOnce(&mut dyn Par) -> R) -> R {
        let t = Instant::now();
        let r = f(&mut *self.par);
        self.samples.push(class, t.elapsed().as_nanos() as u64);
        self.ops += 1;
        r
    }

    /// One non-blocking Par call (counted, not timed).
    fn untimed<R>(&mut self, f: impl FnOnce(&mut dyn Par) -> R) -> R {
        self.ops += 1;
        f(&mut *self.par)
    }

    fn finish(self) {
        let now = Instant::now();
        let mut s = self.probe.state();
        s.samples.extend(&self.samples);
        s.ops += self.ops;
        s.last_end = Some(s.last_end.map_or(now, |t| t.max(now)));
    }
}

/// SplitMix64: the benchmark's own input generator, so inputs depend only
/// on `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, tag: &str) -> Rng {
        Rng(munin_net::seed::derive(seed, tag))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Work per world. `full()` is what the benchmark measures; `tiny()` is the
/// benchmark's own test size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Size {
    pub atomic_ops_per_worker: usize,
    pub rw_rounds: usize,
    pub rw_reads: usize,
    pub rw_read_len: usize,
    pub rw_table_len: usize,
    pub rw_slice: usize,
    pub matmul_n: u32,
    pub gauss_n: u32,
    pub fft_n: u32,
    pub life_side: u32,
    pub life_generations: u32,
}

impl Size {
    pub fn full() -> Size {
        Size {
            // Short worlds, so that a run holds hundreds: each rt world
            // settles into one mode of the adaptive spin's bimodal
            // latency, and only many worlds give a steady median.
            atomic_ops_per_worker: 500,
            rw_rounds: 150,
            rw_reads: 8,
            rw_read_len: 4,
            rw_table_len: 4096,
            rw_slice: 48,
            matmul_n: 256,
            gauss_n: 256,
            fft_n: 2048,
            life_side: 256,
            life_generations: 64,
        }
    }

    pub fn tiny() -> Size {
        Size {
            atomic_ops_per_worker: 200,
            rw_rounds: 12,
            rw_reads: 4,
            rw_read_len: 4,
            rw_table_len: 256,
            rw_slice: 16,
            matmul_n: 24,
            gauss_n: 16,
            // At n <= 512 rt and TCP send 2 messages more than the
            // simulator, so fft keeps its full size for the test that
            // compares message counts across fabrics.
            fft_n: 2048,
            life_side: 32,
            life_generations: 4,
        }
    }
}

/// Everything a workload's programs are built from, drawn from the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// remote_atomic: the deltas worker `t` adds, in issue order.
    pub deltas: [Vec<i64>; NODES],
    /// replicated_rw: table read offsets per worker, `rounds × reads`.
    pub offsets: [Vec<u32>; NODES],
    /// replicated_rw: mixes the values written each round.
    pub value_key: u64,
    /// study_apps: the seed handed to each app's input generator.
    pub app_seeds: [u64; 4],
}

impl Inputs {
    pub fn new(seed: u64, size: &Size) -> Inputs {
        let deltas = std::array::from_fn(|t| {
            let mut r = Rng::new(seed, &format!("atomic-deltas-{t}"));
            (0..size.atomic_ops_per_worker).map(|_| 1 + r.below(1_000) as i64).collect()
        });
        let span = (size.rw_table_len - size.rw_read_len) as u64;
        let offsets = std::array::from_fn(|t| {
            let mut r = Rng::new(seed, &format!("rw-offsets-{t}"));
            (0..size.rw_rounds * size.rw_reads).map(|_| r.below(span + 1) as u32).collect()
        });
        let mut apps = Rng::new(seed, "app-seeds");
        Inputs {
            deltas,
            offsets,
            value_key: Rng::new(seed, "rw-values").next_u64(),
            app_seeds: std::array::from_fn(|_| apps.next_u64()),
        }
    }
}

/// Checks a program's outputs after its world returned cleanly.
pub type Verify = Box<dyn FnOnce() -> Result<(), String> + Send>;

/// One program ready to run on one fabric.
pub struct Program {
    pub name: &'static str,
    pub builder: ProgramBuilder,
    /// `Some` for the benchmark's own bodies, which time every blocking call
    /// and stamp their start and end. The study apps' bodies live in
    /// `munin-apps`, so they run without one.
    pub probe: Option<Arc<Probe>>,
    pub verify: Verify,
}

/// A workload with its inputs drawn and its reference outputs computed,
/// ready to build fresh programs for every world.
pub struct Plan {
    pub workload: Workload,
    pub inputs: Inputs,
    pub size: Size,
    study: Option<Arc<Study>>,
}

impl Plan {
    pub fn new(workload: Workload, seed: u64, size: Size) -> Plan {
        let inputs = Inputs::new(seed, &size);
        let study = (workload == Workload::StudyApps).then(|| Arc::new(Study::new(&inputs, &size)));
        Plan { workload, inputs, size, study }
    }

    /// The programs one round of this workload runs, in order.
    pub fn programs(&self) -> Vec<Program> {
        match self.workload {
            Workload::RemoteAtomic => vec![remote_atomic(&self.inputs)],
            Workload::ReplicatedRw => vec![replicated_rw(&self.inputs, &self.size)],
            Workload::StudyApps => study_apps(self.study.as_ref().expect("study plan")),
        }
    }
}

fn probe_verify(probe: &Arc<Probe>) -> Verify {
    let probe = probe.clone();
    Box::new(move || match probe.errors().first() {
        Some(e) => Err(e.clone()),
        None => Ok(()),
    })
}

/// Each worker adds its deltas, with blocking `fetch_add_scalar`, to a
/// general read-write counter homed on the other node. Every returned old
/// value must equal the running sum (the worker is the counter's only
/// writer), and after a barrier the counter must hold the sum of the adds.
fn remote_atomic(inputs: &Inputs) -> Program {
    let mut p = ProgramBuilder::new(NODES);
    let counters: Vec<_> = (0..NODES)
        .map(|n| p.scalar::<i64>(&format!("counter{n}"), SharingType::GeneralReadWrite, n))
        .collect();
    let bar = p.barrier(0, NODES as u32);
    let probe = Arc::new(Probe::default());
    for t in 0..NODES {
        let target = counters[(t + 1) % NODES];
        let deltas = inputs.deltas[t].clone();
        let probe = probe.clone();
        p.thread(t, move |par: &mut dyn Par| {
            let mut w = Worker::start(par, probe.clone());
            let mut sum = 0i64;
            for (i, d) in deltas.iter().enumerate() {
                let old = w.timed(Class::FetchAdd, |par| par.fetch_add_scalar(&target, *d));
                if old != sum {
                    probe.fail(format!("worker {t} add {i}: fetch_add returned {old}, want {sum}"));
                }
                sum += d;
            }
            w.timed(Class::Barrier, |par| par.barrier(bar));
            let got = w.timed(Class::Read, |par| par.load(&target));
            if got != sum {
                probe.fail(format!("worker {t}: final counter {got}, want {sum}"));
            }
            w.finish();
        });
    }
    let verify = probe_verify(&probe);
    Program { name: "remote_atomic", builder: p, probe: Some(probe), verify }
}

/// The value worker `t` writes to element `j` of its slice in round `r`.
fn rw_value(key: u64, r: usize, t: usize, j: usize) -> i64 {
    let mut z = key ^ ((r as u64) << 32) ^ ((t as u64) << 24) ^ j as u64;
    z = (z ^ (z >> 33)).wrapping_mul(0xff51afd7ed558ccd);
    (z ^ (z >> 29)) as i64 >> 8
}

/// The migratory record after worker `t` takes its turn in round `r`.
fn rw_record_step(rec: &mut [i64; 3], key: u64, r: usize, t: usize) {
    rec[0] = rec[0].wrapping_add(rw_value(key, r, t, usize::MAX) & 0xffff);
    rec[1] = rec[1].wrapping_mul(31).wrapping_add(t as i64 + 1);
    rec[2] = r as i64;
}

/// Per round, each worker: reads small slices of a write-once table
/// (local hits after the first fault) and checks they hold their offsets;
/// writes its own slice of a write-many array with `set_async` and drains;
/// takes, in a barrier-ordered turn, the lock whose migratory record rides
/// the lock transfer and updates the record; then meets at a barrier, which
/// flushes. Worker 0 checks the final array and record.
fn replicated_rw(inputs: &Inputs, size: &Size) -> Program {
    let mut p = ProgramBuilder::new(NODES);
    let table_len = size.rw_table_len as u32;
    let table = p.array::<i64>("table", table_len, SharingType::WriteOnce, 0);
    let slice = size.rw_slice;
    let arr = p.array::<i64>("stripes", (slice * NODES) as u32, SharingType::WriteMany, 0);
    let lock = p.lock(0);
    let record = p.array_decl::<i64>(
        ObjectDecl::template("record", SharingType::Migratory).with_lock(lock),
        3,
        0,
    );
    let bar = p.barrier(0, NODES as u32);
    let probe = Arc::new(Probe::default());
    let (rounds, reads, len, key) =
        (size.rw_rounds, size.rw_reads, size.rw_read_len, inputs.value_key);
    for t in 0..NODES {
        let offsets = inputs.offsets[t].clone();
        let probe = probe.clone();
        p.thread(t, move |par: &mut dyn Par| {
            let mut w = Worker::start(par, probe.clone());
            if t == 0 {
                let init: Vec<i64> = (0..table_len as i64).collect();
                w.timed(Class::Write, |par| par.write_from(&table, 0, &init));
                w.untimed(|par| par.phase(1));
            }
            // Fault in a copy of the stripes before the first flush can
            // happen. Otherwise whether worker 1's node holds a copy when
            // worker 0's first release flushes is a race, and the message
            // count of a world would depend on it.
            let mut mine = vec![-1i64; slice];
            w.timed(Class::Read, |par| par.read_into(&arr, (t * slice) as u32, &mut mine));
            if mine.iter().any(|v| *v != 0) {
                probe.fail(format!("worker {t}: fresh stripe reads {mine:?}"));
            }
            w.timed(Class::Barrier, |par| par.barrier(bar));
            let mut buf = vec![0i64; len];
            let mut rec = [0i64; 3];
            for r in 0..rounds {
                for &off in &offsets[r * reads..(r + 1) * reads] {
                    w.timed(Class::Read, |par| par.read_into(&table, off, &mut buf));
                    if buf.iter().enumerate().any(|(j, v)| *v != off as i64 + j as i64) {
                        probe.fail(format!("worker {t} round {r}: table[{off}..] read {buf:?}"));
                    }
                }
                for j in 0..slice {
                    let v = rw_value(key, r, t, j);
                    let _ = w.untimed(|par| par.set_async(&arr, (t * slice + j) as u32, v));
                }
                w.timed(Class::Drain, |par| par.drain());
                for turn in 0..NODES {
                    if turn == t {
                        w.timed(Class::Lock, |par| par.lock(lock));
                        let mut got = [0i64; 3];
                        w.timed(Class::Read, |par| par.read_into(&record, 0, &mut got));
                        if got != rec {
                            probe.fail(format!(
                                "worker {t} round {r}: record {got:?}, want {rec:?}"
                            ));
                        }
                        rw_record_step(&mut rec, key, r, t);
                        w.timed(Class::Write, |par| par.write_from(&record, 0, &rec));
                        w.timed(Class::Unlock, |par| par.unlock(lock));
                    } else {
                        rw_record_step(&mut rec, key, r, turn);
                    }
                    w.timed(Class::Barrier, |par| par.barrier(bar));
                }
                w.timed(Class::Barrier, |par| par.barrier(bar));
            }
            if t == 0 {
                let got = w.timed(Class::Read, |par| par.read_all(&arr));
                let last = rounds - 1;
                for (i, v) in got.iter().enumerate() {
                    let want = rw_value(key, last, i / slice, i % slice);
                    if *v != want {
                        probe.fail(format!("stripes[{i}] = {v}, want {want}"));
                        break;
                    }
                }
                w.timed(Class::Lock, |par| par.lock(lock));
                let got = w.timed(Class::Read, |par| par.read_vec(&record, 0, 3));
                w.timed(Class::Unlock, |par| par.unlock(lock));
                if got != rec {
                    probe.fail(format!("final record {got:?}, want {rec:?}"));
                }
            }
            w.finish();
        });
    }
    let verify = probe_verify(&probe);
    Program { name: "replicated_rw", builder: p, probe: Some(probe), verify }
}

/// Bit-for-bit comparison of an app's collected output with its sequential
/// reference.
fn exact<T: PartialEq + std::fmt::Debug>(
    app: &str,
    cell: &OutputCell<Vec<T>>,
    want: &[T],
) -> Result<(), String> {
    let got = cell
        .lock()
        .map_err(|_| format!("{app}: output cell poisoned"))?
        .take()
        .ok_or_else(|| format!("{app} produced no output"))?;
    if got.len() != want.len() {
        return Err(format!("{app}: {} outputs, want {}", got.len(), want.len()));
    }
    match got.iter().zip(want).position(|(g, w)| g != w) {
        None => Ok(()),
        Some(i) => Err(format!("{app}[{i}] = {:?}, want {:?}", got[i], want[i])),
    }
}

/// The paper's §2 apps with a deterministic work split, at enlarged sizes,
/// and their sequential references. qsort and tsp are left out: their
/// lock-timed work split makes time and message counts vary from world to
/// world.
struct Study {
    matmul: (matmul::MatmulCfg, Vec<f64>),
    gauss: (gauss::GaussCfg, Vec<f64>),
    fft: (fft::FftCfg, (Vec<f64>, Vec<f64>)),
    life: (life::LifeCfg, Vec<u8>),
}

impl Study {
    fn new(inputs: &Inputs, size: &Size) -> Study {
        let [s_mm, s_ga, s_fft, s_life] = inputs.app_seeds;
        let mm = matmul::MatmulCfg { n: size.matmul_n, nodes: NODES, seed: s_mm };
        let ga = gauss::GaussCfg { n: size.gauss_n, nodes: NODES, seed: s_ga };
        let ff = fft::FftCfg { n: size.fft_n, nodes: NODES, seed: s_fft };
        let lf = life::LifeCfg {
            width: size.life_side,
            height: size.life_side,
            generations: size.life_generations,
            nodes: NODES,
            seed: s_life,
        };
        Study {
            matmul: (mm.clone(), matmul::reference(&mm)),
            gauss: (ga.clone(), gauss::reference(&ga)),
            fft: (ff.clone(), fft::reference(&ff)),
            life: (lf.clone(), life::reference(&lf)),
        }
    }
}

fn study_apps(study: &Arc<Study>) -> Vec<Program> {
    let (mm_p, mm_out) = matmul::build(&study.matmul.0);
    let (ga_p, ga_out) = gauss::build(&study.gauss.0);
    let (ff_p, ff_out) = fft::build(&study.fft.0);
    let (lf_p, lf_out) = life::build(&study.life.0);
    let (s_mm, s_ga, s_ff, s_lf) = (study.clone(), study.clone(), study.clone(), study.clone());
    vec![
        Program {
            name: "matmul",
            builder: mm_p,
            probe: None,
            verify: Box::new(move || exact("matmul", &mm_out, &s_mm.matmul.1)),
        },
        Program {
            name: "gauss",
            builder: ga_p,
            probe: None,
            verify: Box::new(move || exact("gauss", &ga_out, &s_ga.gauss.1)),
        },
        Program {
            name: "fft",
            builder: ff_p,
            probe: None,
            // The reference is an O(n²) DFT, which no FFT matches bit for
            // bit; fft's own check bounds the rounding difference instead.
            verify: Box::new(move || {
                std::panic::catch_unwind(|| fft::check(&ff_out, &s_ff.fft.1))
                    .map_err(|p| format!("fft: {}", panic_text(p.as_ref())))
            }),
        },
        Program {
            name: "life",
            builder: lf_p,
            probe: None,
            verify: Box::new(move || exact("life", &lf_out, &s_lf.life.1)),
        },
    ]
}

/// The message of a caught panic.
pub fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// A program whose two workers only stamp their start and end: run with a
/// study app's object table, it measures set-up and teardown of that app's
/// world, which the app's own bodies cannot report.
pub fn setup_probe(app: &'static str, objects: &[ObjectDecl]) -> Program {
    let mut p = ProgramBuilder::new(NODES);
    for d in objects {
        p.object_decl(d.clone(), d.home.index());
    }
    let probe = Arc::new(Probe::default());
    for t in 0..NODES {
        let probe = probe.clone();
        p.thread(t, move |par: &mut dyn Par| Worker::start(par, probe).finish());
    }
    let verify = probe_verify(&probe);
    Program { name: app, builder: p, probe: Some(probe), verify }
}
