//! # munin-perfbench
//!
//! The benchmark every performance change to this repository is judged by.
//! It drives the public `munin_api::ProgramBuilder` / `ParTyped` surface with
//! the Munin protocol on the two wall-clock fabrics — `MuninRt` (in process)
//! and `MuninTcp` (real `munin-node` processes over loopback) — and checks
//! every world's outputs.
//!
//! ```text
//! munin-perfbench --workload <remote_atomic|study_apps|replicated_rw>
//!                 --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The lines before it
//! carry the provenance, the sample counts behind each metric and the
//! reason for every failed world.

pub mod bench;
pub mod json;
pub mod layers;
pub mod os;
pub mod stats;
pub mod workload;
pub mod world;

use bench::{Options, Outcome};
use json::quote;
use std::fmt::Write;
use workload::{Size, Workload};

const USAGE: &str = "usage: munin-perfbench --workload <remote_atomic|study_apps|replicated_rw> \
                     --seed <n> --seconds <s> --trace <0|1> [--tiny]";

pub fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::RemoteAtomic,
        seed: 0,
        seconds: 10.0,
        trace: false,
        size: Size::full(),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            opts.size = Size::tiny();
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(|| bad("workload"))?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                let ok = |s: &f64| *s > 0.0 && *s <= 86_400.0;
                opts.seconds = value.parse().ok().filter(ok).ok_or_else(|| bad("seconds"))?
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

/// Output of a command, or `None` when it cannot be run.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    out.status.success().then(|| text.trim().to_string()).filter(|t| !t.is_empty())
}

/// FNV-1a over the repository's crate sources, in path order: identifies
/// the code measured where no git commit is available.
fn source_digest() -> Option<String> {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else { return };
        for entry in rd.flatten() {
            let p = entry.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    if files.is_empty() {
        return None;
    }
    files.sort();
    let mut h: u64 = 0xcbf29ce484222325;
    for f in files {
        for b in f.to_string_lossy().bytes().chain(std::fs::read(&f).ok()?) {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    Some(format!("{h:016x}"))
}

/// Where and how the numbers were made: enough that numbers from hosts
/// with different core counts are never compared by accident.
pub fn provenance(opts: &Options) -> String {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    let commit = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let digest = source_digest().unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\": {nproc}, \"commit\": {}, \"source_digest\": {}, \"rustc\": {}, \
         \"seed\": {}, \"workload\": {}, \"seconds\": {}, \"trace\": {}, \"size\": {}, \
         \"protocol\": \"munin\", \"fabrics\": [\"rt\", \"tcp\"], \
         \"load\": \"closed loop, 2 nodes, 1 worker thread per node\", \
         \"tuning\": \"RtTuning::default() with compute = Skip\"}}",
        quote(&commit),
        quote(&digest),
        quote(&rustc),
        opts.seed,
        quote(opts.workload.name()),
        opts.seconds,
        opts.trace,
        quote(if opts.size == Size::full() { "full" } else { "tiny" }),
    )
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(out: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, m) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            quote(&m.name),
            m.value,
            quote(m.unit)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.correct, out.attempted, out.failed
    )
}

fn detail_line(out: &Outcome) -> String {
    let fields: Vec<String> =
        out.detail.iter().map(|(k, v)| format!("{}: {v}", quote(k))).collect();
    let failures: Vec<String> = out.failures.iter().map(|f| quote(f)).collect();
    let missing: Vec<String> = out.missing.iter().map(|f| quote(f)).collect();
    format!(
        "{{\"samples\": {{{}}}, \"failures\": [{}], \"missing\": [{}]}}",
        fields.join(", "),
        failures.join(", "),
        missing.join(", ")
    )
}

/// Run the benchmark CLI; returns the process exit code.
pub fn cli(args: &[String]) -> i32 {
    let opts = match parse_args(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("munin-perfbench: {e}\n{USAGE}");
            return 2;
        }
    };
    println!("provenance {}", provenance(&opts));
    let out = bench::run(&opts);
    println!("detail {}", detail_line(&out));
    for f in &out.failures {
        eprintln!("munin-perfbench: failed: {f}");
    }
    println!("{}", result_line(&out));
    0
}
