//! The benchmark's own tests: a tiny-size pass of each workload through the
//! real command line, on the rt and TCP fabrics.

use munin_perfbench::json::{parse, Value};
use munin_perfbench::workload::{Inputs, Size};
use std::collections::BTreeMap;
use std::process::Command;

/// One tiny run: the `detail` line's sample map and the result line.
fn run(workload: &str, trace: bool, seed: u64) -> (BTreeMap<String, f64>, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_munin-perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--tiny"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{workload}: exit {:?}\n{stdout}", out.status);
    let lines: Vec<&str> = stdout.lines().collect();
    let result = parse(lines.last().expect("a result line")).expect("result line is JSON");
    let detail = lines
        .iter()
        .find_map(|l| l.strip_prefix("detail "))
        .map(|d| parse(d).expect("detail line is JSON"))
        .expect("a detail line");
    let failures = detail.get("failures").unwrap().as_arr();
    assert!(failures.is_empty(), "{workload}: failed worlds {failures:?}");
    let samples = match detail.get("samples") {
        Some(Value::Obj(m)) => m.iter().map(|(k, v)| (k.clone(), v.as_f64().unwrap())).collect(),
        other => panic!("no sample map: {other:?}"),
    };
    (samples, result)
}

/// (name, unit) of every metric `BENCHMARK.json` lists under `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    spec.get(section)
        .unwrap()
        .as_arr()
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn declared_workloads() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    let names = spec.get("workloads").unwrap().as_arr().iter();
    names.map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string()).collect()
}

/// Every metric the run must report is there, with its declared unit and a
/// finite value, and nothing else is.
fn check_emits(workload: &str, trace: bool) {
    let (_, result) = run(workload, trace, 7);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{workload}");
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    let Some(Value::Obj(metrics)) = result.get("metrics") else { panic!("no metrics") };
    let want = declared(if trace { "per_layer" } else { "end_to_end" });
    for (name, unit) in &want {
        let m = metrics.get(name).unwrap_or_else(|| panic!("{workload}: `{name}` missing"));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()), "{name}");
        let v = m.get("value").and_then(Value::as_f64).unwrap();
        assert!(v.is_finite(), "{workload}: `{name}` = {v}");
    }
    assert_eq!(metrics.len(), want.len(), "{workload}: undeclared metrics in {:?}", metrics.keys());
}

#[test]
fn declared_workloads_are_the_implemented_ones() {
    let names: Vec<&str> =
        munin_perfbench::workload::Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(declared_workloads(), names);
}

#[test]
fn remote_atomic_emits_every_metric() {
    check_emits("remote_atomic", false);
    check_emits("remote_atomic", true);
}

#[test]
fn study_apps_emits_every_metric() {
    check_emits("study_apps", false);
    check_emits("study_apps", true);
}

#[test]
fn replicated_rw_emits_every_metric() {
    check_emits("replicated_rw", false);
    check_emits("replicated_rw", true);
}

/// The traced pass runs each program on the simulator as well; message and
/// op counts of every program must agree on all three fabrics.
#[test]
fn msgs_per_op_agree_on_sim_rt_and_tcp() {
    for workload in ["study_apps", "replicated_rw"] {
        let (samples, _) = run(workload, true, 11);
        let programs: Vec<&str> =
            samples.keys().filter_map(|k| k.strip_prefix("msgs.sim.")).collect();
        assert!(!programs.is_empty(), "{workload}: no per-program counts");
        for p in programs {
            for what in ["msgs", "ops"] {
                let at = |f: &str| samples.get(&format!("{what}.{f}.{p}")).copied();
                assert!(at("sim").unwrap() > 0.0, "{workload}/{p}: no {what}");
                assert_eq!(at("sim"), at("rt"), "{workload}/{p}: {what} sim vs rt");
                assert_eq!(at("sim"), at("tcp"), "{workload}/{p}: {what} sim vs tcp");
            }
        }
    }
}

#[test]
fn a_different_seed_changes_the_inputs() {
    let size = Size::tiny();
    let (a, b) = (Inputs::new(1, &size), Inputs::new(2, &size));
    assert_eq!(a, Inputs::new(1, &size), "same seed, same inputs");
    assert_ne!(a.deltas, b.deltas);
    assert_ne!(a.offsets, b.offsets);
    assert_ne!(a.value_key, b.value_key);
    assert!(a.app_seeds.iter().zip(&b.app_seeds).all(|(x, y)| x != y));
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_munin-perfbench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
