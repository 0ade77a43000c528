//! Seconds-long smoke runs of every workload, untraced and traced: the
//! result line must carry exactly the metrics `BENCHMARK.json` declares,
//! each with its unit, and every check (warm results bit-identical to
//! cold, the recorded digest, store and probe agreement) must pass.

use bbrdom_netsim::json::{self, Value};
use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 3] = ["ne-deep-mixed", "ne-shallow-wide", "ne-fluid"];

fn declared(key: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let spec = json::parse(&text).expect("BENCHMARK.json parses");
    spec.get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f| {
                m.get(f)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: bool) -> (String, Value) {
    let cwd = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    std::fs::create_dir_all(&cwd).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_nebench"))
        .current_dir(&cwd)
        .args([
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "10",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload}: {stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        !cwd.join(".nebench_work").exists(),
        "work directory left behind"
    );
    let last = stdout.lines().last().expect("a result line");
    (
        stdout.clone(),
        json::parse(last).expect("the last line is JSON"),
    )
}

fn check(workload: &str, trace: bool) {
    let (stdout, result) = run(workload, trace);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{stdout}");
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Value::as_u64) > Some(0));
    assert!(stdout.contains("matches the recorded digest"), "{stdout}");
    let metrics = result.get("metrics").unwrap();
    let Value::Object(map) = metrics else {
        panic!("metrics is an object")
    };
    let expected = declared(if trace { "per_layer" } else { "end_to_end" });
    assert_eq!(map.len(), expected.len(), "{stdout}");
    for (name, unit) in &expected {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: no {name}"));
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        let value = m.get("value").and_then(Value::as_f64).expect("a number");
        assert!(value.is_finite(), "{name} = {value}");
        if !trace {
            assert!(value > 0.0, "{workload}: {name} = {value}");
        }
    }
    if !trace {
        assert_eq!(
            metrics
                .get("ok_frac")
                .unwrap()
                .get("value")
                .and_then(Value::as_f64),
            Some(1.0)
        );
    }
}

#[test]
fn every_workload_untraced() {
    for w in WORKLOADS {
        check(w, false);
    }
}

#[test]
fn every_workload_traced() {
    for w in WORKLOADS {
        check(w, true);
    }
}
