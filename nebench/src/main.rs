//! `nebench` — the NE-panel benchmark: end-to-end throughput of the
//! paper's NE sweeps (cold DES and fluid grids, store-served reruns,
//! set-up time, memory) and, in a separate traced run, the per-layer
//! numbers behind them. See README.md.
//!
//! ```text
//! nebench --workload ne-deep-mixed --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod grid;
mod layers;
mod rep;
mod stats;
mod trace;

use bbrdom_netsim::json::Value;
use grid::Workload;
use layers::Metrics;
use rep::{run_rep, Rep, Tally};
use stats::{fastest, median, quartiles};
use std::path::Path;
use std::time::Instant;
use trace::Tracer;

const USAGE: &str = "usage: nebench --workload <ne-deep-mixed|ne-shallow-wide|ne-fluid> \
[--seed N] [--seconds S] [--trace 0|1] [--smoke]";

/// Digests of the cold results, recorded per workload and seed.
const DIGESTS: &str = include_str!("../digests.txt");

/// Every run works in its own directory under this one, relative to the
/// directory it is started in, and removes it at the end.
const WORK_ROOT: &str = ".nebench_work";

/// Where traced runs write their spans, relative to the directory they
/// are started in.
const TRACE_ROOT: &str = ".nebench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// The recorded digest of `workload` (with `-smoke` for the smoke grid)
/// at `seed`, if one was recorded.
fn recorded_digest(workload: &str, seed: u64) -> Option<u64> {
    DIGESTS.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (w, s, d) = (f.next()?, f.next()?, f.next()?);
        if w != workload || s.parse() != Ok(seed) {
            return None;
        }
        u64::from_str_radix(d, 16).ok()
    })
}

/// Check the digest of every repetition of trial 0 against the first
/// one's and against the recorded digest; a mismatch withdraws the
/// repetition's cold cells.
fn check_digests(w: &Workload, args: &Args, reps: &[&Rep], tally: &mut Tally) {
    let key = if args.smoke {
        format!("{}-smoke", w.name)
    } else {
        w.name.to_string()
    };
    let recorded = recorded_digest(&key, args.seed);
    let first = reps[0].digest;
    println!(
        "digest {key} seed {} = {first:016x} ({})",
        args.seed,
        match recorded {
            None => "no digest recorded for this seed".to_string(),
            Some(d) if d == first => "matches the recorded digest".to_string(),
            Some(d) => format!("MISMATCH: recorded {d:016x}"),
        }
    );
    for rep in reps {
        let expected = recorded.unwrap_or(first);
        if rep.digest != expected {
            tally.revoke(
                rep.cold_json.len() as u64,
                format!(
                    "cold results digest {:016x}, expected {expected:016x}",
                    rep.digest
                ),
            );
        }
    }
}

/// A run stops starting sweeps once it has spent this many times
/// `--seconds`: a safety cap for a much slower build or machine, never
/// reached in a normal run.
const CAP_FACTOR: f64 = 1.5;

/// The end-to-end run: the workload's fixed number of sweeps, cycling
/// through its trials. Trial `t`'s cells take their seeds from `--seed`
/// and `t`, as the trials of a figure's NE search do.
fn untraced(w: &Workload, args: &Args, work: &Path) -> Result<(Tally, Metrics), String> {
    let start = Instant::now();
    let mut tally = Tally::default();
    let mut tr = Tracer::new(false);
    // Per trial swept: the first sweep's digest, which every later sweep
    // of the trial must reproduce, and each cell's fastest cold time.
    let mut trials: Vec<(u64, Vec<f64>)> = Vec::new();
    let (mut setup, mut sweeps, mut passes, mut rss) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for sweep in 0..w.trials * w.sweeps_per_trial {
        let trial = sweep % w.trials;
        let dir = work.join(format!("sweep{sweep}"));
        let rep = run_rep(w, args.seed, trial, &dir, &mut tr, &mut tally)?;
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        println!(
            "sweep {sweep} (trial {trial}): setup {:.6} s, cold {:.4} s, fastest warm pass {:.6} s",
            rep.setup_s,
            rep.cold_s,
            fastest(&rep.warm_pass_s)
        );
        match trials.get_mut(trial as usize) {
            None => {
                if trial == 0 {
                    check_digests(w, args, &[&rep], &mut tally);
                    layers::print_ne(w, &rep.cold, &mut tally);
                }
                trials.push((rep.digest, rep.cold_cell_s.clone()));
            }
            Some((digest, best)) => {
                if rep.digest != *digest {
                    tally.revoke(
                        rep.cold_json.len() as u64,
                        format!("sweep {sweep}: trial {trial}'s cold results changed"),
                    );
                }
                for (b, t) in best.iter_mut().zip(&rep.cold_cell_s) {
                    *b = b.min(*t);
                }
            }
        }
        setup.push(rep.setup_s);
        sweeps.push(rep.cold_s);
        passes.extend_from_slice(&rep.warm_pass_s);
        rss.extend(rep.peak_rss_mb);
        let spent = start.elapsed().as_secs_f64();
        if spent + spent / sweeps.len() as f64 > CAP_FACTOR * args.seconds {
            println!(
                "stopped after {} sweeps: the cap of {CAP_FACTOR} x --seconds is reached",
                sweeps.len()
            );
            break;
        }
    }

    // On a shared host other tenants slow this process down, by up to
    // 1.8x on the same cell, for stretches of milliseconds to tens of
    // seconds, and how much of the time they do drifts over minutes.
    // Contention only ever adds time, so a cell swept several times
    // counts at its fastest, and set-up and the warm figure are the
    // fastest of the run.
    let grid_s: f64 = trials
        .iter()
        .map(|(_, best)| best.iter().sum::<f64>())
        .sum();
    let cells = (w.buffers.len() * w.splits()) as f64;
    for (name, xs) in [
        ("set-up (s)", &setup),
        ("cold sweep (s)", &sweeps),
        ("warm pass (s)", &passes),
        ("peak rss (MB)", &rss),
    ] {
        let [q1, q2, q3] = quartiles(xs);
        println!(
            "{name}: median {q2:.6} (q1 {q1:.6}, q3 {q3:.6}, fastest {:.6}) over {} samples",
            fastest(xs),
            xs.len()
        );
    }
    println!(
        "cold: {} trials, each cell at its fastest: {:.6} s per grid",
        trials.len(),
        grid_s / trials.len() as f64
    );
    let peak_rss = if rss.is_empty() {
        rep::peak_rss_mb().unwrap_or(0.0)
    } else {
        median(&rss)
    };
    let ok_frac = tally.ok as f64 / tally.attempted.max(1) as f64;
    Ok((
        tally,
        vec![
            ("setup_s".into(), fastest(&setup), "s"),
            (
                "cold_cells_per_s".into(),
                cells * trials.len() as f64 / grid_s,
                "1/s",
            ),
            ("warm_cells_per_s".into(), cells / fastest(&passes), "1/s"),
            ("peak_rss_mb".into(), peak_rss, "MB"),
            ("ok_frac".into(), ok_frac, "ratio"),
        ],
    ))
}

/// Untraced and traced repetitions of trial 0 alternate this many times
/// in the traced run; the tracing overhead compares their fastest wall
/// times (each of the same fixed work), as the end-to-end figures take
/// the fastest, so the host's noise on one repetition does not pose as
/// it.
const OVERHEAD_PAIRS: usize = 3;

/// The traced run: a traced repetition of trial 0 and the per-layer
/// probe on its cache, then the overhead pairs; spans go to a file.
fn traced(w: &Workload, args: &Args, work: &Path) -> Result<(Tally, Metrics), String> {
    let mut tally = Tally::default();
    let mut tr = Tracer::new(true);
    let dir = work.join("traced");
    let rep = run_rep(w, args.seed, 0, &dir, &mut tr, &mut tally)?;
    let counts = layers::probe(
        w,
        args.seed,
        &rep,
        &dir.join("cache"),
        &dir.join("probe"),
        &mut tr,
        &mut tally,
    );
    std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;

    let (mut plain_s, mut traced_s) = (Vec::new(), vec![rep.wall_s]);
    for i in 0..OVERHEAD_PAIRS {
        let dir = work.join(format!("pair{i}"));
        let plain = run_rep(w, args.seed, 0, &dir, &mut Tracer::new(false), &mut tally)?;
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        if i == 0 {
            check_digests(w, args, &[&plain, &rep], &mut tally);
        } else if plain.digest != rep.digest {
            tally.revoke(
                plain.cold_json.len() as u64,
                format!("untraced repetition {i}: cold results differ"),
            );
        }
        plain_s.push(plain.wall_s);
        if traced_s.len() < OVERHEAD_PAIRS {
            let again = run_rep(w, args.seed, 0, &dir, &mut Tracer::new(true), &mut tally)?;
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            traced_s.push(again.wall_s);
        }
    }
    layers::print_ne(w, &rep.cold, &mut tally);
    let overhead = fastest(&traced_s) / fastest(&plain_s) - 1.0;
    let metrics = layers::metrics(w, &rep, &counts, &tr, overhead);

    let out = Path::new(TRACE_ROOT).join(format!("trace-{}-seed{}.jsonl", w.name, args.seed));
    let mut text = String::new();
    for line in tr.span_lines() {
        text.push_str(&line);
        text.push('\n');
    }
    let mut summary = Value::object();
    let mut self_s = Value::object();
    for (layer, s) in tr.self_time_by_layer() {
        self_s.set(layer, Value::F64(s));
        println!("self time {layer}: {s:.6} s");
    }
    summary
        .set("self_s", self_s)
        .set("metrics", metrics_value(&metrics));
    text.push_str(&summary.to_json());
    text.push('\n');
    if let Some(parent) = out.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(&out, text).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("spans written to {}", out.display());
    Ok((tally, metrics))
}

fn metrics_value(metrics: &[(String, f64, &'static str)]) -> Value {
    let mut m = Value::object();
    for (name, value, unit) in metrics {
        let mut v = Value::object();
        v.set("value", Value::F64(*value))
            .set("unit", (*unit).into());
        m.set(name, v);
    }
    m
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Some(w) = Workload::by_name(&args.workload, args.smoke) else {
        eprintln!("nebench: unknown workload '{}'\n{USAGE}", args.workload);
        std::process::exit(2);
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "nebench {} seed {} ({} cells: {} Mbps, {} ms, {} flows, buffers {:?} BDP, {} s, {:?}; jobs 1 on {cores} cores)",
        w.name,
        args.seed,
        w.buffers.len() * w.splits(),
        w.mbps,
        w.rtt_ms,
        w.flows,
        w.buffers,
        w.duration_secs,
        w.backend,
    );
    let work = Path::new(WORK_ROOT).join(format!("{}-{}", w.name, std::process::id()));
    let run = if args.trace {
        traced(&w, &args, &work)
    } else {
        untraced(&w, &args, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(WORK_ROOT);
    let (tally, metrics) = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("nebench: {e}");
            std::process::exit(1);
        }
    };
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    for p in &tally.problems {
        eprintln!("nebench: check failed: {p}");
    }
    let mut result = Value::object();
    result
        .set(
            "correct",
            (tally.problems.is_empty() && tally.failed() == 0).into(),
        )
        .set("attempted", Value::U64(tally.attempted))
        .set("failed", Value::U64(tally.failed()))
        .set("metrics", metrics_value(&metrics));
    println!("{}", result.to_json());
}
