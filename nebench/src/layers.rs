//! The traced run's per-layer probe and metrics.
//!
//! The engine hides its inner calls, so after the traced repetition the
//! probe calls each layer's public functions itself, cell by cell, in a
//! span each: `scenario_hash`, the backend (`Scenario::try_report_with`),
//! report encode/decode, `TrialResult::from_report`, `Store::get`, index
//! line decode, the NE solver and the Eq. (25) predictor. Every value it
//! produces is checked against the cold sweep's results.
//!
//! The engine's own share of a cold cell is measured cell by cell: the
//! backend call and a cold `run_sweep` of the same cell, back to back,
//! `PAIRS` times, each `run_sweep` on an engine over an empty cache of
//! its own; the cell's overhead is its fastest `run_sweep` minus its
//! fastest backend call.

use crate::grid::Workload;
use crate::rep::{engine_config, result_json, sweep_config, Rep, Tally};
use crate::stats::{mean, median, tail};
use crate::trace::Tracer;
use bbrdom_core::model::multi_flow::SyncMode;
use bbrdom_core::model::nash::NashPredictor;
use bbrdom_experiments::payoff::{default_epsilon_mbps, PayoffCurves};
use bbrdom_experiments::runner::TrialOutcome;
use bbrdom_experiments::{scenario_hash, BackendSpec, Engine, Store, StoreEntry, TrialResult};
use bbrdom_netsim::{json, SimReport};
use std::path::Path;
use std::time::Instant;

/// Back-to-back backend / cold `run_sweep` pairs per probed cell.
const PAIRS: usize = 3;

/// Work counters and per-cell timings the probe gathers.
#[derive(Default)]
pub struct Counts {
    /// Per cell: the fastest backend call, its events, and the engine's
    /// overhead (fastest cold `run_sweep` minus fastest backend call).
    pub cell_s: Vec<f64>,
    pub cell_events: Vec<u64>,
    pub cell_overhead_s: Vec<f64>,
    pub events: u64,
    pub retransmits: u64,
    pub lost_packets: u64,
    pub rtos: u64,
    pub queue_drops: u64,
    pub entries: usize,
    pub index_bytes: u64,
    pub cache_bytes: u64,
}

/// The measured game of each buffer: per-flow payoffs of every split,
/// from the cold results (`None` when a cell of the buffer failed).
pub fn payoff_curves(w: &Workload, cold: &[Option<TrialResult>]) -> Vec<Option<PayoffCurves>> {
    let n = w.flows as usize;
    cold.chunks(w.splits())
        .map(|cells| {
            let mut x = vec![0.0; n + 1];
            let mut c = vec![0.0; n + 1];
            let mut q = vec![0.0; n + 1];
            for (k, cell) in cells.iter().enumerate() {
                let r = cell.as_ref()?;
                x[k] = r.mean_throughput_of("bbr").unwrap_or(0.0);
                c[k] = r.mean_throughput_of("cubic").unwrap_or(0.0);
                q[k] = r.avg_queuing_delay_ms;
            }
            Some(PayoffCurves {
                n: w.flows,
                challenger: "bbr".into(),
                x_per_flow: x,
                cubic_per_flow: c,
                queuing_delay_ms: q,
            })
        })
        .collect()
}

/// Print the NE CUBIC counts of each buffer beside the band Eq. (25)
/// predicts; a buffer whose measured game has no equilibrium fails.
pub fn print_ne(w: &Workload, cold: &[Option<TrialResult>], tally: &mut Tally) {
    let eps = default_epsilon_mbps(w.mbps, w.flows);
    for (b, curves) in w.buffers.iter().zip(payoff_curves(w, cold)) {
        let Some(curves) = curves else {
            tally.problem(format!("buffer {b} BDP: no game (a cell failed)"));
            continue;
        };
        let ne: Vec<u32> = curves
            .nash_equilibria(eps)
            .iter()
            .map(|e| e.n_cubic)
            .collect();
        if ne.is_empty() {
            tally.problem(format!("buffer {b} BDP: measured game has no NE"));
        }
        let model = NashPredictor::from_paper_units(w.mbps, w.rtt_ms, *b, w.flows);
        let bound = |mode| {
            model
                .predict(mode)
                .map(|p| format!("{:.2}", p.n_cubic))
                .unwrap_or_else(|_| "none".into())
        };
        println!(
            "NE {b:>5} BDP: CUBIC flows at NE {ne:?} of {}; Eq. (25) band n_cubic {} (sync) .. {} (desync)",
            w.flows,
            bound(SyncMode::Synchronized),
            bound(SyncMode::DeSynchronized),
        );
    }
}

fn file_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Call every layer directly on each cell of the traced repetition (of
/// trial 0), whose populated cache is `cache`; `pairs_dir` holds the
/// overhead pairs' caches (created here; the caller removes it).
pub fn probe(
    w: &Workload,
    seed: u64,
    rep: &Rep,
    cache: &Path,
    pairs_dir: &Path,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Counts {
    let cells = w.cells(seed, 0);
    let backend = match w.backend {
        BackendSpec::Des => "netsim",
        BackendSpec::Fluid => "fluid",
    };
    let store = tr.span("store.open", None, || Store::open(cache));
    let mut counts = Counts {
        entries: store.len(),
        cache_bytes: file_bytes(cache),
        ..Counts::default()
    };
    // One engine per pair, each over an empty cache of its own with its
    // store open, as the cold sweep's engine is after set-up.
    let engines: Vec<Engine> = (0..PAIRS)
        .map(|p| {
            let dir = pairs_dir.join(format!("pair{p}"));
            if let Err(e) = std::fs::create_dir_all(&dir) {
                tally.problem(format!("{}: {e}", dir.display()));
            }
            let engine = Engine::new(engine_config(&dir));
            engine.store();
            engine
        })
        .collect();
    for (i, cell) in cells.iter().enumerate() {
        let span = tr.enter("probe.cell", Some(i));
        let hash = tr.span("engine.hash", Some(i), || scenario_hash(cell));
        let (mut backend_s, mut sweep_s) = (f64::INFINITY, f64::INFINITY);
        let mut report = None;
        let mut swept = Vec::with_capacity(PAIRS);
        for engine in &engines {
            let t = Instant::now();
            let r = tr.span(backend, Some(i), || cell.try_report_with(None, None));
            backend_s = backend_s.min(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let out = tr.span("engine.run_sweep", Some(i), || {
                engine.run_sweep(std::slice::from_ref(cell), &sweep_config())
            });
            sweep_s = sweep_s.min(t.elapsed().as_secs_f64());
            swept.push(out.ok().and_then(|mut o| o.pop()));
            report = report.or(r.ok());
        }
        counts.cell_s.push(backend_s);
        counts
            .cell_events
            .push(report.as_ref().map_or(0, |r| r.events_processed));
        counts.cell_overhead_s.push(sweep_s - backend_s);
        let Some(report) = report else {
            tr.exit(span);
            tally.cell(Err(format!("probe cell {i}: backend failed")));
            continue;
        };
        let text = tr.span("json.report_encode", Some(i), || {
            report.to_json_value().to_json()
        });
        let decoded = tr.span("json.report_decode", Some(i), || {
            json::parse(&text)
                .ok()
                .and_then(|v| SimReport::from_json_value(&v).ok())
        });
        let result = tr.span("json.from_report", Some(i), || {
            TrialResult::from_report(&report)
        });
        let entry = tr.span("store.get", Some(i), || store.get(hash));
        tr.exit(span);

        counts.events += report.events_processed;
        counts.queue_drops += report.queue.dropped_packets;
        for f in &report.flows {
            counts.retransmits += f.retransmits;
            counts.lost_packets += f.lost_packets;
            counts.rtos += f.rtos;
        }
        let expect = &rep.cold_json[i];
        let same = |r: Option<&TrialResult>| r.map(result_json).as_ref() == Some(expect);
        tally.cell(
            if same(Some(&result))
                && same(decoded.as_ref().map(TrialResult::from_report).as_ref())
                && same(entry.as_ref().and_then(|e| e.ok()))
                && swept
                    .iter()
                    .all(|o| same(o.as_ref().and_then(TrialOutcome::ok)))
            {
                Ok(())
            } else {
                Err(format!("probe cell {i} differs from the cold sweep"))
            },
        );
    }
    if counts.events != rep.cold_stats.events_simulated {
        tally.problem(format!(
            "probe counted {} events, the cold sweep {}",
            counts.events, rep.cold_stats.events_simulated
        ));
    }

    let index = std::fs::read_to_string(cache.join(bbrdom_experiments::store::INDEX_FILE))
        .unwrap_or_default();
    counts.index_bytes = index.len() as u64;
    let mut decoded = 0;
    for line in index.lines() {
        decoded += tr
            .span("json.index_line_decode", None, || {
                StoreEntry::from_json_line(line)
            })
            .is_some() as usize;
    }
    if decoded != cells.len() {
        tally.problem(format!("index decoded {decoded} of {} lines", cells.len()));
    }

    let eps = default_epsilon_mbps(w.mbps, w.flows);
    for (b, curves) in w.buffers.iter().zip(payoff_curves(w, &rep.cold)) {
        if let Some(curves) = curves {
            tr.span("game.ne_solve", None, || curves.nash_equilibria(eps));
        }
        let model = NashPredictor::from_paper_units(w.mbps, w.rtt_ms, *b, w.flows);
        for mode in [SyncMode::Synchronized, SyncMode::DeSynchronized] {
            let _ = tr.span("model.predict", None, || model.predict(mode));
        }
    }
    counts
}

/// Metrics as `(name, value, unit)`, in print order.
pub type Metrics = Vec<(String, f64, &'static str)>;

/// The per-layer metrics, from the traced repetition's spans and
/// counters, the probe's, and the measured tracing overhead. The backend
/// the workload does not use reports zeros.
pub fn metrics(
    w: &Workload,
    traced: &Rep,
    counts: &Counts,
    tr: &Tracer,
    overhead_frac: f64,
) -> Metrics {
    let us = |name: &str| mean(&tr.durations(name, None)) * 1e6;
    let cells = traced.cold_json.len() as f64;
    let mut out = Metrics::new();
    let mut put =
        |name: &str, value: f64, unit: &'static str| out.push((name.to_string(), value, unit));

    // The backend layers: the probe's fastest call of each cell.
    let des = w.backend == BackendSpec::Des;
    let cell_s = &counts.cell_s;
    let busy = cell_s.iter().sum::<f64>();
    let (tail_s, tail_pct) = tail(cell_s);
    for (layer, used) in [("netsim", des), ("fluid", !des)] {
        let v = |x: f64| if used { x } else { 0.0 };
        put(&format!("{layer}.busy_s"), v(busy), "s");
        put(&format!("{layer}.cells"), v(cell_s.len() as f64), "count");
        put(
            &format!("{layer}.cell_ms.p50"),
            v(median(cell_s) * 1e3),
            "ms",
        );
        put(&format!("{layer}.cell_ms.tail"), v(tail_s * 1e3), "ms");
        put(&format!("{layer}.cell_ms.tail_pct"), v(tail_pct), "%");
    }
    let des_only = |x: f64| if des { x } else { 0.0 };
    let fluid_only = |x: f64| if des { 0.0 } else { x };
    let mean_ms = |mixed: bool| {
        let sel: Vec<f64> = (0..cell_s.len())
            .filter(|&i| w.is_mixed(i) == mixed)
            .map(|i| cell_s[i])
            .collect();
        mean(&sel) * 1e3
    };
    // Backend time per event: the loss scan makes mixed cells' events
    // dearer than pure cells', event dispatch costs both alike.
    let event_ns = |mixed: bool| {
        let (mut s, mut n) = (0.0, 0u64);
        for i in (0..cell_s.len()).filter(|&i| w.is_mixed(i) == mixed) {
            s += cell_s[i];
            n += counts.cell_events[i];
        }
        if n == 0 {
            0.0
        } else {
            s / n as f64 * 1e9
        }
    };
    let events = counts.events as f64;
    let per_s = if busy > 0.0 { events / busy } else { 0.0 };
    put("netsim.cell_ms.mixed_mean", des_only(mean_ms(true)), "ms");
    put("netsim.cell_ms.pure_mean", des_only(mean_ms(false)), "ms");
    put("netsim.event_ns.mixed", des_only(event_ns(true)), "ns");
    put("netsim.event_ns.pure", des_only(event_ns(false)), "ns");
    put("netsim.events", des_only(events), "count");
    put("netsim.events_per_s", des_only(per_s), "1/s");
    put(
        "netsim.retransmits",
        des_only(counts.retransmits as f64),
        "count",
    );
    put(
        "netsim.lost_packets",
        des_only(counts.lost_packets as f64),
        "count",
    );
    put("netsim.rtos", des_only(counts.rtos as f64), "count");
    put(
        "netsim.queue_drops",
        des_only(counts.queue_drops as f64),
        "count",
    );
    put("fluid.steps", fluid_only(events), "count");
    put("fluid.steps_per_s", fluid_only(per_s), "1/s");

    // engine: its own share of the cold sweep (the probe's per-cell
    // overheads) plus its time in the traced repetition's warm passes,
    // which simulate nothing.
    let cold = traced.cold_stats;
    let warm = traced.warm_stats;
    let overhead = counts.cell_overhead_s.iter().sum::<f64>();
    let warm_engine: f64 = ["engine.new", "engine.run_sweep"]
        .iter()
        .flat_map(|name| tr.durations(name, Some("warm.pass")))
        .sum();
    put("engine.busy_s", overhead + warm_engine, "s");
    put("engine.overhead_s", overhead, "s");
    put("engine.hash_us", us("engine.hash"), "us");
    put(
        "engine.simulated",
        (cold.simulated + warm.simulated) as f64,
        "count",
    );
    put(
        "engine.store_hits",
        (cold.store_hits + warm.store_hits) as f64,
        "count",
    );
    put(
        "engine.disk_hits",
        (cold.disk_hits + warm.disk_hits) as f64,
        "count",
    );
    put(
        "engine.memory_hits",
        (cold.memory_hits + warm.memory_hits) as f64,
        "count",
    );
    put(
        "engine.deduped",
        (cold.deduped + warm.deduped) as f64,
        "count",
    );
    put(
        "engine.events_simulated",
        (cold.events_simulated + warm.events_simulated) as f64,
        "count",
    );
    put(
        "engine.warm_hit_ratio",
        warm.store_hits as f64 / traced.warm_cells.max(1) as f64,
        "ratio",
    );

    // store: opens measured inside the warm passes.
    let opens = tr.durations("store.open", Some("warm.pass"));
    let passes = tr.durations("warm.pass", None);
    put("store.open_ms", median(&opens) * 1e3, "ms");
    put("store.get_us", us("store.get"), "us");
    put("store.entries", counts.entries as f64, "count");
    put("store.index_bytes", counts.index_bytes as f64, "B");
    put(
        "store.open_share_of_warm",
        opens.iter().sum::<f64>() / passes.iter().sum::<f64>().max(1e-12),
        "ratio",
    );
    put(
        "store.cache_bytes_per_cell",
        counts.cache_bytes as f64 / cells,
        "B",
    );

    put("json.report_encode_us", us("json.report_encode"), "us");
    put("json.report_decode_us", us("json.report_decode"), "us");
    put(
        "json.index_line_decode_us",
        us("json.index_line_decode"),
        "us",
    );
    put("json.from_report_us", us("json.from_report"), "us");
    put("game.ne_solve_us", us("game.ne_solve"), "us");
    put("model.predict_us", us("model.predict"), "us");

    put("trace.overhead_frac", overhead_frac, "ratio");
    put("trace.spans", tr.spans().len() as f64, "count");
    out
}
