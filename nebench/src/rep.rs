//! One repetition of a workload: set-up, the cold sweep over an empty
//! cache, then the warm passes served by the result store — every
//! output checked, every failure counted.

use crate::grid::Workload;
use crate::trace::Tracer;
use bbrdom_experiments::runner::{SweepConfig, TrialOutcome};
use bbrdom_experiments::{scenario_hash, CacheStats, Engine, EngineConfig, TrialResult};
use std::path::Path;
use std::time::Instant;

/// The grid cell the set-up phase simulates through a throwaway engine:
/// the first that runs both algorithms (one BBR flow, the rest CUBIC),
/// so the warm-up touches both CCAs' code.
const WARMUP_CELL: usize = 1;

/// The engine `repro` runs: one job, disk cache, result store and
/// memory memo on.
pub fn engine_config(cache: &Path) -> EngineConfig {
    EngineConfig {
        jobs: 1,
        disk_cache: Some(cache.to_path_buf()),
        memory_cache: true,
        supervise: None,
        result_store: true,
    }
}

pub fn sweep_config() -> SweepConfig {
    SweepConfig {
        jobs: Some(1),
        ..SweepConfig::default()
    }
}

/// The canonical bytes of a result: `TrialResult`'s JSON round-trips
/// floats bit-exactly, so equal strings mean bit-identical results.
pub fn result_json(r: &TrialResult) -> String {
    r.to_json_value().to_json()
}

/// Cells attempted and passed, with the first few reasons for failure.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    pub problems: Vec<String>,
}

impl Tally {
    pub fn cell(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        match check {
            Ok(()) => self.ok += 1,
            Err(why) => self.problem(why),
        }
    }

    /// A failure that belongs to no single cell.
    pub fn problem(&mut self, why: String) {
        if self.problems.len() < 20 {
            self.problems.push(why);
        }
    }

    /// Withdraw `cells` earlier passes (a grid-wide check failed).
    pub fn revoke(&mut self, cells: u64, why: String) {
        self.ok = self.ok.saturating_sub(cells);
        self.problem(why);
    }

    pub fn failed(&self) -> u64 {
        self.attempted - self.ok
    }
}

pub struct Rep {
    pub setup_s: f64,
    /// Wall time of the cold sweep, and of each of its cells.
    pub cold_s: f64,
    pub cold_cell_s: Vec<f64>,
    /// Peak resident memory of this repetition (`None` where the
    /// process's peak cannot be reset).
    pub peak_rss_mb: Option<f64>,
    /// Time of each timed warm pass.
    pub warm_pass_s: Vec<f64>,
    /// Wall time of the whole repetition: fixed work (set-up, the cold
    /// sweep and the workload's number of warm passes).
    pub wall_s: f64,
    pub cold: Vec<Option<TrialResult>>,
    pub cold_json: Vec<String>,
    pub digest: u64,
    pub cold_stats: CacheStats,
    /// Counters summed over every warm pass's engine.
    pub warm_stats: CacheStats,
    pub warm_cells: u64,
}

/// Reset the process's peak resident memory (`VmHWM`) to its current
/// resident memory; `false` where the kernel does not allow it.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The process's peak resident memory (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    Some(
        kb.trim()
            .trim_end_matches("kB")
            .trim()
            .parse::<f64>()
            .ok()?
            / 1024.0,
    )
}

/// FNV-1a (64-bit) over the cold results' JSON, one line per cell.
fn digest(lines: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for &b in line.as_bytes().iter().chain(b"\n") {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Physical sanity of one cell's result.
fn sane(w: &Workload, r: &TrialResult) -> Result<(), String> {
    let rates_ok = r.throughput_mbps.len() == w.flows as usize
        && r.throughput_mbps.iter().all(|x| x.is_finite() && *x >= 0.0);
    if !rates_ok {
        return Err("per-flow throughputs missing or not finite".into());
    }
    if r.total_throughput() > w.mbps * 1.01 {
        return Err(format!(
            "{} Mbps through a {} Mbps link",
            r.total_throughput(),
            w.mbps
        ));
    }
    if !(r.utilization > 0.0 && r.utilization <= 1.01) {
        return Err(format!("utilization {}", r.utilization));
    }
    Ok(())
}

fn add(total: &mut CacheStats, s: CacheStats) {
    total.memory_hits += s.memory_hits;
    total.store_hits += s.store_hits;
    total.disk_hits += s.disk_hits;
    total.deduped += s.deduped;
    total.simulated += s.simulated;
    total.events_simulated += s.events_simulated;
}

/// A `repro` rerun over the populated cache: a fresh engine, its store
/// opened, the whole grid swept.
fn warm_pass(
    cells: &[bbrdom_experiments::Scenario],
    cache: &Path,
    tr: &mut Tracer,
) -> (Option<Vec<TrialOutcome>>, CacheStats) {
    let pass = tr.enter("warm.pass", None);
    let engine = tr.span("engine.new", None, || Engine::new(engine_config(cache)));
    tr.span("store.open", None, || engine.store().map(|s| s.len()));
    let out = tr.span("engine.run_sweep", None, || {
        engine.run_sweep(cells, &sweep_config())
    });
    let stats = engine.stats();
    drop(engine);
    tr.exit(pass);
    (out.ok(), stats)
}

/// Run one repetition over trial `trial` of the grid, in `dir` (created
/// here; the caller removes it).
pub fn run_rep(
    w: &Workload,
    seed: u64,
    trial: u32,
    dir: &Path,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<Rep, String> {
    let rss_reset = reset_peak_rss();
    let start = Instant::now();
    let setup = tr.enter("setup", None);
    let cache = dir.join("cache");
    std::fs::create_dir_all(&cache).map_err(|e| format!("{}: {e}", cache.display()))?;
    let cells = tr.span("payoff.grid", None, || w.cells(seed, trial));
    let hashes: Vec<u128> = tr.span("engine.hash_grid", None, || {
        cells.iter().map(scenario_hash).collect()
    });
    let engine = tr.span("engine.new", None, || Engine::new(engine_config(&cache)));
    tr.span("store.open", None, || engine.store().map(|s| s.len()));
    // The first-touch cost a `repro` run pays: one cell simulated and
    // cached through a throwaway engine of its own.
    let warmup = tr.span("engine.run_sweep", None, || {
        Engine::new(engine_config(&dir.join("warmup")))
            .run_sweep(std::slice::from_ref(&cells[WARMUP_CELL]), &sweep_config())
    });
    tr.exit(setup);
    let setup_s = start.elapsed().as_secs_f64();

    // One `run_sweep` per cell, so each cell's time is seen: with one
    // job the engine runs a batch inline, cell after cell, so this is
    // the work of one call over the grid, and the store appends in the
    // same order.
    let cold_span = tr.enter("cold", None);
    let t = Instant::now();
    let mut outcomes = Vec::with_capacity(cells.len());
    let mut cold_cell_s = Vec::with_capacity(cells.len());
    for (i, cell) in cells.iter().enumerate() {
        let c = Instant::now();
        let out = tr.span("engine.run_sweep", Some(i), || {
            engine.run_sweep(std::slice::from_ref(cell), &sweep_config())
        });
        cold_cell_s.push(c.elapsed().as_secs_f64());
        outcomes.push(out.map(|mut o| o.pop()).unwrap_or_else(|e| {
            tally.problem(format!("cold sweep of cell {i} refused: {e}"));
            None
        }));
    }
    let cold_s = t.elapsed().as_secs_f64();
    tr.exit(cold_span);

    let n = cells.len();
    let cold_stats = engine.stats();
    if cold_stats.simulated != n as u64 {
        tally.problem(format!(
            "cold sweep simulated {} of {n} cells",
            cold_stats.simulated
        ));
    }
    let warmup_json = warmup
        .ok()
        .and_then(|o| o.first().and_then(TrialOutcome::ok).map(result_json));
    let store = engine.store();
    let mut cold = Vec::with_capacity(n);
    let mut cold_json = Vec::with_capacity(n);
    for (i, hash) in hashes.iter().enumerate() {
        let r = outcomes[i].as_ref().and_then(TrialOutcome::ok);
        let j = r.map(result_json).unwrap_or_default();
        tally.cell(match r {
            None => Err(format!(
                "cold cell {i}: {:?}",
                outcomes[i].as_ref().and_then(TrialOutcome::failure)
            )),
            Some(r) => sane(w, r)
                .and_then(|()| {
                    let stored = store.and_then(|s| s.get(*hash));
                    match stored.as_ref().and_then(|e| e.ok()).map(result_json) {
                        Some(s) if s == j => Ok(()),
                        _ => Err("store entry missing or different".into()),
                    }
                })
                .and_then(|()| match &warmup_json {
                    _ if i != WARMUP_CELL => Ok(()),
                    Some(wj) if *wj != j => Err("warm-up run differs".into()),
                    Some(_) => Ok(()),
                    None => Err("warm-up run failed".into()),
                })
                .map_err(|why| format!("cold cell {i}: {why}")),
        });
        cold.push(r.cloned());
        cold_json.push(j);
    }
    drop(engine);

    let mut warm_stats = CacheStats::default();
    let mut warm_cells = 0;
    let mut check_warm = |(out, stats): (Option<Vec<TrialOutcome>>, CacheStats),
                          tally: &mut Tally| {
        add(&mut warm_stats, stats);
        warm_cells += n as u64;
        let all_hits = stats.store_hits == n as u64 && stats.simulated == 0;
        let out = out.unwrap_or_default();
        for (i, expect) in cold_json.iter().enumerate() {
            let r = out.get(i).and_then(TrialOutcome::ok);
            tally.cell(match r {
                _ if !all_hits => Err(format!(
                    "warm pass not served by the store: {}",
                    stats.summary()
                )),
                Some(r) if result_json(r) == *expect => Ok(()),
                _ => Err(format!("warm cell {i} differs from cold")),
            });
        }
    };
    // One untimed pass first, then the workload's fixed number of timed
    // passes, each checked after its clock stops.
    check_warm(warm_pass(&cells, &cache, tr), tally);
    let mut warm_pass_s = Vec::with_capacity(w.warm_passes);
    for _ in 0..w.warm_passes {
        let t = Instant::now();
        let pass = warm_pass(&cells, &cache, tr);
        warm_pass_s.push(t.elapsed().as_secs_f64());
        check_warm(pass, tally);
    }

    Ok(Rep {
        setup_s,
        cold_s,
        cold_cell_s,
        peak_rss_mb: peak_rss_mb().filter(|_| rss_reset),
        warm_pass_s,
        wall_s: start.elapsed().as_secs_f64(),
        digest: digest(&cold_json),
        cold,
        cold_json,
        cold_stats,
        warm_stats,
        warm_cells,
    })
}
