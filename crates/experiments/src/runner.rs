//! Parallel scenario execution — the public façade over the
//! [`crate::engine`] worker-pool/cache engine.
//!
//! Simulations are CPU-bound and independent, so batches fan out over a
//! fixed pool of OS threads (per the networking guides: an async runtime
//! buys nothing for compute-bound work). Results come back in input
//! order regardless of completion order, and — because every simulation
//! is a pure function of its [`Scenario`] — a parallel run is
//! bit-identical to a serial one. Pool size comes from `--jobs` /
//! `BBRDOM_JOBS` / the machine's parallelism; identical and previously
//! seen scenarios are served from the engine's content-addressed result
//! cache instead of being re-simulated.
//!
//! Two interfaces:
//!
//! * [`run_all`] — strict: a failing scenario panics, naming the lowest
//!   failing index (figure sweeps, where any failure is a bug);
//! * [`run_sweep`] — fail-soft and resumable: failures become structured
//!   [`TrialOutcome::Failed`] records, budgets guard against livelock,
//!   and the engine's result store ([`crate::store`]) records every
//!   finished trial, so a rerun resumes where an interrupted one stopped.

use crate::engine::Engine;
use crate::scenario::{Scenario, TrialResult};
use std::any::Any;

/// Number of worker threads to use by default.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Render a caught panic payload the way `panic!` would display it.
pub(crate) fn payload_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Run all scenarios, in parallel, returning results in input order.
///
/// # Panics
///
/// If any scenario fails, re-raises the first (lowest-index) failure as
/// `"scenario <i> failed: <error>"`.
pub fn run_all(scenarios: &[Scenario]) -> Vec<TrialResult> {
    Engine::global().run_all(scenarios)
}

/// Run with an explicit worker count (tests use specific counts to pin
/// determinism; results are order-stable and bit-identical regardless).
pub fn run_all_with_workers(scenarios: &[Scenario], workers: usize) -> Vec<TrialResult> {
    Engine::global().run_all_jobs(scenarios, workers)
}

/// Convenience: run `trials` seeds of a scenario template and return the
/// per-seed results. `make` receives the seed.
pub fn run_trials<F>(trials: u32, make: F) -> Vec<TrialResult>
where
    F: Fn(u64) -> Scenario,
{
    let scenarios: Vec<Scenario> = (0..trials as u64).map(make).collect();
    run_all(&scenarios)
}

/// Structured failure record for one trial in a fail-soft sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialFailure {
    /// Index of the failing scenario in the sweep's input order.
    pub index: usize,
    /// The error (panic message, budget trip, or audit violation).
    pub error: String,
    /// Human-readable scenario summary for the report.
    pub context: String,
}

/// The fail-soft result of one trial: the measurement, or a structured
/// failure that the rest of the sweep survived.
#[derive(Debug, Clone)]
pub enum TrialOutcome {
    Ok(TrialResult),
    Failed(TrialFailure),
}

impl TrialOutcome {
    /// The result, if the trial succeeded.
    pub fn ok(&self) -> Option<&TrialResult> {
        match self {
            TrialOutcome::Ok(r) => Some(r),
            TrialOutcome::Failed(_) => None,
        }
    }

    /// The failure, if the trial failed.
    pub fn failure(&self) -> Option<&TrialFailure> {
        match self {
            TrialOutcome::Ok(_) => None,
            TrialOutcome::Failed(f) => Some(f),
        }
    }
}

/// Configuration for a fail-soft sweep ([`run_sweep`]).
#[derive(Debug, Clone, Default)]
pub struct SweepConfig {
    /// Worker threads (`None` = the engine's configured `--jobs`).
    pub jobs: Option<usize>,
    /// Per-scenario event budget (livelock guard; `None` = unlimited).
    pub event_budget: Option<u64>,
    /// Per-scenario wall-clock budget (`None` = unlimited).
    pub wall_budget: Option<std::time::Duration>,
}

/// Run all scenarios fail-soft: one panicking, livelocked, or invalid
/// scenario becomes a structured [`TrialOutcome::Failed`] while the rest
/// of the sweep completes. Outcomes come back in input order.
///
/// Resume is a store lookup: with a disk cache configured, every
/// finished trial is indexed in strict scenario-index order, and
/// rerunning the same sweep serves each indexed success (keyed by
/// scenario content hash, so an edited scenario is a miss) and re-runs
/// only the rest. Failures are indexed but never served, so they re-run.
/// The only sweep-wide error is a supervised batch that cannot set up
/// its work dir or spawn a worker, a typed
/// [`ConfigError::Io`](bbrdom_netsim::ConfigError::Io) — per-trial
/// failures stay fail-soft inside the `Ok` outcome vector.
pub fn run_sweep(
    scenarios: &[Scenario],
    config: &SweepConfig,
) -> Result<Vec<TrialOutcome>, bbrdom_netsim::ConfigError> {
    Engine::global().run_sweep(scenarios, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::scenario_hash_hex;
    use crate::store::{Store, StoreEntry, StoreOutcome, INDEX_FILE};
    use bbrdom_cca::CcaKind;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn tiny(seed: u64) -> Scenario {
        Scenario::versus(10.0, 20.0, 2.0, 1, CcaKind::Bbr, 1, 3.0, seed)
    }

    #[test]
    fn results_are_in_input_order() {
        let scenarios: Vec<Scenario> = (0..6).map(tiny).collect();
        let parallel = run_all_with_workers(&scenarios, 4);
        let serial: Vec<_> = scenarios.iter().map(|s| s.run()).collect();
        for (p, s) in parallel.iter().zip(&serial) {
            assert_eq!(p.throughput_mbps, s.throughput_mbps);
        }
    }

    #[test]
    fn single_worker_works() {
        let scenarios: Vec<Scenario> = (0..3).map(tiny).collect();
        let results = run_all_with_workers(&scenarios, 1);
        assert_eq!(results.len(), 3);
    }

    #[test]
    fn run_trials_uses_distinct_seeds() {
        let results = run_trials(3, tiny);
        assert_eq!(results.len(), 3);
        assert_ne!(results[0].throughput_mbps, results[1].throughput_mbps);
    }

    #[test]
    fn empty_input_is_fine() {
        let results = run_all(&[]);
        assert!(results.is_empty());
    }

    #[test]
    fn worker_failure_reports_scenario_index_and_message() {
        // Scenario 1 has no flows: the engine surfaces the validation
        // error, tagged with the failing index.
        let mut scenarios: Vec<Scenario> = (0..3).map(tiny).collect();
        scenarios[1].flows.clear();
        let caught = catch_unwind(AssertUnwindSafe(|| run_all_with_workers(&scenarios, 2)))
            .expect_err("sweep with a failing scenario must panic");
        let msg = payload_message(&*caught);
        assert!(
            msg.contains("scenario 1") && msg.contains("no flows"),
            "unhelpful panic message: {msg}"
        );
    }

    #[test]
    fn earliest_failing_scenario_wins() {
        let mut scenarios: Vec<Scenario> = (0..4).map(tiny).collect();
        scenarios[0].flows.clear();
        scenarios[2].flows.clear();
        let caught = catch_unwind(AssertUnwindSafe(|| run_all_with_workers(&scenarios, 4)))
            .expect_err("sweep must panic");
        let msg = payload_message(&*caught);
        assert!(
            msg.contains("scenario 0"),
            "expected scenario 0 first: {msg}"
        );
    }

    #[test]
    fn sweep_survives_a_failing_scenario() {
        // Scenario 1 is invalid (no flows): the sweep must record a
        // structured failure at index 1 and still run the other two.
        let mut scenarios: Vec<Scenario> = (0..3).map(tiny).collect();
        scenarios[1].flows.clear();
        let cfg = SweepConfig {
            jobs: Some(2),
            ..SweepConfig::default()
        };
        let outcomes = run_sweep(&scenarios, &cfg).expect("sweep runs");
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes[0].ok().is_some());
        assert!(outcomes[2].ok().is_some());
        let failure = outcomes[1].failure().expect("scenario 1 must fail");
        assert_eq!(failure.index, 1);
        assert!(
            failure.error.contains("no flows"),
            "unhelpful error: {}",
            failure.error
        );
        assert!(failure.context.contains("0 flows"));
    }

    #[test]
    fn sweep_event_budget_fails_soft() {
        // 1000 events is far too few for a 3-second trial: the budget
        // trips and is reported as a structured failure, not a panic.
        let scenarios: Vec<Scenario> = (0..2).map(tiny).collect();
        let cfg = SweepConfig {
            jobs: Some(2),
            event_budget: Some(1_000),
            ..SweepConfig::default()
        };
        let outcomes = run_sweep(&scenarios, &cfg).expect("sweep runs");
        for o in &outcomes {
            let f = o.failure().expect("budget must trip");
            assert!(
                f.error.contains("event budget"),
                "unhelpful error: {}",
                f.error
            );
        }
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("bbrdom-sweep-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A single-threaded engine whose only cross-run memory is the disk
    /// cache and its result store (no memo), like a `repro` rerun.
    fn store_engine(dir: &std::path::Path) -> Engine {
        Engine::new(crate::engine::EngineConfig {
            jobs: 1,
            disk_cache: Some(dir.to_path_buf()),
            memory_cache: false,
            supervise: None,
            result_store: true,
        })
    }

    fn index_lines(dir: &std::path::Path) -> Vec<String> {
        std::fs::read_to_string(dir.join(INDEX_FILE))
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    /// `line` with its first throughput set to 999 — a value no
    /// simulation produces, so seeing it back proves the resumed sweep
    /// served the index entry verbatim.
    fn tampered_line(line: &str) -> String {
        let mut entry = StoreEntry::from_json_line(line).expect("valid index line");
        let StoreOutcome::Ok { result, .. } = &mut entry.outcome else {
            panic!("ok entry");
        };
        result.throughput_mbps[0] = 999.0;
        entry.to_json_line()
    }

    #[test]
    fn store_resume_simulates_only_missing_cells() {
        let dir = temp_dir("resume");
        let scenarios: Vec<Scenario> = (0..3).map(tiny).collect();
        let cfg = SweepConfig {
            jobs: Some(2),
            ..SweepConfig::default()
        };
        // An interrupted sweep: only the first two cells finished.
        let first = store_engine(&dir)
            .run_sweep(&scenarios[..2], &cfg)
            .expect("sweep runs");
        let lines = index_lines(&dir);
        assert_eq!(lines.len(), 2);
        std::fs::write(
            dir.join(INDEX_FILE),
            format!("{}\n{}\n", tampered_line(&lines[0]), lines[1]),
        )
        .unwrap();

        let engine = store_engine(&dir);
        let resumed = engine.run_sweep(&scenarios, &cfg).expect("sweep runs");
        assert_eq!(engine.stats().store_hits, 2);
        assert_eq!(engine.stats().simulated, 1, "only the missing cell runs");
        assert_eq!(resumed[0].ok().unwrap().throughput_mbps[0], 999.0);
        assert_eq!(
            resumed[1].ok().unwrap().throughput_mbps,
            first[1].ok().unwrap().throughput_mbps
        );
        assert_eq!(index_lines(&dir).len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn changed_scenario_is_a_store_miss() {
        let dir = temp_dir("stale");
        let scenarios: Vec<Scenario> = (0..2).map(tiny).collect();
        let cfg = SweepConfig {
            jobs: Some(1),
            ..SweepConfig::default()
        };
        let first = store_engine(&dir)
            .run_sweep(&scenarios, &cfg)
            .expect("sweep runs");

        // Change scenario 1 (different seed): its content hash no longer
        // matches any index entry, so it re-runs; scenario 0 resumes.
        let mut changed = scenarios.clone();
        changed[1] = tiny(77);
        let engine = store_engine(&dir);
        let resumed = engine.run_sweep(&changed, &cfg).expect("sweep runs");
        assert_eq!(engine.stats().store_hits, 1);
        assert_eq!(engine.stats().simulated, 1);
        assert_eq!(
            resumed[0].ok().unwrap().throughput_mbps,
            first[0].ok().unwrap().throughput_mbps
        );
        assert_ne!(
            resumed[1].ok().unwrap().throughput_mbps,
            first[1].ok().unwrap().throughput_mbps
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_and_malformed_index_lines_are_misses_and_repaired() {
        let dir = temp_dir("torn");
        let scenarios: Vec<Scenario> = (0..3).map(tiny).collect();
        let cfg = SweepConfig {
            jobs: Some(1),
            ..SweepConfig::default()
        };
        let first = store_engine(&dir)
            .run_sweep(&scenarios, &cfg)
            .expect("sweep runs");

        // The index as a crash might leave it: line 0 valid but tampered
        // (to prove reuse), a malformed mid-file line in place of line 1,
        // and a torn final record with no trailing newline.
        let lines = index_lines(&dir);
        assert_eq!(lines.len(), 3);
        let torn = &lines[2][..lines[2].len() / 2];
        std::fs::write(
            dir.join(INDEX_FILE),
            format!(
                "{}\n{{malformed mid-file line\n{torn}",
                tampered_line(&lines[0])
            ),
        )
        .unwrap();

        let engine = store_engine(&dir);
        let resumed = engine.run_sweep(&scenarios, &cfg).expect("sweep resumes");
        assert_eq!(engine.stats().store_hits, 1, "only line 0 is served");
        assert_eq!(
            resumed[0].ok().unwrap().throughput_mbps[0],
            999.0,
            "intact line 0 must resume without re-running"
        );
        // The misses fall through to the full reports on disk, which
        // reproduce the first run exactly.
        assert_eq!(engine.stats().disk_hits, 2);
        for i in [1, 2] {
            assert_eq!(
                resumed[i].ok().unwrap().throughput_mbps,
                first[i].ok().unwrap().throughput_mbps,
                "line {i} must be a miss"
            );
        }

        // The torn tail was truncated before appending, so nothing was
        // glued to the fragment: every key parses back exactly once.
        let text = std::fs::read_to_string(dir.join(INDEX_FILE)).unwrap();
        assert!(
            text.ends_with('\n'),
            "repaired index ends on a line boundary"
        );
        let keys: Vec<String> = text
            .lines()
            .filter_map(|l| StoreEntry::from_json_line(l).map(|e| e.key))
            .collect();
        let expected: Vec<String> = scenarios.iter().map(scenario_hash_hex).collect();
        assert_eq!(keys, expected, "index after resume:\n{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_index_lines_are_skipped() {
        let dir = temp_dir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(INDEX_FILE), "{truncated\nnot json at all\n").unwrap();
        let engine = store_engine(&dir);
        let outcomes = engine
            .run_sweep(&[tiny(3)], &SweepConfig::default())
            .expect("sweep runs");
        assert!(outcomes[0].ok().is_some(), "corrupt index must be ignored");
        assert_eq!(engine.stats().simulated, 1);
        assert_eq!(Store::open(&dir).len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_outcomes_are_indexed_and_rerun() {
        let dir = temp_dir("failed");
        let mut scenarios: Vec<Scenario> = (0..2).map(tiny).collect();
        scenarios[0].flows.clear();
        let cfg = SweepConfig {
            jobs: Some(1),
            ..SweepConfig::default()
        };
        let first = store_engine(&dir)
            .run_sweep(&scenarios, &cfg)
            .expect("sweep runs");
        let engine = store_engine(&dir);
        let resumed = engine.run_sweep(&scenarios, &cfg).expect("sweep runs");
        // The store never serves a failure: it re-runs (and fails the
        // same way), while the success resumes.
        assert_eq!(
            resumed[0].failure().expect("still failed"),
            first[0].failure().expect("failed")
        );
        assert_eq!(engine.stats().simulated, 1);
        assert_eq!(engine.stats().store_hits, 1);
        // The index holds exactly the two first-run lines: a repeated
        // failure is not re-appended.
        assert_eq!(index_lines(&dir).len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
