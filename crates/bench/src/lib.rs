//! Pinned performance harnesses for the workspace.
//!
//! The benches live under `benches/` and each gates or records one
//! claim, writing its numbers to a `BENCH_*.json` file at the repo root:
//!
//! * `netsim_perf` — simulator events/sec, with pinned floors on the
//!   open-loop churn and parking-lot cases (`BENCH_netsim.json`);
//! * `payoff_perf` — serial vs parallel vs warm-cache payoff grids
//!   (`BENCH_payoff.json`);
//! * `sweep_perf` — adaptive + early-stop NE search against the dense
//!   grid (`BENCH_sweep.json`);
//! * `store_perf` — store-served figure assembly against full-report
//!   parsing (`BENCH_store.json`);
//! * `fluid_perf` — fluid vs DES payoff grid speedup (`BENCH_fluid.json`).
//!
//! Run one with `cargo bench -p bbrdom-bench --bench <name>`. Figure
//! data itself comes from the `repro` binary (`bbrdom-experiments`).
