//! The three NE-panel workloads and the grids of cells they sweep.
//!
//! Every cell is built by `payoff::distribution_scenario`, the function
//! the figures' NE searches use, so a cell here is the same scenario
//! (same seed formula, same content hash) a figure would run.

use bbrdom_cca::CcaKind;
use bbrdom_experiments::payoff::distribution_scenario;
use bbrdom_experiments::{BackendSpec, DisciplineSpec, FaultSpec, Profile, Scenario};

/// One NE panel: every CUBIC/BBR split of `flows` flows at each buffer.
pub struct Workload {
    pub name: &'static str,
    pub mbps: f64,
    pub rtt_ms: f64,
    /// Buffer depths, in BDP.
    pub buffers: Vec<f64>,
    pub flows: u32,
    pub duration_secs: f64,
    pub backend: BackendSpec,
    /// Distinct trials an untraced run cycles through. Each cell's cold
    /// time is the fastest of its sweeps, which sees past the host's
    /// noise the better the more often a cell is swept; more trials
    /// average more inputs where a trial's cost varies with its seeds.
    pub trials: u32,
    /// Sweeps of each trial in an untraced run, and timed warm passes
    /// in each sweep. Both are fixed, so every version of the code is
    /// measured on the same number of samples. They are sized for
    /// `--seconds 30`: runs took 17–41 s (29 s on average) on the
    /// machine of `STEADINESS.md`, as the host's load varied.
    pub sweeps_per_trial: u32,
    pub warm_passes: usize,
}

impl Workload {
    /// The named workload; `smoke` shrinks it to a seconds-long grid of
    /// the same shape (fewer buffers, shorter runs, one trial swept
    /// twice) for the tests.
    pub fn by_name(name: &str, smoke: bool) -> Option<Workload> {
        let w = match name {
            "ne-deep-mixed" => Workload {
                name: "ne-deep-mixed",
                mbps: 50.0,
                rtt_ms: 40.0,
                buffers: vec![4.0, 8.0, 16.0],
                flows: 6,
                // Short cells, so that a run sweeps many trials several
                // times each: a grid's cost varies by about a seventh
                // from trial to trial (a few mixed cells hold most of it,
                // and past 4 s one loss episode whose cost varies
                // fourfold with the seed dominates them).
                duration_secs: 3.0,
                backend: BackendSpec::Des,
                trials: 8,
                sweeps_per_trial: 3,
                warm_passes: 100,
            },
            "ne-shallow-wide" => Workload {
                name: "ne-shallow-wide",
                mbps: 50.0,
                rtt_ms: 20.0,
                buffers: vec![0.25, 0.5, 1.0],
                flows: 20,
                duration_secs: 8.0,
                backend: BackendSpec::Des,
                trials: 3,
                sweeps_per_trial: 4,
                warm_passes: 40,
            },
            "ne-fluid" => Workload {
                name: "ne-fluid",
                mbps: 50.0,
                rtt_ms: 40.0,
                // Whole BDPs rather than half-BDP steps: a run times
                // each cell the more often the fewer cells the grid has,
                // and only many timings of a cell see past the host's
                // noise.
                buffers: (1..=12).map(f64::from).collect(),
                flows: 20,
                duration_secs: 30.0,
                backend: BackendSpec::Fluid,
                // 252 cells make every trial cost about the same.
                trials: 1,
                sweeps_per_trial: 11,
                warm_passes: 12,
            },
            _ => return None,
        };
        Some(if smoke { w.smoke() } else { w })
    }

    fn smoke(mut self) -> Workload {
        self.trials = 1;
        self.sweeps_per_trial = 2;
        self.warm_passes = 3;
        match self.backend {
            BackendSpec::Des => {
                self.buffers.truncate(1);
                self.duration_secs = 1.0;
            }
            BackendSpec::Fluid => self.buffers.truncate(4),
        }
        self
    }

    /// Cells per buffer: the splits `k = 0..=flows` BBR flows.
    pub fn splits(&self) -> usize {
        self.flows as usize + 1
    }

    /// The grid of one trial, buffer-major, `k` BBR flows ascending
    /// within a buffer. Trials differ only in their cells' seeds, as the
    /// trials of a figure's NE search do.
    pub fn cells(&self, seed: u64, trial: u32) -> Vec<Scenario> {
        let profile = Profile {
            duration_secs: self.duration_secs,
            early_stop: None,
            backend: self.backend,
            workload: None,
            dumbbell_topology: false,
            ..Profile::quick()
        };
        let faults = FaultSpec::default();
        let mut cells = Vec::with_capacity(self.buffers.len() * self.splits());
        for &buffer in &self.buffers {
            for k in 0..=self.flows {
                cells.push(distribution_scenario(
                    self.mbps,
                    self.rtt_ms,
                    buffer,
                    self.flows,
                    k,
                    trial,
                    CcaKind::Bbr,
                    &profile,
                    seed,
                    DisciplineSpec::DropTail,
                    &faults,
                ));
            }
        }
        cells
    }

    /// Whether grid cell `i` mixes both algorithms (`0 < k < flows`).
    pub fn is_mixed(&self, i: usize) -> bool {
        let k = i % self.splits();
        k != 0 && k != self.flows as usize
    }
}
