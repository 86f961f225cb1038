//! Set-up and the untraced timed region of each workload.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use chaos::{run_fleet, run_scorecard, scatter_map, CampaignSpec, CellOutcome, CellSpec};

use crate::alloc::allocations;
use crate::inputs::{Inputs, Knobs, SessionSpec, Workload};
use crate::session::{check_session, fingerprint, planted_block, run_session, Arm};

/// Units attempted and failed, with a count per failure reason.
#[derive(Debug, Default)]
pub struct Tally {
    /// Units (session, campaign or cell) checked.
    pub attempted: u64,
    /// Units that failed a check.
    pub failed: u64,
    /// Failed units per reason.
    pub reasons: BTreeMap<&'static str, u64>,
}

impl Tally {
    /// Records one checked unit.
    pub fn record(&mut self, failure: Option<&'static str>) {
        self.attempted += 1;
        if let Some(reason) = failure {
            self.failed += 1;
            *self.reasons.entry(reason).or_default() += 1;
        }
    }
}

/// A workload after set-up: its inputs, the reference fingerprint of
/// every unit run so far, and what the checks need.
pub enum Prepared {
    /// `session-closed` or `session-diagnose`.
    Sessions {
        /// The session pool.
        pool: Vec<SessionSpec>,
        /// The loop knobs of the workload.
        knobs: Knobs,
        /// Fingerprint of each pool entry's first run.
        reference: Vec<Option<u64>>,
        /// The render-fault block diagnosis must find.
        planted: u32,
    },
    /// `campaign-sweep`.
    Sweep {
        /// The campaign fleet.
        fleet: Vec<CampaignSpec>,
        /// The scorecard grid.
        grid: Vec<CellSpec>,
        /// Workers for the fleet and the grid.
        workers: usize,
        /// Per-campaign fingerprints from the warm-up `run_fleet`.
        fleet_reference: Vec<u64>,
        /// Per-cell fingerprints from the warm-up `run_scorecard`.
        grid_reference: Vec<u64>,
        /// Closed-arm loop fingerprints of the warm-up fleet.
        closed_reference: Vec<u64>,
        /// `FleetOutcome::fingerprint` of the warm-up fleet.
        fleet_fingerprint: u64,
        /// `DependabilityScorecard::fingerprint` of the warm-up grid.
        grid_fingerprint: u64,
    },
}

/// Generates the inputs and runs the untimed warm-up unit: one session,
/// or one pass of `run_fleet` and `run_scorecard` for the sweep.
pub fn set_up(workload: Workload, seed: u64, workers: usize) -> Prepared {
    match Inputs::generate(workload, seed) {
        Inputs::Sessions(pool) => {
            let knobs = workload.knobs();
            let planted = planted_block();
            let mut reference = vec![None; pool.len()];
            reference[0] = run_session(&pool[0], Arm::Closed(knobs)).map(|o| fingerprint(&o));
            Prepared::Sessions {
                pool,
                knobs,
                reference,
                planted,
            }
        }
        Inputs::Sweep {
            fleet,
            scorecard,
            grid,
        } => {
            let fleet_out = run_fleet(&fleet, workers);
            let cards = run_scorecard(&scorecard, workers);
            Prepared::Sweep {
                closed_reference: fleet_out
                    .results
                    .iter()
                    .map(|r| fingerprint(&r.outcome.closed))
                    .collect(),
                fleet_fingerprint: fleet_out.fingerprint(),
                grid_fingerprint: cards.fingerprint(),
                fleet_reference: fleet_out
                    .results
                    .iter()
                    .map(|r| r.outcome.fingerprint())
                    .collect(),
                grid_reference: cards.cells.iter().map(CellOutcome::fingerprint).collect(),
                fleet,
                grid,
                workers,
            }
        }
    }
}

/// What the untraced timed region measured.
#[derive(Debug, Default)]
pub struct Timed {
    /// Presses completed.
    pub presses: u64,
    /// Wall time of the whole region.
    pub elapsed: Duration,
    /// Sweep passes completed (0 for sessions).
    pub passes: usize,
    /// Pool index the next session chunk starts at.
    pub cursor: usize,
    /// Wall time per session in ms (sweep: per loop run of a cell).
    pub session_ms: Vec<f64>,
    /// Heap allocations in the region.
    pub allocs: u64,
    /// Domain outcomes, printed as information only: the seed fixes them.
    pub domain: Domain,
}

/// Domain outcomes of the timed units. Seeds fix these, so they are
/// information for the reader, never metrics.
#[derive(Debug, Default)]
pub struct Domain {
    /// Sessions (or fleet campaigns) with a planted fault.
    pub faulty: u64,
    /// Of those, the ones the loop detected.
    pub detected: u64,
    /// Presses with a user-visible deviation.
    pub failure_presses: u64,
    /// Presses looked at for `failure_presses`.
    pub presses: u64,
    /// Σ virtual detection latency in ms over detected units.
    pub mttd_ms_sum: f64,
    /// Scorecard cells covered, partial and missed (sweep only).
    pub cells: Option<(usize, usize, usize)>,
}

impl Domain {
    fn add(&mut self, faulty: bool, outcome: &trader::LoopOutcome) {
        self.presses += outcome.steps as u64;
        self.failure_presses += outcome.failure_steps as u64;
        if faulty {
            self.faulty += 1;
            if outcome.detected_errors > 0 {
                self.detected += 1;
                if let Some(latency) = outcome.detection_latency {
                    self.mttd_ms_sum += latency.as_nanos() as f64 / 1e6;
                }
            }
        }
    }

    /// One line of information.
    pub fn line(&self) -> String {
        let mut line = format!(
            "domain (information only): {} of {} faulty units detected, mean virtual MTTD {:.1} ms, user-visible failure presses {} of {}",
            self.detected,
            self.faulty,
            self.mttd_ms_sum / self.detected.max(1) as f64,
            self.failure_presses,
            self.presses
        );
        if let Some((covered, partial, missed)) = self.cells {
            line.push_str(&format!(
                "; scorecard cells {covered} covered / {partial} partial / {missed} missed"
            ));
        }
        line
    }
}

/// Smallest session count of a timed session run, so its p99 has at
/// least ten samples beyond it.
pub const MIN_SESSIONS: usize = 1100;

/// Runs one chunk of the timed region, about `seconds` long (and at
/// least `min_sessions` sessions), checking every unit and adding what
/// it measured to `timed`.
pub fn run_timed(
    prepared: &mut Prepared,
    timed: &mut Timed,
    seconds: f64,
    min_sessions: usize,
    tally: &mut Tally,
) {
    match prepared {
        Prepared::Sessions {
            pool,
            knobs,
            reference,
            planted,
        } => time_sessions(
            pool,
            *knobs,
            reference,
            *planted,
            (seconds, min_sessions),
            timed,
            tally,
        ),
        Prepared::Sweep {
            fleet,
            grid,
            workers,
            fleet_reference,
            grid_reference,
            ..
        } => time_sweep(
            fleet,
            grid,
            *workers,
            fleet_reference,
            grid_reference,
            seconds,
            timed,
            tally,
        ),
    }
}

impl Prepared {
    /// Checks that a later set-up's warm-up unit came out as this one's.
    pub fn check_same_warm_up(&self, again: &Prepared) -> Option<&'static str> {
        let same = match (self, again) {
            (Prepared::Sessions { reference: a, .. }, Prepared::Sessions { reference: b, .. }) => {
                a[0] == b[0]
            }
            (
                Prepared::Sweep {
                    fleet_reference: fa,
                    grid_reference: ga,
                    ..
                },
                Prepared::Sweep {
                    fleet_reference: fb,
                    grid_reference: gb,
                    ..
                },
            ) => fa == fb && ga == gb,
            _ => false,
        };
        (!same).then_some("fingerprint differs between runs")
    }
}

/// Checks a unit's fingerprint against the first run of the same unit.
pub fn check_repeat(reference: &mut Option<u64>, got: Option<u64>) -> Option<&'static str> {
    match (*reference, got) {
        (_, None) => None,
        (None, Some(fp)) => {
            *reference = Some(fp);
            None
        }
        (Some(want), Some(fp)) => (want != fp).then_some("fingerprint differs between runs"),
    }
}

fn time_sessions(
    pool: &[SessionSpec],
    knobs: Knobs,
    reference: &mut [Option<u64>],
    planted: u32,
    (seconds, min_sessions): (f64, usize),
    timed: &mut Timed,
    tally: &mut Tally,
) {
    let stop = Duration::from_secs_f64(seconds);
    // Hard cap so a slow host still ends well inside the run limit.
    let cap = Duration::from_secs_f64(seconds * 4.0);
    // Room for a long run, so the vector does not grow while timing.
    timed.session_ms.reserve(16_384);
    let sessions_before = timed.session_ms.len();
    let allocs_before = allocations();
    let start = Instant::now();
    // Each chunk continues the pool where the previous one stopped.
    let order = (timed.cursor..).map(|i| i % pool.len());
    for i in order {
        let spec = &pool[i];
        timed.cursor = i + 1;
        let t = Instant::now();
        let outcome = run_session(spec, Arm::Closed(knobs));
        let took = t.elapsed();
        timed.session_ms.push(took.as_secs_f64() * 1e3);
        let failure = check_session(spec, knobs, outcome.as_ref(), planted)
            .or_else(|| check_repeat(&mut reference[i], outcome.as_ref().map(fingerprint)));
        tally.record(failure);
        if let Some(outcome) = &outcome {
            timed.domain.add(spec.fault.is_some(), outcome);
        }
        timed.presses += spec.scenario.len() as u64;
        let total = start.elapsed();
        let sessions = timed.session_ms.len() - sessions_before;
        if (total >= stop && sessions >= min_sessions) || total >= cap {
            break;
        }
    }
    timed.elapsed += start.elapsed();
    timed.allocs += allocations() - allocs_before;
}

/// Runs `run` over `items` on the shared executor with a clock inside
/// the closure: each result comes with the worker thread that ran it and
/// its busy time, and the call's makespan comes last. Over a scorecard
/// grid with `CellSpec::run` this is exactly `run_scorecard`'s work.
pub fn timed_scatter<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    run: impl Fn(&T) -> R + Sync,
) -> (Vec<(R, ThreadId, Duration)>, Duration) {
    let start = Instant::now();
    let out = scatter_map(items, workers, |item| {
        let t = Instant::now();
        let result = run(item);
        (result, thread::current().id(), t.elapsed())
    });
    (out, start.elapsed())
}

/// Checks one cell against its reference fingerprint; its fault-free
/// twin must stay silent.
pub fn check_cell(cell: &CellOutcome, reference: u64) -> Option<&'static str> {
    if cell.twin_detections > 0 {
        Some("false alarm in a fault-free twin")
    } else if cell.fingerprint() != reference {
        Some("fingerprint differs between runs")
    } else {
        None
    }
}

/// Checks one fleet campaign: invariant audit, channel conservation on
/// the closed arm, and its reference fingerprint.
pub fn check_campaign(result: &chaos::FleetCampaignResult, reference: u64) -> Option<&'static str> {
    if result.forensics.is_some() {
        Some("fleet invariant violated")
    } else if !result
        .outcome
        .closed
        .channels
        .is_some_and(|a| a.conserved())
    {
        Some("boundary channels not conserved")
    } else if result.outcome.fingerprint() != reference {
        Some("fingerprint differs between runs")
    } else {
        None
    }
}

#[allow(clippy::too_many_arguments)]
fn time_sweep(
    fleet: &[CampaignSpec],
    grid: &[CellSpec],
    workers: usize,
    fleet_reference: &[u64],
    grid_reference: &[u64],
    seconds: f64,
    timed: &mut Timed,
    tally: &mut Tally,
) {
    let stop = Duration::from_secs_f64(seconds);
    let fleet_presses: u64 = fleet.iter().map(|s| 2 * s.scenario_len as u64).sum();
    let allocs_before = allocations();
    let start = Instant::now();
    loop {
        let mut presses = 0;
        match catch_unwind(AssertUnwindSafe(|| run_fleet(fleet, workers))) {
            Ok(out) => {
                for (result, want) in out.results.iter().zip(fleet_reference) {
                    tally.record(check_campaign(result, *want));
                    if timed.passes == 0 {
                        timed.domain.add(true, &result.outcome.closed);
                    }
                }
                presses += fleet_presses;
            }
            Err(_) => (0..fleet.len()).for_each(|_| tally.record(Some("panicked"))),
        }
        match catch_unwind(AssertUnwindSafe(|| {
            timed_scatter(grid, workers, CellSpec::run).0
        })) {
            Ok(cells) => {
                if timed.passes == 0 {
                    let (mut covered, mut partial, mut missed) = (0, 0, 0);
                    for (cell, _, _) in &cells {
                        match cell.detected() {
                            0 => missed += 1,
                            d if d == cell.reps.len() => covered += 1,
                            _ => partial += 1,
                        }
                    }
                    timed.domain.cells = Some((covered, partial, missed));
                }
                for ((cell, _, took), want) in cells.iter().zip(grid_reference) {
                    tally.record(check_cell(cell, *want));
                    // Loop runs in the cell: every rep and the twin.
                    let runs = cell.reps.len() + 1;
                    timed
                        .session_ms
                        .push(took.as_secs_f64() * 1e3 / runs as f64);
                    presses += (runs * cell.spec.scenario_len) as u64;
                }
            }
            Err(_) => (0..grid.len()).for_each(|_| tally.record(Some("panicked"))),
        }
        timed.presses += presses;
        timed.passes += 1;
        if start.elapsed() >= stop {
            break;
        }
    }
    timed.elapsed += start.elapsed();
    timed.allocs += allocations() - allocs_before;
}
