//! Seed-derived workload inputs.
//!
//! Everything a workload feeds the program is drawn here from the
//! `--seed` argument, before any timing starts. The program only ever
//! sees the generated inputs: scenarios, fault plans, loop seeds and
//! campaign specs.

use chaos::{fleet_specs, CampaignSpec, CellSpec, ScorecardConfig};
use trader::faults::Schedule;
use trader::simkit::{SimRng, SimTime};
use trader::tvsim::TvFault;
use trader::TimedScenario;

/// The three workloads of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Long sequential closed-loop sessions with the full observatory.
    SessionClosed,
    /// Short E1-shaped sessions with online spectrum diagnosis.
    SessionDiagnose,
    /// The lab's parallel campaign fleet plus the probed scorecard grid.
    CampaignSweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SessionClosed,
        Workload::SessionDiagnose,
        Workload::CampaignSweep,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SessionClosed => "session-closed",
            Workload::SessionDiagnose => "session-diagnose",
            Workload::CampaignSweep => "campaign-sweep",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The loop knobs the workload's sessions run with.
    pub fn knobs(self) -> Knobs {
        match self {
            Workload::SessionClosed => Knobs {
                probes: true,
                unit_recovery: true,
                diagnose: false,
            },
            Workload::SessionDiagnose => Knobs {
                probes: false,
                unit_recovery: false,
                diagnose: true,
            },
            Workload::CampaignSweep => Knobs::default(),
        }
    }
}

/// The optional closed-loop features a session may switch on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Knobs {
    /// `active_probes(ProbesConfig::standard())`.
    pub probes: bool,
    /// `unit_recovery(UnitRecoveryConfig::micro_reboot())`.
    pub unit_recovery: bool,
    /// `diagnose_online(DIAGNOSIS_TOP_K)`.
    pub diagnose: bool,
}

/// Suspect-window size for online diagnosis. The planted render-fault
/// block shares an ambiguity group with over a hundred other blocks, so
/// a window of 10 would never contain it.
pub const DIAGNOSIS_TOP_K: usize = 128;

/// Presses in a `session-closed` session (before the seeded jitter).
pub const CLOSED_SESSION_LEN: usize = 200;
/// Every Nth `session-closed` session is fault-free.
pub const CLOSED_FAULT_FREE_EVERY: usize = 5;
/// Presses in a `session-diagnose` session (the E1 shape).
pub const DIAGNOSE_SESSION_LEN: usize = 27;
/// Every Nth `session-diagnose` session is fault-free.
pub const DIAGNOSE_FAULT_FREE_EVERY: usize = 8;
/// Distinct sessions generated per seed; timed runs cycle through them.
/// Large enough that a 30 s run repeats each session only a few times,
/// so the p99 tail is a property of the generator, not of the handful
/// of most expensive sessions one seed happens to draw.
pub const SESSION_POOL: usize = 2048;
/// Campaigns in the `campaign-sweep` fleet.
pub const FLEET_CAMPAIGNS: usize = 256;

/// The press pattern of a session.
#[derive(Clone, Copy)]
enum Shape {
    /// Power on, tune, then `Ok` presses that change nothing.
    Idle,
    /// Rapid channel surfing.
    Zapping,
    /// The paper's teletext browsing session.
    Teletext,
    /// Every observed function: volume, mute, channel, teletext, menu,
    /// sleep timer, swivel.
    FullMix,
}

impl Shape {
    const ROTATION: [Shape; 4] = [Shape::Idle, Shape::Zapping, Shape::Teletext, Shape::FullMix];

    fn scenario(self, len: usize) -> TimedScenario {
        match self {
            Shape::Idle => TimedScenario::idle_session(len),
            Shape::Zapping => TimedScenario::zapping_session(len),
            Shape::Teletext => TimedScenario::teletext_session(len),
            Shape::FullMix => TimedScenario::full_mix_session(len),
        }
    }
}

/// One loop session: the scenario, the loop seed, and the planted fault
/// (if any).
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// The timed presses.
    pub scenario: TimedScenario,
    /// Seeds the loop's boundary channels and checkpoint vault.
    pub loop_seed: u64,
    /// The planted fault and its activation schedule; `None` for a
    /// fault-free session, which must raise no detection at all.
    pub fault: Option<(TvFault, Schedule)>,
}

impl SessionSpec {
    /// The session's virtual-time horizon: one press gap past the last
    /// press.
    fn horizon(len: usize) -> SimTime {
        SimTime::from_millis(100 * (len as u64 + 1))
    }
}

/// Everything a workload runs, generated from one seed.
#[derive(Debug, Clone)]
pub enum Inputs {
    /// The session pool of `session-closed` or `session-diagnose`.
    Sessions(Vec<SessionSpec>),
    /// The fleet and the scorecard grid of `campaign-sweep`.
    Sweep {
        /// The 256-campaign fleet.
        fleet: Vec<CampaignSpec>,
        /// The probed full scorecard configuration.
        scorecard: ScorecardConfig,
        /// `scorecard.grid()`, the 120 cells.
        grid: Vec<CellSpec>,
    },
}

impl Inputs {
    /// Generates the inputs of `workload` for `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let mut rng = SimRng::seed(seed ^ 0xBE7C_4A11_5EED_0000);
        match workload {
            Workload::SessionClosed => Inputs::Sessions(
                (0..SESSION_POOL)
                    .map(|i| closed_session(i, &mut rng))
                    .collect(),
            ),
            Workload::SessionDiagnose => Inputs::Sessions(
                (0..SESSION_POOL)
                    .map(|i| diagnose_session(i, &mut rng))
                    .collect(),
            ),
            Workload::CampaignSweep => {
                // Disjoint fleet seed ranges per benchmark seed, far from
                // the regression fleet at 1000..1256.
                let base = 100_000 + rng.uniform_u64(0, 1 << 30) * FLEET_CAMPAIGNS as u64;
                let scorecard = ScorecardConfig {
                    probes: true,
                    ..ScorecardConfig::full()
                };
                Inputs::Sweep {
                    fleet: fleet_specs(base, FLEET_CAMPAIGNS),
                    grid: scorecard.grid(),
                    scorecard,
                }
            }
        }
    }
}

/// A `session-closed` session: the shapes rotate, the length jitters by
/// a few presses, and every [`CLOSED_FAULT_FREE_EVERY`]th session is
/// fault-free; the others carry one fault class in a seed-drawn window.
fn closed_session(index: usize, rng: &mut SimRng) -> SessionSpec {
    let shape = Shape::ROTATION[index % Shape::ROTATION.len()];
    let len = CLOSED_SESSION_LEN - 8 + rng.uniform_u64(0, 16) as usize;
    let loop_seed = rng.uniform_u64(0, u64::MAX - 1);
    let fault = (index % CLOSED_FAULT_FREE_EVERY != CLOSED_FAULT_FREE_EVERY - 1).then(|| {
        let fault = *rng.pick(&TvFault::ALL).expect("fault classes exist");
        let from = rng.uniform_f64(0.05, 0.6);
        let to = from + rng.uniform_f64(0.1, 0.35);
        (
            fault,
            Schedule::window_fraction(SessionSpec::horizon(len), from, to),
        )
    });
    SessionSpec {
        scenario: shape.scenario(len),
        loop_seed,
        fault,
    }
}

/// A `session-diagnose` session: the E1-shaped 27-press teletext
/// session with the teletext render fault planted from an early instant
/// on (every [`DIAGNOSE_FAULT_FREE_EVERY`]th session is fault-free).
fn diagnose_session(index: usize, rng: &mut SimRng) -> SessionSpec {
    let loop_seed = rng.uniform_u64(0, u64::MAX - 1);
    let fault = (index % DIAGNOSE_FAULT_FREE_EVERY != DIAGNOSE_FAULT_FREE_EVERY - 1).then(|| {
        let schedule = if rng.chance(0.5) {
            Schedule::Always
        } else {
            Schedule::From {
                at: SimTime::from_millis(rng.uniform_u64(0, 250)),
            }
        };
        (TvFault::TeletextRenderFault, schedule)
    });
    SessionSpec {
        scenario: Shape::Teletext.scenario(DIAGNOSE_SESSION_LEN),
        loop_seed,
        fault,
    }
}
