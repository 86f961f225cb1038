//! Building and checking one loop session.

use std::panic::{catch_unwind, AssertUnwindSafe};

use chaos::CampaignSpec;
use trader::faults::Schedule;
use trader::telemetry::Telemetry;
use trader::tvsim::{TvFault, TvSystem};
use trader::{LoopOutcome, ProbesConfig, TimedScenario, TvDependabilityLoop, UnitRecoveryConfig};

use crate::inputs::{Knobs, SessionSpec, DIAGNOSIS_TOP_K};

/// Which arm of the loop to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// `TvDependabilityLoop::open`: no monitor, no correction.
    Open,
    /// `TvDependabilityLoop::closed` with the given knobs.
    Closed(Knobs),
}

/// Something the loop runs: a benchmark session, or the closed/open arm
/// of a fleet campaign.
#[derive(Debug, Clone, Copy)]
pub enum Unit<'a> {
    /// A generated session.
    Session(&'a SessionSpec),
    /// A fleet campaign's loop, configured by `CampaignSpec::configure`.
    Campaign(&'a CampaignSpec),
}

impl Unit<'_> {
    /// The timed presses.
    pub fn scenario(&self) -> TimedScenario {
        match self {
            Unit::Session(spec) => spec.scenario.clone(),
            Unit::Campaign(spec) => spec.scenario(),
        }
    }

    /// The loop and channel seed.
    pub fn seed(&self) -> u64 {
        match self {
            Unit::Session(spec) => spec.loop_seed,
            Unit::Campaign(spec) => spec.seed,
        }
    }

    /// The planted faults and their schedules.
    pub fn faults(&self) -> Vec<(Schedule, TvFault)> {
        match self {
            Unit::Session(spec) => spec.fault.iter().map(|(f, s)| (s.clone(), *f)).collect(),
            Unit::Campaign(spec) => spec
                .faults
                .iter()
                .map(|plan| (plan.schedule.clone(), plan.fault))
                .collect(),
        }
    }

    /// Builds the loop in the given arm, faults planted, with an
    /// optional telemetry handle.
    pub fn build(&self, arm: Arm, telemetry: Option<Telemetry>) -> TvDependabilityLoop {
        let seed = self.seed();
        let mut looped = match arm {
            Arm::Open => TvDependabilityLoop::open(seed),
            Arm::Closed(_) => TvDependabilityLoop::closed(seed),
        };
        match self {
            Unit::Session(spec) => {
                if let Some((fault, schedule)) = &spec.fault {
                    looped.schedule_fault(schedule.clone(), *fault);
                }
            }
            Unit::Campaign(spec) => spec.configure(&mut looped),
        }
        if let Arm::Closed(knobs) = arm {
            if knobs.probes {
                looped.active_probes(ProbesConfig::standard());
            }
            if knobs.unit_recovery {
                looped.unit_recovery(UnitRecoveryConfig::micro_reboot());
            }
            if knobs.diagnose {
                looped.diagnose_online(DIAGNOSIS_TOP_K);
            }
        }
        if let Some(telemetry) = telemetry {
            looped.set_telemetry(telemetry);
        }
        looped
    }
}

/// Constructs and runs one session; `None` if the run panicked.
pub fn run_session(spec: &SessionSpec, arm: Arm) -> Option<LoopOutcome> {
    catch_unwind(AssertUnwindSafe(|| {
        Unit::Session(spec).build(arm, None).run(&spec.scenario)
    }))
    .ok()
}

/// The block the teletext render fault lives in.
pub fn planted_block() -> u32 {
    TvSystem::new().bank().teletext_fault_block()
}

/// Why a closed-loop session counts as failed, if it does.
///
/// A session fails if it panicked, processed fewer presses than its
/// scenario holds, left its boundary channels unconserved, raised any
/// detection while fault-free, or (with diagnosis on and the render
/// fault planted) ended without the planted block among its suspects.
pub fn check_session(
    spec: &SessionSpec,
    knobs: Knobs,
    outcome: Option<&LoopOutcome>,
    planted: u32,
) -> Option<&'static str> {
    let Some(outcome) = outcome else {
        return Some("panicked");
    };
    if outcome.steps != spec.scenario.len() {
        return Some("incomplete run");
    }
    if !outcome.channels.is_some_and(|audit| audit.conserved()) {
        return Some("boundary channels not conserved");
    }
    match &spec.fault {
        None if outcome.detected_errors > 0 => Some("false alarm in a fault-free session"),
        Some((TvFault::TeletextRenderFault, _))
            if knobs.diagnose && !outcome.top_suspects.contains(&planted) =>
        {
            Some("planted block missing from the suspects")
        }
        _ => None,
    }
}

/// FNV-1a over every field of a loop outcome, allocation-free: two runs
/// of the same session must agree on it.
pub fn fingerprint(outcome: &LoopOutcome) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    mix(outcome.steps as u64);
    mix(outcome.failure_steps as u64);
    mix(outcome.detected_errors as u64);
    mix(outcome.recoveries as u64);
    mix(outcome.detection_latency.map_or(u64::MAX, |l| l.as_nanos()));
    mix(outcome.fault_activations as u64);
    mix(outcome.safe_mode_entries);
    mix(outcome.diagnoses_triggered);
    for block in &outcome.top_suspects {
        mix(u64::from(*block));
    }
    mix(outcome.lost_presses);
    mix(outcome.lost_presses_unaffected);
    mix(outcome.micro_reboots);
    mix(outcome.full_restarts);
    mix(outcome.reboot_mttr.map_or(u64::MAX, |m| m.as_nanos()));
    mix(u64::from(outcome.ladder_rung));
    for (_, generation) in &outcome.checkpoint_generations {
        mix(*generation);
    }
    if let Some(audit) = outcome.channels {
        mix(audit.sent);
        mix(audit.delivered);
        mix(audit.lost);
        mix(audit.in_flight);
    }
    h
}
