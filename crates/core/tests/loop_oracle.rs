//! Behaviour oracle for `TvDependabilityLoop::run`.
//!
//! One digest pins everything the loop produces over a configuration
//! matrix: the `Debug` rendering of every `LoopOutcome` plus the full
//! virtual-clock flight-recorder timeline (event order included). A
//! refactor of the press path must leave this digest unchanged.
//!
//! Re-pin the digest only for an intended behaviour change, and record
//! that change (and the new digest) in CHANGES.md.

use trader::awareness::SupervisorConfig;
use trader::faults::Schedule;
use trader::simkit::{SimDuration, SimTime};
use trader::telemetry::Telemetry;
use trader::tvsim::TvFault;
use trader::{ProbesConfig, TimedScenario, TvDependabilityLoop, UnitRecoveryConfig};

/// Presses per run.
const PRESSES: usize = 40;

/// Ring capacity large enough that no run overwrites an event.
const RING: usize = 1 << 16;

/// The pinned digest of the whole matrix.
const LOOP_MATRIX_DIGEST: u64 = 0x5b6c_0d5a_3f21_020b;

/// Builds a loop for a seed.
type Build = fn(u64) -> TvDependabilityLoop;

/// Builds a session of a given length.
type Session = fn(usize) -> TimedScenario;

/// The configurations people run the loop in, each built fresh per run.
const CONFIGS: &[(&str, Build)] = &[
    ("open", TvDependabilityLoop::open),
    ("closed", TvDependabilityLoop::closed),
    ("diagnose-online", |seed| {
        let mut looped = TvDependabilityLoop::closed(seed);
        looped.diagnose_online(32);
        looped
    }),
    ("active-probes", |seed| {
        let mut looped = TvDependabilityLoop::closed(seed);
        looped.active_probes(ProbesConfig::standard());
        looped
    }),
    ("micro-reboot", |seed| {
        let mut looped = TvDependabilityLoop::closed(seed);
        looped.unit_recovery(UnitRecoveryConfig::micro_reboot());
        looped
    }),
    ("full-restart", |seed| {
        let mut looped = TvDependabilityLoop::closed(seed);
        looped.unit_recovery(UnitRecoveryConfig::full_restart());
        looped
    }),
    ("disturbed-supervised", |seed| {
        let mut looped = TvDependabilityLoop::closed(seed);
        looped.use_reliable(true);
        looped.set_channel_loss(0.05);
        looped.set_jitter(SimDuration::from_millis(2));
        looped.supervised(SupervisorConfig::with_micro_reboot());
        looped
    }),
    // Probe bursts inside whole-TV outages: their keys are skipped on
    // both the SUO and the oracle.
    ("probes-full-restart", |seed| {
        let mut looped = TvDependabilityLoop::closed(seed);
        looped.active_probes(ProbesConfig::standard());
        looped.unit_recovery(UnitRecoveryConfig::full_restart());
        looped
    }),
    // Probes, unit recovery and diagnosis together: probe keys skipped
    // during outages, probe-triggered reboots, probe coverage scrubbed
    // out of the spectra.
    ("probes-micro-reboot-diagnose", |seed| {
        let mut looped = TvDependabilityLoop::closed(seed);
        looped.active_probes(ProbesConfig::standard());
        looped.unit_recovery(UnitRecoveryConfig::micro_reboot());
        looped.diagnose_online(32);
        looped
    }),
];

/// The scenario shapes of the scorecard.
const SHAPES: &[(&str, Session)] = &[
    ("teletext", TimedScenario::teletext_session),
    ("idle", TimedScenario::idle_session),
    ("zapping", TimedScenario::zapping_session),
    ("full-mix", TimedScenario::full_mix_session),
];

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The outcome's `Debug` rendering followed by its virtual-clock events.
fn run_record(mut looped: TvDependabilityLoop, scenario: &TimedScenario, fault: TvFault) -> String {
    let telemetry = Telemetry::recording(RING);
    looped.set_telemetry(telemetry.clone());
    // A window inside the run, so both fault edges land in the timeline.
    looped.schedule_fault(
        Schedule::Between {
            from: SimTime::from_millis(900),
            to: SimTime::from_millis(2600),
        },
        fault,
    );
    let outcome = looped.run(scenario);
    assert_eq!(telemetry.overwritten(), 0, "ring too small for the run");
    let mut record = format!("{outcome:?}\n");
    for line in telemetry.events_jsonl().lines() {
        if line.contains("\"clock\":\"virtual\"") {
            record.push_str(line);
            record.push('\n');
        }
    }
    record
}

fn matrix_digest() -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for (c, (config, build)) in CONFIGS.iter().enumerate() {
        for (s, (shape, session)) in SHAPES.iter().enumerate() {
            let scenario = session(PRESSES);
            for (f, fault) in TvFault::ALL.into_iter().enumerate() {
                let seed = (c * 97 + s * 13 + f) as u64;
                let label = format!("{config}/{shape}/{}\n", fault.name());
                hash = fnv1a(hash, label.as_bytes());
                hash = fnv1a(hash, run_record(build(seed), &scenario, fault).as_bytes());
            }
        }
    }
    hash
}

#[test]
fn loop_matrix_digest_is_pinned() {
    let digest = matrix_digest();
    assert_eq!(
        digest, LOOP_MATRIX_DIGEST,
        "loop behaviour changed: matrix digest {digest:#018x}, pinned {LOOP_MATRIX_DIGEST:#018x}"
    );
}
