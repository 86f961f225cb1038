//! The closed dependability loop over the television SUO (paper Fig. 1).
//!
//! *Open loop* is how the paper characterizes traditional products: "for
//! a certain input, the required actions are executed, but it is never
//! checked whether these actions have the desired effect". The *closed
//! loop* adds the awareness monitor, complementary detectors, and a
//! correction strategy.

use awareness::{
    AwarenessMonitor, CompareSpec, Configuration, DeadlineMonitor, DetectedError, DiagnosisConfig,
    MonitorBuilder, ProbeConfig, ProbeScheduler, SupervisorConfig,
};
use detect::{ConsistencyRule, Detector, ErrorEvent, ModeConsistencyDetector};
use faults::injector::Transition;
use faults::{Injector, Schedule};
use observe::{ObsValue, Observation, ObservationKind};
use recovery::{CheckpointVault, RestoreOutcome};
use serde::{Deserialize, Serialize};
use simkit::{SimDuration, SimRng, SimTime};
use statemachine::{Event, Executor, Machine, OutputRecord, Value};
use std::collections::{BTreeMap, BTreeSet};
use telemetry::Telemetry;
use tvsim::{tv_spec_machine, Key, TvFault, TvSystem};

use crate::scenario::TimedScenario;

/// End-of-run accounting for the monitor's boundary channels, summed
/// over the input and output directions.
///
/// With supervision enabled, channel restarts replace the channel pair;
/// the audit covers the channels live at the end of the run (each epoch
/// conserves independently).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelAudit {
    /// Messages accepted for transmission.
    pub sent: u64,
    /// Messages delivered to the monitor.
    pub delivered: u64,
    /// Messages dropped on the wire and abandoned (bare channels only;
    /// the reliable protocol never abandons).
    pub lost: u64,
    /// Messages still queued or awaiting acknowledgement.
    pub in_flight: u64,
}

impl ChannelAudit {
    /// The conservation invariant: every accepted message is delivered,
    /// lost, or still in flight.
    pub fn conserved(&self) -> bool {
        self.sent == self.delivered + self.lost + self.in_flight
    }
}

/// How the loop recovers the SUO when the awareness monitor pins an
/// error on a pipeline unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UnitRecoveryStyle {
    /// The classic remedy: bounce the whole TV. Every unit is rolled
    /// back to its latest validated checkpoint and the entire set is
    /// unavailable for the full restart outage.
    FullRestart,
    /// Crash-consistent micro-reboot: only the faulty unit is restored
    /// from its latest validated checkpoint, its post-checkpoint key
    /// presses are replayed from the journal, and the rest of the TV
    /// keeps serving presses throughout.
    MicroReboot,
}

/// Configuration for structural unit recovery (checkpoints + reboot
/// ladder). When installed via [`TvDependabilityLoop::unit_recovery`],
/// it replaces the targeted repair strategy in the closed loop; the open
/// loop ignores it (there is nothing to detect with).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UnitRecoveryConfig {
    /// Which rung the loop reaches for first.
    pub style: UnitRecoveryStyle,
    /// Healthy-window checkpoint cadence. A unit is only checkpointed
    /// when no error has been attributed to it since its last
    /// checkpoint — a crash-consistent snapshot, never a wedged one.
    pub checkpoint_every: SimDuration,
    /// Checkpoint generations kept per unit.
    pub vault_capacity: usize,
    /// Virtual-time outage of a full restart (all units down).
    pub full_restart_outage: SimDuration,
    /// Base virtual-time outage of a micro-reboot (one unit down).
    pub micro_outage: SimDuration,
    /// Added micro-reboot outage per journal entry replayed.
    pub replay_cost: SimDuration,
    /// Cooldown between recovery episodes — errors inside it are counted
    /// but do not trigger another reboot.
    pub min_between: SimDuration,
    /// Chance that chaos flips one bit in a just-saved checkpoint
    /// (exercises the fingerprint fallback). Seed-derived.
    pub corrupt_chance: f64,
    /// Chance that chaos tears a field out of a just-saved checkpoint.
    pub tear_chance: f64,
}

impl UnitRecoveryConfig {
    /// Micro-reboot defaults: 500 ms checkpoint cadence, 4 generations,
    /// 50 ms outage plus 1 ms per replayed press, 200 ms cooldown, no
    /// checkpoint chaos.
    pub fn micro_reboot() -> Self {
        UnitRecoveryConfig {
            style: UnitRecoveryStyle::MicroReboot,
            checkpoint_every: SimDuration::from_millis(500),
            vault_capacity: 4,
            full_restart_outage: SimDuration::from_secs(4),
            micro_outage: SimDuration::from_millis(50),
            replay_cost: SimDuration::from_millis(1),
            min_between: SimDuration::from_millis(200),
            corrupt_chance: 0.0,
            tear_chance: 0.0,
        }
    }

    /// Full-restart defaults: same checkpoint discipline, but every
    /// recovery bounces the whole TV for the 4 s outage.
    pub fn full_restart() -> Self {
        UnitRecoveryConfig {
            style: UnitRecoveryStyle::FullRestart,
            ..Self::micro_reboot()
        }
    }
}

/// Configuration for the active observability layer (the health
/// observatory): synthetic self-check probes fired into idle windows,
/// the sleep-timer deadline monitor, and the menu/swivel mode
/// witnesses. Installed via [`TvDependabilityLoop::active_probes`];
/// closed loop only (the open loop has no monitor to raise verdicts).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProbesConfig {
    /// Maximum heartbeat silence from the armed sleep-timer service
    /// before the deadline monitor alarms.
    pub heartbeat_deadline: SimDuration,
    /// Slack past the announced sleep-timer fire time before a missed
    /// expiry alarms.
    pub fire_grace: SimDuration,
    /// Fire a probe every Nth idle window (1 = every window).
    pub every_windows: usize,
}

impl ProbesConfig {
    /// Standard observatory: 300 ms heartbeat deadline (three idle
    /// windows of silence), 1 s fire grace, a probe in every window.
    pub fn standard() -> Self {
        ProbesConfig {
            heartbeat_deadline: SimDuration::from_millis(300),
            fire_grace: SimDuration::from_secs(1),
            every_windows: 1,
        }
    }
}

impl Default for ProbesConfig {
    fn default() -> Self {
        Self::standard()
    }
}

/// Declares the registered self-checks as one table: [`PROBES`] holds
/// each probe's kind, keys and verdict stream, [`PROBE_FIRED`] its
/// fired counter. Every stream name is spelled from the kind at compile
/// time (flight-recorder names must be `'static`).
macro_rules! probe_table {
    ($($kind:literal => [$($key:expr),+],)+) => {
        const PROBES: [(&str, &[Key], &str); 6] =
            [$(($kind, &[$($key),+], concat!("core.probes.verdict.", $kind))),+];
        /// Per-kind fired counters, in rotation order.
        pub const PROBE_FIRED: [&str; 6] = [$(concat!("core.probes.fired.", $kind)),+];
    };
}

// The registered self-check sequences, in rotation order. Each probe
// nudges a dormant function and restores (or symmetrically perturbs)
// its state, so the model executor tracks the SUO exactly and only a
// fault produces a comparator verdict.
probe_table! {
    "sleep-timer" => [Key::Sleep],
    "volume-nudge" => [Key::VolUp, Key::VolDown, Key::Mute, Key::Mute],
    "teletext-roundtrip" => [
        Key::Teletext, Key::Digit(1), Key::Digit(2), Key::Digit(3), Key::Teletext
    ],
    "menu-toggle" => [Key::Menu, Key::Back],
    "swivel-jog" => [Key::SwivelRight, Key::SwivelLeft],
    "channel-flip" => [Key::ChannelUp, Key::ChannelDown],
}

/// Virtual time from a stimulus to the comparison that judges it.
const SETTLE: SimDuration = SimDuration::from_millis(20);

/// Extra settle time after a repair burst, for its residual drain.
const RESIDUAL: SimDuration = SimDuration::from_millis(5);

/// Everything a closed-loop step stamps lies within this span of its
/// stimulus: the settle window plus the residual drain. The step span
/// closes there, and the next idle window opens there.
const STEP_WINDOW: SimDuration = SimDuration::from_millis(25);

/// The outcome of running a scenario through the loop.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LoopOutcome {
    /// Presses processed.
    pub steps: usize,
    /// Presses after which a user-visible output deviated from the
    /// desired behaviour.
    pub failure_steps: usize,
    /// Errors detected (comparator + detectors). Zero in open loop.
    pub detected_errors: usize,
    /// Corrective actions applied. Zero in open loop.
    pub recoveries: usize,
    /// Delay from the first fault activation to the first detection.
    pub detection_latency: Option<SimDuration>,
    /// Fault activation edges seen.
    pub fault_activations: usize,
    /// Channel accounting at end of run (`None` in open loop).
    pub channels: Option<ChannelAudit>,
    /// Safe-mode entries recorded by the supervisor (zero without
    /// supervision).
    pub safe_mode_entries: u64,
    /// Error-triggered in-loop diagnoses (zero unless
    /// [`TvDependabilityLoop::diagnose_online`] is enabled).
    pub diagnoses_triggered: u64,
    /// The diagnoser's suspect window at end of run, most suspicious
    /// first (empty with diagnosis off or no steps recorded).
    pub top_suspects: Vec<u32>,
    /// Key presses swallowed by reboot outages (zero without
    /// [`TvDependabilityLoop::unit_recovery`]).
    pub lost_presses: u64,
    /// The subset of [`lost_presses`](Self::lost_presses) aimed at units
    /// *other* than the one that failed — collateral damage of
    /// whole-system restarts; zero under micro-reboot.
    pub lost_presses_unaffected: u64,
    /// Micro-reboot episodes (faulty unit restored from checkpoint and
    /// reconciled by journal replay).
    pub micro_reboots: u64,
    /// Full-restart episodes (every unit rolled back, whole TV down).
    pub full_restarts: u64,
    /// Mean virtual time from error detection to recovery convergence
    /// over all reboot episodes (`None` when none happened).
    pub reboot_mttr: Option<SimDuration>,
    /// Latest sealed checkpoint generation per unit at end of run.
    pub checkpoint_generations: Vec<(String, u64)>,
    /// Highest supervisor escalation rung reached: 0 none, 1 retry,
    /// 2 channel restart, 3 micro-reboot, 4 monitor restart, 5 safe
    /// mode.
    pub ladder_rung: u8,
}

impl LoopOutcome {
    /// Fraction of presses with user-visible failures.
    pub fn failure_ratio(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.failure_steps as f64 / self.steps as f64
        }
    }

    /// A one-line human-readable consolidation of the outcome — the line
    /// examples print instead of formatting fields ad hoc.
    ///
    /// Always present: `steps`, `failures` (with the percentage from
    /// [`failure_ratio`](Self::failure_ratio)), `detected`, `recoveries`,
    /// and `faults` (activation edges). Appended only when the
    /// corresponding machinery ran: `latency` (first fault → first
    /// detection), `channels` (sent/delivered/lost/in-flight, closed loop
    /// only), `safe_mode` entries (supervision), and `diagnoses` with the
    /// current `prime` suspect (online diagnosis).
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut line = format!(
            "steps={} failures={} ({:.1}%) detected={} recoveries={} faults={}",
            self.steps,
            self.failure_steps,
            self.failure_ratio() * 100.0,
            self.detected_errors,
            self.recoveries,
            self.fault_activations,
        );
        if let Some(latency) = self.detection_latency {
            let _ = write!(line, " latency={latency}");
        }
        if let Some(ch) = &self.channels {
            let _ = write!(
                line,
                " channels={}sent/{}delivered/{}lost/{}inflight",
                ch.sent, ch.delivered, ch.lost, ch.in_flight
            );
        }
        if self.safe_mode_entries > 0 {
            let _ = write!(line, " safe_mode={}", self.safe_mode_entries);
        }
        if self.micro_reboots > 0 || self.full_restarts > 0 {
            let _ = write!(
                line,
                " reboots={}micro/{}full",
                self.micro_reboots, self.full_restarts
            );
            if let Some(mttr) = self.reboot_mttr {
                let _ = write!(line, " mttr={mttr}");
            }
        }
        if self.lost_presses > 0 {
            let _ = write!(
                line,
                " lost={} ({} unaffected)",
                self.lost_presses, self.lost_presses_unaffected
            );
        }
        if self.ladder_rung > 0 {
            let _ = write!(line, " rung={}", self.ladder_rung);
        }
        if self.diagnoses_triggered > 0 {
            let _ = write!(line, " diagnoses={}", self.diagnoses_triggered);
            if let Some(prime) = self.top_suspects.first() {
                let _ = write!(line, " prime={prime}");
            }
        }
        line
    }
}

/// Updates the mirrored state from the outputs among `observations`.
/// The hot path refreshes the same observables press after press, so
/// the common case reuses both the existing `String` key and the
/// existing value storage ([`ObsValue::assign_from`]); only a genuinely
/// new observable pays for an insertion.
fn mirror_outputs(state: &mut BTreeMap<String, ObsValue>, observations: &[Observation]) {
    for (name, value) in observations.iter().filter_map(Observation::as_output) {
        match state.get_mut(name) {
            Some(slot) => slot.assign_from(value),
            None => {
                state.insert(name.to_owned(), value.clone());
            }
        }
    }
}

/// Reusable per-run scratch buffers for the press loop. One instance
/// lives across the whole scenario: buffers are cleared, never dropped,
/// so steady-state presses run without allocating them anew (the fleet
/// executor multiplies every per-step allocation by the campaign
/// population — see `chaos::fleet`).
#[derive(Debug, Default)]
struct StepScratch {
    /// Detector-raised errors since the last settle: per press for the
    /// user, per burst for a probe.
    detector_errors: Vec<ErrorEvent>,
    /// Repair observations (targeted repairs or reboot announcements)
    /// for the current press.
    repair_obs: Vec<Observation>,
    /// Oracle output records drained after each press.
    oracle_outputs: Vec<OutputRecord>,
}

/// Maps a comparator observable to the pipeline unit it indicts.
fn observable_unit(observable: &str) -> Option<&'static str> {
    match observable {
        "volume" | "audio.muted" => Some("audio"),
        "channel" => Some("tuner"),
        "screen.mode" | "source" => Some("screen"),
        "swivel.angle" => Some("swivel"),
        "sleep.minutes" => Some("sleep"),
        o if o.starts_with("teletext.") => Some("teletext"),
        _ => None,
    }
}

/// Maps a detector-raised error to the pipeline unit it indicts: mode
/// witnesses name their subsystem, the legacy teletext sync rule the
/// decoder, and the sleep-timer watchdog/deadline alarms the timer
/// service.
fn detector_unit(detector: &str) -> Option<&'static str> {
    match detector {
        "mode-consistency:menu-witness" => Some("screen"),
        "mode-consistency:swivel-witness" => Some("swivel"),
        d if d.starts_with("mode-consistency") => Some("teletext"),
        d if d.starts_with("watchdog:sleep.timer") || d.starts_with("deadline:sleep.timer") => {
            Some("sleep")
        }
        _ => None,
    }
}

/// Per-run state of the active health observatory: the probe rotation,
/// the sleep-timer deadline monitor, and the last verdict per probe
/// kind (for telemetry verdict-transition streams).
struct ProbeRuntime {
    scheduler: ProbeScheduler<Key>,
    deadline: DeadlineMonitor,
    verdicts: [&'static str; 6],
}

impl ProbeRuntime {
    fn new(config: &ProbesConfig) -> Self {
        let mut scheduler = ProbeScheduler::new(ProbeConfig {
            every_windows: config.every_windows,
            ..ProbeConfig::default()
        });
        for (kind, keys, _) in PROBES {
            scheduler.register(kind, keys.to_vec());
        }
        ProbeRuntime {
            scheduler,
            deadline: DeadlineMonitor::new(config.heartbeat_deadline, config.fire_grace),
            verdicts: ["pass"; 6],
        }
    }

    /// Records probe `plan`'s verdict, and a transition when it changed.
    fn record(&mut self, plan: usize, verdict: &'static str, at: SimTime, telemetry: &Telemetry) {
        let last = std::mem::replace(&mut self.verdicts[plan], verdict);
        if last != verdict {
            telemetry.transition(at, PROBES[plan].2, last, verdict);
        }
    }
}

/// True when firing `kind` right now would disturb a foreground mode
/// the user currently has active (teletext page state, an open menu).
/// An idle-time prober must leave foreground state alone: a deferred
/// slot is consumed from the rotation (keeping the schedule
/// deterministic) but its keys are never pressed.
fn probe_disturbs(tv: &TvSystem, kind: &str) -> bool {
    match kind {
        "teletext-roundtrip" | "channel-flip" => tv.teletext().is_on(),
        "menu-toggle" => tv.osd_has_focus(),
        _ => false,
    }
}

/// Builds a mode-witness observation (fed to the consistency detector
/// only — witnesses are in-situ samples, not boundary traffic).
fn witness_obs(at: SimTime, component: &str, mode: &str) -> Observation {
    Observation::new(
        at,
        component,
        ObservationKind::Mode {
            component: component.to_owned(),
            mode: mode.to_owned(),
        },
    )
}

/// Where a stimulus comes from. User presses and probe keys run through
/// the same stages; the few places where the two differ branch on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    /// A key press of the scenario.
    User,
    /// A synthetic key of an idle-window probe burst.
    Probe,
}

/// The closed half of the loop: the awareness monitor, the
/// complementary mode-consistency detector and, when installed, the
/// active health observatory and structural unit recovery.
struct ClosedArm<'m> {
    monitor: AwarenessMonitor<'m>,
    mode_detector: ModeConsistencyDetector,
    probes: Option<ProbeRuntime>,
    /// Checkpoint vault, press journals, outage tracking.
    recovery: Option<RecoveryState>,
}

impl<'m> ClosedArm<'m> {
    fn new(looped: &TvDependabilityLoop, machine: &'m Machine, n_blocks: u32) -> Self {
        let cfg =
            Configuration::new().with_default_spec(CompareSpec::exact().with_max_consecutive(0));
        let mut builder = MonitorBuilder::new(machine)
            .configuration(cfg)
            .output_delay(looped.output_delay)
            .jitter(looped.jitter)
            .loss(looped.loss)
            .reliable(looped.reliable)
            .seed(looped.seed)
            .telemetry(looped.telemetry.clone());
        if let Some(config) = looped.supervision {
            builder = builder.supervised(config);
        }
        if let Some(top_k) = looped.online_diagnosis_k {
            builder = builder.diagnosis(DiagnosisConfig::new(n_blocks).with_top_k(top_k));
        }
        let mut mode_detector = ModeConsistencyDetector::new();
        mode_detector.add_rule(ConsistencyRule::new(
            "txt-sync",
            "ui",
            "teletext",
            "decoder",
            ["teletext"],
        ));
        if looped.probes.is_some() {
            // Witness rules are only consulted when the observatory
            // emits its witness observations, so they ride the same
            // detector without changing probe-free behaviour.
            mode_detector.add_rule(ConsistencyRule::new(
                "menu-witness",
                "osd.intent",
                "closed",
                "scaler",
                [
                    "video",
                    "teletext",
                    "dual",
                    "dual+teletext",
                    "pip",
                    "epg",
                    "off",
                ],
            ));
            mode_detector.add_rule(ConsistencyRule::new(
                "swivel-witness",
                "swivel.motor",
                "idle",
                "swivel.cmd",
                ["converged"],
            ));
        }
        ClosedArm {
            monitor: builder.build(),
            mode_detector,
            probes: looped.probes.as_ref().map(ProbeRuntime::new),
            recovery: looped
                .unit_recovery
                .map(|cfg| RecoveryState::new(cfg, looped.seed)),
        }
    }

    /// Feeds one SUO observation to the monitor, the mode detector and
    /// the deadline monitor; returns the mode detector's errors.
    fn offer(&mut self, obs: &Observation) -> Vec<ErrorEvent> {
        self.monitor.offer(obs);
        let errors = self.mode_detector.observe(obs);
        if let Some(pr) = self.probes.as_mut() {
            pr.deadline.observe(obs);
        }
        errors
    }
}

/// One run of the loop: the SUO, the ground-truth oracle, both sides'
/// mirrored outputs and, in the closed loop, the [`ClosedArm`]. A user
/// press and a probe burst are short callers of the same stages —
/// [`stimulate`](Self::stimulate), [`settle`](Self::settle) and
/// [`correct`](Self::correct) — and differ only where those branch on
/// [`Origin`].
struct Stepper<'m> {
    tv: TvSystem,
    /// The desired behaviour, evaluated with zero delay and full
    /// observability (only the harness has this).
    oracle: Executor<'m>,
    ref_state: BTreeMap<String, Value>,
    sys_state: BTreeMap<String, ObsValue>,
    scratch: StepScratch,
    outcome: LoopOutcome,
    first_fault_at: Option<SimTime>,
    first_detect_at: Option<SimTime>,
    arm: Option<ClosedArm<'m>>,
    telemetry: Telemetry,
}

impl<'m> Stepper<'m> {
    fn new(looped: &TvDependabilityLoop, machine: &'m Machine) -> Self {
        let tv = TvSystem::new();
        let mut oracle = Executor::new(machine);
        oracle.start();
        let arm = looped
            .closed
            .then(|| ClosedArm::new(looped, machine, tv.n_blocks()));
        Stepper {
            tv,
            oracle,
            ref_state: BTreeMap::new(),
            sys_state: BTreeMap::new(),
            scratch: StepScratch::default(),
            outcome: LoopOutcome::default(),
            first_fault_at: None,
            first_detect_at: None,
            arm,
            telemetry: looped.telemetry.clone(),
        }
    }

    /// Applies one fault schedule edge to the SUO.
    fn fault_edge(&mut self, at: SimTime, edge: Transition<TvFault>) {
        match edge {
            Transition::Activated(f) => {
                self.tv.inject_fault(f);
                self.outcome.fault_activations += 1;
                self.first_fault_at.get_or_insert(at);
                self.telemetry
                    .transition(at, "core.loop.fault", "dormant", f.name());
            }
            Transition::Deactivated(f) => {
                self.tv.clear_fault(f);
                self.telemetry
                    .transition(at, "core.loop.fault", f.name(), "dormant");
            }
        }
    }

    /// One user press: stimulate, settle, correct, and record the
    /// press's own block coverage as one spectrum step; then the
    /// user-visible deviation check and the checkpoint cadence.
    fn press(&mut self, at: SimTime, key: Key) {
        if self.stimulate(at, key, Origin::User) && self.arm.is_some() {
            let settle = at + SETTLE;
            let (errors, _) = self.settle(settle, Origin::User);
            // One spectrum step per press: snapshot the coverage now so
            // the step reflects the SUO's response to the press alone —
            // repair bursts are monitor-commanded and would otherwise
            // correlate perfectly with failing verdicts and crowd out
            // the true fault block.
            let press_coverage = self.tv.take_coverage();
            if self.correct(settle, &errors, Origin::User) {
                let _ = self.tv.take_coverage();
            }
            // Comparator errors since the last snapshot mark the step
            // failing and re-rank the in-loop suspect window. Recording
            // after the residual drain keeps repair transients from
            // spilling a failing verdict onto the next step.
            if let Some(arm) = self.arm.as_mut() {
                arm.monitor.record_coverage(&press_coverage);
            }
        }
        self.outcome.steps += 1;
        if self.deviates() {
            self.outcome.failure_steps += 1;
            self.telemetry
                .metric_incr("core.loop.user_visible_failures", 1);
        }
        // Checkpoint cadence runs after this step's detections so a
        // unit flagged dirty just now is never sealed.
        if let Some(rs) = self.arm.as_mut().and_then(|arm| arm.recovery.as_mut()) {
            rs.maybe_checkpoint(&self.tv, at, &self.telemetry);
        }
    }

    /// Fires the observatory's next self-check into the idle window
    /// between the presses at `prev` and `next`: the burst's keys
    /// stimulate the SUO and the oracle, the mode witnesses sample the
    /// probe's postcondition, and the burst settles and corrects like a
    /// user press.
    fn probe_window(&mut self, prev: SimTime, next: SimTime) {
        let Some(pr) = self.arm.as_mut().and_then(|arm| arm.probes.as_mut()) else {
            return;
        };
        let Some(firing) = pr.scheduler.plan_window(prev + STEP_WINDOW, next) else {
            return;
        };
        let fired_at = firing.keys[0].0;
        if probe_disturbs(&self.tv, firing.kind) {
            self.telemetry.count(fired_at, "core.probes.deferred", 1);
            return;
        }
        self.telemetry.span_enter(fired_at, "core.probes.burst");
        for &(at, key) in &firing.keys {
            self.stimulate(at, key, Origin::Probe);
        }
        let last_at = firing.keys.last().map_or(SimTime::ZERO, |&(t, _)| t);
        let settle = last_at + SETTLE;
        self.witness(firing.kind, settle);
        let (errors, n_errors) = self.settle(settle, Origin::Probe);
        self.correct(settle, &errors, Origin::Probe);
        // Spectra hygiene: probe presses are synthetic traffic. Drop
        // their block coverage and absorb their error count, so the
        // next user press's spectrum step reflects only its own
        // behaviour.
        let _ = self.tv.take_coverage();
        self.telemetry.count(settle, PROBE_FIRED[firing.plan], 1);
        let latency = settle.since(fired_at).as_nanos();
        self.telemetry.observe_ns("core.probes.latency_ns", latency);
        let verdict = if n_errors > 0 { "divergent" } else { "pass" };
        if let Some(arm) = self.arm.as_mut() {
            arm.monitor.absorb_synthetic_errors();
            if let Some(pr) = arm.probes.as_mut() {
                pr.record(firing.plan, verdict, settle, &self.telemetry);
            }
        }
        self.telemetry.span_exit(settle, "core.probes.burst");
    }

    /// Presses `key` on the SUO, steps the oracle with it, and offers the
    /// SUO's observations to the closed arm. Returns whether the SUO took
    /// the press: a unit inside a reboot outage does not.
    fn stimulate(&mut self, at: SimTime, key: Key, origin: Origin) -> bool {
        let serving = self.tv.serving_unit(key);
        let down = self.arm.as_ref().and_then(|arm| arm.recovery.as_ref());
        if let Some(rs) = down.filter(|rs| rs.is_down(at, serving)) {
            match origin {
                // The outage swallows a user press on the SUO, so the
                // monitor never sees it either; the desired behaviour
                // still advances, so the loss is user-visible.
                Origin::User => {
                    self.outcome.lost_presses += 1;
                    if rs.outage_unit != Some(serving) {
                        self.outcome.lost_presses_unaffected += 1;
                    }
                    self.telemetry.count(at, "core.reboot.lost_press", 1);
                    self.step_oracle(at, key);
                }
                // A probe key is skipped on *both* sides — symmetric, so
                // the comparator sees no synthetic divergence from the
                // outage itself.
                Origin::Probe => self.telemetry.count(at, "core.probes.skipped_keys", 1),
            }
            return false;
        }
        let observations = self.tv.press(at, key);
        if let Some(rs) = self.arm.as_mut().and_then(|arm| arm.recovery.as_mut()) {
            // Journaled for post-restore reconciliation: a later
            // micro-reboot replays user- and probe-caused state alike.
            rs.journal.entry(serving).or_default().push(key);
        }
        mirror_outputs(&mut self.sys_state, &observations);
        self.step_oracle(at, key);
        if let Some(arm) = self.arm.as_mut() {
            for obs in &observations {
                self.scratch.detector_errors.extend(arm.offer(obs));
            }
        }
        true
    }

    fn step_oracle(&mut self, at: SimTime, key: Key) {
        let event = match key.payload() {
            Some(p) => Event::with_payload(key.event_name(), p),
            None => Event::plain(key.event_name()),
        };
        self.oracle.step_at(at, &event);
        self.scratch.oracle_outputs.clear();
        self.oracle
            .drain_outputs_into(&mut self.scratch.oracle_outputs);
        for rec in self.scratch.oracle_outputs.drain(..) {
            // In-place overwrite keeps the established key `String`s;
            // inserts only happen the first time an output appears.
            match self.ref_state.get_mut(&rec.name) {
                Some(slot) => *slot = rec.value,
                None => {
                    self.ref_state.insert(rec.name, rec.value);
                }
            }
        }
    }

    /// Mode witnesses: asserts probe `kind`'s postcondition against the
    /// live mode map, then retires the assertion so unrelated later mode
    /// traffic cannot re-trigger it.
    fn witness(&mut self, kind: &str, at: SimTime) {
        let Some(arm) = self.arm.as_mut() else {
            return;
        };
        let (errors, detector) = (&mut self.scratch.detector_errors, &mut arm.mode_detector);
        match kind {
            "menu-toggle" => {
                // The open/close round-trip must leave no OSD on screen.
                errors.extend(detector.observe(&witness_obs(at, "osd.intent", "closed")));
                let _ = detector.observe(&witness_obs(at, "osd.intent", "idle"));
            }
            "swivel-jog" => {
                for obs in self.tv.witness_swivel(at) {
                    errors.extend(detector.observe(&obs));
                    if let Some(pr) = arm.probes.as_mut() {
                        pr.deadline.observe(&obs);
                    }
                }
                let _ = detector.observe(&witness_obs(at, "swivel.motor", "busy"));
            }
            _ => {}
        }
    }

    /// Lets the closed arm settle at `at`: samples the sleep-timer
    /// heartbeat and checks its armed obligations (unless the timer
    /// unit is itself inside an outage), delivers the channel traffic
    /// and runs the comparisons up to `at`, and accounts every error
    /// raised since the stimulus. Returns the comparator errors and the
    /// error total, comparator plus detectors.
    fn settle(&mut self, at: SimTime, origin: Origin) -> (Vec<DetectedError>, usize) {
        let Some(arm) = self.arm.as_mut() else {
            return (Vec::new(), 0);
        };
        let sleep_up = arm
            .recovery
            .as_ref()
            .is_none_or(|rs| !rs.is_down(at, "sleep"));
        if let (Some(pr), true) = (arm.probes.as_mut(), sleep_up) {
            for hb in self.tv.timer_heartbeat(at) {
                pr.deadline.observe(&hb);
            }
            self.scratch.detector_errors.extend(pr.deadline.tick(at));
        }
        arm.monitor.advance_to(at);
        let comparator_errors = arm.monitor.drain_errors();
        let n_errors = comparator_errors.len() + self.scratch.detector_errors.len();
        let counter = match origin {
            Origin::User => "core.loop.detections",
            Origin::Probe => "core.probes.detections",
        };
        self.detected(at, n_errors, counter);
        (comparator_errors, n_errors)
    }

    fn detected(&mut self, at: SimTime, n_errors: usize, counter: &'static str) {
        if n_errors > 0 {
            self.outcome.detected_errors += n_errors;
            self.first_detect_at.get_or_insert(at);
            self.telemetry.count(at, counter, n_errors as i64);
        }
    }

    /// The correction strategy: attributes every settled error (the
    /// comparator `errors` from [`settle`](Self::settle) and the detector
    /// errors) to the pipeline unit it indicts, then either reboots
    /// structurally ([`RecoveryState`]) or applies the targeted repairs.
    /// The repair (or reboot-announcement) burst is mirrored and fed back
    /// to the arm, which settles another [`RESIDUAL`]: post-repair
    /// comparisons should match again, so any residual transient error
    /// the burst raised is dropped. Returns whether there was a burst.
    fn correct(&mut self, at: SimTime, errors: &[DetectedError], origin: Origin) -> bool {
        let Some(arm) = self.arm.as_mut() else {
            return false;
        };
        let recoveries_before = self.outcome.recoveries;
        let detector_errors = &self.scratch.detector_errors;
        let repair_obs = &mut self.scratch.repair_obs;
        repair_obs.clear();
        if let Some(rs) = arm.recovery.as_mut() {
            // Structural recovery: reboot the faulty unit (micro) or the
            // whole TV (full restart). The indicted units are gathered
            // with `extend`, which inserts one by one; `collect` would
            // first buffer and sort a vector, one more allocation.
            let mut faulty = BTreeSet::new();
            faulty.extend(
                detector_errors
                    .iter()
                    .filter_map(|e| detector_unit(&e.detector)),
            );
            faulty.extend(errors.iter().filter_map(|e| observable_unit(&e.observable)));
            // Indicted units are no longer checkpoint-clean.
            rs.dirty.extend(&faulty);
            if let Some(&unit) = faulty.first() {
                if at >= rs.next_allowed {
                    rs.recover(
                        &mut self.tv,
                        at,
                        unit,
                        &mut self.outcome,
                        &self.telemetry,
                        repair_obs,
                    );
                }
            }
        } else {
            let mut resynced = detector_errors
                .iter()
                .any(|err| err.detector == "mode-consistency:txt-sync");
            if resynced {
                repair_obs.extend(self.tv.resync_teletext(at));
                self.outcome.recoveries += 1;
            }
            for err in errors {
                match err.observable.as_str() {
                    "audio.muted" | "volume" => {
                        let want_muted = self
                            .ref_state
                            .get("audio.muted")
                            .and_then(Value::as_bool)
                            .unwrap_or(false);
                        repair_obs.extend(self.tv.force_audio(at, want_muted));
                        self.outcome.recoveries += 1;
                    }
                    "teletext.page" | "screen.mode" if !resynced => {
                        repair_obs.extend(self.tv.resync_teletext(at));
                        resynced = true;
                        self.outcome.recoveries += 1;
                    }
                    _ => {}
                }
            }
        }
        mirror_outputs(&mut self.sys_state, repair_obs);
        for obs in repair_obs.iter() {
            let _ = arm.offer(obs);
        }
        let repairs = (self.outcome.recoveries - recoveries_before) as i64;
        if origin == Origin::User && repairs > 0 {
            self.telemetry.count(at, "core.loop.repairs", repairs);
        }
        let repaired = !repair_obs.is_empty();
        if repaired {
            arm.monitor.advance_to(at + RESIDUAL);
            let _ = arm.monitor.drain_errors();
        }
        self.scratch.detector_errors.clear();
        repaired
    }

    /// Allocation-free user-visible deviation check against the oracle
    /// (semantics of `ObsValue::distance` against the would-be expected
    /// value, without materializing it: text mismatch or cross-kind
    /// comparison deviates; numeric deviation beyond the epsilon
    /// deviates; a NaN expectation never does).
    fn deviates(&self) -> bool {
        self.ref_state.iter().any(|(name, expected)| {
            self.sys_state
                .get(name)
                .is_some_and(|actual| match expected {
                    Value::Str(s) => actual.as_text() != Some(s.as_str()),
                    other => {
                        let expected_num = other.as_f64().unwrap_or(f64::NAN);
                        match actual.as_num() {
                            Some(a) => (expected_num - a).abs() > 1e-9,
                            None => true,
                        }
                    }
                })
        })
    }

    /// Ends the run: the obligation epilogue, then the end-of-run
    /// accounting from the closed arm.
    fn finish(mut self) -> LoopOutcome {
        // An armed sleep timer must still fire past the last press. The
        // expiry is driven on the TV alone and fed only to the deadline
        // monitor — the spec machine does not model autonomous
        // power-down, so routing it through the comparator would raise
        // a phantom divergence on healthy twins.
        if let Some(pr) = self.arm.as_mut().and_then(|arm| arm.probes.as_mut()) {
            if let Some(due) = pr.deadline.fire_deadline() {
                for obs in self.tv.tick(due) {
                    pr.deadline.observe(&obs);
                }
                let late = due + SimDuration::from_millis(1);
                let missed = pr.deadline.tick(late).len();
                self.detected(late, missed, "core.probes.detections");
            }
        }

        let outcome = &mut self.outcome;
        outcome.detection_latency = match (self.first_fault_at, self.first_detect_at) {
            (Some(f), Some(d)) if d >= f => Some(d.since(f)),
            _ => None,
        };
        if let Some(arm) = self.arm.as_ref() {
            let monitor = &arm.monitor;
            let (input, output) = (monitor.input_channel(), monitor.output_channel());
            outcome.channels = Some(ChannelAudit {
                sent: input.sent() + output.sent(),
                delivered: input.delivered() + output.delivered(),
                lost: input.lost() + output.lost(),
                in_flight: (input.in_flight() + output.in_flight()) as u64,
            });
            outcome.safe_mode_entries = monitor
                .supervisor_report()
                .map_or(0, |report| report.safe_mode_entries);
            // The highest rung with an entry: retry, channel restart,
            // micro-reboot, monitor restart, safe mode.
            outcome.ladder_rung = monitor.supervisor_report().map_or(0, |r| {
                [
                    r.retries,
                    r.channel_restarts,
                    r.micro_reboots,
                    r.monitor_restarts,
                    r.safe_mode_entries,
                ]
                .iter()
                .rposition(|&n| n > 0)
                .map_or(0, |rung| rung as u8 + 1)
            });
            if let Some(diag) = monitor.diagnosis() {
                outcome.diagnoses_triggered = diag.triggered_diagnoses();
                outcome.top_suspects = diag.top_suspects().iter().map(|e| e.block).collect();
            }
            if let Some(rs) = arm.recovery.as_ref() {
                outcome.checkpoint_generations = rs.vault.latest_generations();
                outcome.reboot_mttr = rs.mean_mttr();
            }
        }
        self.outcome
    }
}

/// Per-run bookkeeping for structural unit recovery: the checkpoint
/// vault, the per-unit press journals, outage windows, and the MTTR
/// ledger.
#[derive(Debug)]
struct RecoveryState {
    cfg: UnitRecoveryConfig,
    vault: CheckpointVault,
    chaos: SimRng,
    journal: BTreeMap<&'static str, Vec<Key>>,
    dirty: BTreeSet<&'static str>,
    unit_down_until: Option<(&'static str, SimTime)>,
    all_down_until: Option<SimTime>,
    outage_unit: Option<&'static str>,
    next_allowed: SimTime,
    last_checkpoint: Option<SimTime>,
    mttr_total_ns: u64,
    episodes: u64,
}

impl RecoveryState {
    fn new(cfg: UnitRecoveryConfig, seed: u64) -> Self {
        RecoveryState {
            cfg,
            // The vault seed is derived from, not equal to, the loop
            // seed: a fingerprint must not collide with other
            // seed-keyed digests in the same run.
            vault: CheckpointVault::new(seed ^ 0xC0DE_5EA1_ED00_0000, cfg.vault_capacity),
            chaos: SimRng::seed(seed).derive(0xC8A0_55EE),
            journal: BTreeMap::new(),
            dirty: BTreeSet::new(),
            unit_down_until: None,
            all_down_until: None,
            outage_unit: None,
            next_allowed: SimTime::ZERO,
            last_checkpoint: None,
            mttr_total_ns: 0,
            episodes: 0,
        }
    }

    /// Whether a press served by `unit` at `at` falls inside a reboot
    /// outage (whole-TV or that unit's own).
    fn is_down(&self, at: SimTime, unit: &str) -> bool {
        self.all_down_until.is_some_and(|until| at < until)
            || self
                .unit_down_until
                .is_some_and(|(u, until)| u == unit && at < until)
    }

    /// Saves one sealed checkpoint per clean, up unit when the cadence
    /// is due. Units with errors attributed since their last checkpoint
    /// are skipped — crash consistency over freshness.
    fn maybe_checkpoint(&mut self, tv: &TvSystem, at: SimTime, telemetry: &Telemetry) {
        if self.all_down_until.is_some_and(|until| at < until) {
            return;
        }
        let due = match self.last_checkpoint {
            None => true,
            Some(last) => at.since(last) >= self.cfg.checkpoint_every,
        };
        if !due {
            return;
        }
        self.last_checkpoint = Some(at);
        for unit in TvSystem::UNITS {
            if self.dirty.contains(unit) || self.is_down(at, unit) {
                continue;
            }
            let Some(state) = tv.unit_state(unit) else {
                continue;
            };
            self.vault.save(unit, at, state);
            // The journal restarts at the new baseline.
            self.journal.remove(unit);
            telemetry.count(at, "core.reboot.checkpoint", 1);
            // Chaos rider: flip a bit or tear a field in what was just
            // sealed, so restores exercise the fingerprint fallback.
            if self.cfg.corrupt_chance > 0.0 && self.chaos.chance(self.cfg.corrupt_chance) {
                let bit = self.chaos.uniform_u64(0, 63) as u32;
                let _ = self.vault.corrupt_latest(unit, bit);
            } else if self.cfg.tear_chance > 0.0 && self.chaos.chance(self.cfg.tear_chance) {
                let _ = self.vault.tear_latest(unit);
            }
        }
    }

    /// Runs one recovery episode for `unit` at `settle`, appending the
    /// recovered units' announcements (fed back as observations) into
    /// the caller's scratch buffer instead of allocating a fresh vector
    /// per episode.
    ///
    /// Micro-reboot restores the unit's latest validated checkpoint and
    /// replays its journal; if the whole checkpoint history fails
    /// validation it escalates to a full restart, the style used
    /// unconditionally by [`UnitRecoveryStyle::FullRestart`].
    fn recover(
        &mut self,
        tv: &mut TvSystem,
        settle: SimTime,
        unit: &'static str,
        outcome: &mut LoopOutcome,
        telemetry: &Telemetry,
        announcements: &mut Vec<Observation>,
    ) {
        if self.cfg.style == UnitRecoveryStyle::MicroReboot {
            if let RestoreOutcome::Restored { state, .. } = self.vault.restore_latest(unit) {
                tv.restore_unit(unit, &state);
                // State reconciliation: every press served since the
                // checkpoint is replayed onto the restored state.
                let entries = self.journal.get(unit).cloned().unwrap_or_default();
                for key in &entries {
                    let _ = tv.replay_unit_key(settle, unit, *key);
                }
                let outage = self.cfg.micro_outage + self.cfg.replay_cost * entries.len() as u64;
                self.unit_down_until = Some((unit, settle + outage));
                self.finish_episode(settle, outage, unit);
                self.dirty.remove(unit);
                outcome.micro_reboots += 1;
                outcome.recoveries += 1;
                telemetry.count(settle, "core.reboot.micro", 1);
                announcements.extend(tv.announce_unit(settle, unit));
                return;
            }
            // No validated generation left: climb to the full-restart
            // rung for this episode.
            telemetry.count(settle, "core.reboot.micro_escalations", 1);
        }
        for u in TvSystem::UNITS {
            match self.vault.restore_latest(u) {
                RestoreOutcome::Restored { state, .. } => {
                    tv.restore_unit(u, &state);
                }
                // No usable checkpoint: power-on defaults.
                _ => {
                    tv.reset_unit(u);
                }
            }
            self.dirty.remove(u);
            // A full restart has no replay: post-checkpoint context is
            // lost, which is exactly its cost.
            self.journal.remove(u);
            announcements.extend(tv.announce_unit(settle, u));
        }
        let outage = self.cfg.full_restart_outage;
        self.all_down_until = Some(settle + outage);
        self.finish_episode(settle, outage, unit);
        outcome.full_restarts += 1;
        outcome.recoveries += 1;
        telemetry.count(settle, "core.reboot.full", 1);
    }

    fn finish_episode(&mut self, settle: SimTime, outage: SimDuration, unit: &'static str) {
        self.outage_unit = Some(unit);
        self.mttr_total_ns += outage.as_nanos();
        self.episodes += 1;
        self.next_allowed = settle + outage + self.cfg.min_between;
    }

    fn mean_mttr(&self) -> Option<SimDuration> {
        (self.episodes > 0).then(|| SimDuration::from_nanos(self.mttr_total_ns / self.episodes))
    }
}

/// Runs a [`TvSystem`] open- or closed-loop against a scenario.
#[derive(Debug)]
pub struct TvDependabilityLoop {
    closed: bool,
    seed: u64,
    machine: Machine,
    injector: Injector<TvFault>,
    output_delay: SimDuration,
    jitter: SimDuration,
    loss: f64,
    reliable: bool,
    supervision: Option<SupervisorConfig>,
    online_diagnosis_k: Option<usize>,
    unit_recovery: Option<UnitRecoveryConfig>,
    probes: Option<ProbesConfig>,
    telemetry: Telemetry,
}

impl TvDependabilityLoop {
    /// An open-loop run: no monitoring, no correction.
    pub fn open(seed: u64) -> Self {
        Self::build(false, seed)
    }

    /// A closed-loop run: awareness monitor + detectors + correction.
    pub fn closed(seed: u64) -> Self {
        Self::build(true, seed)
    }

    fn build(closed: bool, seed: u64) -> Self {
        TvDependabilityLoop {
            closed,
            seed,
            machine: tv_spec_machine(),
            injector: Injector::new(),
            output_delay: SimDuration::from_micros(500),
            jitter: SimDuration::ZERO,
            loss: 0.0,
            reliable: false,
            supervision: None,
            online_diagnosis_k: None,
            unit_recovery: None,
            probes: None,
            telemetry: Telemetry::off(),
        }
    }

    /// Attaches a telemetry handle, propagated into the monitor, its
    /// channels, supervisor, and diagnoser. Loop-level step spans, fault
    /// edges, and repair counts are stamped with the scenario's virtual
    /// time, so a recording run drains to a deterministic timeline.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Schedules a fault.
    pub fn schedule_fault(&mut self, schedule: Schedule, fault: TvFault) {
        self.injector.add(schedule, fault);
    }

    /// Overrides the SUO→monitor output channel delay.
    pub fn set_output_delay(&mut self, delay: SimDuration) {
        self.output_delay = delay;
    }

    /// Adds uniform jitter to the monitor's boundary channels.
    pub fn set_jitter(&mut self, jitter: SimDuration) {
        self.jitter = jitter;
    }

    /// Sets the per-message loss probability on the boundary channels
    /// (a disturbed process boundary).
    pub fn set_channel_loss(&mut self, loss: f64) {
        self.loss = loss;
    }

    /// Runs the monitor over the ack/retransmit reliable protocol
    /// instead of bare delay channels.
    pub fn use_reliable(&mut self, reliable: bool) {
        self.reliable = reliable;
    }

    /// Enables monitor self-supervision (watchdog + degradation +
    /// escalation ladder).
    pub fn supervised(&mut self, config: SupervisorConfig) {
        self.supervision = Some(config);
    }

    /// Installs structural unit recovery: crash-consistent per-unit
    /// checkpoints, journal replay, and a reboot ladder that replaces the
    /// targeted repair strategy. Closed loop only; the open loop has no
    /// detections to react to, so the config is ignored there.
    pub fn unit_recovery(&mut self, config: UnitRecoveryConfig) {
        self.unit_recovery = Some(config);
    }

    /// Installs the active health observatory: deterministic self-check
    /// probes in the idle windows between presses, the sleep-timer
    /// deadline monitor, and mode witnesses for the menu and swivel
    /// subsystems. Probe divergence raises normal comparator/detector
    /// verdicts and feeds the same correction strategy as user-visible
    /// errors; probe block coverage and probe-raised errors are kept
    /// out of the spectra diagnosis. Closed loop only.
    pub fn active_probes(&mut self, config: ProbesConfig) {
        self.probes = Some(config);
    }

    /// Enables in-loop spectrum diagnosis with a `top_k`-sized suspect
    /// window: each press's block coverage becomes one spectrum step,
    /// comparator errors mark the step failing, and every failing step
    /// re-ranks the suspects while the scenario is still running.
    pub fn diagnose_online(&mut self, top_k: usize) {
        self.online_diagnosis_k = Some(top_k);
    }

    /// Runs the scenario to completion.
    pub fn run(&mut self, scenario: &TimedScenario) -> LoopOutcome {
        let machine = self.machine.clone();
        let mut stepper = Stepper::new(self, &machine);
        let mut prev_press_at: Option<SimTime> = None;
        for (i, &(at, key)) in scenario.presses().iter().enumerate() {
            // Idle-window probing: the observatory fires its next
            // self-check into the settled gap left by the previous
            // press, before this press's fault edges and traffic.
            if let Some(prev) = prev_press_at {
                stepper.probe_window(prev, at);
            }
            prev_press_at = Some(at);
            self.telemetry.span_enter(at, "core.loop.step");
            for edge in self.injector.poll(at, i as u64) {
                stepper.fault_edge(at, edge);
            }
            stepper.press(at, key);
            // Close the step span after everything the step stamped.
            let step_end = if self.closed { at + STEP_WINDOW } else { at };
            self.telemetry.span_exit(step_end, "core.loop.step");
        }
        stepper.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn teletext_scenario() -> TimedScenario {
        TimedScenario::teletext_session(30)
    }

    #[test]
    fn healthy_run_has_no_failures_or_errors() {
        let mut looped = TvDependabilityLoop::closed(1);
        let outcome = looped.run(&teletext_scenario());
        assert_eq!(outcome.failure_steps, 0, "{outcome:?}");
        assert_eq!(outcome.detected_errors, 0, "{outcome:?}");
        assert_eq!(outcome.recoveries, 0);
        assert_eq!(outcome.steps, 30);
    }

    #[test]
    fn open_loop_failures_persist() {
        let mut looped = TvDependabilityLoop::open(1);
        // Transient sync-loss fault active during the first teletext
        // toggle; the missed notification leaves a persistent error.
        looped.schedule_fault(
            Schedule::Between {
                from: SimTime::from_millis(250),
                to: SimTime::from_millis(350),
            },
            TvFault::TeletextSyncLoss,
        );
        let outcome = looped.run(&teletext_scenario());
        // Open loop: nothing detected, nothing repaired.
        assert_eq!(outcome.detected_errors, 0);
        assert_eq!(outcome.recoveries, 0);
        assert!(outcome.fault_activations >= 1);
    }

    #[test]
    fn closed_loop_detects_and_repairs_sync_loss() {
        let mut looped = TvDependabilityLoop::closed(1);
        looped.schedule_fault(
            Schedule::Between {
                from: SimTime::from_millis(250),
                to: SimTime::from_millis(350),
            },
            TvFault::TeletextSyncLoss,
        );
        let outcome = looped.run(&teletext_scenario());
        assert!(outcome.detected_errors > 0, "{outcome:?}");
        assert!(outcome.recoveries > 0, "{outcome:?}");
        assert!(outcome.detection_latency.is_some());
    }

    #[test]
    fn closed_loop_beats_open_loop_on_mute_inversion() {
        let schedule = || Schedule::Between {
            from: SimTime::from_millis(1650),
            to: SimTime::from_millis(1750),
        };
        // The scenario mutes at 1600 ms and unmutes at 1700 ms (teletext
        // session pattern): the unmute is lost.
        let mut open = TvDependabilityLoop::open(5);
        open.schedule_fault(schedule(), TvFault::MuteInversion);
        let open_out = open.run(&teletext_scenario());

        let mut closed = TvDependabilityLoop::closed(5);
        closed.schedule_fault(schedule(), TvFault::MuteInversion);
        let closed_out = closed.run(&teletext_scenario());

        assert!(
            closed_out.failure_steps <= open_out.failure_steps,
            "closed {closed_out:?} vs open {open_out:?}"
        );
        if open_out.failure_steps > 0 {
            assert!(closed_out.failure_steps < open_out.failure_steps);
            assert!(closed_out.recoveries > 0);
        }
    }

    #[test]
    fn online_diagnosis_localizes_render_fault_mid_run() {
        let mut looped = TvDependabilityLoop::closed(1);
        looped.schedule_fault(Schedule::Always, TvFault::TeletextRenderFault);
        // The fault block shares its ambiguity group with every other
        // block conditioned on the same page bit (acquire + render bit-3
        // sub-regions); the window must span that group to contain it.
        looped.diagnose_online(128);
        let outcome = looped.run(&teletext_scenario());

        // The corrupted renders raise comparator errors, each of which
        // marks the current spectrum step failing and re-ranks suspects.
        assert!(outcome.diagnoses_triggered >= 1, "{outcome:?}");
        let fault_block = tvsim::TvSystem::new().bank().teletext_fault_block();
        assert!(
            outcome.top_suspects.contains(&fault_block),
            "fault block {fault_block} not in suspects {:?}",
            outcome.top_suspects
        );
    }

    #[test]
    fn diagnosis_off_by_default() {
        let mut looped = TvDependabilityLoop::closed(1);
        looped.schedule_fault(Schedule::Always, TvFault::TeletextRenderFault);
        let outcome = looped.run(&teletext_scenario());
        assert_eq!(outcome.diagnoses_triggered, 0);
        assert!(outcome.top_suspects.is_empty());
    }

    #[test]
    fn failure_ratio_math() {
        let o = LoopOutcome {
            steps: 10,
            failure_steps: 3,
            detected_errors: 0,
            recoveries: 0,
            detection_latency: None,
            fault_activations: 0,
            channels: None,
            safe_mode_entries: 0,
            diagnoses_triggered: 0,
            top_suspects: Vec::new(),
            lost_presses: 0,
            lost_presses_unaffected: 0,
            micro_reboots: 0,
            full_restarts: 0,
            reboot_mttr: None,
            checkpoint_generations: Vec::new(),
            ladder_rung: 0,
        };
        assert!((o.failure_ratio() - 0.3).abs() < 1e-12);
        let line = o.summary();
        assert_eq!(
            line,
            "steps=10 failures=3 (30.0%) detected=0 recoveries=0 faults=0"
        );
    }

    #[test]
    fn summary_includes_optional_sections_when_present() {
        let o = LoopOutcome {
            steps: 30,
            failure_steps: 1,
            detected_errors: 4,
            recoveries: 2,
            detection_latency: Some(SimDuration::from_millis(20)),
            fault_activations: 1,
            channels: Some(ChannelAudit {
                sent: 60,
                delivered: 58,
                lost: 0,
                in_flight: 2,
            }),
            safe_mode_entries: 1,
            diagnoses_triggered: 3,
            top_suspects: vec![7, 40],
            lost_presses: 12,
            lost_presses_unaffected: 9,
            micro_reboots: 2,
            full_restarts: 1,
            reboot_mttr: Some(SimDuration::from_millis(55)),
            checkpoint_generations: vec![("audio".to_string(), 6)],
            ladder_rung: 3,
        };
        let line = o.summary();
        assert!(line.contains("latency=20.000ms"), "{line}");
        assert!(
            line.contains("channels=60sent/58delivered/0lost/2inflight"),
            "{line}"
        );
        assert!(line.contains("safe_mode=1"), "{line}");
        assert!(
            line.contains("reboots=2micro/1full mttr=55.000ms"),
            "{line}"
        );
        assert!(line.contains("lost=12 (9 unaffected)"), "{line}");
        assert!(line.contains("rung=3"), "{line}");
        assert!(line.contains("diagnoses=3 prime=7"), "{line}");
    }

    fn mute_fault_schedule() -> Schedule {
        Schedule::Between {
            from: SimTime::from_millis(1650),
            to: SimTime::from_millis(1750),
        }
    }

    #[test]
    fn micro_reboot_recovers_the_faulty_unit_without_collateral_losses() {
        let mut looped = TvDependabilityLoop::closed(5);
        looped.schedule_fault(mute_fault_schedule(), TvFault::MuteInversion);
        looped.unit_recovery(UnitRecoveryConfig::micro_reboot());
        let outcome = looped.run(&teletext_scenario());
        assert!(outcome.micro_reboots >= 1, "{outcome:?}");
        assert_eq!(outcome.full_restarts, 0, "{outcome:?}");
        // Only the audio unit ever went down, and its outage is shorter
        // than the press spacing: nothing aimed elsewhere was lost.
        assert_eq!(outcome.lost_presses_unaffected, 0, "{outcome:?}");
        let mttr = outcome.reboot_mttr.expect("episodes happened");
        assert!(mttr < SimDuration::from_millis(200), "{mttr}");
        // Healthy units kept their checkpoint cadence going.
        assert!(!outcome.checkpoint_generations.is_empty());
    }

    #[test]
    fn full_restart_loses_presses_on_unaffected_units() {
        let mut looped = TvDependabilityLoop::closed(5);
        looped.schedule_fault(mute_fault_schedule(), TvFault::MuteInversion);
        looped.unit_recovery(UnitRecoveryConfig::full_restart());
        let outcome = looped.run(&teletext_scenario());
        assert!(outcome.full_restarts >= 1, "{outcome:?}");
        assert_eq!(outcome.micro_reboots, 0, "{outcome:?}");
        // The whole TV is down for seconds: presses meant for perfectly
        // healthy units vanish with it.
        assert!(outcome.lost_presses_unaffected >= 1, "{outcome:?}");
        let mttr = outcome.reboot_mttr.expect("episodes happened");
        assert!(mttr >= SimDuration::from_secs(4), "{mttr}");
    }

    #[test]
    fn corrupted_checkpoint_history_escalates_to_full_restart() {
        let telemetry = Telemetry::recording(2048);
        let mut looped = TvDependabilityLoop::closed(5);
        looped.set_telemetry(telemetry.clone());
        looped.schedule_fault(mute_fault_schedule(), TvFault::MuteInversion);
        looped.unit_recovery(UnitRecoveryConfig {
            // Chaos corrupts every checkpoint as it is sealed: the
            // fingerprint must reject generation after generation and
            // the episode must climb to the full-restart rung.
            corrupt_chance: 1.0,
            ..UnitRecoveryConfig::micro_reboot()
        });
        let outcome = looped.run(&teletext_scenario());
        assert_eq!(outcome.micro_reboots, 0, "{outcome:?}");
        assert!(outcome.full_restarts >= 1, "{outcome:?}");
        assert!(telemetry.counter("core.reboot.micro_escalations") >= 1);
        assert!(telemetry.counter("core.reboot.checkpoint") >= 1);
    }

    #[test]
    fn unit_recovery_runs_are_deterministic_per_seed() {
        let run = || {
            let mut looped = TvDependabilityLoop::closed(9);
            looped.schedule_fault(mute_fault_schedule(), TvFault::MuteInversion);
            looped.unit_recovery(UnitRecoveryConfig {
                corrupt_chance: 0.25,
                tear_chance: 0.25,
                ..UnitRecoveryConfig::micro_reboot()
            });
            looped.run(&teletext_scenario())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn recording_run_captures_fault_and_detection_timeline() {
        let telemetry = Telemetry::recording(4096);
        let mut looped = TvDependabilityLoop::closed(1);
        looped.set_telemetry(telemetry.clone());
        looped.schedule_fault(
            Schedule::Between {
                from: SimTime::from_millis(250),
                to: SimTime::from_millis(350),
            },
            TvFault::TeletextSyncLoss,
        );
        let outcome = looped.run(&teletext_scenario());
        assert!(outcome.detected_errors > 0);

        let timeline = telemetry.events_jsonl();
        assert!(
            timeline.contains("\"core.loop.fault\""),
            "fault edge missing"
        );
        assert!(
            timeline.contains("teletext-sync-loss"),
            "fault name missing"
        );
        assert!(
            timeline.contains("core.loop.detections"),
            "detections missing"
        );
        assert!(timeline.contains("core.loop.repairs"), "repairs missing");
        // Every line is stamped with virtual time.
        for line in timeline.lines() {
            assert!(line.contains("\"clock\":\"virtual\""), "{line}");
        }
        let metrics = telemetry.snapshot_metrics();
        assert!(metrics.counter("awareness.comparator.comparisons") > 0);
        assert_eq!(
            metrics.counter("core.loop.detections"),
            outcome.detected_errors as i64
        );
    }

    #[test]
    fn same_seed_runs_drain_identical_timelines() {
        let run = || {
            let telemetry = Telemetry::recording(8192);
            let mut looped = TvDependabilityLoop::closed(7);
            looped.set_telemetry(telemetry.clone());
            looped.schedule_fault(Schedule::Always, TvFault::MuteInversion);
            looped.set_channel_loss(0.05);
            looped.use_reliable(true);
            let _ = looped.run(&teletext_scenario());
            (telemetry.events_jsonl(), telemetry.metrics_json())
        };
        let (events_a, metrics_a) = run();
        let (events_b, metrics_b) = run();
        assert_eq!(events_a, events_b, "event timelines diverged");
        assert_eq!(metrics_a, metrics_b, "metrics readouts diverged");
        assert!(!events_a.is_empty());
    }

    #[test]
    fn probes_on_fault_free_run_stay_silent() {
        let telemetry = Telemetry::recording(16_384);
        let mut looped = TvDependabilityLoop::closed(1);
        looped.set_telemetry(telemetry.clone());
        looped.active_probes(ProbesConfig::standard());
        let outcome = looped.run(&TimedScenario::idle_session(30));
        // The observatory exercised the set but a healthy TV and its
        // model agree on every synthetic press: zero verdict changes.
        assert_eq!(outcome.failure_steps, 0, "{outcome:?}");
        assert_eq!(outcome.detected_errors, 0, "{outcome:?}");
        assert_eq!(outcome.recoveries, 0);
        let fired: i64 = PROBE_FIRED.iter().map(|name| telemetry.counter(name)).sum();
        assert!(fired >= 24, "expected a probe per idle window, got {fired}");
        for name in PROBE_FIRED {
            assert!(telemetry.counter(name) >= 1, "{name} never fired");
        }
        assert_eq!(telemetry.counter("core.probes.detections"), 0);
    }

    #[test]
    fn probes_detect_sleep_timer_lost_in_idle() {
        // Without probes the idle workload never touches the sleep
        // timer, so the lost-interrupt fault is undetectable: the blind
        // cell the observatory exists to close.
        let schedule = || Schedule::Between {
            from: SimTime::from_millis(500),
            to: SimTime::from_millis(2000),
        };
        let mut blind = TvDependabilityLoop::closed(3);
        blind.schedule_fault(schedule(), TvFault::SleepTimerLost);
        let blind_out = blind.run(&TimedScenario::idle_session(30));
        assert_eq!(blind_out.detected_errors, 0, "{blind_out:?}");

        let mut probed = TvDependabilityLoop::closed(3);
        probed.schedule_fault(schedule(), TvFault::SleepTimerLost);
        probed.active_probes(ProbesConfig::standard());
        let probed_out = probed.run(&TimedScenario::idle_session(30));
        assert!(probed_out.detected_errors > 0, "{probed_out:?}");
        assert!(probed_out.detection_latency.is_some());
    }

    #[test]
    fn probes_detect_stuck_swivel_in_idle() {
        let mut blind = TvDependabilityLoop::closed(4);
        blind.schedule_fault(Schedule::Always, TvFault::SwivelStuck);
        let blind_out = blind.run(&TimedScenario::idle_session(30));
        assert_eq!(blind_out.detected_errors, 0, "{blind_out:?}");

        let mut probed = TvDependabilityLoop::closed(4);
        probed.schedule_fault(Schedule::Always, TvFault::SwivelStuck);
        probed.active_probes(ProbesConfig::standard());
        let probed_out = probed.run(&TimedScenario::idle_session(30));
        assert!(probed_out.detected_errors > 0, "{probed_out:?}");
    }

    #[test]
    fn probes_detect_menu_freeze_in_idle() {
        let mut probed = TvDependabilityLoop::closed(5);
        probed.schedule_fault(Schedule::Always, TvFault::MenuFreeze);
        probed.active_probes(ProbesConfig::standard());
        let probed_out = probed.run(&TimedScenario::idle_session(30));
        assert!(probed_out.detected_errors > 0, "{probed_out:?}");
    }

    #[test]
    fn probe_runs_are_deterministic_per_seed() {
        let run = || {
            let telemetry = Telemetry::recording(16_384);
            let mut looped = TvDependabilityLoop::closed(9);
            looped.set_telemetry(telemetry.clone());
            looped.schedule_fault(
                Schedule::Between {
                    from: SimTime::from_millis(400),
                    to: SimTime::from_millis(1400),
                },
                TvFault::SleepTimerLost,
            );
            looped.active_probes(ProbesConfig::standard());
            let outcome = looped.run(&TimedScenario::idle_session(30));
            (outcome, telemetry.events_jsonl())
        };
        let (out_a, events_a) = run();
        let (out_b, events_b) = run();
        assert_eq!(out_a.detected_errors, out_b.detected_errors);
        assert_eq!(out_a.failure_steps, out_b.failure_steps);
        assert_eq!(events_a, events_b, "probe timelines diverged");
    }

    #[test]
    fn probe_traffic_does_not_crowd_out_planted_fault_spectra() {
        // Satellite regression: synthetic probe presses are excluded
        // from coverage recording, so heavy probing must not dilute the
        // spectra that localize a *real* fault exercised by the
        // scenario itself.
        let mut looped = TvDependabilityLoop::closed(1);
        looped.schedule_fault(Schedule::Always, TvFault::TeletextRenderFault);
        looped.diagnose_online(128);
        looped.active_probes(ProbesConfig::standard());
        let outcome = looped.run(&teletext_scenario());
        assert!(outcome.diagnoses_triggered >= 1, "{outcome:?}");
        let fault_block = tvsim::TvSystem::new().bank().teletext_fault_block();
        assert!(
            outcome.top_suspects.contains(&fault_block),
            "fault block {fault_block} crowded out of suspects {:?}",
            outcome.top_suspects
        );
    }
}
