//! The traced run: per-layer numbers from outside the program.
//!
//! Three kinds of measurement, all through public functions:
//!
//! 1. A *replayer* that calls each layer in the loop's order —
//!    `TvSystem::press` → oracle `Executor::step_at` → monitor `offer` →
//!    detector `observe` → `advance_to`/`drain_errors` → `take_coverage`
//!    → `record_coverage` → checkpoint `save` — with a span around every
//!    call, on a sample of the workload's own units. A second pass feeds
//!    the sessions' own coverage snapshots to a standalone
//!    `IncrementalDiagnoser`.
//! 2. *Configuration deltas*: the same units through the real loop, open,
//!    closed, with each optional feature flipped, and with recording
//!    telemetry.
//! 3. *Unit timing on the executor*: each unit timed inside a closure
//!    handed to `chaos::exec::scatter_map`, the folded fingerprint
//!    checked against `run_fleet` / `run_scorecard`.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use chaos::exec::effective_workers;
use chaos::{
    check_invariants, CampaignSpec, DependabilityScorecard, FleetCampaignResult, FleetOutcome,
    ForensicReport, StressPlan,
};
use trader::awareness::{
    CompareSpec, Configuration, DiagnosisConfig, MonitorBuilder, SupervisorConfig,
};
use trader::detect::{ConsistencyRule, Detector, ModeConsistencyDetector};
use trader::faults::injector::Transition;
use trader::faults::Injector;
use trader::observe::BlockSnapshot;
use trader::recovery::CheckpointVault;
use trader::simkit::{SimDuration, SimRng, SimTime};
use trader::spectra::IncrementalDiagnoser;
use trader::statemachine::{Event, Executor, OutputRecord};
use trader::telemetry::Telemetry;
use trader::tvsim::{tv_spec_machine, TvSystem};
use trader::TimedScenario;

use crate::inputs::{Knobs, SessionSpec, Workload, DIAGNOSIS_TOP_K};
use crate::session::{check_session, fingerprint, Arm, Unit};
use crate::stats::{mean, median, quantile};
use crate::timed::{check_campaign, check_cell, check_repeat, timed_scatter};
use crate::timed::{Prepared, Tally};
use crate::tracer::{self_totals, LayerTotals, Tracer};

/// Units of each workload the replay and the configuration deltas use.
fn sample_size(workload: Workload) -> usize {
    match workload {
        Workload::SessionClosed => 8,
        Workload::SessionDiagnose => 16,
        Workload::CampaignSweep => 32,
    }
}

/// Checkpoint cadence of `UnitRecoveryConfig::micro_reboot()`.
const CHECKPOINT_EVERY: SimDuration = SimDuration::from_millis(500);
/// Checkpoint generations kept per unit, as in the loop.
const VAULT_CAPACITY: usize = 4;
/// Flight-recorder capacity `run_fleet` gives each campaign.
const FLEET_RECORDER_CAPACITY: usize = 256;

/// The layer calls the replay makes on every press, summed into trace
/// coverage.
const PRESS_LAYERS: [&str; 7] = [
    "tvsim.press",
    "statemachine.step",
    "awareness.offer",
    "detect.observe",
    "awareness.settle",
    "tvsim.coverage",
    "awareness.record_coverage",
];

/// One unit's coverage snapshots with their pass/fail verdicts.
type Steps = Vec<(BlockSnapshot, bool)>;

/// What one replayed unit left behind besides its spans.
struct Replayed {
    presses: u64,
    blocks_hit: u64,
    /// Coverage snapshots and their pass/fail verdicts, for the spectra
    /// pass.
    steps: Steps,
}

/// Builds the monitor the loop would build for `unit` in `knobs`.
fn configure_monitor<'m>(
    unit: Unit<'_>,
    knobs: Knobs,
    machine: &'m trader::statemachine::Machine,
    n_blocks: u32,
) -> MonitorBuilder<'m> {
    let cfg = Configuration::new().with_default_spec(CompareSpec::exact().with_max_consecutive(0));
    let mut config = MonitorBuilder::new(machine)
        .configuration(cfg)
        .seed(unit.seed());
    config = match unit {
        Unit::Session(_) => config.output_delay(SimDuration::from_micros(500)),
        Unit::Campaign(spec) => {
            let b = config
                .output_delay(spec.output_delay)
                .jitter(spec.jitter)
                .loss(spec.loss)
                .reliable(spec.reliable);
            if spec.supervised {
                b.supervised(SupervisorConfig::with_micro_reboot())
            } else {
                b
            }
        }
    };
    if knobs.diagnose {
        config = config.diagnosis(DiagnosisConfig::new(n_blocks).with_top_k(DIAGNOSIS_TOP_K));
    }
    config
}

/// The loop's mode-consistency detector for `knobs`.
fn mode_detector(knobs: Knobs) -> ModeConsistencyDetector {
    let mut d = ModeConsistencyDetector::new();
    d.add_rule(ConsistencyRule::new(
        "txt-sync",
        "ui",
        "teletext",
        "decoder",
        ["teletext"],
    ));
    if knobs.probes {
        d.add_rule(ConsistencyRule::new(
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
        d.add_rule(ConsistencyRule::new(
            "swivel-witness",
            "swivel.motor",
            "idle",
            "swivel.cmd",
            ["converged"],
        ));
    }
    d
}

/// Replays one unit through the layers in the loop's order, a span
/// around every layer call and one `core.press` span per press.
fn replay(
    unit: Unit<'_>,
    scenario: &TimedScenario,
    knobs: Knobs,
    tracer: &mut Tracer,
    keep_steps: bool,
) -> Replayed {
    let machine = tracer.call("tvsim.spec_machine", tv_spec_machine);
    let mut tv = TvSystem::new();
    let mut oracle = Executor::new(&machine);
    oracle.start();
    let config = configure_monitor(unit, knobs, &machine, tv.n_blocks());
    let mut monitor = tracer.call("awareness.build", || config.build());
    let mut detector = mode_detector(knobs);
    let mut injector = Injector::new();
    for (schedule, fault) in unit.faults() {
        injector.add(schedule, fault);
    }
    let mut vault = CheckpointVault::new(unit.seed(), VAULT_CAPACITY);
    let mut last_checkpoint: Option<SimTime> = None;
    let mut outputs: Vec<OutputRecord> = Vec::new();
    let mut out = Replayed {
        presses: 0,
        blocks_hit: 0,
        steps: Vec::new(),
    };
    let mut errors_seen = 0;

    for (i, (at, key)) in scenario.presses().iter().enumerate() {
        let press = tracer.open("core.press");
        for edge in injector.poll(*at, i as u64) {
            match edge {
                Transition::Activated(f) => tv.inject_fault(f),
                Transition::Deactivated(f) => tv.clear_fault(f),
            }
        }
        let observations = tracer.call("tvsim.press", || tv.press(*at, *key));
        let event = match key.payload() {
            Some(p) => Event::with_payload(key.event_name(), p),
            None => Event::plain(key.event_name()),
        };
        tracer.call("statemachine.step", || {
            oracle.step_at(*at, &event);
            outputs.clear();
            oracle.drain_outputs_into(&mut outputs);
        });
        for obs in &observations {
            tracer.call("awareness.offer", || monitor.offer(obs));
            let _ = tracer.call("detect.observe", || detector.observe(obs));
        }
        let settle = *at + SimDuration::from_millis(20);
        let _ = tracer.call("awareness.settle", || {
            monitor.advance_to(settle);
            monitor.drain_errors()
        });
        let snapshot = tracer.call("tvsim.coverage", || tv.take_coverage());
        tracer.call("awareness.record_coverage", || {
            monitor.record_coverage(&snapshot)
        });
        let due = last_checkpoint.is_none_or(|last| at.since(last) >= CHECKPOINT_EVERY);
        if due {
            last_checkpoint = Some(*at);
            for name in TvSystem::UNITS {
                tracer.call("recovery.checkpoint", || {
                    if let Some(state) = tv.unit_state(name) {
                        vault.save(name, *at, state);
                    }
                });
            }
        }
        tracer.close(press);
        out.presses += 1;
        out.blocks_hit += u64::from(snapshot.count());
        let failed = monitor.errors_total() > errors_seen;
        errors_seen = monitor.errors_total();
        if keep_steps {
            out.steps.push((snapshot, failed));
        }
    }
    out
}

/// Per-layer numbers of the spectra pass.
struct SpectraPass {
    append_ns: f64,
    append_allocs: f64,
    topk_change_ratio: f64,
}

/// Feeds each unit's own snapshots to a fresh `IncrementalDiagnoser`
/// with the shard count `DiagnosisConfig::new` picks.
fn spectra_pass(units: &[Steps], n_blocks: u32, budget: Duration) -> SpectraPass {
    let shards = DiagnosisConfig::new(n_blocks).shards;
    let mut tracer = Tracer::new(true);
    let (mut appends, mut changed) = (0u64, 0u64);
    let mut window: Vec<u32> = Vec::with_capacity(DIAGNOSIS_TOP_K);
    let start = Instant::now();
    'units: for (session, steps) in units.iter().enumerate() {
        tracer.begin_session(session as u32, steps.len());
        let mut diagnoser = IncrementalDiagnoser::new(n_blocks)
            .with_top_k(DIAGNOSIS_TOP_K)
            .with_shards(shards);
        for (snapshot, failed) in steps {
            window.clear();
            window.extend(diagnoser.top_k().entries().iter().map(|e| e.block));
            tracer.call("spectra.append", || {
                diagnoser.append_snapshot(snapshot, *failed);
            });
            appends += 1;
            // The window changed if its blocks or their order did.
            let after = diagnoser.top_k().entries().iter().map(|e| e.block);
            changed += u64::from(!after.eq(window.iter().copied()));
            if start.elapsed() >= budget && appends >= 27 {
                break 'units;
            }
        }
    }
    let totals = self_totals(tracer.spans());
    let t = totals["spectra.append"];
    SpectraPass {
        append_ns: t.self_ns as f64 / t.calls as f64,
        append_allocs: t.self_allocs as f64 / t.calls as f64,
        topk_change_ratio: changed as f64 / appends as f64,
    }
}

/// One configuration of the delta runs.
#[derive(Debug, Clone, Copy)]
struct Variant {
    arm: Arm,
    recording: bool,
}

/// Median wall time per variant of running `units` through the real
/// loop, rounds interleaved; outcomes in the workload's configuration
/// (`config`, with or without recording) are checked against the timed
/// run's fingerprints.
fn delta_times(
    units: &[(Unit<'_>, TimedScenario)],
    variants: &[Variant],
    config: Arm,
    reference: &mut [Option<u64>],
    budget: Duration,
    tally: &mut Tally,
) -> Vec<f64> {
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
    let start = Instant::now();
    for round in 0.. {
        for (v, variant) in variants.iter().enumerate() {
            let mut total = 0.0;
            for (i, (unit, scenario)) in units.iter().enumerate() {
                let telemetry = variant
                    .recording
                    .then(|| Telemetry::recording(FLEET_RECORDER_CAPACITY));
                let t = Instant::now();
                let outcome = unit.build(variant.arm, telemetry).run(scenario);
                total += t.elapsed().as_secs_f64();
                if round == 0 && variant.arm == config {
                    tally.record(check_repeat(&mut reference[i], Some(fingerprint(&outcome))));
                }
            }
            samples[v].push(total);
        }
        if round >= 2 && start.elapsed() >= budget {
            break;
        }
    }
    samples.iter().map(|s| median(s)).collect()
}

/// Unit timing on the shared executor.
#[derive(Default)]
struct ExecStats {
    unit_ms: Vec<f64>,
    busy: Duration,
    capacity: Duration,
    imbalance: Vec<f64>,
}

impl ExecStats {
    /// Folds one `timed_scatter` call: per-unit results with their
    /// thread and busy time, the call's worker count and makespan.
    fn fold<R>(&mut self, units: &[(R, ThreadId, Duration)], workers: usize, makespan: Duration) {
        let mut per_worker: HashMap<ThreadId, Duration> = HashMap::new();
        for (_, thread, took) in units {
            self.unit_ms.push(took.as_secs_f64() * 1e3);
            self.busy += *took;
            *per_worker.entry(*thread).or_default() += *took;
        }
        self.capacity += makespan * workers as u32;
        let busiest = per_worker.values().max().copied().unwrap_or_default();
        let total: Duration = per_worker.values().sum();
        let mean_busy = total.as_secs_f64() / workers as f64;
        if mean_busy > 0.0 {
            self.imbalance.push(busiest.as_secs_f64() / mean_busy);
        }
    }
}

/// One fleet campaign exactly as `run_fleet` runs it: private recording
/// telemetry, invariant audit, forensic capture on a violation.
fn fleet_result(spec: &CampaignSpec) -> FleetCampaignResult {
    let telemetry = Telemetry::recording(FLEET_RECORDER_CAPACITY);
    let outcome = spec.run_with(&telemetry);
    let violations = check_invariants(&outcome);
    let forensics = (!violations.is_empty())
        .then(|| Box::new(ForensicReport::capture(&outcome, &telemetry, violations)));
    FleetCampaignResult {
        metrics: telemetry.snapshot_metrics(),
        outcome,
        forensics,
    }
}

/// Everything the traced run reports, in `BENCHMARK.json` order.
pub struct LayerReport {
    /// `(name, value)` of every per-layer metric.
    pub metrics: Vec<(&'static str, f64)>,
    /// Informational lines (fingerprint agreement, sample sizes).
    pub info: Vec<String>,
}

/// Runs the traced measurements within about `seconds`.
pub fn run_traced(
    workload: Workload,
    seed: u64,
    prepared: &Prepared,
    seconds: f64,
    trace_path: &Path,
    tally: &mut Tally,
) -> LayerReport {
    let budget = |share: f64| Duration::from_secs_f64(seconds * share);
    let knobs = workload.knobs();
    let n = sample_size(workload);
    let mut info = Vec::new();

    // The sample: the first units of the pool, or of the fleet.
    let (units, reference): (Vec<Unit<'_>>, Vec<Option<u64>>) = match prepared {
        Prepared::Sessions {
            pool, reference, ..
        } => (
            pool.iter().take(n).map(Unit::Session).collect(),
            reference.iter().take(n).copied().collect(),
        ),
        Prepared::Sweep {
            fleet,
            closed_reference,
            ..
        } => (
            fleet.iter().take(n).map(Unit::Campaign).collect(),
            closed_reference.iter().take(n).map(|f| Some(*f)).collect(),
        ),
    };
    let mut reference = reference;
    let units: Vec<(Unit<'_>, TimedScenario)> =
        units.into_iter().map(|u| (u, u.scenario())).collect();
    let sample_presses: u64 = units.iter().map(|(_, s)| s.len() as u64).sum();

    // 1. Rounds of: the real loop in the workload's configuration, the
    // replay untraced, and the replay traced. Interleaving keeps host
    // drift out of the comparisons between them.
    let mut loop_ns = Vec::new();
    let mut traced_ns = Vec::new();
    let mut plain_ns = Vec::new();
    let mut totals: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    let (mut presses, mut blocks_hit) = (0u64, 0u64);
    let mut first: Option<(Tracer, Vec<Steps>)> = None;
    let replay_start = Instant::now();
    for round in 0.. {
        let t = Instant::now();
        for (unit, scenario) in &units {
            std::hint::black_box(unit.build(Arm::Closed(knobs), None).run(scenario));
        }
        loop_ns.push(t.elapsed().as_nanos() as f64 / sample_presses as f64);
        for enabled in [false, true] {
            let mut tracer = Tracer::new(enabled);
            let mut replayed = Vec::with_capacity(units.len());
            let t = Instant::now();
            for (session, (unit, scenario)) in units.iter().enumerate() {
                tracer.begin_session(session as u32, scenario.len() * 24 + 16);
                replayed.push(replay(
                    *unit,
                    scenario,
                    knobs,
                    &mut tracer,
                    enabled && round == 0,
                ));
            }
            let ns = t.elapsed().as_nanos() as f64 / sample_presses as f64;
            if !enabled {
                plain_ns.push(ns);
                continue;
            }
            traced_ns.push(ns);
            for (name, t) in self_totals(tracer.spans()) {
                totals.entry(name).or_default().add(t);
            }
            presses += replayed.iter().map(|r| r.presses).sum::<u64>();
            blocks_hit += replayed.iter().map(|r| r.blocks_hit).sum::<u64>();
            if first.is_none() {
                first = Some((tracer, replayed.into_iter().map(|r| r.steps).collect()));
            }
        }
        if round >= 2 && replay_start.elapsed() >= budget(0.35) {
            break;
        }
    }
    let (tracer, steps) = first.expect("at least one traced round ran");
    if let Err(e) = tracer.write_jsonl(trace_path) {
        info.push(format!(
            "trace spans not written to {}: {e}",
            trace_path.display()
        ));
    } else {
        info.push(format!(
            "{} spans of the first traced round written to {}",
            tracer.spans().len(),
            trace_path.display()
        ));
    }
    drop(tracer);
    let per_call = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64 / t.calls as f64)
    };
    let allocs_per_call = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.self_allocs as f64 / t.calls as f64)
    };
    let per_press = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64 / presses as f64)
    };
    let allocs_per_press = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.self_allocs as f64 / presses as f64)
    };

    // 2. The spectra pass over the sessions' own snapshots.
    let n_blocks = TvSystem::new().n_blocks();
    let spectra = spectra_pass(&steps, n_blocks, budget(0.1));
    drop(steps);

    // 3. Configuration deltas through the real loop.
    let flip = |f: fn(&mut Knobs)| {
        let mut k = knobs;
        f(&mut k);
        k
    };
    let closed = |k: Knobs| Variant {
        arm: Arm::Closed(k),
        recording: false,
    };
    let config = closed(knobs);
    let variants = [
        Variant {
            arm: Arm::Open,
            recording: false,
        },
        closed(Knobs::default()),
        config,
        closed(flip(|k| k.probes = !k.probes)),
        closed(flip(|k| k.unit_recovery = !k.unit_recovery)),
        closed(flip(|k| k.diagnose = !k.diagnose)),
        Variant {
            recording: true,
            ..config
        },
    ];
    let t = delta_times(
        &units,
        &variants,
        config.arm,
        &mut reference,
        budget(0.45),
        tally,
    );
    let (t_open, t_base, t_config, t_probes, t_recovery, t_diag, t_recording) =
        (t[0], t[1], t[2], t[3], t[4], t[5], t[6]);
    // Share of the with-feature session time the feature adds.
    let share = |on: bool, t_flipped: f64| {
        let (with, without) = if on {
            (t_config, t_flipped)
        } else {
            (t_flipped, t_config)
        };
        (with - without) / with
    };
    let untraced_ns_per_press = median(&loop_ns);

    // 4. Units timed on the executor.
    let mut exec = ExecStats::default();
    match prepared {
        Prepared::Sessions { pool, planted, .. } => {
            let sample = &pool[..n.min(pool.len())];
            let (out, makespan) = timed_scatter(sample, 1, |spec: &SessionSpec| {
                crate::session::run_session(spec, Arm::Closed(knobs))
            });
            exec.fold(&out, 1, makespan);
            for (i, (outcome, _, _)) in out.iter().enumerate() {
                let failure = check_session(&sample[i], knobs, outcome.as_ref(), *planted)
                    .or_else(|| check_repeat(&mut reference[i], outcome.as_ref().map(fingerprint)));
                tally.record(failure);
            }
        }
        Prepared::Sweep {
            fleet,
            grid,
            workers,
            fleet_reference,
            grid_reference,
            fleet_fingerprint,
            grid_fingerprint,
            ..
        } => {
            let (out, makespan) = timed_scatter(fleet, *workers, fleet_result);
            exec.fold(&out, effective_workers(fleet.len(), *workers), makespan);
            let folded = FleetOutcome {
                results: out.into_iter().map(|(r, _, _)| r).collect(),
                workers: effective_workers(fleet.len(), *workers),
            };
            for (result, want) in folded.results.iter().zip(fleet_reference.iter()) {
                tally.record(check_campaign(result, *want));
            }
            info.push(format!(
                "traced fleet fingerprint {:016x}, run_fleet {:016x}: {}",
                folded.fingerprint(),
                fleet_fingerprint,
                if folded.fingerprint() == *fleet_fingerprint {
                    "equal"
                } else {
                    "DIFFERENT"
                }
            ));

            let (out, makespan) = timed_scatter(grid, *workers, chaos::CellSpec::run);
            exec.fold(&out, effective_workers(grid.len(), *workers), makespan);
            let cards = DependabilityScorecard {
                workers: effective_workers(grid.len(), *workers),
                cells: out.into_iter().map(|(c, _, _)| c).collect(),
            };
            for (cell, want) in cards.cells.iter().zip(grid_reference.iter()) {
                tally.record(check_cell(cell, *want));
            }
            info.push(format!(
                "traced scorecard fingerprint {:016x}, run_scorecard {:016x}: {}",
                cards.fingerprint(),
                grid_fingerprint,
                if cards.fingerprint() == *grid_fingerprint {
                    "equal"
                } else {
                    "DIFFERENT"
                }
            ));
        }
    }

    // 5. Fixed costs.
    let spec_machine_us = {
        let samples: Vec<f64> = (0..200)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(tv_spec_machine());
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        median(&samples)
    };
    let one_press = TimedScenario::teletext_session(1);
    let run_fixed_us = {
        let samples: Vec<f64> = (0..100)
            .map(|_| {
                let (unit, _) = &units[0];
                let t = Instant::now();
                std::hint::black_box(unit.build(Arm::Closed(knobs), None).run(&one_press));
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        median(&samples)
    };
    let stress_us = {
        let plans: Vec<StressPlan> = match prepared {
            Prepared::Sweep { fleet, .. } => fleet.iter().take(64).map(|s| s.stress).collect(),
            Prepared::Sessions { .. } => {
                let mut rng = SimRng::seed(seed);
                (0..64).map(|_| StressPlan::from_rng(&mut rng)).collect()
            }
        };
        let samples: Vec<f64> = plans
            .iter()
            .map(|plan| {
                let t = Instant::now();
                std::hint::black_box(plan.run());
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        mean(&samples)
    };

    // Σ layer self time per press over the layers this configuration
    // exercises on every press.
    let mut layer_ns: f64 = PRESS_LAYERS.iter().map(|l| per_press(l)).sum();
    if knobs.unit_recovery {
        layer_ns += per_press("recovery.checkpoint");
    }
    let traced = median(&traced_ns);
    let plain = median(&plain_ns);
    info.push(format!(
        "sample: {} units, {} presses; replay {:.0} ns/press traced, {:.0} untraced; loop {:.0} ns/press",
        units.len(),
        sample_presses,
        traced,
        plain,
        untraced_ns_per_press
    ));

    let metrics = vec![
        ("tvsim.press_ns", per_call("tvsim.press")),
        ("tvsim.press_allocs", allocs_per_call("tvsim.press")),
        ("tvsim.coverage_ns", per_call("tvsim.coverage")),
        (
            "tvsim.blocks_hit_per_press",
            blocks_hit as f64 / presses as f64,
        ),
        ("tvsim.spec_machine_us", spec_machine_us),
        ("statemachine.step_ns", per_call("statemachine.step")),
        (
            "statemachine.step_allocs",
            allocs_per_call("statemachine.step"),
        ),
        ("awareness.build_us", per_call("awareness.build") / 1e3),
        ("awareness.offer_ns", per_call("awareness.offer")),
        ("awareness.settle_ns", per_call("awareness.settle")),
        (
            "awareness.record_coverage_ns",
            per_call("awareness.record_coverage"),
        ),
        (
            "awareness.press_allocs",
            allocs_per_press("awareness.offer")
                + allocs_per_press("awareness.settle")
                + allocs_per_press("awareness.record_coverage"),
        ),
        ("spectra.append_ns", spectra.append_ns),
        ("spectra.append_allocs", spectra.append_allocs),
        ("spectra.topk_change_ratio", spectra.topk_change_ratio),
        ("detect.observe_ns", per_call("detect.observe")),
        ("recovery.checkpoint_ns", per_call("recovery.checkpoint")),
        ("simkit.stress_us", stress_us),
        ("telemetry.recording_overhead", t_recording / t_config),
        ("core.run_fixed_us", run_fixed_us),
        ("core.glue_ns", untraced_ns_per_press - layer_ns),
        ("core.closed_over_open", t_base / t_open),
        ("core.probes_share", share(knobs.probes, t_probes)),
        (
            "core.unit_recovery_share",
            share(knobs.unit_recovery, t_recovery),
        ),
        ("core.diagnosis_share", share(knobs.diagnose, t_diag)),
        ("chaos.unit_ms_p50", quantile(&exec.unit_ms, 0.5)),
        ("chaos.unit_ms_p99", quantile(&exec.unit_ms, 0.99)),
        (
            "chaos.worker_busy_ratio",
            exec.busy.as_secs_f64() / exec.capacity.as_secs_f64(),
        ),
        ("chaos.imbalance", mean(&exec.imbalance)),
        ("trace.coverage", layer_ns / untraced_ns_per_press),
        ("trace.overhead", traced / plain),
    ];
    LayerReport { metrics, info }
}
