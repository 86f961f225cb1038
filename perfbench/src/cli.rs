//! Command line and the run of one workload.

use std::path::PathBuf;
use std::time::Instant;

use crate::inputs::Workload;
use crate::layers::run_traced;
use crate::report::{result_line, END_TO_END, PER_LAYER};
use crate::stats::{beyond, median, nproc, peak_rss_mb, quantile};
use crate::timed::{run_timed, set_up, Prepared, Tally, Timed, MIN_SESSIONS};

/// Parsed command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// How long the timed region runs.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
    /// Short mode for self-tests: one set-up, no minimum session count.
    pub quick: bool,
}

/// Usage text.
pub const USAGE: &str =
    "usage: perfbench --workload <session-closed|session-diagnose|campaign-sweep> \
--seed <u64> --seconds <n> --trace <0|1> [--quick]";

/// Parses `--workload`, `--seed`, `--seconds`, `--trace` and `--quick`.
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut quick = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value}: must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        quick,
    })
}

/// Set-ups (and timed chunks) per run; `setup_s` is their median.
fn setup_reps(workload: Workload, quick: bool) -> usize {
    match (quick, workload) {
        (true, _) => 1,
        (false, Workload::CampaignSweep) => 3,
        (false, _) => 9,
    }
}

/// Share of `--seconds` the traced run spends on the untraced timed
/// region it compares against; the rest goes to the layer measurements.
const TRACED_TIMED_SHARE: f64 = 0.4;

/// Runs one workload as `args` asks, printing information lines and,
/// last, the result line. `process_start` is when the process began.
pub fn run(args: &Args, process_start: Instant) -> String {
    let workers = nproc();
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} nproc {workers}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    // The run alternates set-up and timed chunks, so the set-ups sample
    // the host across the whole run: each set-up is input generation,
    // construction and the untimed warm-up unit, the first counted from
    // process start. Later set-ups only time themselves and check that
    // their warm-up unit agrees; the first one's inputs are kept.
    let chunks = setup_reps(args.workload, args.quick);
    let timed_seconds = if args.trace {
        args.seconds * TRACED_TIMED_SHARE
    } else {
        args.seconds
    };
    let min_sessions = if args.quick || args.trace {
        1
    } else {
        MIN_SESSIONS.div_ceil(chunks)
    };
    let mut tally = Tally::default();
    let mut setups = Vec::with_capacity(chunks);
    let mut prepared: Option<Prepared> = None;
    let mut timed = Timed::default();
    for chunk in 0..chunks {
        let start = if chunk == 0 {
            process_start
        } else {
            Instant::now()
        };
        let fresh = set_up(args.workload, args.seed, workers);
        setups.push(start.elapsed().as_secs_f64());
        let kept = match prepared.as_mut() {
            Some(kept) => {
                tally.record(kept.check_same_warm_up(&fresh));
                kept
            }
            None => prepared.insert(fresh),
        };
        run_timed(
            kept,
            &mut timed,
            timed_seconds / chunks as f64,
            min_sessions,
            &mut tally,
        );
    }
    let prepared = prepared.expect("at least one set-up ran");

    let (defs, metrics): (&[_], Vec<(&'static str, f64)>) = if args.trace {
        let trace_path =
            trace_dir().join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
        let report = run_traced(
            args.workload,
            args.seed,
            &prepared,
            args.seconds * (1.0 - TRACED_TIMED_SHARE),
            &trace_path,
            &mut tally,
        );
        println!("{}", timed.domain.line());
        for line in &report.info {
            println!("{line}");
        }
        println!(
            "{:<30} {:>14}  {:<6} moves · on",
            "layer metric", "value", "unit"
        );
        for def in &PER_LAYER {
            let value = report
                .metrics
                .iter()
                .find(|(n, _)| *n == def.name)
                .map_or(f64::NAN, |(_, v)| *v);
            println!(
                "{:<30} {:>14.3}  {:<6} {} · {}",
                def.name, value, def.unit, def.moves, def.on
            );
        }
        (&PER_LAYER, report.metrics)
    } else {
        println!("{}", timed.domain.line());
        println!(
            "timed: {} presses in {:.3} s, {} session samples ({} beyond p99), {} sweep passes",
            timed.presses,
            timed.elapsed.as_secs_f64(),
            timed.session_ms.len(),
            beyond(&timed.session_ms, 0.99),
            timed.passes
        );
        let metrics = vec![
            (
                "presses_per_s",
                timed.presses as f64 / timed.elapsed.as_secs_f64(),
            ),
            ("session_ms_p50", quantile(&timed.session_ms, 0.5)),
            ("session_ms_p99", quantile(&timed.session_ms, 0.99)),
            ("setup_s", median(&setups)),
            ("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN)),
            (
                "allocs_per_press",
                timed.allocs as f64 / timed.presses as f64,
            ),
        ];
        (&END_TO_END, metrics)
    };

    println!(
        "checks: {} units attempted, {} failed (failed_ratio {})",
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    for (reason, count) in &tally.reasons {
        println!("  failed: {count} × {reason}");
    }
    result_line(
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        defs,
        &metrics,
    )
}

/// Where traced runs write their spans.
pub fn trace_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("traces")
}
