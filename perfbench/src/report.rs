//! Metric names, units, and the result line.

/// One metric as `BENCHMARK.json` declares it, with the end-to-end
/// metric and workload a per-layer metric is expected to move.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The end-to-end metric(s) it should move (per-layer only).
    pub moves: &'static str,
    /// The workload it should move them on (per-layer only).
    pub on: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        moves: "",
        on: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    on: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        moves,
        on,
    }
}

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("presses_per_s", "1/s"),
    e2e("session_ms_p50", "ms"),
    e2e("session_ms_p99", "ms"),
    e2e("setup_s", "s"),
    e2e("peak_rss_mb", "MiB"),
    e2e("allocs_per_press", "count"),
];

const CLOSED: &str = "session-closed";
const DIAGNOSE: &str = "session-diagnose";
const SWEEP: &str = "campaign-sweep";

/// Per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: [MetricDef; 31] = [
    layer("tvsim.press_ns", "ns", "session_ms_p50", CLOSED),
    layer("tvsim.press_allocs", "count", "allocs_per_press", CLOSED),
    layer("tvsim.coverage_ns", "ns", "presses_per_s", DIAGNOSE),
    layer(
        "tvsim.blocks_hit_per_press",
        "count",
        "bounds the O(hits) gain",
        DIAGNOSE,
    ),
    layer("tvsim.spec_machine_us", "us", "presses_per_s", SWEEP),
    layer("statemachine.step_ns", "ns", "session_ms_p50", CLOSED),
    layer(
        "statemachine.step_allocs",
        "count",
        "allocs_per_press",
        CLOSED,
    ),
    layer("awareness.build_us", "us", "presses_per_s", SWEEP),
    layer("awareness.offer_ns", "ns", "session_ms_p50", CLOSED),
    layer("awareness.settle_ns", "ns", "session_ms_p50", CLOSED),
    layer(
        "awareness.record_coverage_ns",
        "ns",
        "presses_per_s, session_ms_p99",
        DIAGNOSE,
    ),
    layer(
        "awareness.press_allocs",
        "count",
        "allocs_per_press",
        CLOSED,
    ),
    layer("spectra.append_ns", "ns", "presses_per_s", DIAGNOSE),
    layer(
        "spectra.append_allocs",
        "count",
        "allocs_per_press",
        DIAGNOSE,
    ),
    layer(
        "spectra.topk_change_ratio",
        "ratio",
        "presses_per_s",
        DIAGNOSE,
    ),
    layer("detect.observe_ns", "ns", "session_ms_p50", CLOSED),
    layer("recovery.checkpoint_ns", "ns", "session_ms_p50", CLOSED),
    layer("simkit.stress_us", "us", "presses_per_s", SWEEP),
    layer(
        "telemetry.recording_overhead",
        "ratio",
        "presses_per_s",
        SWEEP,
    ),
    layer("core.run_fixed_us", "us", "presses_per_s", SWEEP),
    layer("core.glue_ns", "ns", "session_ms_p50", CLOSED),
    layer("core.closed_over_open", "ratio", "session_ms_p50", CLOSED),
    layer("core.probes_share", "ratio", "session_ms_p50", CLOSED),
    layer(
        "core.unit_recovery_share",
        "ratio",
        "session_ms_p50",
        CLOSED,
    ),
    layer("core.diagnosis_share", "ratio", "presses_per_s", DIAGNOSE),
    layer("chaos.unit_ms_p50", "ms", "presses_per_s", SWEEP),
    layer("chaos.unit_ms_p99", "ms", "presses_per_s", SWEEP),
    layer("chaos.worker_busy_ratio", "ratio", "presses_per_s", SWEEP),
    layer("chaos.imbalance", "ratio", "presses_per_s", SWEEP),
    layer("trace.coverage", "ratio", "(trace quality)", "all"),
    layer("trace.overhead", "ratio", "(trace quality)", "all"),
];

/// Renders the result line: `correct`, `attempted`, `failed` and every
/// metric of `defs` with its value, in order.
///
/// # Panics
///
/// Panics if a metric of `defs` has no value — the benchmark must print
/// every metric it declares.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &[(&'static str, f64)],
) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|def| {
            let value = values
                .iter()
                .find(|(name, _)| *name == def.name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("metric {} was not measured", def.name));
            // Non-finite values are not JSON; report them as null so the
            // line stays parseable and the run visibly broken.
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_owned()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}
