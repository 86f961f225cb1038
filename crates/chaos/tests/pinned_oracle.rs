//! Pinned behaviour oracle for the campaign fleet and the scorecard.
//!
//! The fingerprints below fold every loop outcome of the 256-campaign
//! regression fleet and of the full 120-cell scorecard, passive (E18)
//! and probed (E19). They are the values recorded in `BENCH_e17.json`,
//! `BENCH_e18.json` and `BENCH_e19.json`; a refactor of the loop must
//! reproduce them exactly.
//!
//! Re-pin a value only for an intended behaviour change, and record
//! that change (and the new value) in CHANGES.md.

use chaos::{regression_fleet, run_fleet, run_scorecard, ScorecardConfig};

#[test]
fn regression_fleet_fingerprint_is_pinned() {
    let fingerprint = run_fleet(&regression_fleet(), 2).fingerprint();
    assert_eq!(fingerprint, 0x519d_c41c_8707_8e72, "{fingerprint:#018x}");
}

#[test]
fn passive_scorecard_fingerprint_is_pinned() {
    let fingerprint = run_scorecard(&ScorecardConfig::full(), 2).fingerprint();
    assert_eq!(fingerprint, 0x5a3f_0d9b_0478_98d2, "{fingerprint:#018x}");
}

#[test]
fn probed_scorecard_fingerprint_is_pinned() {
    let config = ScorecardConfig {
        probes: true,
        ..ScorecardConfig::full()
    };
    let fingerprint = run_scorecard(&config, 2).fingerprint();
    assert_eq!(fingerprint, 0xfda8_8d12_9270_4757, "{fingerprint:#018x}");
}
