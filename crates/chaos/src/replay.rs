//! Trace-driven failure replay: a forensic dump back into a running
//! campaign.
//!
//! A [`ForensicReport`](crate::forensics::ForensicReport) artifact is a
//! JSONL file whose header line carries the generating seed and the
//! outcome fingerprint. Because a campaign is derived *entirely* from
//! its seed, the dump alone reproduces the failure: [`replay_dump`]
//! parses the header, re-executes the campaign, and checks that the
//! replayed fingerprint is byte-identical to the recorded one — the
//! paper's reproducibility contract, mechanised. A mismatch means the
//! engine drifted since the dump was captured (or the dump was
//! tampered with), and the report says so honestly.
//!
//! The header is read back with `telemetry::Json::parse`, the inverse of
//! the renderer that wrote it.

use telemetry::Json;

use crate::campaign::CampaignSpec;
use crate::invariants::check_invariants;

/// The verdict of replaying a forensic dump.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// The seed parsed from the dump header.
    pub seed: u64,
    /// The fingerprint recorded in the dump (16 lowercase hex digits).
    pub recorded_fingerprint: String,
    /// The fingerprint of the re-executed campaign.
    pub replayed_fingerprint: String,
    /// The invariant violations recorded in the dump.
    pub violations_recorded: Vec<String>,
    /// The invariant violations of the re-executed campaign.
    pub violations_replayed: Vec<String>,
}

impl ReplayReport {
    /// Whether the replayed fingerprint is byte-identical to the
    /// recorded one.
    pub fn is_identical(&self) -> bool {
        self.recorded_fingerprint == self.replayed_fingerprint
    }

    /// A human-readable verdict line plus both fingerprints.
    pub fn render(&self) -> String {
        format!(
            "replay of seed {}: {} (recorded {}, replayed {}); \
             {} violation(s) recorded, {} on replay",
            self.seed,
            if self.is_identical() {
                "byte-identical"
            } else {
                "MISMATCH"
            },
            self.recorded_fingerprint,
            self.replayed_fingerprint,
            self.violations_recorded.len(),
            self.violations_replayed.len(),
        )
    }
}

/// Parses a forensic JSONL dump, re-executes the campaign its header
/// names, and compares fingerprints. Errors are parse problems only —
/// a fingerprint mismatch is a *result*, reported in the returned
/// [`ReplayReport`], not an error.
pub fn replay_dump(dump: &str) -> Result<ReplayReport, String> {
    let line = dump
        .lines()
        .find(|line| line.contains("\"type\":\"forensic_header\""))
        .ok_or_else(|| "no forensic_header line in dump".to_string())?;
    let header = Json::parse(line)?;
    let field = |key: &str| {
        header
            .get(key)
            .ok_or_else(|| format!("field {key:?} missing from header"))
    };
    // The header writes the seed as a signed `Json::Int`: a seed at or
    // above 2^63 reads back negative and casts back exactly.
    let seed = field("seed")?
        .as_i64()
        .ok_or("field \"seed\": expected an integer")? as u64;
    let recorded_fingerprint = field("fingerprint")?
        .as_str()
        .ok_or("field \"fingerprint\": expected a string")?
        .to_string();
    let violations = field("violations")?;
    let violations_recorded = match violations {
        Json::Array(items) => items
            .iter()
            .map(|item| item.as_str().map(str::to_string))
            .collect::<Option<Vec<_>>>(),
        _ => None,
    }
    .ok_or("field \"violations\": expected an array of strings")?;

    let outcome = CampaignSpec::from_seed(seed).run();
    let replayed_fingerprint = format!("{:016x}", outcome.fingerprint());
    let violations_replayed = check_invariants(&outcome);

    Ok(ReplayReport {
        seed,
        recorded_fingerprint,
        replayed_fingerprint,
        violations_recorded,
        violations_replayed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forensics::ForensicReport;
    use telemetry::Telemetry;

    #[test]
    fn replay_reproduces_a_byte_identical_fingerprint() {
        // A seed at or above 2^63 is rendered as a negative integer.
        for seed in [7, (1 << 63) + 7] {
            let telemetry = Telemetry::recording(1024);
            let spec = CampaignSpec::from_seed(seed);
            let outcome = spec.run_with(&telemetry);
            let report = ForensicReport::capture(&outcome, &telemetry, check_invariants(&outcome));
            let dump = report.to_jsonl();

            let replay = replay_dump(&dump).expect("dump parses");
            assert_eq!(replay.seed, seed);
            assert!(replay.is_identical(), "{}", replay.render());
            assert_eq!(
                replay.recorded_fingerprint,
                format!("{:016x}", outcome.fingerprint())
            );
            assert!(replay.render().contains("byte-identical"));
        }
    }

    #[test]
    fn tampered_outcome_mismatches_honestly() {
        let telemetry = Telemetry::recording(1024);
        let spec = CampaignSpec::from_seed(7);
        let mut outcome = spec.run_with(&telemetry);
        // The dump records a fingerprint the engine never produced.
        outcome.open.recoveries += 1;
        let violations = check_invariants(&outcome);
        assert!(!violations.is_empty(), "tampering must trip an invariant");
        let dump = ForensicReport::capture(&outcome, &telemetry, violations).to_jsonl();

        let replay = replay_dump(&dump).expect("dump parses");
        assert!(!replay.is_identical(), "{}", replay.render());
        assert!(!replay.violations_recorded.is_empty());
        assert!(replay.violations_replayed.is_empty());
        assert!(replay.render().contains("MISMATCH"));
    }

    #[test]
    fn dump_without_header_is_a_parse_error() {
        assert!(replay_dump("{\"type\":\"span\"}\n").is_err());
        assert!(replay_dump("").is_err());
    }

    #[test]
    fn violations_with_embedded_quotes_round_trip_through_the_header() {
        let telemetry = Telemetry::recording(64);
        let outcome = CampaignSpec::from_seed(3).run_with(&telemetry);
        let violations = vec![
            "closed arm \"failed\" [worse]".to_string(),
            "tab\there, newline\nthere".to_string(),
            // Every escape class the renderer emits: quote, backslash,
            // the three shorthands, a \u control character, and
            // multi-byte UTF-8 passed through verbatim.
            "a\"b\\c\nd\re\tf\u{7}g\u{1f}héλ".to_string(),
        ];
        let dump = ForensicReport::capture(&outcome, &telemetry, violations.clone()).to_jsonl();
        let replay = replay_dump(&dump).expect("dump parses");
        assert_eq!(replay.violations_recorded, violations);
    }
}
