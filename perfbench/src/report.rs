//! Metric tables and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] list every metric the benchmark prints,
//! with its unit, in the order `BENCHMARK.json` declares them; a test
//! keeps the two in step. Every workload prints every metric of the mode
//! it runs in: an end-to-end metric is defined on each workload (see
//! README.md for what an operation is on each), and a per-layer metric a
//! workload does not exercise reads 0.

use std::collections::BTreeMap;

/// End-to-end metrics (tracing off): name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("mtis_per_s", "MTI/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run): name and unit.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("kernelsim.snapshot.us_per_pair", "us"),
    ("proc.minflt_per_mti", "1/MTI"),
    ("proc.sys_share", "share"),
    ("kernelsim.restore.us_per_call", "us"),
    ("kernelsim.restore.words_per_restore", "words"),
    ("kernelsim.restore.full_fallbacks", "count"),
    ("kernelsim.reset.us_per_pair", "us"),
    ("ozz.mti.setup.us_per_pair", "us"),
    ("ozz.mti.setup.calls_per_pair", "calls"),
    ("ozz.mti.pair.us_per_mti", "us"),
    ("ozz.mti.pair.crash_share", "share"),
    ("ozz.profile.us_per_sti", "us"),
    ("ozz.profile.events_per_sti", "events"),
    ("ozz.hints.us_per_sti", "us"),
    ("ozz.hints.mtis_per_sti", "MTIs"),
    ("ozz.hints.crash_yield", "share"),
    ("ozz.sti.us_per_sti", "us"),
    ("kernelsim.pool.boots", "1/op"),
    ("kernelsim.pool.checkout_us", "us"),
    ("kernelsim.pool.checkin_us", "us"),
    ("ozz.fuzzer.record.us_per_call", "us"),
    ("ozz.fuzzer.record.calls", "1/op"),
    ("kernelsim.digest.us_per_call", "us"),
    ("kernelsim.digest.bytes", "bytes"),
    ("ozz.triage.record.us_per_bug", "us"),
    ("ozz.triage.minimize.us_per_bug", "us"),
    ("ozz.triage.bisect.us_per_bug", "us"),
    ("ozz.triage.minimize.replays_per_bug", "replays"),
    ("ozz.triage.bisect.probes_per_bug", "probes"),
    ("ozz.repro.replay.us_per_call", "us"),
    ("ozz.repro.replay.reset_us", "us"),
    ("ozz.repro.replay.setup_us", "us"),
    ("ozz.repro.replay.execute_us", "us"),
    ("ozz.repro.replay.digest_us", "us"),
    ("ozz.campaign.tests_to_find", "MTIs"),
    ("ozz.triage.min_events_p50", "events"),
    ("trace.coverage", "share"),
    ("trace.overhead", "ratio"),
];

/// A workload's result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (MTIs, campaigns or bug triages).
    pub attempted: u64,
    /// Operations a correctness check failed on.
    pub failed: u64,
    /// Why the run is not correct: failed checks and fidelity mismatches.
    pub problems: Vec<String>,
    /// Metric values by name; the tables above give the units.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a failed operation and why.
    pub fn fail(&mut self, why: String) {
        self.fail_n(1, why);
    }

    /// Records `n` failed operations sharing one cause.
    pub fn fail_n(&mut self, n: u64, why: String) {
        self.failed += n;
        self.problems.push(why);
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The metrics of one table, in table order. A per-layer metric the
    /// workload did not exercise reads 0; a missing end-to-end metric, or
    /// a value that is not a finite number, is an error.
    pub fn metrics(
        &self,
        table: &[(&'static str, &'static str)],
        zero_if_missing: bool,
    ) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        table
            .iter()
            .map(|&(name, unit)| {
                let value = match self.values.get(name) {
                    Some(&v) => v,
                    None if zero_if_missing => 0.0,
                    None => return Err(format!("metric {name} was not measured")),
                };
                if !value.is_finite() {
                    return Err(format!("metric {name} is {value}"));
                }
                Ok((name, value, unit))
            })
            .collect()
    }
}

/// The result line: one JSON object, printed last on standard output.
pub fn result_json(outcome: &Outcome, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    )
}

/// A JSON number with every digit Rust's shortest round-trip form has.
fn num(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tables list exactly the metrics `BENCHMARK.json` declares, in
    /// the same order and with the same units.
    #[test]
    fn tables_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let declared = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect(key);
            let block = &json[start..json[start..].find(']').unwrap() + start];
            block
                .split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\"")).unwrap() + f.len() + 2;
                        let rest = &entry[at..];
                        let open = rest.find('"').unwrap() + 1;
                        let close = rest[open..].find('"').unwrap() + open;
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), table(&END_TO_END));
        assert_eq!(declared("per_layer"), table(&PER_LAYER));
    }

    #[test]
    fn result_line_is_json_with_full_digits() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.set("setup_s", 0.8127349);
        o.set("mtis_per_s", 20000.0);
        let m = o.metrics(&END_TO_END[..2], false).unwrap();
        assert_eq!(
            result_json(&o, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127349, \"unit\": \"s\"}, \
             \"mtis_per_s\": {\"value\": 20000.0, \"unit\": \"MTI/s\"}}}"
        );
        assert!(o.metrics(&END_TO_END, false).is_err(), "op_ms_p50 missing");
        assert_eq!(o.metrics(&PER_LAYER, true).unwrap()[0].1, 0.0);
        o.fail("x".into());
        assert!(!o.correct());
        assert!(
            result_json(&o, &m).starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1")
        );
        o.set("setup_s", f64::NAN);
        assert!(o.metrics(&END_TO_END[..1], false).is_err());
    }
}
