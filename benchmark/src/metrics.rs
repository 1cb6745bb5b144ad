//! Named metrics, the statistics they are reduced with, and the record a
//! run leaves behind.

use std::fmt::Write as _;

/// How a metric is obtained, which decides how `compare` treats it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Timed with a wall or CPU clock: compared against a bound.
    Timed,
    /// A deterministic count read from the program's public stats: must
    /// repeat exactly for the same seed.
    Count,
}

impl Kind {
    /// The one-letter tag used in records (`T` / `C`).
    pub fn tag(self) -> &'static str {
        match self {
            Kind::Timed => "T",
            Kind::Count => "C",
        }
    }
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from README.md's tables; `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Timed or counted.
    pub kind: Kind,
}

impl Metric {
    /// A timed metric.
    pub fn timed(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric {
            name,
            value,
            unit,
            kind: Kind::Timed,
        }
    }

    /// A counted metric.
    pub fn count(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric {
            name,
            value,
            unit,
            kind: Kind::Count,
        }
    }
}

/// True if `name` is a legal metric or workload name: starts with a letter
/// or digit, then letters, digits, `_`, `.`, `-`; at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The three quartile cut points of `values`, computed as Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method), so that a
/// spread computed here equals the one the acceptance procedure computes.
///
/// # Panics
///
/// Panics if fewer than two values are given.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Distance between the first and third quartile as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// The `p`-th percentile (0..=100) by linear interpolation between ranks.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Mean of the values between the first and third quartile rank: robust to
/// outliers like a median, but averaging over coarse-grained samples.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "interquartile mean of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let middle = &v[v.len() / 4..v.len() - v.len() / 4];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// The median.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Everything one process run of one workload reports.
#[derive(Debug, Clone)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// True for the traced pass (per-layer metrics).
    pub trace: bool,
    /// Task results checked (one operation = one task in one iteration).
    pub ops_attempted: u64,
    /// Operations that failed.
    pub ops_failed: u64,
    /// The digest every iteration of the run shared.
    pub sim_digest: u64,
    /// Timed iterations.
    pub iterations: u64,
    /// The metrics of the contract, in reporting order.
    pub metrics: Vec<Metric>,
    /// Further values for the record and the table, not part of the
    /// contract line.
    pub extras: Vec<Metric>,
}

fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value must be finite, got {v}");
    format!("{v}")
}

/// `"name": {"value": v, "unit": "u"[, "kind": "T|C"]}, ...` for the lines
/// below.
fn metrics_json<'a>(metrics: impl Iterator<Item = &'a Metric>, with_kind: bool) -> String {
    let members: Vec<String> = metrics
        .map(|m| {
            let kind = if with_kind {
                format!(", \"kind\": \"{}\"", m.kind.tag())
            } else {
                String::new()
            };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"{kind}}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    members.join(", ")
}

impl Record {
    /// The result line of the benchmark contract: exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn contract_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.ops_failed == 0,
            self.ops_attempted,
            self.ops_failed,
            metrics_json(self.metrics.iter(), false)
        )
    }

    /// The full record as one JSON line, the input of `askbench compare`.
    pub fn record_line(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"ops_attempted\": {}, \
             \"ops_failed\": {}, \"sim_digest\": \"{:016x}\", \"iterations\": {}, \
             \"metrics\": {{{}}}}}",
            self.workload,
            self.seed,
            self.trace,
            self.ops_attempted,
            self.ops_failed,
            self.sim_digest,
            self.iterations,
            metrics_json(self.metrics.iter().chain(&self.extras), true)
        )
    }

    /// Every metric by name with its unit, one per line, for people.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in self.metrics.iter().chain(&self.extras) {
            let _ = writeln!(
                out,
                "{:<14} {:<34} {:>18.6} {:<14} {}",
                self.workload,
                m.name,
                m.value,
                m.unit,
                m.kind.tag()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        //   == [3.5, 13.5, 31.0]
        let v = [1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0, 46.0];
        assert_eq!(quartiles(&v), [3.5, 13.5, 31.0]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert!((spread(&v) - 27.5 / 13.5).abs() < 1e-12);
    }

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&[7.0], 66.0), 7.0);
    }

    #[test]
    fn interquartile_mean_drops_the_tails() {
        assert_eq!(
            interquartile_mean(&[100.0, 2.0, 1.0, 3.0, 0.0, 2.0, 1.0, 3.0]),
            2.0
        );
        assert_eq!(interquartile_mean(&[5.0]), 5.0);
        assert_eq!(interquartile_mean(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn name_alphabet() {
        for ok in [
            "tuples_per_s",
            "switch.ingest_ns_per_frame",
            "a-b.c_9",
            "9lives",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".hidden",
            "has space",
            "slash/ed",
            "_lead",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let r = Record {
            workload: "w".into(),
            seed: 1,
            trace: false,
            ops_attempted: 8,
            ops_failed: 0,
            sim_digest: 0xabc,
            iterations: 2,
            metrics: vec![Metric::timed("setup_s", 0.25, "s")],
            extras: vec![Metric::timed("raw.tuples_per_s", 9.0, "tuples/s")],
        };
        assert_eq!(
            r.contract_line(),
            "{\"correct\": true, \"attempted\": 8, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(r
            .record_line()
            .contains("\"sim_digest\": \"0000000000000abc\""));
        assert!(r.record_line().contains("raw.tuples_per_s"));
        assert!(r.table().contains("setup_s") && r.table().contains("raw.tuples_per_s"));
    }
}
