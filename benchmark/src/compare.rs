//! `askbench compare a.json b.json`: two sets of run records side by side.
//!
//! A file holds one record per line, as the runs write them (`cat
//! out/*.e2e.json out/*.layers.json > a.json`); several runs of one
//! workload may be concatenated. Timed metrics are compared by their
//! medians against the contract's bound, and reported as *unresolved*
//! rather than unchanged when side A's own quartile spread exceeds the
//! bound. Counted metrics and the digest must be equal for every seed both
//! sides ran.

use crate::contract::END_TO_END;
use crate::json::{self, Json};
use crate::metrics::{median, spread};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// The values one side holds for one metric of one workload, by seed.
#[derive(Debug, Default, Clone)]
struct Samples {
    by_seed: BTreeMap<u64, Vec<f64>>,
    counted: bool,
}

impl Samples {
    fn all(&self) -> Vec<f64> {
        self.by_seed.values().flatten().copied().collect()
    }
}

/// `(workload, metric)` → samples, plus `(workload, seed)` → digests.
#[derive(Debug, Default)]
struct Side {
    metrics: BTreeMap<(String, String), Samples>,
    digests: BTreeMap<(String, u64), BTreeSet<String>>,
    failed_ops: u64,
}

/// Reads the records of one side; `name` labels error messages.
fn load(name: &str, text: &str) -> Result<Side, String> {
    let mut side = Side::default();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = |what: &str| format!("{name}:{}: {what}", n + 1);
        let record = json::parse(line).map_err(|e| at(&e))?;
        let text_of = |key: &str| {
            record
                .get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| at(key))
        };
        let number_of = |key: &str| {
            record
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| at(key))
        };
        let workload = text_of("workload")?.to_string();
        let seed = number_of("seed")? as u64;
        side.failed_ops += number_of("ops_failed")? as u64;
        side.digests
            .entry((workload.clone(), seed))
            .or_default()
            .insert(text_of("sim_digest")?.to_string());
        let metrics = record
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or_else(|| at("metrics"))?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| at(name))?;
            let samples = side
                .metrics
                .entry((workload.clone(), name.clone()))
                .or_default();
            samples.counted = m.get("kind").and_then(Json::as_str) == Some("C");
            samples.by_seed.entry(seed).or_default().push(value);
        }
    }
    Ok(side)
}

/// Compares the record lines of two sides. Returns the table and whether
/// side B is acceptable: nothing counted differs, nothing timed is worse
/// than its bound, no operation failed.
///
/// # Errors
///
/// Returns the line and field of the first malformed record.
pub fn compare(text_a: &str, text_b: &str) -> Result<(String, bool), String> {
    let (a, b) = (load("A", text_a)?, load("B", text_b)?);
    let mut out = format!(
        "{:<14} {:<34} {:>16} {:>16} {:>9} {:>7} {:>8}  verdict\n",
        "workload", "metric", "A", "B", "delta", "bound", "spreadA"
    );
    let mut ok = a.failed_ops == 0 && b.failed_ops == 0;
    if !ok {
        let _ = writeln!(
            out,
            "failed operations: A {} B {}",
            a.failed_ops, b.failed_ops
        );
    }

    // One digest row per workload: every seed both sides ran must have
    // produced one and the same digest in every run.
    let mut seeds: BTreeMap<&str, (usize, Vec<u64>)> = BTreeMap::new();
    for ((workload, seed), digests_a) in &a.digests {
        if let Some(digests_b) = b.digests.get(&(workload.clone(), *seed)) {
            let (shared, differing) = seeds.entry(workload).or_default();
            *shared += 1;
            if digests_a.len() != 1 || digests_a != digests_b {
                differing.push(*seed);
            }
        }
    }
    for (workload, (shared, differing)) in seeds {
        ok &= differing.is_empty();
        let _ = writeln!(
            out,
            "{workload:<14} {:<34} {:>16} {:>16} {:>9} {:>7} {:>8}  {}",
            "sim_digest",
            format!("{shared} seeds"),
            format!("{shared} seeds"),
            "-",
            "exact",
            "-",
            if differing.is_empty() {
                "identical".to_string()
            } else {
                format!("DIFFERS on seeds {differing:?}")
            }
        );
    }

    for ((workload, name), sa) in &a.metrics {
        let Some(sb) = b.metrics.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let (va, vb) = (sa.all(), sb.all());
        let (ma, mb) = (median(&va), median(&vb));
        let delta = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
        let spread_a = (va.len() >= 2 && ma != 0.0).then(|| spread(&va));
        let contract = END_TO_END.iter().find(|m| m.name == name);
        let (bound, verdict) = if sa.counted {
            // Same seed, same count — on every seed both sides ran.
            let same = sa
                .by_seed
                .iter()
                .filter_map(|(seed, xs)| Some((xs, sb.by_seed.get(seed)?)))
                .all(|(xs, ys)| xs.iter().chain(ys).all(|v| *v == xs[0]));
            ok &= same;
            (
                "exact".to_string(),
                if same { "identical" } else { "DIFFERS" },
            )
        } else if let Some(m) = contract {
            let worse = if m.higher_is_better { -delta } else { delta };
            let verdict = if spread_a.is_some_and(|s| s > m.bound) {
                "unresolved"
            } else if worse > m.bound {
                ok = false;
                "WORSE"
            } else if worse < -m.bound {
                "better"
            } else {
                "within bound"
            };
            (format!("{:.0}%", m.bound * 100.0), verdict)
        } else {
            ("-".to_string(), "layer")
        };
        let _ = writeln!(
            out,
            "{workload:<14} {name:<34} {ma:>16.6} {mb:>16.6} {:>8.2}% {bound:>7} {:>8}  {verdict}",
            delta * 100.0,
            spread_a.map_or("-".to_string(), |s| format!("{:.2}%", s * 100.0)),
        );
    }
    Ok((out, ok))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Metric, Record};

    fn record(seed: u64, tuples_per_s: f64, jct: f64, digest: u64) -> Record {
        Record {
            workload: "absorb_zipf".into(),
            seed,
            trace: false,
            ops_attempted: 4,
            ops_failed: 0,
            sim_digest: digest,
            iterations: 1,
            metrics: vec![
                Metric::timed("tuples_per_s", tuples_per_s, "tuples/s"),
                Metric::count("sim_jct_us", jct, "sim_us"),
            ],
            extras: Vec::new(),
        }
    }

    fn file(records: &[Record]) -> String {
        records.iter().map(|r| r.record_line() + "\n").collect()
    }

    fn row<'a>(table: &'a str, metric: &str) -> &'a str {
        table.lines().find(|l| l.contains(metric)).unwrap()
    }

    #[test]
    fn verdicts() {
        let a = file(&[record(1, 100.0, 7.0, 9), record(1, 101.0, 7.0, 9)]);
        let within = file(&[record(1, 95.0, 7.0, 9)]);
        let worse = file(&[record(1, 60.0, 7.0, 9)]);
        let differs = file(&[record(1, 100.0, 7.5, 8)]);
        let other_seed = file(&[record(2, 100.0, 7.5, 8)]);
        let noisy = file(&[record(1, 100.0, 7.0, 9), record(1, 150.0, 7.0, 9)]);

        let (table, ok) = compare(&a, &within).unwrap();
        assert!(ok, "{table}");
        assert!(row(&table, "tuples_per_s").ends_with("within bound"));
        assert!(row(&table, "sim_jct_us").ends_with("identical"));
        assert!(row(&table, "sim_digest").ends_with("identical"));

        let (table, ok) = compare(&a, &worse).unwrap();
        assert!(!ok);
        assert!(row(&table, "tuples_per_s").ends_with("WORSE"));

        let (table, ok) = compare(&a, &differs).unwrap();
        assert!(!ok);
        assert!(row(&table, "sim_jct_us").ends_with("DIFFERS"));
        assert!(row(&table, "sim_digest").ends_with("DIFFERS on seeds [1]"));

        // Counts are only held equal on seeds both sides ran.
        let (table, ok) = compare(&a, &other_seed).unwrap();
        assert!(ok, "{table}");

        let (table, ok) = compare(&noisy, &worse).unwrap();
        assert!(ok, "an unresolved metric is not a regression: {table}");
        assert!(row(&table, "tuples_per_s").ends_with("unresolved"));

        assert!(compare(&a, "{\"workload\": 3}\n").is_err());
    }
}
