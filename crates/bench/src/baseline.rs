//! `BENCH_baseline.json` — a machine-readable record of how long each
//! benchmark section took, written next to the human-readable report. It is
//! informational: wall clock on the reference box drifts too much between
//! sessions to gate on, so timed comparisons go through `scripts/ab.sh`.
//!
//! The JSON is hand-rolled (the workspace deliberately carries no serde);
//! names are restricted to identifier-ish strings by construction, and the
//! escaper below covers anything else defensively.

use crate::Scale;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Default output file name, written into the current working directory
/// unless overridden with the `ASK_BENCH_BASELINE` environment variable.
pub const BASELINE_FILE: &str = "BENCH_baseline.json";

/// Where the baseline should be written: `$ASK_BENCH_BASELINE` if set,
/// otherwise [`BASELINE_FILE`] in the current directory.
pub fn baseline_path() -> PathBuf {
    std::env::var_os("ASK_BENCH_BASELINE")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(BASELINE_FILE))
}

/// Accumulates named timings and renders/writes the baseline JSON.
#[derive(Debug, Clone)]
pub struct Baseline {
    scale: Scale,
    workers: usize,
    /// `(section name, wall-clock seconds)` in recording order.
    entries: Vec<(String, f64)>,
}

impl Baseline {
    /// Creates an empty baseline for a run at `scale` using `workers`
    /// worker threads (1 for sequential drivers).
    pub fn new(scale: Scale, workers: usize) -> Self {
        Baseline {
            scale,
            workers,
            entries: Vec::new(),
        }
    }

    /// Records one section's wall-clock time.
    pub fn record(&mut self, name: &str, elapsed: Duration) {
        self.entries.push((name.to_string(), elapsed.as_secs_f64()));
    }

    /// Renders the JSON document.
    pub fn render(&self) -> String {
        let total: f64 = self.entries.iter().map(|(_, seconds)| seconds).sum();
        let mut out = String::from("{\n");
        let _ = writeln!(
            out,
            "  \"scale\": \"{}\",",
            match self.scale {
                Scale::Quick => "quick",
                Scale::Full => "full",
            }
        );
        let _ = writeln!(out, "  \"workers\": {},", self.workers);
        let _ = writeln!(out, "  \"total_s\": {:.6},", total);
        out.push_str("  \"sections\": [\n");
        for (i, (name, seconds)) in self.entries.iter().enumerate() {
            let comma = if i + 1 < self.entries.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"seconds\": {:.6}}}{}",
                escape(name),
                seconds,
                comma
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the JSON to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.render())
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_well_formed_json() {
        let mut b = Baseline::new(Scale::Quick, 4);
        b.record("fig3", Duration::from_millis(1500));
        b.record("fig7", Duration::from_millis(250));
        let s = b.render();
        assert!(s.contains("\"scale\": \"quick\""));
        assert!(s.contains("\"workers\": 4"));
        assert!(s.contains("{\"name\": \"fig3\", \"seconds\": 1.500000},"));
        assert!(s.contains("{\"name\": \"fig7\", \"seconds\": 0.250000}\n"));
        assert!(s.contains("\"total_s\": 1.750000"));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }

    #[test]
    fn escapes_hostile_names() {
        let mut b = Baseline::new(Scale::Full, 1);
        b.record("a\"b\\c\nd", Duration::from_secs(1));
        let s = b.render();
        assert!(s.contains("a\\\"b\\\\c\\nd"));
    }
}
