//! The three end-to-end invariants every conformance run must satisfy.
//! PISA legality needs no check here: an illegal register access panics in
//! `ask_pisa::pipeline::Pass::access`, so every run that returns was legal.

use ask::service::AskService;
use ask_simnet::frame::NodeId;
use ask_wire::key::Key;
use ask_wire::packet::TaskId;
use std::collections::HashMap;

/// How many offending keys a conservation violation message lists.
const DIFF_SAMPLE: usize = 4;

/// Verdicts from one invariant pass over a finished (or stalled) service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantReport {
    /// One entry per violated invariant; empty means the run conformed.
    pub violations: Vec<String>,
}

impl InvariantReport {
    /// True when every invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Checks all three invariants against a service that has finished (or given
/// up on) `task`, comparing the delivered aggregate to the oracle's
/// `expected` map.
///
/// `crashed` relaxes the fetch-accounting equality: a crashed switch may
/// have harvested tuples into fetch replies that died with the old epoch,
/// so hosts can legitimately merge fewer than the switch counted — but
/// never more.
pub fn check(
    service: &AskService,
    task: TaskId,
    receiver: NodeId,
    expected: &HashMap<Key, u32>,
    crashed: bool,
) -> InvariantReport {
    let mut violations = Vec::new();
    check_conservation(service, task, receiver, expected, &mut violations);
    check_no_duplicate_absorption(service, &mut violations);
    check_window_safety(service, task, receiver, crashed, &mut violations);
    InvariantReport { violations }
}

/// Invariant 1: the delivered aggregate equals the oracle's, per key.
fn check_conservation(
    service: &AskService,
    task: TaskId,
    receiver: NodeId,
    expected: &HashMap<Key, u32>,
    violations: &mut Vec<String>,
) {
    let Some(got) = service.result(task, receiver) else {
        violations.push("conservation: task produced no result".to_string());
        return;
    };
    if &got == expected {
        return;
    }
    // Collect a deterministic sample of the differing keys, worst first
    // would need magnitudes — key order keeps repro output stable instead.
    let mut diffs: Vec<String> = expected
        .iter()
        .filter(|(k, v)| got.get(*k) != Some(*v))
        .map(|(k, v)| {
            format!(
                "key {} expected {} got {}",
                fmt_key(k),
                v,
                got.get(k).map_or("missing".to_string(), |g| g.to_string())
            )
        })
        .chain(
            got.iter()
                .filter(|(k, _)| !expected.contains_key(*k))
                .map(|(k, v)| format!("key {} expected absent got {}", fmt_key(k), v)),
        )
        .collect();
    diffs.sort();
    let shown = diffs.len().min(DIFF_SAMPLE);
    violations.push(format!(
        "conservation: {} of {} expected keys wrong (e.g. {})",
        diffs.len(),
        expected.len(),
        diffs[..shown].join("; "),
    ));
}

/// Invariant 2: no switch's absorption audit saw a sequence number twice.
fn check_no_duplicate_absorption(service: &AskService, violations: &mut Vec<String>) {
    let dups: u64 = service
        .switches()
        .map(|sw| sw.engine().duplicate_absorptions())
        .sum();
    if dups != 0 {
        violations.push(format!(
            "duplicate absorption: {dups} sequence number(s) aggregated more than once"
        ));
    }
}

/// Invariant 3: no channel ever exceeded the window, everything drained,
/// and no fetched tuple was lost between switch and receiver.
fn check_window_safety(
    service: &AskService,
    task: TaskId,
    receiver: NodeId,
    crashed: bool,
    violations: &mut Vec<String>,
) {
    let mut fetched_by_hosts = 0u64;
    for &host in service.hosts() {
        let daemon = service.daemon(host);
        let w = daemon.window_limit();
        for snap in daemon.channel_snapshots() {
            if snap.peak_in_flight > w {
                violations.push(format!(
                    "window safety: host {host} channel {} peaked at {} in-flight (W = {w})",
                    snap.channel.0, snap.peak_in_flight,
                ));
            }
            if snap.in_flight != 0 || snap.queued != 0 || snap.outstanding != 0 {
                violations.push(format!(
                    "window safety: host {host} channel {} did not drain \
                     (in_flight {} queued {} outstanding {})",
                    snap.channel.0, snap.in_flight, snap.queued, snap.outstanding,
                ));
            }
        }
        fetched_by_hosts += service.host_stats(host).tuples_fetched;
    }
    if service.daemon(receiver).fetch_pending(task) {
        violations.push("window safety: fetch still pending at end of run".to_string());
    }
    let fetched_by_switch = service.switch_stats(task).map_or(0, |s| s.tuples_fetched);
    // With a crash, fetch replies harvested by the dead epoch may never
    // reach a host; without one, the counts must balance exactly.
    let lost_fetch = if crashed {
        fetched_by_hosts > fetched_by_switch
    } else {
        fetched_by_hosts != fetched_by_switch
    };
    if lost_fetch {
        violations.push(format!(
            "window safety: switch harvested {fetched_by_switch} tuple(s) by fetch \
             but hosts merged {fetched_by_hosts} — fetch/shadow-copy slot lost"
        ));
    }
}

fn fmt_key(k: &Key) -> String {
    match core::str::from_utf8(k.as_bytes()) {
        Ok(s) if s.chars().all(|c| c.is_ascii_graphic()) => format!("{s:?}"),
        _ => k
            .as_bytes()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect::<String>(),
    }
}
