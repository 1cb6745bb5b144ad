//! One process run of one workload: set-up, the closed measuring loop, and
//! the reduction of what it saw to named metrics.
//!
//! Closed loop, one client: the next iteration starts when the previous one
//! has completed and been verified. Load generation and the system under
//! test share one thread by construction.

use crate::alloc;
use crate::calibrate::Calibrator;
use crate::e2e::{run_iteration, Counters, Iteration, Reference};
use crate::layers;
use crate::metrics::{interquartile_mean, median, percentile, Metric, Record};
use crate::trace::Tracer;
use crate::workloads::{Inputs, Workload, TASKS};
use ask::service::PhaseTiming;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Times the set-up is repeated in one run; `setup_s` is their median.
const SETUPS: usize = 5;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Workload seed: the streams and the simulator's fault draws.
    pub seed: u64,
    /// Length of the measuring loop.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Where the record and the trace file go; nothing is written if unset.
    pub out_dir: Option<PathBuf>,
}

/// One set-up: everything between process start and the first timed
/// iteration, i.e. stream generation, reference aggregation and one
/// untimed warm-up iteration.
struct Setup {
    inputs: Inputs,
    reference: Reference,
    warm_up: Iteration,
    gen: Duration,
    wall: Duration,
}

fn set_up(workload: &Workload, seed: u64) -> Setup {
    let start = Instant::now();
    let inputs = workload.generate(seed);
    let gen = start.elapsed();
    let reference = Reference::of(&inputs);
    let warm_up = run_iteration(
        workload,
        inputs.clone(),
        seed,
        false,
        &mut Tracer::disabled(),
    );
    Setup {
        inputs,
        reference,
        warm_up,
        gen,
        wall: start.elapsed(),
    }
}

/// Process CPU time, user plus system, of all threads including exited
/// ones: fields 14 and 15 of `/proc/self/stat`, in ticks of 1/100 s.
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
    // The command name (field 2) may contain spaces; fields count from
    // the closing parenthesis.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("stat has utime and stime")
    };
    (tick() + tick()) / 100.0
}

/// Peak resident set size in MiB: `VmHWM` of `/proc/self/status`.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status has VmHWM in kB");
    kib / 1024.0
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Operations attempted and failed, and the digest all iterations share.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    digest: Option<u64>,
}

impl Tally {
    /// Verifies one iteration: every task against the reference, and the
    /// iteration's digest against the first one seen.
    fn check(&mut self, iteration: &Iteration, reference: &Reference) {
        let verdict = iteration.check(reference);
        let digest = *self.digest.get_or_insert(verdict.sim_digest);
        self.attempted += TASKS as u64;
        self.failed += if digest == verdict.sim_digest {
            verdict.failed_ops
        } else {
            TASKS as u64
        };
    }
}

/// Runs the workload and returns its record.
///
/// # Errors
///
/// Returns a message if the workload is unknown or an output file cannot
/// be written.
pub fn run(args: &RunArgs) -> Result<Record, String> {
    let workload = Workload::by_name(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let tuples = workload.tuples() as f64;
    let mut tally = Tally::default();

    let mut calibrator = Calibrator::default();
    let mut setup_s = Vec::new();
    let mut gen_ns = Vec::new();
    let mut last = None;
    calibrator.sample();
    for _ in 0..SETUPS {
        // Free the previous set-up first, so that peak memory is that of
        // one set-up plus one iteration, as in a run that sets up once.
        drop(last.take());
        let setup = set_up(&workload, args.seed);
        tally.check(&setup.warm_up, &setup.reference);
        setup_s.push(setup.wall.as_secs_f64());
        gen_ns.push(setup.gen.as_nanos() as f64);
        last = Some(setup);
        calibrator.sample();
    }
    let setup_slowdown = calibrator.take_slowdown();
    let Setup {
        inputs,
        reference,
        warm_up,
        ..
    } = last.expect("SETUPS is positive");
    let counters = warm_up.counters;

    let mut tracer = if args.trace {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    let mut metrics = Vec::new();
    let mut extras = Vec::new();
    if args.trace {
        metrics.push(Metric::timed(
            "workloads.gen_ns_per_tuple",
            median(&gen_ns) / tuples,
            "ns/tuple",
        ));
        metrics.extend(layers::drive(
            &workload,
            &inputs,
            counters.events,
            &mut tracer,
        ));
    }

    // The measuring loop. In the traced pass every other iteration runs
    // with the service's phase timing on and its steps recorded as spans;
    // the plain ones in between are the baseline the overhead is taken
    // against.
    let mut plain_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut cpu_s = Vec::new();
    let mut phases = PhaseTiming::default();
    let mut allocs = (Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    calibrator.sample();
    let mut off = Tracer::disabled();
    for i in 0u32.. {
        let traced = args.trace && i % 2 == 1;
        tracer.set_iteration(Some(i));
        let tracer = if traced { &mut tracer } else { &mut off };
        tracer.span("iteration", |tracer| {
            let input = inputs.clone();
            let (cpu_before, allocs_before) = (cpu_seconds(), alloc::counts());
            let iteration = run_iteration(&workload, input, args.seed, traced, tracer);
            let (cpu_after, allocs_after) = (cpu_seconds(), alloc::counts());
            calibrator.sample();
            tracer.span("verify", |_| tally.check(&iteration, &reference));
            if traced {
                traced_ms.push(ms(iteration.wall));
                phases.absorb(&iteration.phases.expect("phase timing was on"));
            } else {
                plain_ms.push(ms(iteration.wall));
                cpu_s.push(cpu_after - cpu_before);
                allocs.0.push((allocs_after.0 - allocs_before.0) as f64);
                allocs.1.push((allocs_after.1 - allocs_before.1) as f64);
            }
        });
        if Instant::now() >= deadline && (!args.trace || !traced_ms.is_empty()) {
            break;
        }
    }
    let wall_ms = median(&plain_ms);
    let slowdown = calibrator.take_slowdown();

    if args.trace {
        metrics.extend(count_metrics(&counters, tuples));
        let total = phases.total_ns.max(1) as f64;
        for (name, ns) in [
            ("service.packetize_share", phases.packetize_ns),
            ("service.switch_share", phases.switch_ns),
            ("service.host_share", phases.host_ns),
            ("service.drain_share", phases.drain_ns),
        ] {
            metrics.push(Metric::timed(name, ns as f64 / total, "ratio"));
        }
        metrics.extend([
            Metric::timed(
                "service.trace_overhead_pct",
                (median(&traced_ms) / wall_ms - 1.0) * 100.0,
                "%",
            ),
            Metric::count(
                "service.allocs_per_tuple",
                median(&allocs.0) / tuples,
                "allocs/tuple",
            ),
            Metric::count(
                "service.alloc_bytes_per_tuple",
                median(&allocs.1) / tuples,
                "bytes/tuple",
            ),
            Metric::timed("service.iter_wall_ms_p50", wall_ms, "ms"),
            Metric::timed(
                "service.iter_wall_ms_p66",
                percentile(&plain_ms, 66.0),
                "ms",
            ),
            Metric::timed("service.iter_count", plain_ms.len() as f64, "count"),
            Metric::timed(
                "simnet.events_per_s",
                counters.events as f64 / (wall_ms / 1e3),
                "events/s",
            ),
            Metric::timed("calibrate.slowdown", slowdown, "ratio"),
        ]);
    } else {
        // Timed end-to-end metrics are reported at the reference machine's
        // speed (see `calibrate`); the extras let a reader undo that.
        extras.extend([
            Metric::timed("raw.tuples_per_s", tuples / (wall_ms / 1e3), "tuples/s"),
            Metric::timed("calibrate.slowdown", slowdown, "ratio"),
        ]);
        metrics.extend([
            Metric::timed(
                "tuples_per_s",
                tuples / (wall_ms / 1e3 / slowdown),
                "tuples/s",
            ),
            // Per-iteration CPU time comes in 10 ms ticks, too coarse for a
            // median and, summed, at the mercy of one slow iteration; the
            // mean of the middle half is neither.
            Metric::timed(
                "cpu_s_per_mtuple",
                interquartile_mean(&cpu_s) / slowdown / tuples * 1e6,
                "s/Mtuple",
            ),
            Metric::count("sim_jct_us", counters.sim_jct_ns as f64 / 1e3, "sim_us"),
            Metric::count(
                "sim_goodput_gbps",
                counters.sim_goodput_gbps(),
                "sim_Gbit/s",
            ),
            Metric::count(
                "switch_absorption",
                counters.switch.tuple_aggregation_ratio(),
                "ratio",
            ),
            Metric::timed("peak_rss_mb", peak_rss_mib(), "MiB"),
            Metric::timed("setup_s", median(&setup_s) / setup_slowdown, "s"),
        ]);
    }

    let record = Record {
        workload: workload.name.to_string(),
        seed: args.seed,
        trace: args.trace,
        ops_attempted: tally.attempted,
        ops_failed: tally.failed,
        sim_digest: tally.digest.expect("at least one iteration ran"),
        iterations: plain_ms.len() as u64,
        metrics,
        extras,
    };
    if let Some(dir) = &args.out_dir {
        let write = |file: String, text: String| {
            let path = dir.join(file);
            std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
        };
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let pass = if args.trace { "layers" } else { "e2e" };
        write(
            format!("{}.{pass}.json", workload.name),
            record.record_line() + "\n",
        )?;
        if args.trace {
            write(
                format!("{}.trace.json", workload.name),
                tracer.to_json(workload.name, args.seed),
            )?;
        }
    }
    Ok(record)
}

/// The deterministic per-layer counts of one iteration, normalised per
/// input tuple, per frame or per thousand packets.
fn count_metrics(c: &Counters, tuples: f64) -> Vec<Metric> {
    let per_kpkt = |n: u64, packets: u64| n as f64 * 1e3 / packets.max(1) as f64;
    let share = |n: u64, of: u64| n as f64 / of.max(1) as f64;
    let (s, r, tx) = (&c.switch, &c.receiver, &c.senders);
    let data_frames = s.data_packets + s.duplicates_detected + s.stale_dropped;
    vec![
        Metric::count(
            "switch.passes_per_frame",
            share(c.passes, data_frames),
            "passes/frame",
        ),
        Metric::count(
            "switch.pkt_full_absorb_ratio",
            share(s.packets_fully_aggregated, s.data_packets),
            "ratio",
        ),
        Metric::count(
            "switch.dup_detected_per_kpkt",
            per_kpkt(s.duplicates_detected, s.data_packets),
            "1/kpkt",
        ),
        Metric::count("switch.stale_dropped", s.stale_dropped as f64, "count"),
        Metric::count("switch.swaps", s.swaps as f64, "count"),
        Metric::count("pisa.violations", c.violations as f64, "count"),
        Metric::count(
            "host.residual_tuple_share",
            r.tuples_host_aggregated as f64 / tuples,
            "ratio",
        ),
        Metric::count(
            "host.retx_per_kpkt",
            per_kpkt(tx.retransmissions, tx.packets_sent),
            "1/kpkt",
        ),
        Metric::count(
            "host.dup_dropped_per_kpkt",
            per_kpkt(r.duplicates_dropped, r.packets_received),
            "1/kpkt",
        ),
        Metric::count(
            "host.view_fallback_share",
            share(
                r.host_view_fallbacks,
                r.host_pure_view + r.host_view_fallbacks,
            ),
            "ratio",
        ),
        Metric::count(
            "host.pool_miss_share",
            share(
                r.pool_misses + tx.pool_misses,
                r.pool_hits + r.pool_misses + tx.pool_hits + tx.pool_misses,
            ),
            "ratio",
        ),
        Metric::count(
            "simnet.events_per_tuple",
            c.events as f64 / tuples,
            "events/tuple",
        ),
        Metric::count(
            "simnet.frames_per_tuple",
            c.links.frames_sent as f64 / tuples,
            "frames/tuple",
        ),
        Metric::count(
            "simnet.wire_bytes_per_tuple",
            c.links.bytes_sent as f64 / tuples,
            "bytes/tuple",
        ),
        Metric::count(
            "simnet.frames_dropped",
            c.links.frames_dropped as f64,
            "count",
        ),
    ]
}
