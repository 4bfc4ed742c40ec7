//! One invocation of the benchmark: set-up, warm-up, repeated measured
//! stretches, oracles, and the report.
//!
//! `--trace 0` measures the end-to-end metrics with every metrics registry
//! disabled. `--trace 1` runs the same fixed amount of work twice, once
//! untraced and once with `MetricsRegistry::new()` and benchmark-side spans,
//! and reports the per-layer metrics, the self time of each layer, the
//! unattributed residual and the tracing overhead.

use crate::stats::{
    peak_rss_mib, percentile, probe_cpu_ns, process_cpu_ns, quartiles, scale_cpu, Fingerprint,
    HostCpu, Ratio, PROBE_REF_NS,
};
use crate::trace::Tracer;
use crate::world::{Failures, Recorder, Stop, Workload, World, DIGEST_PASSES, SHARDS, WORKERS};
use oda_telemetry::metrics::MetricsSnapshot;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups per end-to-end run; `setup_s` is their median. All but the last
/// also replay the start of the loop for the run-digest oracle.
pub const SETUP_REPEATS: usize = 3;
/// Measured stretches per end-to-end run.
pub const REPS: usize = 15;
/// Reopens of the pre-filled archive after each measured stretch;
/// `recovery_s` is the median of them all.
pub const REOPENS_PER_GAP: usize = 2;
/// Reopens before the first stretch, not counted.
pub const REOPEN_WARMUP: usize = 3;
/// Latency limit on `query_p99_ms` for the sustained-rate ladder.
pub const QUERY_P99_LIMIT_MS: f64 = 25.0;
/// Offered rates of the ladder, as multiples of the workload's own rate.
pub const LADDER: [f64; 4] = [0.5, 1.0, 2.0, 4.0];
/// Capabilities whose pass-time medians are reported per layer: the three
/// largest on the reference host.
pub const TOP_CELLS: [&str; 3] = [
    "software-anomaly-detector",
    "node-anomaly-detector",
    "hardware-forecaster",
];

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad seconds {value:?}"))?;
                    if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                        return Err(format!("seconds out of range: {s}"));
                    }
                    seconds = Some(s)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

/// One metric as printed: its value, the spread of its per-stretch values,
/// and how many samples it rests on.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: Option<f64>,
    pub quartiles: Option<(f64, f64)>,
    pub samples: u64,
    pub note: String,
    /// Printed in the report but left out of the JSON line.
    pub report_only: bool,
}

impl Metric {
    fn new(name: &str, unit: &'static str, value: Option<f64>, samples: u64) -> Self {
        Metric {
            name: name.to_string(),
            unit,
            value,
            quartiles: None,
            samples,
            note: String::new(),
            report_only: false,
        }
    }

    fn report_only(mut self) -> Self {
        self.report_only = true;
        self
    }

    fn spread(mut self, per_rep: &[f64]) -> Self {
        self.quartiles = quartiles(per_rep).map(|(q1, _, q3)| (q1, q3));
        self
    }

    fn ratio(name: &str, r: Ratio) -> Self {
        let mut m = Metric::new(name, "ratio", r.value(), r.den as u64);
        m.note = r.to_string();
        m
    }

    fn line(&self) -> String {
        let value = self.value.map_or("n/a".to_string(), |v| format!("{v:.6}"));
        let spread = self
            .quartiles
            .map_or(String::new(), |(a, b)| format!("  q1={a:.6} q3={b:.6}"));
        let mut note = if self.note.is_empty() {
            String::new()
        } else {
            format!("  [{}]", self.note)
        };
        if self.report_only {
            note.push_str("  (report only)");
        }
        format!(
            "  {:<34} {:>16} {:<10} n={}{}{}",
            self.name, value, self.unit, self.samples, spread, note
        )
    }
}

pub struct Outcome {
    pub lines: Vec<String>,
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failures: Failures,
}

impl Outcome {
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !m.report_only)
            .filter_map(|m| {
                m.value.map(|v| {
                    format!(
                        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                        m.name,
                        json_number(v),
                        m.unit
                    )
                })
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.total() == 0,
            self.attempted,
            self.failures.total(),
            metrics.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn ms(ns: Option<u64>) -> Option<f64> {
    ns.map(|v| v as f64 / 1e6)
}

fn median(v: &[f64]) -> Option<f64> {
    quartiles(v).map(|(_, m, _)| m)
}

/// The geometric mean over tenant classes of each class's median, in
/// milliseconds, so the value does not jump with where a pooled median
/// falls between classes, and a change to any one class moves it by the
/// same share whatever that class costs.
fn class_p50_ms(classes: &BTreeMap<&'static str, Vec<u64>>) -> Option<f64> {
    let logs: Vec<f64> = classes
        .values()
        .filter_map(|ns| ms(percentile(ns, 0.5)))
        .map(f64::ln)
        .collect();
    (!logs.is_empty()).then(|| (logs.iter().sum::<f64>() / logs.len() as f64).exp())
}

fn pct_ms(v: &[u64], q: f64) -> Option<f64> {
    ms(percentile(v, q))
}

/// A loop metric of one recorder and the wall time it covers.
type LoopValue = fn(&Recorder, Duration) -> Option<f64>;

/// The end-to-end metrics every workload reports, except set-up,
/// recovery and memory. Each value is taken over all measured stretches
/// together; the quartiles are those of the per-stretch values, and `n` is
/// the sample count.
///
/// The gated ones are process CPU time of every thread of the program
/// (main loop, shards, runtime workers), scaled to the reference speed by
/// the speed probe run just before each operation. Their wall-clock
/// counterparts are printed as well, but not gated: on a shared 2-vCPU
/// host their run-to-run spread is wider than any bound `BENCHMARK.json`
/// may set (see README).
fn loop_metrics(reps: &[Recorder], walls: &[Duration]) -> Vec<Metric> {
    let mut pooled = Recorder::default();
    for r in reps {
        pooled.absorb(r);
    }
    let wall: Duration = walls.iter().sum();
    let metric = |name: &str, unit: &'static str, f: LoopValue, n: u64| {
        let per: Vec<f64> = reps
            .iter()
            .zip(walls)
            .filter_map(|(r, w)| f(r, *w))
            .collect();
        Metric::new(name, unit, f(&pooled, wall), n).spread(&per)
    };
    let acks = pooled.ack_ns.len() as u64;
    let passes = pooled.pass_ns.len() as u64;
    let queries = pooled.queries();
    let stretches = reps.len() as u64;
    vec![
        metric(
            "readings_per_cpu_s",
            "readings/cpu_s",
            |r, _| Ratio::new(r.readings_acked as f64, r.loop_cpu_ns as f64 / 1e9).value(),
            stretches,
        ),
        metric(
            "ingest_ack_cpu_p50_ms",
            "ms",
            |r, _| pct_ms(&r.ack_cpu_ns, 0.5),
            acks,
        ),
        metric(
            "pass_cpu_p50_ms",
            "ms",
            |r, _| pct_ms(&r.pass_cpu_ns, 0.5),
            passes,
        ),
        metric(
            "query_cpu_p50_ms",
            "ms",
            |r, _| class_p50_ms(&r.tenant_cpu_ns),
            queries,
        ),
        metric(
            "readings_per_s",
            "readings/s",
            |r, w| {
                Ratio::new(
                    r.readings_acked as f64,
                    w.as_secs_f64() - r.oracle_ns as f64 / 1e9,
                )
                .value()
            },
            stretches,
        )
        .report_only(),
        metric(
            "ingest_ack_p50_ms",
            "ms",
            |r, _| pct_ms(&r.ack_ns, 0.5),
            acks,
        )
        .report_only(),
        metric(
            "ingest_ack_p99_ms",
            "ms",
            |r, _| pct_ms(&r.ack_ns, 0.99),
            acks,
        )
        .report_only(),
        metric("pass_p50_ms", "ms", |r, _| pct_ms(&r.pass_ns, 0.5), passes).report_only(),
        metric("pass_p95_ms", "ms", |r, _| pct_ms(&r.pass_ns, 0.95), passes).report_only(),
        metric(
            "query_p50_ms",
            "ms",
            |r, _| class_p50_ms(&r.tenant_ns),
            queries,
        )
        .report_only(),
        metric(
            "query_p99_ms",
            "ms",
            |r, _| pct_ms(&r.query_ns, 0.99),
            queries,
        )
        .report_only(),
    ]
}

fn header(args: &Args, lines: &mut Vec<String>) -> Fingerprint {
    let fp = Fingerprint::new(SHARDS, WORKERS);
    lines.push(format!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    lines.push(format!("host: {fp}"));
    for flag in fp.oversubscribed() {
        lines.push(format!("FLAG oversubscribed: {flag}"));
    }
    fp
}

/// Runs the oracles that need the whole run and folds their failures in.
fn close_out(world: &mut World, lines: &mut Vec<String>) {
    world.check_ledgers();
    world.check_accepted();
    lines.push(format!(
        "oracles: {} readings handed, {} held durably",
        world.handed,
        world.durable_readings()
    ));
}

pub fn run(args: &Args, run_dir: &Path) -> Outcome {
    if args.trace {
        traced(args, run_dir)
    } else {
        end_to_end(args, run_dir)
    }
}

fn end_to_end(args: &Args, run_dir: &Path) -> Outcome {
    let mut lines = Vec::new();
    header(args, &mut lines);
    let w = args.workload;
    let mix = w.mix();
    let mut failures = Failures::default();
    let mut attempted = 0u64;

    // Set-up, repeated; the first repeats replay the start of the loop.
    let replay_samples = DIGEST_PASSES * mix.pass_every_samples;
    let mut setup_s = Vec::new();
    let mut setup_wall_s = Vec::new();
    let mut digests = Vec::new();
    let mut kept = None;
    let mut rss_setup = None;
    for r in 0..SETUP_REPEATS {
        // Set-up is scaled by the mean of a speed probe before and after.
        let before = probe_cpu_ns();
        let cpu0 = process_cpu_ns();
        let t0 = Instant::now();
        let mut world = World::build(w, args.seed, false, run_dir);
        setup_wall_s.push(t0.elapsed().as_secs_f64());
        let cpu_ns = process_cpu_ns().saturating_sub(cpu0);
        let probe_ns = (before + probe_cpu_ns()) / 2;
        setup_s.push(scale_cpu(cpu_ns, probe_ns) as f64 / 1e9);
        if r + 1 < SETUP_REPEATS {
            world.start_server();
            let mut rec = Recorder::default();
            // Replays only check the digest, so requests go back to back.
            world.run_at(
                f64::INFINITY,
                Stop::after_samples(replay_samples),
                &mut rec,
                None,
            );
            digests.push(world.run_digest);
            if r == 0 {
                // Peak memory after the set-up and a fixed stretch of the
                // loop (server, shards, passes, result cache), before
                // anything else has run in the process: fixed work, so a
                // faster loop is not charged for doing more of it.
                rss_setup = peak_rss_mib();
            }
            attempted += rec.attempted();
            failures.add(&rec.failures);
            failures.add(&world.failures);
        } else {
            kept = Some(world);
        }
    }
    let mut world = kept.expect("at least one set-up");
    lines.push(format!("flush policy: {}", world.flush_policy()));

    // Recovery is timed on a copy of the pre-filled archive, reopened
    // between the measured stretches so that its samples spread over the
    // run. The first reopens of a process run slower while the allocator
    // grows its heap, so they are not counted; they also check the digest.
    let snapshot = world.snapshot_archive(run_dir);
    let mut reopen_s = Vec::new();
    let mut reopen = |n: usize, keep: bool, failures: &mut Failures| {
        for _ in 0..n {
            let (wall, ok) = snapshot.reopen(!keep);
            if !ok {
                failures.recovery += 1;
            }
            if keep {
                reopen_s.push(wall.as_secs_f64());
            }
        }
    };
    reopen(REOPEN_WARMUP, false, &mut failures);
    world.start_server();

    // Warm-up, then the measured stretches.
    let warm = Duration::from_secs_f64((args.seconds * 0.1).max(0.3));
    let mut warm_rec = Recorder::default();
    world.run(Stop::at(Instant::now() + warm), &mut warm_rec, None);
    let rep_len = Duration::from_secs_f64(args.seconds * 0.9 / REPS as f64);
    let mut reps = Vec::new();
    let mut walls = Vec::new();
    let mut steal = Vec::new();
    for _ in 0..REPS {
        let mut rec = Recorder::default();
        let cpu0 = HostCpu::now();
        let t0 = Instant::now();
        world.run(Stop::at(t0 + rep_len), &mut rec, None);
        walls.push(t0.elapsed());
        if let (Some(a), Some(b)) = (cpu0, HostCpu::now()) {
            steal.push(a.steal_since(b));
        }
        reps.push(rec);
        reopen(REOPENS_PER_GAP, true, &mut failures);
    }
    // Other guests on a shared host take CPU time in phases; the wall-clock
    // figures of a stretch that lost much of it run slow.
    lines.push(format!(
        "host CPU stolen by other guests, per stretch: {}",
        steal
            .iter()
            .map(|r| r.value().map_or("n/a".to_string(), |v| format!("{v:.3}")))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    drop(snapshot);
    attempted += (REOPEN_WARMUP + REPS * REOPENS_PER_GAP) as u64;
    let mut pooled = Recorder::default();
    for r in std::iter::once(&warm_rec).chain(&reps) {
        attempted += r.attempted();
        failures.add(&r.failures);
    }
    for r in &reps {
        pooled.absorb(r);
    }

    if w == Workload::QueryMix {
        let rung = Duration::from_secs_f64((args.seconds / 40.0).clamp(0.1, 0.5));
        ladder(&mut world, rung, &mut lines, &mut attempted, &mut failures);
        let late_p99 = ms(percentile(&pooled.lateness_ns, 0.99));
        let late_max = ms(pooled.lateness_ns.iter().copied().max());
        lines.push(format!(
            "open loop: offered {} q/s, {} requests, generator lateness p99={:.3} ms max={:.3} ms",
            mix.open_rate_qps,
            pooled.queries(),
            late_p99.unwrap_or(0.0),
            late_max.unwrap_or(0.0)
        ));
    }

    // Same seed, same run digest: both replays and the measured run.
    digests.push(world.run_digest);
    if world.passes < DIGEST_PASSES || digests.windows(2).any(|d| d[0] != d[1]) {
        failures.replay += 1;
    }
    lines.push(format!(
        "run digest over the first {DIGEST_PASSES} passes: {:016x} ({} set-up replays agree: {})",
        world.run_digest,
        SETUP_REPEATS - 1,
        failures.replay == 0
    ));

    close_out(&mut world, &mut lines);
    let bytes = world.archive_bytes();
    let readings = world.durable_readings();
    let wall = world.reopen();
    attempted += 1;
    lines.push(format!(
        "final reopen of the whole archive: {:.3} ms for {readings} readings; it holds {bytes} bytes, {} of 16 B per reading",
        wall.as_secs_f64() * 1e3,
        Ratio::new(bytes as f64, readings as f64 * 16.0)
    ));
    failures.add(&world.failures);
    drop(world);

    let mut metrics = vec![
        Metric::new("setup_s", "s", median(&setup_s), setup_s.len() as u64).spread(&setup_s),
        Metric::new(
            "setup_wall_s",
            "s",
            median(&setup_wall_s),
            setup_wall_s.len() as u64,
        )
        .spread(&setup_wall_s)
        .report_only(),
    ];
    metrics.extend(loop_metrics(&reps, &walls));
    metrics.push(
        Metric::new("recovery_s", "s", median(&reopen_s), reopen_s.len() as u64)
            .spread(&reopen_s)
            .report_only(),
    );
    metrics.push(Metric::new("peak_rss_mib", "MiB", rss_setup, 1));
    lines.push(format!(
        "peak RSS at the end of the run: {:.1} MiB; {} responses checked against direct execution",
        peak_rss_mib().unwrap_or(0.0),
        pooled.verified
    ));

    let error = Ratio::new(failures.total() as f64, attempted as f64);
    lines.push(format!("error_ratio = {error}  ({})", failures.describe()));
    lines.push(format!(
        "cache: {}",
        Ratio::new(pooled.cache_hits as f64, pooled.cache_lookups as f64)
    ));
    lines.push(format!(
        "query latency profile: {}",
        profile(&pooled.query_ns)
    ));
    lines.push(format!(
        "query round trip from sending: {}",
        profile(&pooled.service_ns)
    ));
    lines.push(format!(
        "generator lateness: {}",
        profile(&pooled.lateness_ns)
    ));
    for (tenant, ns) in &pooled.tenant_ns {
        lines.push(format!("  tenant {tenant}: {}", profile(ns)));
    }
    lines.push(format!(
        "speed probe CPU (reference {:.3} ms): {}",
        PROBE_REF_NS as f64 / 1e6,
        profile(&pooled.probe_ns)
    ));
    lines.push(format!("ingest ack profile: {}", profile(&pooled.ack_ns)));
    lines.push(format!("pass profile: {}", profile(&pooled.pass_ns)));
    lines.push(format!(
        "ingest ack CPU profile: {}",
        profile(&pooled.ack_cpu_ns)
    ));
    lines.push(format!(
        "pass CPU profile: {}",
        profile(&pooled.pass_cpu_ns)
    ));
    for (tenant, ns) in &pooled.tenant_cpu_ns {
        lines.push(format!("  tenant {tenant} CPU: {}", profile(ns)));
    }
    lines.push(
        "end-to-end metrics (over all stretches, or median of repeats; q1/q3 of the per-stretch or per-repeat values):"
            .to_string(),
    );
    lines.extend(metrics.iter().map(Metric::line));
    Outcome {
        lines,
        metrics,
        attempted,
        failures,
    }
}

/// The highest offered rate, from a short fixed ladder, at which the p99
/// stays under the limit and the backlog does not grow (the last requests
/// of the rung are issued on time).
fn ladder(
    world: &mut World,
    rung: Duration,
    lines: &mut Vec<String>,
    attempted: &mut u64,
    failures: &mut Failures,
) {
    let base = world.mix.open_rate_qps;
    let mut sustained = None;
    for mult in LADDER {
        let rate = base * mult;
        let mut rec = Recorder::default();
        let t0 = Instant::now();
        let sent = world.open_loop(rate, Stop::at(t0 + rung), &mut rec, None);
        let p99 = ms(percentile(&rec.query_ns, 0.99)).unwrap_or(f64::INFINITY);
        let tail = &rec.lateness_ns[rec.lateness_ns.len() * 9 / 10..];
        let backlog_ms = ms(tail.iter().copied().max()).unwrap_or(0.0);
        let ok = p99 < QUERY_P99_LIMIT_MS
            && backlog_ms < QUERY_P99_LIMIT_MS
            && rec.failures.total() == 0;
        lines.push(format!(
            "ladder: offered {rate:.0} q/s, sent {sent}, p99 {p99:.3} ms, tail lateness {backlog_ms:.3} ms -> {}",
            if ok { "meets limit" } else { "misses limit" }
        ));
        *attempted += rec.attempted();
        failures.add(&rec.failures);
        if ok {
            sustained = Some(rate);
        }
    }
    lines.push(match sustained {
        Some(r) => format!("sustained_qps = {r:.0} queries/s (p99 limit {QUERY_P99_LIMIT_MS} ms)"),
        None => format!("sustained_qps = n/a (no rung met the {QUERY_P99_LIMIT_MS} ms p99 limit)"),
    });
}

/// Sample ticks of fixed work in each half of a traced run, sized so that
/// each half takes about `seconds / 2` on the reference host.
pub fn fixed_samples(w: Workload, seconds: f64) -> u64 {
    let per_s = match w {
        Workload::SiteLoop => 300.0,
        Workload::QueryMix => w.mix().open_rate_qps / w.mix().requests_per_sample as f64,
        Workload::DurableIngest => 50.0,
    };
    ((seconds / 2.0 * per_s).ceil() as u64).max(DIGEST_PASSES * w.mix().pass_every_samples)
}

struct FixedRun {
    world: World,
    rec: Recorder,
    wall: Duration,
    tracer: Option<Tracer>,
}

fn fixed_run(args: &Args, run_dir: &Path, traced: bool) -> FixedRun {
    let w = args.workload;
    let mut world = World::build(w, args.seed, traced, run_dir);
    world.start_server();
    let mut warm = Recorder::default();
    world.run(
        Stop::after_samples(w.mix().pass_every_samples),
        &mut warm,
        None,
    );
    world.failures.add(&warm.failures);
    let mut tracer = traced.then(Tracer::default);
    let mut rec = Recorder::default();
    let t0 = Instant::now();
    let stop = Stop {
        deadline: Some(t0 + Duration::from_secs_f64(args.seconds * 2.0)),
        samples: Some(fixed_samples(w, args.seconds)),
    };
    world.run(stop, &mut rec, tracer.as_mut());
    FixedRun {
        wall: t0.elapsed(),
        world,
        rec,
        tracer,
    }
}

fn sum_counters(snap: &MetricsSnapshot, prefix: &str) -> u64 {
    snap.counters
        .iter()
        .filter(|c| c.id == prefix || c.id.starts_with(&format!("{prefix}{{")))
        .map(|c| c.value)
        .sum()
}

fn hist_sum(snap: &MetricsSnapshot, prefix: &str) -> u64 {
    snap.histograms
        .iter()
        .filter(|h| h.id == prefix || h.id.starts_with(&format!("{prefix}{{")))
        .map(|h| h.sum)
        .sum()
}

fn traced(args: &Args, run_dir: &Path) -> Outcome {
    let mut lines = Vec::new();
    header(args, &mut lines);
    let w = args.workload;
    let mut failures = Failures::default();
    let mut attempted = 0u64;

    let mut plain = fixed_run(args, run_dir, false);
    close_out(&mut plain.world, &mut lines);
    let plain_digest = plain.world.run_digest;
    failures.add(&plain.world.failures);
    failures.add(&plain.rec.failures);
    attempted += plain.rec.attempted();
    let plain_metrics = loop_metrics(std::slice::from_ref(&plain.rec), &[plain.wall]);
    drop(plain.world);

    let FixedRun {
        mut world,
        rec,
        wall,
        tracer,
    } = fixed_run(args, run_dir, true);
    let tracer = tracer.expect("traced run records spans");
    attempted += rec.attempted();
    failures.add(&rec.failures);
    if world.run_digest != plain_digest {
        failures.replay += 1;
    }
    let traced_metrics = loop_metrics(std::slice::from_ref(&rec), &[wall]);
    lines.push(format!("flush policy: {}", world.flush_policy()));
    lines.push(format!(
        "fixed work: {} sample ticks per half; untraced {:.3} s, traced {:.3} s",
        fixed_samples(w, args.seconds),
        plain.wall.as_secs_f64(),
        wall.as_secs_f64()
    ));

    lines.push("tracing overhead (traced - untraced, same fixed work):".to_string());
    for (p, t) in plain_metrics.iter().zip(&traced_metrics) {
        if let (Some(a), Some(b)) = (p.value, t.value) {
            lines.push(format!(
                "  {:<20} untraced {a:>14.4}  traced {b:>14.4}  diff {:>+12.4} {} ({})",
                p.name,
                b - a,
                p.unit,
                Ratio::new(b - a, a)
            ));
        }
    }

    let wall_ns = wall.as_nanos() as u64;
    let st = tracer.self_times(wall_ns);
    lines.push(format!(
        "self time by layer over {:.3} s of traced wall time ({} spans):",
        wall.as_secs_f64(),
        tracer.len()
    ));
    for (layer, ns) in &st.layers {
        lines.push(format!(
            "  {layer:<16} {:>12.3} ms  {}",
            *ns as f64 / 1e6,
            Ratio::new(*ns as f64, wall_ns as f64)
        ));
    }
    lines.push(format!(
        "  {:<16} {:>12.3} ms  {}",
        "unattributed",
        st.residual_ns as f64 / 1e6,
        Ratio::new(st.residual_ns as f64, wall_ns as f64)
    ));
    for (name, ns) in &st.busy {
        lines.push(format!(
            "  busy {name:<11} {:>12.3} ms across {WORKERS} runtime workers",
            *ns as f64 / 1e6
        ));
    }
    let trace_file = run_dir.join(format!("trace-{}-seed{}.tsv", w.name(), args.seed));
    match tracer.write(&trace_file) {
        Ok(()) => lines.push(format!("spans written to {}", trace_file.display())),
        Err(e) => lines.push(format!("spans not written: {e}")),
    }

    let snap = world.metrics.snapshot();
    let passes = rec.pass_ns.len() as f64;
    let direct = rec.direct_engine_ns.len() as f64;
    let occupancy: Vec<u64> = world
        .cluster()
        .occupancy()
        .iter()
        .map(|o| o.durable_len)
        .collect();
    let cache = world.cache_stats().unwrap_or_default();
    let bus = snap.histogram("bus_publish_ns");
    let pass_hist = snap.histogram("runtime_pass_ns");
    let n = |v: &Vec<u64>| v.len() as u64;
    let p = |v: &Vec<u64>, q: f64| percentile(v, q).map(|x| x as f64);
    let stage = |i: usize| Ratio::new(rec.stage_ns[i] as f64, passes).value();
    let mut metrics = vec![
        Metric::new(
            "sim.step_ns_p50",
            "ns",
            p(&rec.step_ns, 0.5),
            n(&rec.step_ns),
        ),
        Metric::ratio(
            "sim.busy_share",
            Ratio::new(*st.layers.get("sim").unwrap_or(&0) as f64, wall_ns as f64),
        ),
        Metric::new(
            "bus.publish_ns_p50",
            "ns",
            bus.map(|h| h.p50 as f64),
            bus.map_or(0, |h| h.count),
        ),
        Metric::new(
            "bus.publish_ns_p99",
            "ns",
            bus.map(|h| h.p99 as f64),
            bus.map_or(0, |h| h.count),
        ),
        Metric::new(
            "store.append_total",
            "count",
            Some(sum_counters(&snap, "store_append_total") as f64),
            1,
        ),
        Metric::new(
            "store.lock_hold_ns_p99",
            "ns",
            snap.histograms
                .iter()
                .filter(|h| h.id.starts_with("store_lock_hold_ns{"))
                .map(|h| h.p99 as f64)
                .reduce(f64::max),
            hist_count(&snap, "store_lock_hold_ns"),
        ),
        Metric::new(
            "store.contention_total",
            "count",
            Some(sum_counters(&snap, "store_shard_contention_total") as f64),
            1,
        ),
        Metric::new(
            "storage.wal_appends",
            "count",
            Some(sum_counters(&snap, "storage_wal_appends_total") as f64),
            1,
        ),
        Metric::new(
            "storage.wal_syncs",
            "count",
            Some(sum_counters(&snap, "storage_wal_syncs_total") as f64),
            1,
        ),
        Metric::new(
            "storage.segments_sealed",
            "count",
            Some(sum_counters(&snap, "storage_segments_sealed_total") as f64),
            1,
        ),
        Metric::new(
            "storage.flush_ns_p50",
            "ns",
            p(&rec.flush_ns, 0.5),
            n(&rec.flush_ns),
        ),
        Metric::ratio(
            "storage.bytes_per_reading",
            Ratio::new(
                world.archive_bytes() as f64,
                world.durable_readings() as f64 * 16.0,
            ),
        ),
        Metric::new(
            "cluster.fence_ns_p50",
            "ns",
            p(&rec.fence_ns, 0.5),
            n(&rec.fence_ns),
        ),
        Metric::new(
            "cluster.fence_ns_p99",
            "ns",
            p(&rec.fence_ns, 0.99),
            n(&rec.fence_ns),
        ),
        Metric::new(
            "cluster.query_ns_p50",
            "ns",
            p(&rec.direct_cluster_ns, 0.5),
            n(&rec.direct_cluster_ns),
        ),
        Metric::new(
            "cluster.query_ns_p99",
            "ns",
            p(&rec.direct_cluster_ns, 0.99),
            n(&rec.direct_cluster_ns),
        ),
        Metric::new(
            "cluster.versions_ns_p50",
            "ns",
            p(&rec.direct_versions_ns, 0.5),
            n(&rec.direct_versions_ns),
        ),
        Metric::ratio(
            "cluster.max_shard_share",
            Ratio::new(
                occupancy.iter().copied().max().unwrap_or(0) as f64,
                occupancy.iter().sum::<u64>() as f64,
            ),
        ),
        Metric::new(
            "query.engine_ns_p50",
            "ns",
            p(&rec.direct_engine_ns, 0.5),
            n(&rec.direct_engine_ns),
        ),
        Metric::new(
            "query.engine_ns_p99",
            "ns",
            p(&rec.direct_engine_ns, 0.99),
            n(&rec.direct_engine_ns),
        ),
        Metric::ratio(
            "query.readings_scanned_per_query",
            Ratio::new(rec.engine_scanned as f64, direct),
        ),
        Metric::ratio(
            "query.tier_hit_ratio",
            Ratio::new(
                rec.engine_tier_hit as f64,
                (rec.engine_tier_hit + rec.engine_tier_miss) as f64,
            ),
        ),
        Metric::ratio(
            "query.rollup_buckets_scanned",
            Ratio::new(rec.engine_rollup_buckets as f64, direct),
        ),
        Metric::new(
            "runtime.pass_ns_p50",
            "ns",
            pass_hist.map(|h| h.p50 as f64),
            pass_hist.map_or(0, |h| h.count),
        ),
        Metric::new(
            "runtime.steals",
            "count",
            Some(sum_counters(&snap, "runtime_steal_total") as f64),
            1,
        ),
        Metric::ratio(
            "runtime.worker_busy_share",
            Ratio::new(
                hist_sum(&snap, "runtime_worker_busy_ns") as f64,
                pass_hist.map_or(0, |h| h.sum) as f64 * WORKERS as f64,
            ),
        ),
        Metric::new("pipeline.descriptive_ns", "ns", stage(0), passes as u64),
        Metric::new("pipeline.diagnostic_ns", "ns", stage(1), passes as u64),
        Metric::new("pipeline.predictive_ns", "ns", stage(2), passes as u64),
        Metric::new("pipeline.prescriptive_ns", "ns", stage(3), passes as u64),
    ];
    for cell in TOP_CELLS {
        let v = rec.cap_ns.get(cell).cloned().unwrap_or_default();
        metrics.push(Metric::new(
            &format!("cells.{cell}_ns_p50"),
            "ns",
            p(&v, 0.5),
            n(&v),
        ));
    }
    metrics.extend([
        Metric::new(
            "serve.overhead_ns_p50",
            "ns",
            p(&rec.serve_overhead_ns, 0.5),
            n(&rec.serve_overhead_ns),
        ),
        Metric::ratio(
            "serve.cache_hit_ratio",
            Ratio::new(rec.cache_hits as f64, rec.cache_lookups as f64),
        ),
        Metric::new(
            "serve.cache_invalidated",
            "count",
            Some(cache.invalidated as f64),
            1,
        ),
        Metric::ratio(
            "serve.polls_per_request",
            Ratio::new(rec.polls as f64, rec.queries() as f64),
        ),
    ]);
    let mut cells: Vec<(u64, &String)> = rec
        .cap_ns
        .iter()
        .filter_map(|(k, v)| percentile(v, 0.5).map(|p| (p, k)))
        .collect();
    cells.sort_unstable_by(|a, b| b.cmp(a));
    lines.push(format!(
        "capability medians, largest first: {}",
        cells
            .iter()
            .map(|(p, k)| format!("{k}={:.3}ms", *p as f64 / 1e6))
            .collect::<Vec<_>>()
            .join(" ")
    ));

    close_out(&mut world, &mut lines);
    failures.add(&world.failures);
    drop(world);

    let error = Ratio::new(failures.total() as f64, attempted as f64);
    lines.push(format!("error_ratio = {error}  ({})", failures.describe()));
    lines.push("per-layer metrics (traced half):".to_string());
    lines.extend(metrics.iter().map(Metric::line));
    Outcome {
        lines,
        metrics,
        attempted,
        failures,
    }
}

fn hist_count(snap: &MetricsSnapshot, prefix: &str) -> u64 {
    snap.histograms
        .iter()
        .filter(|h| h.id.starts_with(&format!("{prefix}{{")))
        .map(|h| h.count)
        .sum()
}

/// Percentiles of a latency sample, in milliseconds.
fn profile(ns: &[u64]) -> String {
    [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0]
        .iter()
        .map(|&q| {
            let v = ms(percentile(ns, q)).unwrap_or(0.0);
            format!("p{}={v:.3}", q * 100.0)
        })
        .collect::<Vec<_>>()
        .join(" ")
}
