//! Ingest soak — telemetry-path throughput and observability overhead.
//!
//! Runs the publish→archive→query soak twice on identical workloads: once
//! recording into a live `MetricsRegistry`, once against the disabled
//! recorder. Prints ONE JSON object to stdout (the `BENCH_ingest.json`
//! baseline shape) and exits non-zero if any sanity invariant fails.
//!
//! Usage: `ingest [rounds] [sensors]` — defaults 400 rounds × 64 sensors.

use oda_bench::ingest::{run_ingest, IngestConfig};
use oda_telemetry::metrics::MetricsRegistry;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut cfg = IngestConfig::default();
    if let Some(rounds) = args.next().and_then(|s| s.parse().ok()) {
        cfg.rounds = rounds;
    }
    if let Some(sensors) = args.next().and_then(|s| s.parse().ok()) {
        cfg.sensors = sensors;
    }

    // Warm caches/allocator so the paired runs see comparable conditions.
    let _ = run_ingest(&IngestConfig::smoke(), MetricsRegistry::disabled());

    let (noop, _) = run_ingest(&cfg, MetricsRegistry::disabled());
    let (instr, snapshot) = run_ingest(&cfg, MetricsRegistry::new());

    // Overhead of live instruments, % of the no-op publish wall time.
    let overhead_pct = (instr.publish_wall_ns as f64 - noop.publish_wall_ns as f64)
        / noop.publish_wall_ns.max(1) as f64
        * 100.0;
    let publish_ns = snapshot.histogram("bus_publish_ns");

    let out = serde_json::json!({
        "bench": "ingest",
        "sensors": cfg.sensors,
        "rounds": cfg.rounds,
        "readings_per_batch": cfg.readings_per_batch,
        "readings_total": instr.readings_total,
        "throughput_rps": instr.throughput_rps,
        "throughput_rps_noop": noop.throughput_rps,
        "metrics_overhead_pct": overhead_pct,
        "query_p50_ns": instr.query_p50_ns,
        "query_p99_ns": instr.query_p99_ns,
        "publish_p50_ns": publish_ns.map(|h| h.p50).unwrap_or(0),
        "publish_p99_ns": publish_ns.map(|h| h.p99).unwrap_or(0),
        "delivered_total": instr.delivered_total,
        "shed_total": instr.shed_total,
        "instruments": snapshot.counters.len() + snapshot.gauges.len() + snapshot.histograms.len(),
        "longwin_queries_run": instr.longwin.queries_run,
        "longwin_tiered_p50_ns": instr.longwin.tiered_p50_ns,
        "longwin_tiered_p99_ns": instr.longwin.tiered_p99_ns,
        "longwin_raw_p50_ns": instr.longwin.raw_p50_ns,
        "longwin_raw_p99_ns": instr.longwin.raw_p99_ns,
        "longwin_tier_hits": instr.longwin.tier_hits,
        "longwin_readings_avoided": instr.longwin.readings_avoided,
        "longwin_tiered_readings_scanned": instr.longwin.tiered_readings_scanned,
        "longwin_tiered_buckets_scanned": instr.longwin.tiered_buckets_scanned,
        "longwin_raw_readings_scanned": instr.longwin.raw_readings_scanned,
        "longwin_scan_reduction_x": instr.longwin.scan_reduction_x,
    });
    println!(
        "{}",
        serde_json::to_string_pretty(&out).expect("report serialises")
    );

    let healthy = instr.throughput_rps > 0.0
        && noop.throughput_rps > 0.0
        && instr.readings_total == noop.readings_total
        && instr.shed_total == 0
        && snapshot.counter("bus_readings_total") == Some(instr.readings_total)
        // Tier savings: the planner must serve the long-window fleet
        // aggregate from rollups, touching >=5x fewer raw readings than the
        // forced raw rescan (result equality is asserted inside the soak).
        && instr.longwin.tier_hits > 0
        && instr.longwin.scan_reduction_x >= 5.0;
    if !healthy {
        eprintln!("ingest soak FAILED (throughput, accounting or tier-savings invariant violated)");
        std::process::exit(1);
    }
}
