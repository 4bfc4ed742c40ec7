//! Smoke-size self-test: every workload, end to end and traced, at one
//! second, with every oracle asserted, plus the workload-shape check.
//!
//! `cargo test --release --offline --manifest-path perfbench/Cargo.toml`

use perfbench::run::{run, Args};
use perfbench::world::{Recorder, Stop, Workload, World};
use std::path::PathBuf;

fn run_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Metric names listed under `section` in BENCHMARK.json.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section is an array");
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().expect("closing quote").to_string())
        .collect()
}

fn check(workload: Workload, trace: bool) {
    let args = Args {
        workload,
        seed: 7,
        seconds: 1.0,
        trace,
    };
    let out = run(&args, &run_dir(workload.name()));
    assert_eq!(
        out.failures.total(),
        0,
        "{} trace={trace}: {}\n{}",
        workload.name(),
        out.failures.describe(),
        out.lines.join("\n")
    );
    let section = if trace { "per_layer" } else { "end_to_end" };
    let mut printed: Vec<&str> = out
        .metrics
        .iter()
        .filter(|m| !m.report_only && m.value.is_some())
        .map(|m| m.name.as_str())
        .collect();
    let mut want = declared(section);
    printed.sort_unstable();
    want.sort_unstable();
    assert_eq!(printed, want, "{} trace={trace}", workload.name());
    let json = out.json();
    assert!(out.attempted > 0);
    assert!(
        json.starts_with(&format!(
            "{{\"correct\": true, \"attempted\": {}, ",
            out.attempted
        )),
        "{json}"
    );
}

#[test]
fn site_loop_end_to_end_and_traced() {
    check(Workload::SiteLoop, false);
    check(Workload::SiteLoop, true);
}

#[test]
fn query_mix_end_to_end_and_traced() {
    check(Workload::QueryMix, false);
    check(Workload::QueryMix, true);
}

#[test]
fn durable_ingest_end_to_end_and_traced() {
    check(Workload::DurableIngest, false);
    check(Workload::DurableIngest, true);
}

/// What a workload hands the system, independent of timing.
fn shape(workload: Workload, seed: u64) -> (Recorder, u64) {
    let dir = run_dir(&format!("shape-{}", workload.name()));
    let mut world = World::build(workload, seed, false, &dir);
    world.start_server();
    let mut rec = Recorder::default();
    world.run_at(f64::INFINITY, Stop::after_samples(30), &mut rec, None);
    (rec, world.handed)
}

#[test]
fn a_second_seed_gives_the_same_workload_shape() {
    for w in Workload::ALL {
        let (a, handed_a) = shape(w, 1);
        let (b, handed_b) = shape(w, 2);
        assert_eq!(handed_a, handed_b, "{}", w.name());
        assert_eq!(a.readings_acked, b.readings_acked, "{}", w.name());
        assert_eq!(a.ack_ns.len(), b.ack_ns.len(), "{}", w.name());
        assert_eq!(a.pass_ns.len(), b.pass_ns.len(), "{}", w.name());
        assert_eq!(a.query_ns.len(), b.query_ns.len(), "{}", w.name());
        assert_eq!(
            a.tenant_ns.keys().collect::<Vec<_>>(),
            b.tenant_ns.keys().collect::<Vec<_>>(),
            "{}",
            w.name()
        );
        let total = a.query_ns.len() as f64;
        for (tenant, ns) in &a.tenant_ns {
            let share_a = ns.len() as f64 / total;
            let share_b = b.tenant_ns[tenant].len() as f64 / total;
            assert!(
                (share_a - share_b).abs() < 0.1,
                "{} {tenant}: {share_a} vs {share_b}",
                w.name()
            );
        }
    }
}
