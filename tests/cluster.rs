//! Distributed-collector integration suite: the sharded hierarchy must be
//! *observationally identical* to the unsharded site — every scatter-gather
//! query answers with a digest bit-identical to the single-store engine's,
//! at any shard count, through a mid-run node failure and rebalance, and
//! through the serving frontend — while per-shard health sums account for
//! exactly the readings the unsharded archive holds.

use hpc_oda::core::capability::{Artifact, Capability, CapabilityContext};
use hpc_oda::core::grid::{GridCell, GridFootprint};
use hpc_oda::serve::net::SimNet;
use hpc_oda::serve::server::Server;
use hpc_oda::sim::prelude::*;
use hpc_oda::telemetry::cluster::{ClusterConfig, ClusterCoordinator, EdgeTask, EdgeView, ShardId};
use hpc_oda::telemetry::metrics::MetricsRegistry;
use hpc_oda::telemetry::query::{Aggregation, LocalSource, Query, QueryEngine, Source, TimeRange};
use hpc_oda::telemetry::reading::Timestamp;
use hpc_oda::telemetry::sensor::SensorId;
use hpc_oda::telemetry::storage::StorageConfig;
use std::collections::BTreeMap;
use std::sync::Arc;

const TICKS: u64 = 1_800; // 30 simulated minutes at 1 s per tick

fn mins(m: u64) -> Timestamp {
    Timestamp::from_millis(m * 60_000)
}

/// The query battery: every result shape the coordinator merges, over
/// patterns that cross shard boundaries, plus rate/raw paths.
fn battery() -> Vec<Query> {
    vec![
        Query::sensors("/facility/**").aggregate(Aggregation::Mean),
        Query::sensors("/hw/**").aggregate(Aggregation::Max),
        Query::sensors("/hw/*/power_w").downsample(60_000, Aggregation::Mean),
        Query::sensors("/facility/power/*").align(120_000),
        Query::sensors("/hw/node0/temp_c").range(TimeRange::new(mins(5), mins(25))),
        Query::sensors("/facility/power/it_kw")
            .rate()
            .aggregate(Aggregation::Sum),
        Query::sensors("/sched/**").aggregate(Aggregation::Count),
    ]
}

/// The battery through any source: each query's resolved sensor list and
/// result digest. A site's store and its coordinator must agree on both.
fn answers(source: &dyn Source) -> Vec<(Vec<SensorId>, u64)> {
    battery()
        .into_iter()
        .map(|q| (source.resolve(&q), q.run(source).digest()))
        .collect()
}

/// The battery against a site's own store, sharded or not.
fn store_answers(dc: &DataCenter) -> Vec<(Vec<SensorId>, u64)> {
    answers(&QueryEngine::new(dc.store()).with_registry(dc.registry().clone()))
}

fn build(seed: u64, shards: usize, schedule: Option<FaultSchedule>) -> DataCenter {
    let mut dc = DataCenter::builder(DataCenterConfig::tiny())
        .seed(seed)
        .metrics(MetricsRegistry::new())
        .shards(shards)
        .build();
    if let Some(s) = schedule {
        dc.set_fault_schedule(s);
    }
    dc.run_ticks(TICKS);
    if let Some(cluster) = dc.cluster() {
        cluster.fence();
    }
    dc
}

#[test]
fn scatter_gather_digests_are_bit_identical_at_any_shard_count() {
    let baseline = store_answers(&build(31, 0, None));
    for shards in [1usize, 2, 4] {
        let dc = build(31, shards, None);
        let cluster = dc.cluster().expect("sharded site has a coordinator");
        assert_eq!(cluster.shard_count(), shards);
        assert_eq!(
            answers(&**cluster),
            baseline,
            "resolution or digests diverged at {shards} shard(s)"
        );
        // The unsharded engine over the same site agrees too: both planes
        // ingested the identical stream.
        assert_eq!(store_answers(&dc), baseline);
    }
}

#[test]
fn node_failure_rebalance_loses_no_accepted_reading() {
    let schedule = |seed| {
        FaultSchedule::new(seed).with(
            TelemetryFaultKind::NodeFailure { node: NodeId(1) },
            mins(10),
            mins(20),
        )
    };
    // The fault blacks out node1's streams in BOTH worlds; the sharded one
    // additionally loses a collector shard and must rebalance its slice
    // out of the durable tier.
    let baseline = store_answers(&build(32, 0, Some(schedule(32))));
    for shards in [2usize, 4] {
        let dc = build(32, shards, Some(schedule(32)));
        let cluster = dc.cluster().expect("sharded site has a coordinator");
        assert_eq!(
            cluster.rebalances(),
            1,
            "the failure at minute 10 must trigger exactly one rebalance"
        );
        assert_eq!(cluster.alive_shards().len(), shards - 1);
        assert!(cluster.epoch() > 0);
        assert_eq!(
            answers(&**cluster),
            baseline,
            "digests diverged after rebalance at {shards} shard(s)"
        );
        // The dead shard reports not-alive and owns nothing.
        let occ = cluster.occupancy();
        assert_eq!(occ.len(), shards);
        let dead: Vec<_> = occ.iter().filter(|o| !o.alive).collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].sensors_owned, 0);
    }

    // A single-shard cluster cannot shed its last shard: the coordinator
    // restarts it in place over its own durable tier instead, and still
    // answers bit-identically.
    let dc = build(32, 1, Some(schedule(32)));
    let cluster = dc.cluster().expect("sharded site has a coordinator");
    assert_eq!(
        cluster.rebalances(),
        0,
        "restart-in-place is not a rebalance"
    );
    assert!(
        cluster.epoch() > 0,
        "the restart is still a membership event"
    );
    assert_eq!(cluster.alive_shards().len(), 1);
    assert_eq!(answers(&**cluster), baseline);
}

#[test]
fn per_shard_health_sums_match_the_unsharded_archive() {
    let unsharded = build(33, 0, None);
    let dc = build(33, 3, None);
    let cluster = dc.cluster().expect("sharded site has a coordinator");

    let expected = unsharded.store().health_report();
    let health = cluster.health();
    assert_eq!(health.len(), 3);
    let readings: usize = health.iter().map(|h| h.report.total_len()).sum();
    let evicted: u64 = health.iter().map(|h| h.report.total_evicted()).sum();
    assert_eq!(readings, expected.total_len());
    assert_eq!(evicted, expected.total_evicted());

    // Occupancy partitions the registry exactly: every sensor owned once.
    let occ = cluster.occupancy();
    let owned: u64 = occ.iter().map(|o| o.sensors_owned).sum();
    assert_eq!(owned as usize, dc.registry().len());
    assert!(occ.iter().all(|o| o.alive && o.sensors_owned > 0));
    // Each shard durably archived something, and the shards together
    // archived exactly the batches the site bus published: both planes
    // ingest the identical stream.
    for h in &health {
        assert!(h.durable_len > 0, "{} archived nothing", h.shard);
    }
    let published: u64 = health.iter().map(|h| h.published).sum();
    assert_eq!(published, dc.bus().published());
}

#[test]
fn grouped_and_per_batch_ingest_answer_identically() {
    for shards in [1usize, 2, 4] {
        // The site hands each tick's batches to its cluster at once; a
        // second cluster is fed the same stream one batch per `ingest`,
        // tapped off the site bus.
        let mut dc = DataCenter::builder(DataCenterConfig::tiny())
            .seed(35)
            .metrics(MetricsRegistry::new())
            .shards(shards)
            .build();
        let grouped = Arc::clone(dc.cluster().expect("sharded site has a coordinator"));
        let per_batch = ClusterCoordinator::new(
            ClusterConfig {
                shards,
                per_sensor_capacity: dc.config().store_capacity,
                rollups: dc.config().rollups.clone(),
                storage: StorageConfig::hybrid(),
                ..ClusterConfig::default()
            },
            dc.registry().clone(),
        )
        .expect("shards open over SimFs");
        let tap = dc.bus().subscription("/**").capacity(4_096).subscribe();
        for _ in 0..TICKS {
            dc.step();
            while let Ok(batch) = tap.rx.try_recv() {
                assert!(per_batch.ingest(batch));
            }
        }
        assert_eq!(tap.dropped(), 0, "the tap shed batches");
        grouped.fence();
        per_batch.fence();

        let expected = answers(&per_batch);
        assert_eq!(
            answers(&*grouped),
            expected,
            "grouped ingest diverged at {shards} shard(s)"
        );
        // `published` counts batches, not commands, on both sides.
        let published =
            |c: &ClusterCoordinator| c.health().iter().map(|h| h.published).sum::<u64>();
        assert_eq!(published(&grouped), dc.bus().published());
        assert_eq!(published(&per_batch), dc.bus().published());
        // Every grouped ingest was durable: failing a shard (or restarting
        // the only one) replays its slice without losing a reading.
        assert!(grouped.fail_shard(ShardId(0)));
        assert_eq!(
            answers(&*grouped),
            expected,
            "fail_shard lost readings at {shards} shard(s)"
        );
    }
}

#[test]
fn edge_tasks_cover_each_shard_slice_exactly_once() {
    let unsharded = build(34, 0, None);
    let dc = build(34, 3, None);
    let cluster = dc.cluster().expect("sharded site has a coordinator");

    // Shard-local edge task: per-sensor reading counts over the *local*
    // store only — the anomaly-detector placement from the paper's edge
    // tier, where each collector scans just its own slice.
    let task: EdgeTask = Arc::new(|view: &EdgeView<'_>| {
        view.registry
            .all()
            .into_iter()
            .filter_map(|meta| {
                let n = view
                    .store
                    .range(meta.id, Timestamp::ZERO, Timestamp(u64::MAX))
                    .len();
                (n > 0).then(|| (meta.name.to_string(), n as f64))
            })
            .collect()
    });
    let gathered = cluster.run_edge(task);
    assert_eq!(gathered.len(), 3);

    // Union across shards: every sensor appears exactly once (ownership is
    // a partition) with exactly the unsharded archive's count.
    let mut union: BTreeMap<String, f64> = BTreeMap::new();
    for (_, samples) in gathered {
        for (name, n) in samples {
            assert!(
                union.insert(name.clone(), n).is_none(),
                "{name} reported by two shards"
            );
        }
    }
    for meta in unsharded.registry().all() {
        let expected = unsharded
            .store()
            .range(meta.id, Timestamp::ZERO, Timestamp(u64::MAX))
            .len();
        if expected > 0 {
            assert_eq!(
                union.get(meta.name.as_ref()).copied(),
                Some(expected as f64),
                "{} count diverged",
                meta.name
            );
        }
    }
}

/// A global capability that consumes gathered aggregates through whatever
/// source it was given: the coordinator on a sharded site, the store
/// otherwise.
struct GlobalMeanKpi(Arc<dyn Source>);

impl Capability for GlobalMeanKpi {
    fn name(&self) -> &str {
        "global-mean-kpi"
    }
    fn description(&self) -> &str {
        "site-wide mean IT power from gathered shard aggregates"
    }
    fn footprint(&self) -> GridFootprint {
        GridFootprint::single(GridCell::new(
            hpc_oda::core::analytics_type::AnalyticsType::Descriptive,
            hpc_oda::core::pillar::Pillar::BuildingInfrastructure,
        ))
    }
    fn execute(&mut self, _ctx: &CapabilityContext) -> Vec<Artifact> {
        let result = Query::sensors("/facility/power/it_kw")
            .aggregate(Aggregation::Mean)
            .run(&*self.0);
        vec![Artifact::Kpi {
            name: "it_kw_mean".into(),
            value: result.scalar().unwrap_or(f64::NAN),
        }]
    }
}

#[test]
fn global_capabilities_see_identical_aggregates_through_the_cluster() {
    let unsharded = build(35, 0, None);
    let sharded = build(35, 4, None);

    let ctx_plain = CapabilityContext::new(
        Arc::clone(unsharded.store()),
        unsharded.registry().clone(),
        TimeRange::all(),
        unsharded.now(),
    );
    let ctx_cluster = CapabilityContext::new(
        Arc::clone(sharded.store()),
        sharded.registry().clone(),
        TimeRange::all(),
        sharded.now(),
    );
    let plain = LocalSource::new(Arc::clone(unsharded.store()), unsharded.registry().clone());
    let cluster = Arc::clone(sharded.cluster().expect("sharded site"));

    let a = GlobalMeanKpi(Arc::new(plain)).execute(&ctx_plain);
    let b = GlobalMeanKpi(cluster).execute(&ctx_cluster);
    assert_eq!(a, b, "gathered aggregate diverged from the unsharded KPI");
    assert!(a[0].kpi("it_kw_mean").unwrap().is_finite());
}

// ----- serving-layer round trip ---------------------------------------------

type Response = (u16, Vec<(String, String)>, Vec<u8>);

fn round_trip(net: &Arc<SimNet>, server: &mut Server<SimNet>, raw: &str) -> Response {
    let conn = net.connect();
    net.client_send(conn, raw.as_bytes());
    let mut got: Vec<u8> = Vec::new();
    for _ in 0..4096 {
        server.poll();
        got.extend(net.client_recv(conn));
        if let Some(parsed) = try_parse(&got) {
            net.client_close(conn);
            server.poll();
            return parsed;
        }
    }
    panic!("no complete response after 4096 polls");
}

fn try_parse(raw: &[u8]) -> Option<Response> {
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = String::from_utf8_lossy(&raw[..head_end - 4]).into_owned();
    let mut lines = head.split("\r\n");
    let status: u16 = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let len: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")?
        .1
        .parse()
        .ok()?;
    (raw.len() >= head_end + len).then(|| (status, headers, raw[head_end..head_end + len].to_vec()))
}

#[test]
fn serving_frontend_fans_out_transparently_over_shards() {
    let unsharded = build(36, 0, None);
    let sharded = build(36, 3, None);

    let wire = Query::sensors("/facility/**")
        .aggregate(Aggregation::Mean)
        .to_json();
    let post = format!(
        "POST /api/v1/query HTTP/1.1\r\nx-tenant: ops\r\ncontent-length: {}\r\n\r\n{wire}",
        wire.len()
    );

    let net_a = Arc::new(SimNet::new());
    let mut srv_a = unsharded.serve(Arc::clone(&net_a));
    let (status_a, headers_a, body_a) = round_trip(&net_a, &mut srv_a, &post);

    let net_b = Arc::new(SimNet::new());
    let mut srv_b = sharded.serve(Arc::clone(&net_b));
    let (status_b, headers_b, body_b) = round_trip(&net_b, &mut srv_b, &post);

    assert_eq!((status_a, status_b), (200, 200));
    let digest = |h: &[(String, String)]| {
        h.iter()
            .find(|(n, _)| n == "x-result-digest")
            .map(|(_, v)| v.clone())
            .expect("query responses carry a digest header")
    };
    assert_eq!(digest(&headers_a), digest(&headers_b));
    assert_eq!(body_a, body_b, "fan-out changed the response body");

    // The sharded site's stats report per-shard occupancy.
    let stats_req = "GET /api/v1/stats HTTP/1.1\r\nx-tenant: ops\r\n\r\n";
    let (status, _, body) = round_trip(&net_b, &mut srv_b, stats_req);
    assert_eq!(status, 200);
    let text = String::from_utf8_lossy(&body);
    assert!(text.contains("\"shards\""), "stats missing shards section");
    assert!(text.contains("\"occupancy\""));
    let (status, _, body) = round_trip(&net_a, &mut srv_a, stats_req);
    assert_eq!(status, 200);
    assert!(
        !String::from_utf8_lossy(&body).contains("\"shards\""),
        "unsharded stats must not report shards"
    );
}
