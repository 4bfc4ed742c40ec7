//! The system under test, assembled only from the repository's public
//! surfaces, and the loop that drives it:
//!
//! 1. `DataCenter::step` advances the simulated site one tick; on sample
//!    ticks it publishes every sensor through `TelemetryBus::publish` into
//!    the archive and mirrors the readings into the `ClusterCoordinator`
//!    shards;
//! 2. `ClusterCoordinator::fence` waits until the shards hold them;
//! 3. `OdaRuntime::pass` runs the sixteen capabilities over a trailing
//!    window and actuates the site;
//! 4. HTTP queries go through `Server::poll` over `SimNet`.
//!
//! The three workloads run this same loop in different proportions (see
//! [`Mix`]). Nothing on a measured path sleeps: the cluster keeps
//! `io_wait_us = 0`, and the open-loop generator yields until a request is
//! due.

use crate::stats::{fnv1a, probe_cpu_ns, process_cpu_ns, scale_cpu, Rng, FNV_OFFSET, PROBE_REF_NS};
use crate::trace::Tracer;
use oda_core::cells;
use oda_core::runtime::{OdaRuntime, RuntimeConfig, SimControlPlane};
use oda_serve::config::{ServingConfig, TenantQuota};
use oda_serve::net::SimNet;
use oda_serve::server::Server;
use oda_sim::datacenter::{DataCenter, DataCenterConfig};
use oda_telemetry::cluster::ClusterCoordinator;
use oda_telemetry::metrics::{Histogram, MetricsRegistry};
use oda_telemetry::query::{Aggregation, Query, QueryEngine, TimeRange};
use oda_telemetry::reading::{Reading, ReadingBatch, Timestamp};
use oda_telemetry::sensor::{SensorId, SensorKind, SensorRegistry, Unit};
use oda_telemetry::storage::{
    open_backend, BackendKind, EngineConfig, RealFs, SimFs, StorageConfig, StorageFs,
};
use oda_telemetry::store::{RollupConfig, TimeSeriesStore};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Collector shards. With runtime workers and the single generator thread,
/// no pool is wider than the 2-core host the figures were taken on.
pub const SHARDS: usize = 2;
/// Runtime worker threads.
pub const WORKERS: usize = 2;
/// Trailing window each runtime pass and each site dashboard analyses.
pub const WINDOW_MS: u64 = 15 * 60_000;
/// Collector-style batches: this many sensors per collector flush...
pub const COLLECTOR_SENSORS: usize = 64;
/// ...each sending this many readings per batch.
pub const READINGS_PER_BATCH: usize = 16;
/// Runtime passes folded into the run digest.
pub const DIGEST_PASSES: u64 = 4;
/// Tenant classes of the open loop, in the order they take turns.
pub const TENANTS: [&str; 4] = ["dashboard", "adhoc", "longwin", "export"];
/// In a traced run, every this many requests is re-executed directly on
/// the cluster and on the unsharded engine.
pub const DIRECT_EVERY: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SiteLoop,
    QueryMix,
    DurableIngest,
}

/// How one workload proportions the loop. Counts are per sample tick
/// (ten simulated seconds).
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Sample ticks of site history written during setup.
    pub prefill_samples: u64,
    /// Collector flushes written during setup.
    pub prefill_flushes: u64,
    /// Collector flushes (64 batches of 16 readings) per sample tick.
    pub flushes_per_sample: u64,
    /// Closed loop: one site dashboard query every this many sample
    /// ticks. Zero selects the open-loop tenant mix instead.
    pub query_every_samples: u64,
    /// One runtime pass every this many sample ticks.
    pub pass_every_samples: u64,
    /// Open loop: offered rate, queries per second.
    pub open_rate_qps: f64,
    /// Open loop: requests between two sample ticks.
    pub requests_per_sample: u64,
    /// Hot-ring capacity per sensor.
    pub store_capacity: usize,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SiteLoop,
        Workload::QueryMix,
        Workload::DurableIngest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SiteLoop => "site_loop",
            Workload::QueryMix => "query_mix",
            Workload::DurableIngest => "durable_ingest",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn mix(self) -> Mix {
        let base = Mix {
            prefill_samples: 360,
            prefill_flushes: 0,
            flushes_per_sample: 0,
            query_every_samples: 2,
            pass_every_samples: 6,
            open_rate_qps: 0.0,
            requests_per_sample: 0,
            store_capacity: 100_000,
        };
        match self {
            // The paper's closed loop: a pass every simulated minute, a
            // fleet dashboard every other sample tick.
            Workload::SiteLoop => base,
            // Read-heavy serving over an hour of history. The four tenant
            // classes take equal turns, as the tenants of `oda-bench`'s
            // serving benchmark do. A sample tick bumps the version of
            // every hardware sensor and so invalidates every cached entry;
            // one tick per 48 requests lets each of the four dashboard
            // entries be asked three times between ticks, a miss and then
            // two hits, so the cache has a visible effect that can move
            // either way, and the class median lies among the hits rather
            // than on the edge between hits and misses. A pass every tick
            // keeps enough passes in a stretch for a steady median while
            // the runtime stays a few per cent of the wall time. The
            // offered rate keeps the generator well below saturation even
            // when the host runs slow, so latency from the due time does
            // not turn into a measure of queueing.
            Workload::QueryMix => Mix {
                query_every_samples: 0,
                pass_every_samples: 1,
                open_rate_qps: 200.0,
                requests_per_sample: 48,
                ..base
            },
            // Write-heavy: collector batches into the durable archive.
            // The ring holds the site's history; collector history past
            // the ring stays on disk.
            Workload::DurableIngest => Mix {
                prefill_flushes: 64,
                flushes_per_sample: 8,
                query_every_samples: 1,
                pass_every_samples: 3,
                store_capacity: 16_384,
                ..base
            },
        }
    }
}

/// When a loop stops: at a deadline, after a number of sample ticks, or at
/// whichever comes first.
#[derive(Debug, Clone, Copy)]
pub struct Stop {
    pub deadline: Option<Instant>,
    pub samples: Option<u64>,
}

impl Stop {
    pub fn at(deadline: Instant) -> Self {
        Stop {
            deadline: Some(deadline),
            samples: None,
        }
    }

    pub fn after_samples(n: u64) -> Self {
        Stop {
            deadline: None,
            samples: Some(n),
        }
    }
}

/// Operations that went wrong, by kind. Any non-zero count fails the run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Failures {
    /// Non-200 or unanswered queries.
    pub refused: u64,
    /// Responses whose digest or body differs from direct execution, or
    /// from an earlier response to the same query.
    pub digest: u64,
    /// Readings handed to a plane that the plane does not hold.
    pub not_accepted: u64,
    /// Capabilities that panicked.
    pub panicked: u64,
    /// Admission ledgers that do not reconcile.
    pub ledger: u64,
    /// Archive reopens that did not recover exactly what was acknowledged.
    pub recovery: u64,
    /// Replays of the same seed whose run digests differ.
    pub replay: u64,
}

impl Failures {
    pub fn total(&self) -> u64 {
        self.refused
            + self.digest
            + self.not_accepted
            + self.panicked
            + self.ledger
            + self.recovery
            + self.replay
    }

    pub fn add(&mut self, o: &Failures) {
        self.refused += o.refused;
        self.digest += o.digest;
        self.not_accepted += o.not_accepted;
        self.panicked += o.panicked;
        self.ledger += o.ledger;
        self.recovery += o.recovery;
        self.replay += o.replay;
    }

    pub fn describe(&self) -> String {
        format!(
            "refused={} digest_mismatch={} not_accepted={} panicked={} ledger={} recovery={} replay={}",
            self.refused,
            self.digest,
            self.not_accepted,
            self.panicked,
            self.ledger,
            self.recovery,
            self.replay
        )
    }
}

/// Raw samples of one measured stretch of the loop.
#[derive(Debug, Default, Clone)]
pub struct Recorder {
    /// Wall time of non-sample ticks (simulation only, no publish).
    pub step_ns: Vec<u64>,
    /// Ingest acknowledgements: a sample tick's `step` plus `fence`, or a
    /// collector flush's publishes plus `fence`.
    pub ack_ns: Vec<u64>,
    /// Process CPU time (all threads) of each ingest acknowledgement,
    /// scaled to the reference speed by the speed probe taken just before.
    /// The other `*_cpu_ns` fields are scaled the same way.
    pub ack_cpu_ns: Vec<u64>,
    pub readings_acked: u64,
    pub pass_ns: Vec<u64>,
    pub pass_cpu_ns: Vec<u64>,
    /// Query latency: the round trip, measured from the due time in the
    /// open loop.
    pub query_ns: Vec<u64>,
    /// How late the open-loop generator issued each request.
    pub lateness_ns: Vec<u64>,
    /// Round trip from sending each request, without the wait before it.
    pub service_ns: Vec<u64>,
    /// Process CPU time of each round trip, by tenant.
    pub tenant_cpu_ns: BTreeMap<&'static str, Vec<u64>>,
    /// Process CPU time of the loop's work: sample advances (ticks, fences,
    /// collector flushes, passes) and round trips; not the checking of
    /// responses, the open-loop generator's waits, or the speed probes.
    pub loop_cpu_ns: u64,
    /// CPU time of each speed probe, unscaled.
    pub probe_ns: Vec<u64>,
    pub flush_ns: Vec<u64>,
    pub fence_ns: Vec<u64>,
    pub polls: u64,
    pub cache_hits: u64,
    pub cache_lookups: u64,
    /// Pipeline time per analytics stage (descriptive, diagnostic,
    /// predictive, prescriptive), summed over capability spans.
    pub stage_ns: [u64; 4],
    pub cap_ns: BTreeMap<String, Vec<u64>>,
    /// Direct re-executions of sampled requests (traced runs only).
    pub direct_cluster_ns: Vec<u64>,
    pub direct_versions_ns: Vec<u64>,
    pub direct_engine_ns: Vec<u64>,
    /// Round trip minus direct cluster time, on sampled cache misses.
    pub serve_overhead_ns: Vec<u64>,
    pub engine_scanned: u64,
    pub engine_tier_hit: u64,
    pub engine_tier_miss: u64,
    pub engine_rollup_buckets: u64,
    /// Query latency by tenant, as in `query_ns`.
    pub tenant_ns: BTreeMap<&'static str, Vec<u64>>,
    /// Responses checked against a direct execution.
    pub verified: u64,
    /// Time spent checking responses, excluded from every measurement.
    pub oracle_ns: u64,
    pub failures: Failures,
}

impl Recorder {
    pub fn queries(&self) -> u64 {
        self.query_ns.len() as u64
    }

    pub fn attempted(&self) -> u64 {
        self.query_ns.len() as u64 + self.ack_ns.len() as u64 + self.pass_ns.len() as u64
    }

    pub fn absorb(&mut self, o: &Recorder) {
        self.step_ns.extend_from_slice(&o.step_ns);
        self.ack_ns.extend_from_slice(&o.ack_ns);
        self.ack_cpu_ns.extend_from_slice(&o.ack_cpu_ns);
        self.readings_acked += o.readings_acked;
        self.pass_ns.extend_from_slice(&o.pass_ns);
        self.pass_cpu_ns.extend_from_slice(&o.pass_cpu_ns);
        self.query_ns.extend_from_slice(&o.query_ns);
        self.lateness_ns.extend_from_slice(&o.lateness_ns);
        self.service_ns.extend_from_slice(&o.service_ns);
        for (k, v) in &o.tenant_cpu_ns {
            self.tenant_cpu_ns
                .entry(k)
                .or_default()
                .extend_from_slice(v);
        }
        self.loop_cpu_ns += o.loop_cpu_ns;
        self.probe_ns.extend_from_slice(&o.probe_ns);
        self.flush_ns.extend_from_slice(&o.flush_ns);
        self.fence_ns.extend_from_slice(&o.fence_ns);
        self.polls += o.polls;
        self.cache_hits += o.cache_hits;
        self.cache_lookups += o.cache_lookups;
        for (a, b) in self.stage_ns.iter_mut().zip(o.stage_ns) {
            *a += b;
        }
        for (k, v) in &o.cap_ns {
            self.cap_ns
                .entry(k.clone())
                .or_default()
                .extend_from_slice(v);
        }
        self.direct_cluster_ns
            .extend_from_slice(&o.direct_cluster_ns);
        self.direct_versions_ns
            .extend_from_slice(&o.direct_versions_ns);
        self.direct_engine_ns.extend_from_slice(&o.direct_engine_ns);
        self.serve_overhead_ns
            .extend_from_slice(&o.serve_overhead_ns);
        self.engine_scanned += o.engine_scanned;
        self.engine_tier_hit += o.engine_tier_hit;
        self.engine_tier_miss += o.engine_tier_miss;
        self.engine_rollup_buckets += o.engine_rollup_buckets;
        for (k, v) in &o.tenant_ns {
            self.tenant_ns.entry(k).or_default().extend_from_slice(v);
        }
        self.verified += o.verified;
        self.oracle_ns += o.oracle_ns;
        self.failures.add(&o.failures);
    }
}

/// Where the site archive lives.
enum Archive {
    /// Deterministic in-memory filesystem (hybrid archive).
    Sim(Arc<SimFs>),
    /// A real directory owned by the benchmark (persistent archive).
    Real(PathBuf),
}

/// One tenant request of the open-loop mix.
struct TenantQuery {
    tenant: &'static str,
    query: Query,
}

pub struct World {
    pub workload: Workload,
    pub mix: Mix,
    pub seed: u64,
    pub dc: DataCenter,
    runtime: OdaRuntime,
    net: Arc<SimNet>,
    server: Option<Server<SimNet>>,
    pub metrics: MetricsRegistry,
    archive: Archive,
    rng: Rng,
    site_sensors: u64,
    collectors: Vec<SensorId>,
    collector_flushes: u64,
    ticks: u64,
    pub samples: u64,
    pub passes: u64,
    requests: u64,
    /// Run digest: pass output digests plus applied and deferred counts of
    /// the first [`DIGEST_PASSES`] passes.
    pub run_digest: u64,
    /// Readings handed to the telemetry plane since the site was built.
    pub handed: u64,
    dashboards: Vec<Query>,
    prefill_end: Timestamp,
    h_publish: Histogram,
    h_lock: Vec<Histogram>,
    /// CPU time of the latest speed probe, which scales the CPU times of
    /// the operations that follow it.
    probe_ns: u64,
    /// Failures found outside any recorder (setup, oracles).
    pub failures: Failures,
}

/// Sum of the program's own histogram, for the traced run's attribution.
fn hist_sum(hs: &[Histogram]) -> u64 {
    hs.iter().map(Histogram::sum).sum()
}

impl World {
    /// Builds the site, its archive, shards and runtime, and writes the
    /// workload's pre-fill. This is what `setup_s` times.
    pub fn build(workload: Workload, seed: u64, traced: bool, run_dir: &Path) -> World {
        let mix = workload.mix();
        let metrics = if traced {
            MetricsRegistry::new()
        } else {
            MetricsRegistry::disabled()
        };
        let (archive, storage, fs): (Archive, StorageConfig, Arc<dyn StorageFs>) = match workload {
            Workload::DurableIngest => {
                let dir = run_dir.join(format!("archive-{}-{seed}", workload.name()));
                let _ = std::fs::remove_dir_all(&dir);
                let fs = RealFs::new(&dir).expect("the benchmark owns its archive directory");
                (
                    Archive::Real(dir),
                    StorageConfig {
                        backend: BackendKind::Persistent,
                        engine: EngineConfig::default(),
                    },
                    Arc::new(fs),
                )
            }
            _ => {
                let fs = Arc::new(SimFs::new());
                (Archive::Sim(Arc::clone(&fs)), StorageConfig::hybrid(), fs)
            }
        };
        let mut config = DataCenterConfig::small();
        config.store_capacity = mix.store_capacity;
        let serving = ServingConfig {
            default_quota: TenantQuota::unlimited(),
            ..ServingConfig::default()
        };
        let mut dc = DataCenter::builder(config)
            .seed(seed)
            .metrics(metrics.clone())
            .storage(storage)
            .storage_fs(fs)
            .shards(SHARDS)
            .workers(WORKERS)
            .serving(serving)
            .build();
        let site_sensors = dc.registry().len() as u64;
        let collectors = if mix.flushes_per_sample + mix.prefill_flushes > 0 {
            (0..COLLECTOR_SENSORS)
                .map(|j| {
                    dc.registry().register(
                        &format!("/collector/c{}/s{j}", j % 8),
                        SensorKind::Power,
                        Unit::Watts,
                    )
                })
                .collect()
        } else {
            Vec::new()
        };
        let mut runtime = OdaRuntime::with_config(
            WINDOW_MS,
            RuntimeConfig::serial()
                .with_workers(WORKERS)
                .with_seed(seed),
        )
        .with_metrics(metrics.clone());
        for c in cells::all_sixteen() {
            let stage = c.footprint().types()[0];
            runtime.add_capability(stage, c);
        }
        let h_publish = metrics.histogram("bus_publish_ns", &[]);
        let h_lock = (0..TimeSeriesStore::DEFAULT_SHARDS)
            .map(|i| metrics.histogram("store_lock_hold_ns", &[("shard", i.to_string().as_str())]))
            .collect();
        dc.run_ticks(mix.prefill_samples * dc.config().sample_every_ticks);
        let prefill_end = dc.now();
        let mut world = World {
            workload,
            mix,
            seed,
            runtime,
            net: Arc::new(SimNet::new()),
            server: None,
            metrics,
            archive,
            rng: Rng::new(seed),
            site_sensors,
            collectors,
            collector_flushes: 0,
            ticks: mix.prefill_samples * dc.config().sample_every_ticks,
            samples: 0,
            passes: 0,
            requests: 0,
            run_digest: FNV_OFFSET,
            handed: site_sensors * mix.prefill_samples,
            dashboards: Vec::new(),
            prefill_end,
            h_publish,
            h_lock,
            probe_ns: PROBE_REF_NS,
            failures: Failures::default(),
            dc,
        };
        let mut scratch = Recorder::default();
        for _ in 0..mix.prefill_flushes {
            world.collector_flush(&mut scratch, None);
        }
        world.cluster().fence();
        world.dashboards = world.dashboard_pool();
        world
    }

    pub fn cluster(&self) -> &Arc<ClusterCoordinator> {
        self.dc.cluster().expect("the site is built with shards")
    }

    /// Starts the HTTP front end (after any archive reopen, which replaces
    /// the store it serves).
    pub fn start_server(&mut self) {
        self.server = Some(self.dc.serve(Arc::clone(&self.net)));
    }

    // ----- the loop --------------------------------------------------------

    /// Runs the workload's loop until `stop`.
    pub fn run(&mut self, stop: Stop, rec: &mut Recorder, tr: Option<&mut Tracer>) {
        self.run_at(self.mix.open_rate_qps, stop, rec, tr);
    }

    /// [`Self::run`] with the open loop offered at `rate_qps` instead of
    /// the workload's own rate (an infinite rate sends back to back).
    pub fn run_at(
        &mut self,
        rate_qps: f64,
        stop: Stop,
        rec: &mut Recorder,
        mut tr: Option<&mut Tracer>,
    ) {
        if self.mix.query_every_samples == 0 {
            self.open_loop(rate_qps, stop, rec, tr);
            return;
        }
        let first = self.samples;
        loop {
            if stop.deadline.is_some_and(|d| Instant::now() >= d)
                || stop.samples.is_some_and(|n| self.samples - first >= n)
            {
                return;
            }
            self.advance_sample(rec, tr.as_deref_mut());
            if self.samples.is_multiple_of(self.mix.query_every_samples) {
                self.probe(rec);
                let q = Query::sensors("/hw/**")
                    .range(TimeRange::trailing(self.dc.now(), WINDOW_MS))
                    .aggregate(Aggregation::Mean);
                let oracle = self.request(&q, "dashboard", None, rec, tr.as_deref_mut());
                rec.oracle_ns += oracle.as_nanos() as u64;
            }
        }
    }

    /// Open loop at `rate_qps` from one generator thread: requests are due
    /// on a fixed schedule whether or not earlier ones are done, and each
    /// is timed from its due time. A deadline in `stop` counts schedule
    /// time, which excludes the time spent checking responses. Every
    /// `requests_per_sample` requests since the site was built, it advances
    /// one sample tick.
    /// Returns how many requests were sent.
    pub fn open_loop(
        &mut self,
        rate_qps: f64,
        stop: Stop,
        rec: &mut Recorder,
        mut tr: Option<&mut Tracer>,
    ) -> u64 {
        let period_ns = 1e9 / rate_qps;
        let first = self.samples;
        let start = Instant::now();
        // The schedule stands still while responses are checked, so the
        // oracle never makes later requests late.
        let mut paused = Duration::ZERO;
        let mut i: u64 = 0;
        loop {
            let due = if period_ns.is_finite() {
                start + paused + Duration::from_nanos((period_ns * i as f64) as u64)
            } else {
                start + paused
            };
            if stop.deadline.is_some_and(|d| due - paused >= d)
                || stop.samples.is_some_and(|n| self.samples - first >= n)
            {
                return i;
            }
            // The probe runs in the wait before the request when the
            // generator is on time.
            self.probe(rec);
            let now = Instant::now();
            if now < due {
                if let Some(t) = tr.as_deref_mut() {
                    t.enter("idle", i);
                }
                // Yield rather than spin, so the shard threads keep the
                // cores while the generator waits.
                while Instant::now() < due {
                    std::thread::yield_now();
                }
                if let Some(t) = tr.as_deref_mut() {
                    t.exit();
                }
                rec.lateness_ns.push(0);
            } else {
                rec.lateness_ns
                    .push(now.duration_since(due).as_nanos() as u64);
            }
            let tq = self.tenant_query(self.requests);
            let oracle = self.request(&tq.query, tq.tenant, Some(due), rec, tr.as_deref_mut());
            paused += oracle;
            rec.oracle_ns += oracle.as_nanos() as u64;
            i += 1;
            if self.requests.is_multiple_of(self.mix.requests_per_sample) {
                self.advance_sample(rec, tr.as_deref_mut());
            }
        }
    }

    /// Ten ticks: nine that only simulate, then a sample tick that publishes
    /// every site sensor; then the workload's collector flushes, and a
    /// runtime pass when one is due.
    fn advance_sample(&mut self, rec: &mut Recorder, mut tr: Option<&mut Tracer>) {
        self.probe(rec);
        let loop_cpu0 = process_cpu_ns();
        let every = self.dc.config().sample_every_ticks;
        for k in 0..every {
            let sample = k + 1 == every;
            let tick = self.ticks;
            self.ticks += 1;
            let traced = tr.is_some();
            let (pub0, lock0) = if traced && sample {
                (self.h_publish.sum(), hist_sum(&self.h_lock))
            } else {
                (0, 0)
            };
            if let Some(t) = tr.as_deref_mut() {
                t.enter("tick", tick);
                t.enter("step", tick);
            }
            let cpu0 = if sample { process_cpu_ns() } else { 0 };
            let t0 = Instant::now();
            self.dc.step();
            let step_ns = t0.elapsed().as_nanos() as u64;
            if let Some(t) = tr.as_deref_mut() {
                if sample {
                    t.child("bus.publish", tick, self.h_publish.sum() - pub0, false);
                    let publish = t.last();
                    t.child_of(
                        publish,
                        "store.insert",
                        tick,
                        hist_sum(&self.h_lock) - lock0,
                        false,
                    );
                }
                t.exit();
            }
            if sample {
                let fence_ns = self.fence(tick, tr.as_deref_mut());
                rec.ack_ns.push(step_ns + fence_ns);
                rec.ack_cpu_ns
                    .push(self.scaled(process_cpu_ns().saturating_sub(cpu0)));
                rec.fence_ns.push(fence_ns);
                rec.readings_acked += self.site_sensors;
                self.handed += self.site_sensors;
            } else {
                rec.step_ns.push(step_ns);
            }
            if let Some(t) = tr.as_deref_mut() {
                t.exit();
            }
        }
        self.samples += 1;
        for _ in 0..self.mix.flushes_per_sample {
            self.collector_flush(rec, tr.as_deref_mut());
        }
        let pass_due = self.samples.is_multiple_of(self.mix.pass_every_samples);
        if pass_due {
            self.flush_archive(rec, tr.as_deref_mut());
        }
        rec.loop_cpu_ns += self.scaled(process_cpu_ns().saturating_sub(loop_cpu0));
        if pass_due {
            self.pass(rec, tr);
        }
    }

    /// Runs the speed probe; the CPU times measured until the next probe
    /// are scaled by it.
    fn probe(&mut self, rec: &mut Recorder) {
        self.probe_ns = probe_cpu_ns();
        rec.probe_ns.push(self.probe_ns);
    }

    /// Process CPU time scaled to the reference speed by the latest probe.
    fn scaled(&self, cpu_ns: u64) -> u64 {
        scale_cpu(cpu_ns, self.probe_ns)
    }

    fn fence(&mut self, id: u64, mut tr: Option<&mut Tracer>) -> u64 {
        if let Some(t) = tr.as_deref_mut() {
            t.enter("fence", id);
        }
        let t0 = Instant::now();
        self.cluster().fence();
        let ns = t0.elapsed().as_nanos() as u64;
        if let Some(t) = tr {
            t.exit();
        }
        ns
    }

    /// One collector flush: 64 sensors × 16 readings, published through
    /// the site bus into its archive and mirrored into the shards, then
    /// fenced.
    fn collector_flush(&mut self, rec: &mut Recorder, mut tr: Option<&mut Tracer>) {
        let id = self.collector_flushes;
        self.collector_flushes += 1;
        let batches: Vec<ReadingBatch> = self
            .collectors
            .iter()
            .enumerate()
            .map(|(j, &sensor)| ReadingBatch {
                sensor,
                readings: (0..READINGS_PER_BATCH as u64)
                    .map(|k| {
                        let ts = (id * READINGS_PER_BATCH as u64 + k) * 1_000;
                        // Fixed-precision readings around a slow drift, as
                        // real collectors report them.
                        let drift = ((ts / 60_000) % 50) as f64;
                        let noise = self.rng.below(8) as f64 * 0.5;
                        Reading::new(Timestamp(ts), 200.0 + j as f64 + drift + noise)
                    })
                    .collect(),
            })
            .collect();
        let readings = (batches.len() * READINGS_PER_BATCH) as u64;
        if let Some(t) = tr.as_deref_mut() {
            t.enter("collector", id);
        }
        let cpu0 = process_cpu_ns();
        let t0 = Instant::now();
        for batch in batches {
            let lock0 = if tr.is_some() {
                hist_sum(&self.h_lock)
            } else {
                0
            };
            if let Some(t) = tr.as_deref_mut() {
                t.enter("bus.publish", id);
            }
            self.dc.bus().publish(batch.clone());
            if let Some(t) = tr.as_deref_mut() {
                t.child("store.insert", id, hist_sum(&self.h_lock) - lock0, false);
                t.exit();
                t.enter("cluster.ingest", id);
            }
            if !self.cluster().ingest(batch) {
                rec.failures.not_accepted += READINGS_PER_BATCH as u64;
            }
            if let Some(t) = tr.as_deref_mut() {
                t.exit();
            }
        }
        let fence_ns = self.fence(id, tr.as_deref_mut());
        rec.ack_ns.push(t0.elapsed().as_nanos() as u64);
        rec.ack_cpu_ns
            .push(self.scaled(process_cpu_ns().saturating_sub(cpu0)));
        rec.fence_ns.push(fence_ns);
        rec.readings_acked += readings;
        self.handed += readings;
        if let Some(t) = tr {
            t.exit();
        }
    }

    fn flush_archive(&mut self, rec: &mut Recorder, mut tr: Option<&mut Tracer>) {
        if let Some(t) = tr.as_deref_mut() {
            t.enter("flush", self.passes);
        }
        let t0 = Instant::now();
        if self.dc.archive().flush().is_err() {
            rec.failures.not_accepted += 1;
        }
        rec.flush_ns.push(t0.elapsed().as_nanos() as u64);
        if let Some(t) = tr {
            t.exit();
        }
    }

    fn pass(&mut self, rec: &mut Recorder, mut tr: Option<&mut Tracer>) {
        let id = self.passes;
        if let Some(t) = tr.as_deref_mut() {
            t.enter("pass", id);
        }
        let store = Arc::clone(self.dc.store());
        let registry = self.dc.registry().clone();
        let now = self.dc.now();
        self.probe(rec);
        let cpu0 = process_cpu_ns();
        let t0 = Instant::now();
        let report = self.runtime.pass(
            store,
            registry,
            now,
            &mut SimControlPlane { dc: &mut self.dc },
        );
        rec.pass_ns.push(t0.elapsed().as_nanos() as u64);
        let cpu_ns = self.scaled(process_cpu_ns().saturating_sub(cpu0));
        rec.pass_cpu_ns.push(cpu_ns);
        rec.loop_cpu_ns += cpu_ns;
        if let Some(t) = tr {
            t.child("pipeline", id, report.run.wall_ns, false);
            let pipeline = t.last();
            for s in &report.run.spans {
                t.child_of(pipeline, "cell", id, s.wall_ns, true);
            }
            t.exit();
        }
        for s in &report.run.spans {
            rec.stage_ns[s.stage.index()] += s.wall_ns;
            rec.cap_ns
                .entry(s.capability.clone())
                .or_default()
                .push(s.wall_ns);
            if s.panicked {
                rec.failures.panicked += 1;
            }
        }
        if id < DIGEST_PASSES {
            let mut h = fnv1a(self.run_digest, &report.run.output_digest().to_le_bytes());
            h = fnv1a(h, &(report.applied as u64).to_le_bytes());
            self.run_digest = fnv1a(h, &(report.deferred as u64).to_le_bytes());
        }
        self.passes += 1;
    }

    // ----- queries ---------------------------------------------------------

    /// Repeated rack aggregates: the mean of every hardware metric of the
    /// rack's nodes over a fixed hour of pre-filled history, one entry per
    /// rack.
    fn dashboard_pool(&self) -> Vec<Query> {
        let s = self.dc.sensors();
        let per_rack = self.dc.config().nodes_per_rack;
        let end = self.prefill_end + 1;
        let range = TimeRange::new(Timestamp(end.0.saturating_sub(3_600_000)), end);
        (0..self.dc.config().racks)
            .map(|rack| {
                let nodes = rack * per_rack..(rack + 1) * per_rack;
                let ids: Vec<SensorId> = [
                    &s.node_power,
                    &s.node_temp,
                    &s.node_util,
                    &s.node_freq,
                    &s.node_mem,
                    &s.node_fan,
                ]
                .iter()
                .flat_map(|series| series[nodes.clone()].iter().copied())
                .collect();
                Query::sensors(ids)
                    .range(range)
                    .aggregate(Aggregation::Mean)
            })
            .collect()
    }

    /// The tenant request numbered `i` of the open loop: the classes take
    /// turns, and the dashboard class cycles through its pool.
    fn tenant_query(&mut self, i: u64) -> TenantQuery {
        let now = self.dc.now().0;
        let turn = i / TENANTS.len() as u64;
        let tenant = TENANTS[(i % TENANTS.len() as u64) as usize];
        let query = match tenant {
            "dashboard" => self.dashboards[(turn % self.dashboards.len() as u64) as usize].clone(),
            "adhoc" => {
                // A tail quantile of one metric of every node over a unique
                // range: cache-hostile, raw scans on both shards.
                let leaf = ["temp_c", "util", "power_w", "fan"][self.rng.below(4) as usize];
                let width = (15 + self.rng.below(45)) * 60_000;
                let end = now + 1 - self.rng.below(now.saturating_sub(width).max(1));
                let range = TimeRange::new(Timestamp(end.saturating_sub(width)), Timestamp(end));
                Query::sensors(format!("/hw/*/{leaf}").as_str())
                    .range(range)
                    .aggregate(Aggregation::Quantile(0.99))
            }
            "longwin" => {
                // Whole-history fleet aggregate up to a minute boundary of
                // the last hour, a different one on each turn between two
                // sample ticks, so it is answered from the rollup tiers and
                // not from the cache.
                let back = (turn % 60) * 60_000;
                let end = (now - now % 60_000).saturating_sub(back);
                Query::sensors("/hw/**")
                    .range(TimeRange::new(Timestamp::ZERO, Timestamp(end)))
                    .aggregate(Aggregation::Mean)
            }
            _ => {
                // The last hour of four raw series: heavy on JSON rendering.
                let s = self.dc.sensors();
                let n = s.node_temp.len() as u64;
                let mut pick = |series: &[SensorId]| series[self.rng.below(n) as usize];
                let ids = vec![
                    pick(&s.node_temp),
                    pick(&s.node_power),
                    pick(&s.node_util),
                    pick(&s.node_fan),
                ];
                Query::sensors(ids).range(TimeRange::trailing(Timestamp(now), 3_600_000))
            }
        };
        TenantQuery { tenant, query }
    }

    /// One HTTP round trip, checked at once against a direct execution of
    /// the same query on the unsharded site store: the digest header and
    /// the body bytes (cache hits included) must match it. In a traced run,
    /// sampled requests are also re-executed on the cluster. Returns the
    /// time spent checking, which is not part of any measurement.
    fn request(
        &mut self,
        query: &Query,
        tenant: &'static str,
        due: Option<Instant>,
        rec: &mut Recorder,
        mut tr: Option<&mut Tracer>,
    ) -> Duration {
        let id = self.requests;
        self.requests += 1;
        let wire = query.to_json();
        let raw = format!(
            "POST /api/v1/query HTTP/1.1\r\nx-tenant: {tenant}\r\ncontent-length: {}\r\n\r\n{wire}",
            wire.len()
        )
        .into_bytes();
        if let Some(t) = tr.as_deref_mut() {
            t.enter("request", id);
            t.enter("round_trip", id);
        }
        let cpu0 = process_cpu_ns();
        let t0 = Instant::now();
        let server = self
            .server
            .as_mut()
            .expect("server started before the loop");
        let (resp, polls) = round_trip(&self.net, server, &raw);
        let done = Instant::now();
        let cpu_ns = self.scaled(process_cpu_ns().saturating_sub(cpu0));
        rec.loop_cpu_ns += cpu_ns;
        rec.tenant_cpu_ns.entry(tenant).or_default().push(cpu_ns);
        if let Some(t) = tr.as_deref_mut() {
            t.exit();
        }
        let rt_ns = done.duration_since(t0).as_nanos() as u64;
        rec.service_ns.push(rt_ns);
        let latency = done.duration_since(due.unwrap_or(t0)).as_nanos() as u64;
        rec.query_ns.push(latency);
        rec.tenant_ns.entry(tenant).or_default().push(latency);
        rec.polls += polls;
        let Some(resp) = resp.filter(|r| r.status == 200) else {
            rec.failures.refused += 1;
            if let Some(t) = tr {
                t.exit();
            }
            return Duration::ZERO;
        };
        rec.cache_lookups += 1;
        let hit = resp.header("x-cache") == Some("hit");
        if hit {
            rec.cache_hits += 1;
        }
        let digest = resp
            .header("x-result-digest")
            .and_then(|d| u64::from_str_radix(d, 16).ok());

        let m = &self.metrics;
        let counters = [
            m.counter("query_readings_scanned_total", &[]),
            m.counter("query_tier_hit_total", &[]),
            m.counter("query_tier_miss_total", &[]),
            m.counter("query_rollup_buckets_scanned_total", &[]),
        ];
        let before: Vec<u64> = counters.iter().map(|c| c.get()).collect();
        if let Some(t) = tr.as_deref_mut() {
            t.enter("direct.engine", id);
        }
        let t0 = Instant::now();
        let engine = QueryEngine::new(self.dc.store()).with_registry(self.dc.registry().clone());
        let unsharded = query.clone().run(&engine);
        rec.direct_engine_ns.push(t0.elapsed().as_nanos() as u64);
        if let Some(t) = tr.as_deref_mut() {
            t.exit();
        }
        let delta: Vec<u64> = counters
            .iter()
            .zip(before)
            .map(|(c, b)| c.get() - b)
            .collect();
        rec.engine_scanned += delta[0];
        rec.engine_tier_hit += delta[1];
        rec.engine_tier_miss += delta[2];
        rec.engine_rollup_buckets += delta[3];
        if digest != Some(unsharded.digest()) || resp.body != unsharded.to_json().into_bytes() {
            rec.failures.digest += 1;
        }
        rec.verified += 1;
        if let Some(t) = tr {
            if id.is_multiple_of(DIRECT_EVERY) {
                self.direct_cluster(query, unsharded.digest(), hit, rt_ns, rec, t);
            }
            t.exit();
        }
        done.elapsed()
    }

    /// Re-executes a sampled request on the cluster, with the version
    /// snapshot the result cache takes first.
    fn direct_cluster(
        &mut self,
        query: &Query,
        unsharded: u64,
        hit: bool,
        rt_ns: u64,
        rec: &mut Recorder,
        t: &mut Tracer,
    ) {
        let id = self.requests - 1;
        let cluster = Arc::clone(self.cluster());
        t.enter("direct.versions", id);
        let t0 = Instant::now();
        let sensors = cluster.resolve(query);
        std::hint::black_box(cluster.sensor_versions(&sensors));
        rec.direct_versions_ns.push(t0.elapsed().as_nanos() as u64);
        t.exit();
        t.enter("direct.cluster", id);
        let t0 = Instant::now();
        let sharded = cluster.query(query.clone());
        let cluster_ns = t0.elapsed().as_nanos() as u64;
        t.exit();
        rec.direct_cluster_ns.push(cluster_ns);
        if !hit {
            rec.serve_overhead_ns.push(rt_ns.saturating_sub(cluster_ns));
        }
        if sharded.digest() != unsharded {
            rec.failures.digest += 1;
        }
    }

    // ----- oracles ---------------------------------------------------------

    /// The front end's result-cache counters.
    pub fn cache_stats(&self) -> Option<oda_serve::cache::CacheStats> {
        self.server.as_ref().map(Server::cache_stats)
    }

    /// Every admission ledger balances: offered = admitted + shed.
    pub fn check_ledgers(&mut self) {
        let Some(server) = &self.server else {
            return;
        };
        let adm = server.admission();
        if !adm.totals().reconciles() || adm.all_counters().iter().any(|(_, c)| !c.reconciles()) {
            self.failures.ledger += 1;
        }
    }

    /// Every reading handed to the plane is held by the site store and by
    /// the shards' durable tiers, and none was rejected.
    pub fn check_accepted(&mut self) {
        let report = self.dc.store().health_report();
        let held: u64 = report
            .sensors
            .iter()
            .map(|h| h.len as u64 + h.evicted)
            .sum();
        let rejected: u64 = report
            .sensors
            .iter()
            .map(|h| h.rejected_out_of_order + h.rejected_non_finite)
            .sum();
        let sharded: u64 = self
            .cluster()
            .occupancy()
            .iter()
            .map(|o| o.durable_len)
            .sum();
        self.failures.not_accepted += self.handed.abs_diff(held) + rejected;
        self.failures.not_accepted += self.handed.abs_diff(sharded);
    }

    /// Digest of everything the site archive's store holds, sensor by
    /// sensor, with the number of readings it covers.
    fn archive_digest(&self) -> (u64, u64) {
        store_digest(self.dc.store(), self.dc.registry())
    }

    /// Copies the site archive, as it stands, onto a filesystem of the
    /// same kind, for [`ArchiveSnapshot::reopen`].
    pub fn snapshot_archive(&self, run_dir: &Path) -> ArchiveSnapshot {
        if self.dc.archive().flush().is_err() {
            panic!("the archive flushes before it is copied");
        }
        let (src, dst, dir): (Arc<dyn StorageFs>, Arc<dyn StorageFs>, Option<PathBuf>) = match &self
            .archive
        {
            Archive::Sim(fs) => (Arc::clone(fs) as _, Arc::new(SimFs::new()), None),
            Archive::Real(live) => {
                let dir = run_dir.join(format!("snapshot-{}-{}", self.workload.name(), self.seed));
                let _ = std::fs::remove_dir_all(&dir);
                let src = RealFs::new(live).expect("the live archive directory exists");
                let dst = RealFs::new(&dir).expect("the benchmark owns its snapshot directory");
                (Arc::new(src), Arc::new(dst), Some(dir))
            }
        };
        for name in src.list().expect("the archive lists") {
            let bytes = src.read(&name).expect("archive files read");
            dst.write_atomic(&name, &bytes)
                .expect("snapshot files write");
        }
        let config = self.dc.config();
        let (digest, _) = self.archive_digest();
        ArchiveSnapshot {
            fs: dst,
            storage: config.storage.clone(),
            capacity: config.store_capacity,
            rollups: config.rollups.clone(),
            registry: self.dc.registry().clone(),
            readings: self.dc.archive().durable_len(),
            digest,
            dir,
        }
    }

    /// Closes the front end, flushes and reopens the site archive over the
    /// same storage (`DataCenter::restart_archive`), and checks that it
    /// recovered exactly the acknowledged readings with an identical
    /// digest. Returns the wall time of the reopen.
    pub fn reopen(&mut self) -> Duration {
        self.server = None;
        let before = self.archive_digest();
        let durable = self.dc.archive().durable_len();
        let t0 = Instant::now();
        let report = self.dc.restart_archive();
        let wall = t0.elapsed();
        let recovered = report.map_or(0, |r| r.readings_recovered);
        if recovered != durable || durable != self.handed || self.archive_digest() != before {
            self.failures.recovery += 1;
        }
        wall
    }

    /// Bytes the archive occupies on its filesystem.
    pub fn archive_bytes(&self) -> u64 {
        match &self.archive {
            Archive::Sim(fs) => fs
                .list()
                .unwrap_or_default()
                .iter()
                .filter_map(|f| fs.durable_len(f))
                .map(|n| n as u64)
                .sum(),
            Archive::Real(dir) => std::fs::read_dir(dir)
                .map(|entries| {
                    entries
                        .filter_map(Result::ok)
                        .filter_map(|e| e.metadata().ok())
                        .map(|m| m.len())
                        .sum()
                })
                .unwrap_or(0),
        }
    }

    /// Readings the archive holds durably.
    pub fn durable_readings(&self) -> u64 {
        self.dc.archive().durable_len()
    }

    pub fn flush_policy(&self) -> String {
        match &self.archive {
            Archive::Real(dir) => format!(
                "persistent archive on RealFs at {}, EngineConfig::default() (wal_sync_every={}, segment_max_readings={}), flushed once per runtime pass",
                dir.display(),
                EngineConfig::default().wal_sync_every,
                EngineConfig::default().segment_max_readings
            ),
            Archive::Sim(_) => format!(
                "hybrid archive on SimFs, EngineConfig::default() (wal_sync_every={}), flushed once per runtime pass",
                EngineConfig::default().wal_sync_every
            ),
        }
    }
}

impl Drop for World {
    fn drop(&mut self) {
        if let Archive::Real(dir) = &self.archive {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Digest of everything `store` holds, sensor by sensor, with the number
/// of readings it covers.
fn store_digest(store: &TimeSeriesStore, registry: &SensorRegistry) -> (u64, u64) {
    let engine = QueryEngine::new(store).with_registry(registry.clone());
    let mut h = FNV_OFFSET;
    let mut n = 0u64;
    for meta in registry.all() {
        let r = Query::sensors(meta.id)
            .range(TimeRange::all())
            .raw_scan()
            .run(&engine);
        h = fnv1a(h, &r.digest().to_le_bytes());
        n += r.readings().len() as u64;
    }
    (h, n)
}

/// A copy of the site archive as it stood after set-up. Reopening the copy
/// between measured stretches times recovery on a fixed amount of data,
/// with the samples spread over the run.
pub struct ArchiveSnapshot {
    fs: Arc<dyn StorageFs>,
    storage: StorageConfig,
    capacity: usize,
    rollups: RollupConfig,
    registry: SensorRegistry,
    readings: u64,
    digest: u64,
    dir: Option<PathBuf>,
}

impl ArchiveSnapshot {
    /// Opens the archive copy into a fresh store, as a process restart
    /// would (`open_backend`: segment load plus WAL replay). Returns the
    /// wall time, and whether it recovered exactly the copied readings
    /// (and, with `check_digest`, an identical archive digest).
    pub fn reopen(&self, check_digest: bool) -> (Duration, bool) {
        let store = Arc::new(TimeSeriesStore::with_rollups(
            self.capacity,
            TimeSeriesStore::DEFAULT_SHARDS,
            MetricsRegistry::disabled(),
            self.rollups.clone(),
        ));
        let t0 = Instant::now();
        let opened = open_backend(&self.storage, Arc::clone(&self.fs), store);
        let wall = t0.elapsed();
        let ok = opened.is_ok_and(|b| {
            b.durable_len() == self.readings
                && (!check_digest || store_digest(b.store(), &self.registry).0 == self.digest)
        });
        (wall, ok)
    }
}

impl Drop for ArchiveSnapshot {
    fn drop(&mut self) {
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

// ----- HTTP over SimNet -----------------------------------------------------

struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Response {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Sends `raw` on a fresh connection and polls the server until a complete
/// response arrives. Returns the response (if any) and the polls it took.
fn round_trip(net: &SimNet, server: &mut Server<SimNet>, raw: &[u8]) -> (Option<Response>, u64) {
    let conn = net.connect();
    net.client_send(conn, raw);
    let mut got = Vec::new();
    for polls in 1..=4096u64 {
        server.poll();
        got.extend(net.client_recv(conn));
        if let Some(r) = parse_response(&got) {
            net.client_close(conn);
            server.poll();
            return (Some(r), polls + 1);
        }
    }
    net.client_close(conn);
    server.poll();
    (None, 4097)
}

fn parse_response(raw: &[u8]) -> Option<Response> {
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
    if raw.len() < head_end + len {
        return None;
    }
    Some(Response {
        status,
        headers,
        body: raw[head_end..head_end + len].to_vec(),
    })
}
