//! Durable storage: WAL + compressed segment files under one [`Archive`].
//!
//! An [`Archive`] is a hot store (sharded ring buffers plus rollup tiers in
//! [`crate::store::TimeSeriesStore`]) plus an optional durable engine, so
//! the query planner, rollup tiers and health reporting work identically
//! whether or not the archive survives a restart:
//!
//! - In-memory — the hot store only, nothing durable.
//! - Persistent / Hybrid — a [`PersistentEngine`] (WAL + sealed segments,
//!   see [`engine`]) paired with the hot store as a **mirror** that serves
//!   planner and rollup queries. On open, the engine replays the durable
//!   archive into the mirror; because replay preserves per-sensor
//!   acceptance order, the recovered hot state is bit-identical whenever
//!   the durable history is complete. The two kinds differ in query
//!   routing policy ([`BackendKind`]) and in how health evictions are
//!   attributed.
//!
//! All I/O flows through the injectable [`StorageFs`] shim ([`fs`]), so
//! crash scenarios — torn writes, short reads, lying fsyncs — are simulated
//! deterministically in tests, and all timing comes from the shim's logical
//! clock rather than the wall clock.

pub mod codec;
pub mod engine;
pub mod fs;
pub mod segment;
pub mod wal;

use std::sync::Arc;

pub use engine::{EngineConfig, PersistentEngine, RecoveryReport};
pub use fs::{FsError, RealFs, SimFs, StorageFs};

use crate::health::HealthReport;
use crate::metrics::Counter;
use crate::reading::{Reading, Timestamp};
use crate::sensor::SensorId;
use crate::store::TimeSeriesStore;

/// Which storage backend an archive uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Hot in-memory store only; nothing survives a restart.
    InMemory,
    /// WAL + segments are the source of truth; [`Archive::range`] queries
    /// scan the durable files (honest cold-path latency), with the hot
    /// mirror serving only the planner/rollup interfaces.
    Persistent,
    /// Hot ring answers range queries whenever it still covers the window;
    /// the durable engine serves windows the ring has evicted.
    Hybrid,
}

impl BackendKind {
    /// Stable lowercase name (used in benchmark JSON and config).
    pub fn as_str(self) -> &'static str {
        match self {
            BackendKind::InMemory => "inmemory",
            BackendKind::Persistent => "persistent",
            BackendKind::Hybrid => "hybrid",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Archive configuration carried through `DataCenterConfig`.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageConfig {
    /// Backend selection.
    pub backend: BackendKind,
    /// Engine tuning (ignored by [`BackendKind::InMemory`]).
    pub engine: EngineConfig,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            backend: BackendKind::InMemory,
            engine: EngineConfig::default(),
        }
    }
}

impl StorageConfig {
    /// In-memory archive (the default).
    pub fn in_memory() -> Self {
        Self::default()
    }

    /// Persistent archive with default engine tuning.
    pub fn persistent() -> Self {
        StorageConfig {
            backend: BackendKind::Persistent,
            ..Self::default()
        }
    }

    /// Hybrid archive with default engine tuning.
    pub fn hybrid() -> Self {
        StorageConfig {
            backend: BackendKind::Hybrid,
            ..Self::default()
        }
    }
}

/// The archive: a hot store, plus a durable engine for the persistent and
/// hybrid kinds.
///
/// The hot [`TimeSeriesStore`] is always present (it is the whole archive
/// for [`BackendKind::InMemory`], and a replayed mirror for the durable
/// kinds), so its consumers — query planner, rollup tiers, alert
/// evaluation — work unchanged over all three kinds.
pub struct Archive {
    store: Arc<TimeSeriesStore>,
    durable: Option<Durable>,
}

/// The durable tier of a persistent or hybrid archive.
struct Durable {
    kind: BackendKind,
    engine: PersistentEngine,
    recovery: RecoveryReport,
    m_wal_errors: Counter,
}

impl std::fmt::Debug for Archive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Archive")
            .field("kind", &self.kind())
            .finish_non_exhaustive()
    }
}

impl Archive {
    /// An in-memory archive over `store`: nothing survives a restart.
    pub fn in_memory(store: Arc<TimeSeriesStore>) -> Arc<Archive> {
        Arc::new(Archive {
            store,
            durable: None,
        })
    }

    /// Which backend kind this archive is.
    pub fn kind(&self) -> BackendKind {
        self.durable
            .as_ref()
            .map_or(BackendKind::InMemory, |d| d.kind)
    }

    /// The hot store serving planner and rollup queries.
    pub fn store(&self) -> &Arc<TimeSeriesStore> {
        &self.store
    }

    /// Archive a batch: insert into the hot store and, for durable kinds,
    /// WAL-log exactly the readings the store accepted. Returns the number
    /// of accepted readings.
    pub fn insert_batch(&self, sensor: SensorId, readings: &[Reading]) -> usize {
        let Some(d) = &self.durable else {
            return self.store.insert_batch(sensor, readings);
        };
        let mut accepted = Vec::with_capacity(readings.len());
        let n = self
            .store
            .insert_batch_accepted(sensor, readings, &mut accepted);
        // Log exactly what the ring accepted so durable history mirrors hot
        // history. A WAL failure must not take down the ingest path: the
        // hot store already has the data; surface the loss via metrics.
        if !accepted.is_empty() && d.engine.append(sensor, &accepted).is_err() {
            d.m_wal_errors.inc();
        }
        n
    }

    /// Range query in `[start, end)` routed by kind: in-memory reads the
    /// hot ring, persistent scans the durable files (honest cold-path
    /// latency), hybrid reads the ring whenever it still covers the window
    /// and the durable files otherwise.
    pub fn range(&self, sensor: SensorId, start: Timestamp, end: Timestamp) -> Vec<Reading> {
        match &self.durable {
            Some(d) if d.kind == BackendKind::Persistent || !self.ring_covers(sensor, start) => {
                let mut out = Vec::new();
                if d.engine.range_into(sensor, start, end, &mut out).is_err() {
                    d.m_wal_errors.inc();
                }
                out
            }
            _ => self.store.range(sensor, start, end),
        }
    }

    /// Whether the hot ring still covers every reading at or after `start`
    /// for `sensor` (nothing relevant has been overwritten).
    fn ring_covers(&self, sensor: SensorId, start: Timestamp) -> bool {
        match self.store.sensor_health(sensor) {
            None => false,
            Some(h) if h.evicted == 0 => true,
            Some(_) => match self.store.oldest(sensor) {
                // Evicted readings all precede the retained suffix, so a
                // strictly-older oldest stamp proves `[start, ..)` intact.
                Some(oldest) => oldest.ts < start,
                None => false,
            },
        }
    }

    /// Fsync any buffered WAL records.
    pub fn flush(&self) -> Result<(), FsError> {
        self.durable.as_ref().map_or(Ok(()), |d| d.engine.flush())
    }

    /// Run one deterministic compaction pass; returns segments folded.
    pub fn compact(&self) -> Result<usize, FsError> {
        self.durable.as_ref().map_or(Ok(0), |d| d.engine.compact())
    }

    /// Health report of the hot store. For durable kinds, `evicted` means
    /// **lost from the archive**: a reading overwritten in the hot ring but
    /// still held in a durable segment has not been evicted from the
    /// archive, and must not be counted; it is counted exactly once when
    /// segment retention expires it. The ring's per-sensor eviction counts
    /// are replaced by the engine's retention-expiry counts.
    pub fn health_report(&self) -> HealthReport {
        let mut report = self.store.health_report();
        if let Some(d) = &self.durable {
            for h in report.sensors.iter_mut() {
                h.evicted = d.engine.expired_for(h.sensor);
            }
        }
        report
    }

    /// Readings durably stored or represented; 0 for in-memory.
    pub fn durable_len(&self) -> u64 {
        self.durable.as_ref().map_or(0, |d| d.engine.durable_len())
    }

    /// Recovery report from open, for durable kinds.
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.durable.as_ref().map(|d| &d.recovery)
    }
}

/// Build the archive selected by `cfg` over `fs`, replaying any durable
/// archive into the provided fresh hot `store`.
pub fn open_backend(
    cfg: &StorageConfig,
    fs: Arc<dyn StorageFs>,
    store: Arc<TimeSeriesStore>,
) -> Result<Arc<Archive>, FsError> {
    let kind = cfg.backend;
    if kind == BackendKind::InMemory {
        return Ok(Archive::in_memory(store));
    }
    let metrics = store.metrics().clone();
    let (engine, recovery) = PersistentEngine::open(fs, cfg.engine.clone(), &metrics)?;
    engine.replay_into(&store)?;
    let durable = Durable {
        kind,
        engine,
        recovery,
        m_wal_errors: metrics.counter("storage_wal_errors_total", &[]),
    };
    Ok(Arc::new(Archive {
        store,
        durable: Some(durable),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reading(ts: u64, v: f64) -> Reading {
        Reading {
            ts: Timestamp(ts),
            value: v,
        }
    }

    fn open_kind(kind: BackendKind, fs: Arc<SimFs>, capacity: usize) -> Arc<Archive> {
        let cfg = StorageConfig {
            backend: kind,
            engine: EngineConfig {
                segment_max_readings: 8,
                wal_sync_every: 1,
                ..EngineConfig::default()
            },
        };
        let store = Arc::new(TimeSeriesStore::with_capacity(capacity));
        open_backend(&cfg, fs as Arc<dyn StorageFs>, store).unwrap()
    }

    #[test]
    fn in_memory_backend_matches_store() {
        let store = Arc::new(TimeSeriesStore::with_capacity(16));
        let backend = Archive::in_memory(Arc::clone(&store));
        assert_eq!(
            backend.insert_batch(SensorId(1), &[reading(1, 1.0), reading(2, 2.0)]),
            2
        );
        assert_eq!(
            backend
                .range(SensorId(1), Timestamp::ZERO, Timestamp::MAX)
                .len(),
            2
        );
        assert_eq!(backend.durable_len(), 0);
        assert!(backend.recovery().is_none());
        assert_eq!(backend.kind(), BackendKind::InMemory);
    }

    #[test]
    fn durable_backend_survives_reopen() {
        let fs = Arc::new(SimFs::new());
        {
            let backend = open_kind(BackendKind::Persistent, Arc::clone(&fs), 64);
            for i in 0..20u64 {
                backend.insert_batch(SensorId(3), &[reading(i * 10, i as f64)]);
            }
            backend.flush().unwrap();
        }
        let backend = open_kind(BackendKind::Persistent, fs, 64);
        let rec = backend.recovery().unwrap();
        assert_eq!(rec.readings_recovered, 20);
        assert_eq!(backend.store().series_len(SensorId(3)), 20);
        assert_eq!(
            backend
                .range(SensorId(3), Timestamp::ZERO, Timestamp::MAX)
                .len(),
            20
        );
    }

    #[test]
    fn rejected_readings_never_reach_the_wal() {
        let fs = Arc::new(SimFs::new());
        {
            let backend = open_kind(BackendKind::Persistent, Arc::clone(&fs), 64);
            let batch = [
                reading(100, 1.0),
                reading(50, 2.0), // out of order: rejected
                Reading {
                    ts: Timestamp(200),
                    value: f64::NAN,
                }, // non-finite: rejected
                reading(300, 3.0),
            ];
            assert_eq!(backend.insert_batch(SensorId(1), &batch), 2);
            backend.flush().unwrap();
        }
        let backend = open_kind(BackendKind::Persistent, fs, 64);
        let got = backend.range(SensorId(1), Timestamp::ZERO, Timestamp::MAX);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].ts, Timestamp(100));
        assert_eq!(got[1].ts, Timestamp(300));
    }

    #[test]
    fn hybrid_serves_hot_window_from_ring_and_cold_from_segments() {
        let fs = Arc::new(SimFs::new());
        // Tiny ring (capacity 4) so early readings are evicted from the
        // ring but remain durable.
        let backend = open_kind(BackendKind::Hybrid, fs, 4);
        for i in 0..32u64 {
            backend.insert_batch(SensorId(5), &[reading(i * 10, i as f64)]);
        }
        // Ring holds the last 4 readings (ts 280..310); everything is
        // durable. Start 290 > oldest ring stamp 280, so this window is
        // served from the ring.
        let hot = backend.range(SensorId(5), Timestamp(290), Timestamp::MAX);
        assert_eq!(hot.len(), 3);
        let cold = backend.range(SensorId(5), Timestamp::ZERO, Timestamp::MAX);
        assert_eq!(cold.len(), 32);
        assert_eq!(cold[0].ts, Timestamp(0));
    }

    #[test]
    fn durable_health_does_not_double_count_ring_overwrite_as_eviction() {
        let fs = Arc::new(SimFs::new());
        let backend = open_kind(BackendKind::Hybrid, fs, 4);
        for i in 0..32u64 {
            backend.insert_batch(SensorId(7), &[reading(i * 10, i as f64)]);
        }
        // The ring overwrote 28 readings, but all 32 are durable: the
        // archive has evicted nothing.
        let ring_evicted = backend.store().sensor_health(SensorId(7)).unwrap().evicted;
        assert_eq!(ring_evicted, 28);
        let report = backend.health_report();
        assert_eq!(report.sensor(SensorId(7)).unwrap().evicted, 0);
        assert_eq!(report.total_evicted(), 0);
    }
}
