//! The coordinator: ingest routing, scatter-gather queries, and
//! failure-driven rebalance over a set of collector shards.
//!
//! # Determinism argument
//!
//! Unsharded query execution is per-sensor for everything except the
//! final alignment step: [`crate::query`] fetches, buckets and
//! aggregates each resolved sensor independently, then (for aligned
//! queries only) merges the per-sensor bucket lists onto a union grid.
//! The coordinator exploits exactly that structure:
//!
//! 1. the selector is resolved once, centrally, into the same ordered
//!    sensor list the unsharded engine would produce;
//! 2. each shard executes a sub-query over only the sensors it owns —
//!    per-sensor work identical to the unsharded scan, including the
//!    rollup-tier planner (aligned queries are rewritten to per-shard
//!    mean-bucket queries, the exact per-sensor computation the
//!    unsharded aligned path runs);
//! 3. partial results are gathered in ascending-shard-id order and each
//!    per-sensor partial is slotted back into the sensor's position in
//!    the resolved order — a deterministic fold whose result does not
//!    depend on shard count or reply timing;
//! 4. for aligned queries the coordinator runs the same
//!    [`align_buckets`] merge the unsharded engine runs, over per-sensor
//!    inputs that are bit-identical to the unsharded ones.
//!
//! Every step is either per-sensor-identical or a deterministic
//! reassembly, so [`QueryResult::digest`] is bit-identical at any shard
//! count, including `shards = 1` — the property `tests/cluster.rs` and
//! the scale bench's exit gate assert. Readers therefore see the
//! coordinator as one more [`Source`]. Every shard command leaves through
//! one `scatter` helper; each caller decides whether its guard spans the
//! gather.
//!
//! # Rebalance protocol
//!
//! A node-failure fault against a shard runs fail-stop handoff:
//! drain-stop the shard (its queue empties and its WAL syncs), remove
//! its virtual nodes from the placement ring (only its sensors remap),
//! reopen its durable tier ([`PersistentEngine::open`]) from the
//! surviving filesystem, and replay each moved sensor's readings into
//! its new owner in acceptance order, through the same routing as
//! [`ClusterCoordinator::ingest_all`]. Because a shard runs no command
//! after an ingest before the group commit's WAL sync (see
//! [`super::shard`]), no accepted reading is lost. The last alive shard
//! cannot be removed; failing it restarts it in place from its own
//! durable tier instead.

use crate::cluster::placement::{PlacementMap, ShardId};
use crate::cluster::shard::{EdgeTask, ShardCmd, ShardHandle, ShardHealth};
use crate::cluster::ClusterConfig;
use crate::metrics::MetricsRegistry;
use crate::query::{align_buckets, Query, QueryResult, ResultData, SensorSelector, Shape, Source};
use crate::reading::{ReadingBatch, Timestamp};
use crate::sensor::{SensorId, SensorRegistry};
use crate::storage::engine::PersistentEngine;
use crate::storage::{FsError, SimFs, StorageFs};
use crossbeam_channel::{bounded, Receiver, Sender};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-shard occupancy snapshot surfaced through `/api/v1/stats`.
#[derive(Debug, Clone)]
pub struct ShardOccupancy {
    /// Which shard.
    pub shard: ShardId,
    /// Whether the shard is alive (failed shards report zeros).
    pub alive: bool,
    /// Sensors the placement ring currently assigns to this shard.
    pub sensors_owned: u64,
    /// Readings resident in the shard's hot store.
    pub readings: u64,
    /// Readings evicted from the shard's ring buffers.
    pub evicted: u64,
    /// Readings durably stored by the shard's archive tier.
    pub durable_len: u64,
    /// Batches the shard has published since spawn.
    pub published: u64,
}

/// Shard membership plus per-shard occupancy: the `/api/v1/stats`
/// `shards` section, as reported by [`Source::shard_stats`].
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Configured shard count (alive or not).
    pub count: usize,
    /// Alive shards.
    pub alive: usize,
    /// Membership epoch.
    pub epoch: u64,
    /// Rebalances performed so far.
    pub rebalances: u64,
    /// One entry per configured shard.
    pub occupancy: Vec<ShardOccupancy>,
}

struct State {
    placement: PlacementMap,
    /// Indexed by shard id; `None` marks a failed (removed) shard.
    shards: Vec<Option<ShardHandle>>,
    rebalances: u64,
}

/// Routes ingest by sensor placement and executes queries via
/// scatter-gather over the shard set (see the module docs for the
/// determinism and rebalance contracts).
///
/// The lock guards *membership only* (the shard table and placement
/// ring); the data plane is entirely message-passing — readers of the
/// lock send commands into shard queues and shards never take the lock,
/// so there are no shared locks across shards and no lock-ordering
/// hazards between ingest, query and rebalance.
pub struct ClusterCoordinator {
    cfg: ClusterConfig,
    registry: SensorRegistry,
    state: RwLock<State>,
}

impl ClusterCoordinator {
    /// Spawns `cfg.shards` collector shards, each over its own private
    /// simulated filesystem, and builds the placement ring.
    ///
    /// # Panics
    /// Panics if `cfg.shards == 0` (a cluster needs at least one shard).
    pub fn new(cfg: ClusterConfig, registry: SensorRegistry) -> Result<Self, FsError> {
        let placement = PlacementMap::new(cfg.shards, cfg.vnodes_per_shard);
        let mut shards = Vec::with_capacity(cfg.shards);
        for s in 0..cfg.shards {
            let fs: Arc<dyn StorageFs> = Arc::new(SimFs::new());
            shards.push(Some(ShardHandle::spawn(
                ShardId(s as u32),
                &cfg,
                registry.clone(),
                fs,
            )?));
        }
        Ok(ClusterCoordinator {
            cfg,
            registry,
            state: RwLock::new(State {
                placement,
                shards,
                rebalances: 0,
            }),
        })
    }

    /// Configured shard count (alive or not).
    pub fn shard_count(&self) -> usize {
        self.state.read().placement.shard_count()
    }

    /// Alive shard ids, ascending.
    pub fn alive_shards(&self) -> Vec<ShardId> {
        self.state.read().placement.alive()
    }

    /// Membership epoch (bumps on every failure or restart).
    pub fn epoch(&self) -> u64 {
        self.state.read().placement.epoch()
    }

    /// Rebalances (slice handoffs to surviving shards) performed so far.
    /// A last-shard restart-in-place moves no data and is *not* counted
    /// here; it is visible as an [`Self::epoch`] bump instead.
    pub fn rebalances(&self) -> u64 {
        self.state.read().rebalances
    }

    /// Routes one batch to the shard owning its sensor; the same as
    /// [`Self::ingest_all`] with one batch.
    pub fn ingest(&self, batch: ReadingBatch) -> bool {
        self.ingest_all(vec![batch])
    }

    /// Routes batches to the shards owning their sensors: one ingest
    /// command per owning shard, sent in ascending shard order, each
    /// holding that shard's batches in their given order. A shard
    /// group-commits the ingest commands queued back to back with one WAL
    /// flush, and runs no later command before that flush, so a query or
    /// [`Self::fence`] issued after this call observes every batch, durably
    /// (see the `shard` module). Returns `false` if some owner's queue is
    /// disconnected (only possible mid-shutdown).
    pub fn ingest_all(&self, batches: Vec<ReadingBatch>) -> bool {
        route(&self.state.read(), batches)
    }

    /// Barrier: returns once every alive shard has drained all commands
    /// enqueued before the call (each queue is FIFO, so a fence reply
    /// proves every earlier ingest on that shard is applied and durable).
    pub fn fence(&self) {
        let state = self.state.read();
        // The guard *must* span the barrier: a concurrent `fail_shard`
        // between scatter and gather could stop a fenced shard and leave
        // its reply forever pending. Shards never take this lock, so the
        // wait cannot deadlock (see the struct docs).
        // odalint: allow(guard-across-blocking) -- fence is a barrier by design; shards never take state, so no deadlock
        fence_alive(&state);
    }

    /// Resolves `query`'s selector to the concrete ordered sensor list —
    /// the same list the unsharded engine would scan (explicit ids as
    /// given; patterns matched against the registry in ascending id
    /// order).
    pub fn resolve(&self, query: &Query) -> Vec<SensorId> {
        query.selector.resolve(Some(&self.registry))
    }

    /// Snapshots per-sensor store versions from the owning shards, in
    /// the given sensor order — the cluster analogue of
    /// [`crate::store::TimeSeriesStore::sensor_version`], used by the
    /// serving layer's result cache.
    pub fn sensor_versions(&self, sensors: &[SensorId]) -> Vec<u64> {
        let state = self.state.read();
        let pending = scatter(
            &state,
            by_owner(&state.placement, sensors),
            |slice, reply| ShardCmd::Versions {
                sensors: slice.iter().map(|&(_, s)| s).collect(),
                reply,
            },
        );
        // Gather outside the lock: a slow shard must not stall placement
        // writers. Replies are routed by `reply` channel, not identity,
        // so a concurrent failover cannot misdirect them.
        drop(state);
        let mut out = vec![0u64; sensors.len()];
        for (slice, rx) in pending {
            if let Ok(versions) = rx.recv() {
                slot_back(&mut out, &slice, versions);
            }
        }
        out
    }

    /// Executes `query` by scatter-gather: resolve centrally, send each
    /// shard a sub-query over the sensors it owns, gather partials in
    /// ascending-shard-id order, and slot each per-sensor partial back
    /// into the sensor's resolved position. Bit-identical to unsharded
    /// execution at any shard count (see the module docs).
    pub fn query(&self, query: Query) -> QueryResult {
        let sensors = self.resolve(&query);
        // Aligned queries cannot be executed per-shard directly (the
        // union grid spans all sensors), but their per-sensor core —
        // mean-bucketing at the requested width — is exactly a bucket
        // query, so scatter that and run the final alignment centrally.
        let sub_shape = match query.shape {
            Shape::Aligned { bucket_ms } => Shape::Buckets {
                bucket_ms,
                agg: crate::query::Aggregation::Mean,
            },
            other => other,
        };
        let state = self.state.read();
        let pending = scatter(
            &state,
            by_owner(&state.placement, &sensors),
            |slice, reply| {
                let selector = SensorSelector::Ids(slice.iter().map(|&(_, s)| s).collect());
                let query = Query {
                    selector,
                    shape: sub_shape,
                    ..query
                };
                ShardCmd::Query { query, reply }
            },
        );
        // Gather in scatter order: a shard-id-sorted fold into
        // position-addressed slots, independent of reply timing. The
        // guard drops first — shard-local query execution must not block
        // placement writers.
        drop(state);
        let n = sensors.len();
        let mut gathered = match sub_shape {
            Shape::Readings => ResultData::Series(vec![Vec::new(); n]),
            Shape::Scalars(_) => ResultData::Scalars(vec![None; n]),
            _ => ResultData::Buckets(vec![Vec::new(); n]),
        };
        for (slice, rx) in pending {
            let Ok(partial) = rx.recv() else { continue };
            match (&mut gathered, partial.shape) {
                (ResultData::Series(slots), ResultData::Series(p)) => slot_back(slots, &slice, p),
                (ResultData::Buckets(slots), ResultData::Buckets(p)) => slot_back(slots, &slice, p),
                (ResultData::Scalars(slots), ResultData::Scalars(p)) => slot_back(slots, &slice, p),
                _ => {}
            }
        }
        let shape = match (query.shape, gathered) {
            (Shape::Aligned { .. }, ResultData::Buckets(slots)) => {
                let (grid, matrix) = align_buckets(&slots);
                ResultData::Aligned { grid, matrix }
            }
            (_, data) => data,
        };
        QueryResult { sensors, shape }
    }

    /// Health reports from every alive shard, in ascending shard order.
    pub fn health(&self) -> Vec<ShardHealth> {
        let state = self.state.read();
        let pending = scatter(&state, alive(&state), |_, reply| ShardCmd::Health { reply });
        // Gather with the lock released; see `query`.
        drop(state);
        pending
            .into_iter()
            .filter_map(|(_, rx)| rx.recv().ok())
            .collect()
    }

    /// Per-shard occupancy for `/api/v1/stats`: one entry per configured
    /// shard (failed shards report `alive: false` and zeros).
    pub fn occupancy(&self) -> Vec<ShardOccupancy> {
        let health = self.health();
        let state = self.state.read();
        let mut owned = vec![0u64; state.placement.shard_count()];
        for meta in self.registry.all() {
            let owner = state.placement.owner(meta.id);
            if let Some(slot) = owned.get_mut(owner.index()) {
                *slot += 1;
            }
        }
        (0..state.placement.shard_count())
            .map(|i| {
                let shard = ShardId(i as u32);
                let alive = state.placement.is_alive(shard);
                let h = health.iter().find(|h| h.shard == shard);
                ShardOccupancy {
                    shard,
                    alive,
                    // The ring never maps a sensor to a failed shard.
                    sensors_owned: owned.get(i).copied().unwrap_or(0),
                    readings: h.map(|h| h.report.total_len() as u64).unwrap_or(0),
                    evicted: h.map(|h| h.report.total_evicted()).unwrap_or(0),
                    durable_len: h.map(|h| h.durable_len).unwrap_or(0),
                    published: h.map(|h| h.published).unwrap_or(0),
                }
            })
            .collect()
    }

    /// Runs `task` on every alive shard's own thread against its local
    /// store (edge placement), gathering `(shard, samples)` in ascending
    /// shard order.
    pub fn run_edge(&self, task: EdgeTask) -> Vec<(ShardId, Vec<(String, f64)>)> {
        let state = self.state.read();
        let pending = scatter(&state, alive(&state), |_, reply| ShardCmd::Edge {
            task: Arc::clone(&task),
            reply,
        });
        // Gather with the lock released; see `query`.
        drop(state);
        pending
            .into_iter()
            .filter_map(|(id, rx)| rx.recv().ok().map(|samples| (id, samples)))
            .collect()
    }

    /// Fails `shard` and rebalances its slice: drain-stop the shard,
    /// remove its ring points, reopen its durable tier from the
    /// surviving filesystem and replay every moved sensor into its new
    /// owner in acceptance order (no accepted reading is lost — see the
    /// module docs). Failing the last alive shard restarts it in place
    /// from its own durable tier instead of removing it.
    ///
    /// Returns `false` if `shard` is unknown or already failed.
    pub fn fail_shard(&self, shard: ShardId) -> bool {
        let mut state = self.state.write();
        if !state.placement.is_alive(shard) {
            return false;
        }
        let Some(handle) = state.shards.get_mut(shard.index()).and_then(Option::take) else {
            return false;
        };
        // Drain-stop: the queue empties and the WAL syncs, so the
        // filesystem below holds every reading the shard ever accepted.
        // The write guard intentionally spans the whole failover — no
        // ingest/query may observe a half-failed cluster. The stopped
        // shard drains independently of this lock (shards never take it).
        // odalint: allow(guard-across-blocking) -- failover is exclusive by design; the drained shard never takes state
        let fs = handle.stop();
        if !state.placement.fail(shard) {
            // Last alive shard: restart in place. The backend replays the
            // durable tier into a fresh hot store on open, recovering ring
            // and rollup state bit-identically.
            match ShardHandle::spawn(shard, &self.cfg, self.registry.clone(), fs) {
                Ok(h) => {
                    if let Some(slot) = state.shards.get_mut(shard.index()) {
                        *slot = Some(h);
                    }
                    // No data moved owners: an epoch bump records the
                    // membership event, the rebalance counter does not.
                    state.placement.note_restart();
                    return true;
                }
                Err(_) => return false,
            }
        }
        // Handoff: moved sensors are exactly the failed shard's slice
        // (consistent hashing moves nothing else). Placement was captured
        // per-sensor *before* the ring rebuild via ownership of the old
        // map — recompute from the new map's perspective instead: a
        // sensor moved iff its new owner differs from `shard`, and the
        // failed shard's durable tier holds only its own sensors, so
        // replaying every sensor it stored is precisely the moved set.
        let report = MetricsRegistry::new();
        if let Ok((engine, _recovery)) =
            PersistentEngine::open(Arc::clone(&fs), self.cfg.storage.engine.clone(), &report)
        {
            let mut moved = Vec::new();
            for meta in self.registry.all() {
                let mut readings = Vec::new();
                if engine
                    .range_into(meta.id, Timestamp::ZERO, Timestamp(u64::MAX), &mut readings)
                    .is_ok()
                    && !readings.is_empty()
                {
                    moved.push(ReadingBatch {
                        sensor: meta.id,
                        readings,
                    });
                }
            }
            route(&state, moved);
        }
        // Fence the survivors so the handoff is fully applied (and
        // durable on the new owners) before the failure "completes".
        // odalint: allow(guard-across-blocking) -- failover barrier by design; survivors never take state, so no deadlock
        fence_alive(&state);
        state.rebalances += 1;
        true
    }

    /// Maps a chaos-harness node failure onto the shard hierarchy: node
    /// `node_index` is served by collector shard `node_index % shards`;
    /// if that shard already failed, the fault cascades to the next
    /// alive shard clockwise. Returns the shard actually failed (or
    /// restarted in place), or `None` if the cluster has no alive shard
    /// to fail.
    pub fn apply_node_failure(&self, node_index: usize) -> Option<ShardId> {
        let (count, alive) = {
            let state = self.state.read();
            (state.placement.shard_count(), state.placement.alive())
        };
        if count == 0 || alive.is_empty() {
            return None;
        }
        let start = node_index % count;
        for off in 0..count {
            let id = ShardId(((start + off) % count) as u32);
            if alive.contains(&id) && self.fail_shard(id) {
                return Some(id);
            }
        }
        None
    }
}

impl Source for ClusterCoordinator {
    fn resolve(&self, query: &Query) -> Vec<SensorId> {
        ClusterCoordinator::resolve(self, query)
    }

    fn versions(&self, sensors: &[SensorId]) -> Vec<u64> {
        self.sensor_versions(sensors)
    }

    fn query(&self, query: Query) -> QueryResult {
        ClusterCoordinator::query(self, query)
    }

    fn shard_stats(&self) -> Option<ShardStats> {
        Some(ShardStats {
            occupancy: self.occupancy(),
            count: self.shard_count(),
            alive: self.alive_shards().len(),
            epoch: self.epoch(),
            rebalances: self.rebalances(),
        })
    }
}

impl Drop for ClusterCoordinator {
    fn drop(&mut self) {
        let state = self.state.get_mut();
        for slot in state.shards.iter_mut() {
            if let Some(h) = slot.take() {
                let _ = h.stop();
            }
        }
    }
}

/// Every alive shard as a scatter target keyed by its id, ascending.
fn alive(state: &State) -> impl Iterator<Item = (ShardId, ShardId)> {
    state.placement.alive().into_iter().map(|id| (id, id))
}

/// Groups `sensors` by owning shard, ascending, pairing each sensor with
/// its position in `sensors`.
fn by_owner(
    placement: &PlacementMap,
    sensors: &[SensorId],
) -> BTreeMap<ShardId, Vec<(usize, SensorId)>> {
    let mut parts: BTreeMap<ShardId, Vec<(usize, SensorId)>> = BTreeMap::new();
    for (pos, &s) in sensors.iter().enumerate() {
        parts.entry(placement.owner(s)).or_default().push((pos, s));
    }
    parts
}

/// The one scatter: sends each target shard the command `cmd` builds from
/// the target's key and a fresh reply sender, and returns the reply
/// receivers in target order (callers pass targets in ascending shard
/// order). A shard missing from the table or with a disconnected queue is
/// skipped. The caller decides whether its guard spans the gather.
fn scatter<K, T>(
    state: &State,
    targets: impl IntoIterator<Item = (ShardId, K)>,
    mut cmd: impl FnMut(&K, Sender<T>) -> ShardCmd,
) -> Vec<(K, Receiver<T>)> {
    let mut pending = Vec::new();
    for (shard, key) in targets {
        let Some(Some(h)) = state.shards.get(shard.index()) else {
            continue;
        };
        let (reply, rx) = bounded(1);
        if h.tx.send(cmd(&key, reply)).is_ok() {
            pending.push((key, rx));
        }
    }
    pending
}

/// Sends each owning shard one ingest command with its batches, in
/// ascending shard order. Returns `false` if some owner is missing from
/// the table or its queue is disconnected.
fn route(state: &State, batches: Vec<ReadingBatch>) -> bool {
    let mut parts: BTreeMap<ShardId, Vec<ReadingBatch>> = BTreeMap::new();
    for batch in batches {
        parts
            .entry(state.placement.owner(batch.sensor))
            .or_default()
            .push(batch);
    }
    let mut ok = true;
    for (shard, part) in parts {
        ok &= match state.shards.get(shard.index()) {
            Some(Some(h)) => h.tx.send(ShardCmd::Ingest(part)).is_ok(),
            _ => false,
        };
    }
    ok
}

/// Sends a fence to every alive shard and waits for all replies.
fn fence_alive(state: &State) {
    for (_, rx) in scatter(state, alive(state), |_, reply| ShardCmd::Fence { reply }) {
        let _ = rx.recv();
    }
}

/// Writes each per-sensor partial into its sensor's position in the
/// resolved order. `slice` pairs positions with sensors in the exact
/// order the sub-query listed them, so `partials[k]` is the result for
/// `slice[k]`'s sensor.
fn slot_back<T>(slots: &mut [T], slice: &[(usize, SensorId)], partials: Vec<T>) {
    for (&(pos, _), partial) in slice.iter().zip(partials) {
        if let Some(slot) = slots.get_mut(pos) {
            *slot = partial;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::EdgeView;
    use crate::query::{Aggregation, QueryEngine, TimeRange};
    use crate::reading::Reading;
    use crate::sensor::{SensorKind, Unit};
    use crate::store::TimeSeriesStore;
    use parking_lot::Mutex;
    use std::thread::JoinHandle;

    /// A 4-shard coordinator and an unsharded store built like one shard's,
    /// both fed the same 20 readings for each of 32 sensors.
    fn fed() -> (ClusterCoordinator, TimeSeriesStore, SensorRegistry) {
        let registry = SensorRegistry::new();
        let cfg = ClusterConfig::with_shards(4);
        let store = TimeSeriesStore::with_rollups(
            cfg.per_sensor_capacity,
            TimeSeriesStore::DEFAULT_SHARDS,
            MetricsRegistry::new(),
            cfg.rollups.clone(),
        );
        let c = ClusterCoordinator::new(cfg, registry.clone()).expect("shards open over SimFs");
        for node in 0..8 {
            for metric in ["power", "temp", "util", "fan"] {
                let id = registry.register(
                    &format!("/hw/node{node}/{metric}"),
                    SensorKind::Power,
                    Unit::Watts,
                );
                for t in 0..20u64 {
                    let r = Reading::new(
                        Timestamp::from_millis(t * 700),
                        f64::from(id.0) * 3.0 + (t % 7) as f64,
                    );
                    store.insert(id, r);
                    assert!(c.ingest(ReadingBatch::single(id, r)));
                }
            }
        }
        c.fence();
        (c, store, registry)
    }

    type Tally = Arc<Mutex<BTreeMap<(u32, &'static str), u64>>>;

    /// Puts a relay in front of every alive shard's queue that tallies
    /// each command under (shard, kind) and forwards it unchanged, so FIFO
    /// order and replies are untouched.
    fn count_commands(c: &ClusterCoordinator) -> (Tally, Vec<JoinHandle<()>>) {
        let tally = Tally::default();
        let mut relays = Vec::new();
        let mut state = c.state.write();
        for (i, slot) in state.shards.iter_mut().enumerate() {
            let Some(h) = slot else { continue };
            let (tx, rx) = bounded::<ShardCmd>(16);
            let shard_tx = std::mem::replace(&mut h.tx, tx);
            let tally = Arc::clone(&tally);
            relays.push(std::thread::spawn(move || {
                while let Ok(cmd) = rx.recv() {
                    let kind = match &cmd {
                        ShardCmd::Ingest(_) => "ingest",
                        ShardCmd::Query { .. } => "query",
                        ShardCmd::Versions { .. } => "versions",
                        ShardCmd::Health { .. } => "health",
                        ShardCmd::Edge { .. } => "edge",
                        ShardCmd::Fence { .. } => "fence",
                        ShardCmd::Stop { .. } => "stop",
                    };
                    *tally.lock().entry((i as u32, kind)).or_default() += 1;
                    if shard_tx.send(cmd).is_err() {
                        return;
                    }
                }
            }));
        }
        (tally, relays)
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn every_scatter_reaches_each_alive_shard_exactly_once() {
        let (c, _, _) = fed();
        assert!(c.fail_shard(ShardId(1)));
        let alive: Vec<u32> = c.alive_shards().iter().map(|s| s.0).collect();
        assert_eq!(alive, [0, 2, 3]);
        let (tally, relays) = count_commands(&c);

        let all = c.resolve(&Query::sensors("/**"));
        assert_eq!(all.len(), 32);
        let tick: Vec<ReadingBatch> = all
            .iter()
            .map(|&s| ReadingBatch::single(s, Reading::new(Timestamp::from_millis(14_000), 1.0)))
            .collect();
        assert!(c.ingest_all(tick), "one ingest command per owning shard");
        let means = c
            .query(Query::sensors("/**").aggregate(Aggregation::Mean))
            .scalars();
        assert!(means.iter().all(Option::is_some), "a slice went missing");
        let versions = c.sensor_versions(&all);
        assert!(versions.iter().all(|&v| v > 0), "{versions:?}");
        let occupancy = c.occupancy();
        assert_eq!(occupancy.iter().filter(|o| o.alive).count(), 3);
        let edge: Vec<u32> = c
            .run_edge(Arc::new(|_: &EdgeView<'_>| Vec::new()))
            .iter()
            .map(|(s, _)| s.0)
            .collect();
        assert_eq!(edge, alive, "edge replies gather in ascending shard order");
        c.fence();

        let got = tally.lock().clone();
        let expected: BTreeMap<(u32, &'static str), u64> = alive
            .iter()
            .flat_map(|&s| {
                ["ingest", "query", "versions", "health", "edge", "fence"]
                    .map(|kind| ((s, kind), 1))
            })
            .collect();
        assert_eq!(got, expected);
        drop(c);
        for relay in relays {
            relay.join().expect("relay thread");
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn a_command_queued_between_two_ingests_sees_only_the_first() {
        let registry = SensorRegistry::new();
        let s = registry.register("/hw/node0/power", SensorKind::Power, Unit::Watts);
        let c = ClusterCoordinator::new(ClusterConfig::with_shards(1), registry)
            .expect("shard opens over SimFs");
        let batch = |from: u64, n: u64| ReadingBatch {
            sensor: s,
            readings: (from..from + n)
                .map(|t| Reading::new(Timestamp::from_millis(t * 1_000), t as f64))
                .collect(),
        };
        // The edge task parks the shard until the test has queued ingest A,
        // a `Versions` query and ingest B behind it.
        let gate = Arc::new(std::sync::Barrier::new(2));
        let task: EdgeTask = {
            let gate = Arc::clone(&gate);
            Arc::new(move |_: &EdgeView<'_>| {
                gate.wait();
                gate.wait();
                Vec::new()
            })
        };
        let (reply, versions) = bounded(1);
        std::thread::scope(|scope| {
            let c = &c;
            let parked = scope.spawn(move || c.run_edge(task));
            gate.wait();
            assert!(c.ingest(batch(0, 3)));
            {
                let state = c.state.read();
                let Some(Some(h)) = state.shards.first() else {
                    panic!("shard 0 is alive");
                };
                let cmd = ShardCmd::Versions {
                    sensors: vec![s],
                    reply,
                };
                assert!(h.tx.send(cmd).is_ok());
            }
            assert!(c.ingest(batch(3, 2)));
            gate.wait();
            parked.join().expect("edge caller");
        });
        // One version per accepted reading: A holds 3, B 2 more.
        assert_eq!(versions.recv().ok(), Some(vec![3]), "Versions ran after B");
        c.fence();
        assert_eq!(c.sensor_versions(&[s]), [5]);
        let health = c.health();
        assert_eq!(health.len(), 1);
        assert_eq!((health[0].published, health[0].durable_len), (2, 5));
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn pattern_queries_match_the_unsharded_engine() {
        let (c, store, registry) = fed();
        let engine = QueryEngine::new(&store).with_registry(registry);
        let window = TimeRange::new(
            Timestamp::from_millis(1_000),
            Timestamp::from_millis(12_000),
        );
        for q in [
            Query::sensors("/hw/*/power"),
            Query::sensors("/hw/node3/*").range(window).rate(),
            Query::sensors("/hw/**").downsample(2_000, Aggregation::Max),
            Query::sensors("/hw/*/temp").aggregate(Aggregation::Quantile(0.9)),
            Query::sensors("/hw/*/fan").range(window).align(1_500),
        ] {
            assert_eq!(c.resolve(&q), engine.resolve(&q));
            assert_eq!(c.query(q.clone()).digest(), q.run(&engine).digest());
        }
    }
}
