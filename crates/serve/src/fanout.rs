//! Subscription fan-out: one bus subscription, many streaming clients.
//!
//! A facility dashboard deployment can easily want thousands of live
//! views of the same telemetry. Registering one [`TelemetryBus`]
//! subscriber per HTTP client would multiply the bus's per-publish work
//! by the client count; instead the [`FanoutHub`] holds exactly **one**
//! wide bus subscription and multiplexes its batches to every streaming
//! client, filtering per client by sensor pattern.
//!
//! Backpressure is strictly local: each client owns a bounded frame
//! buffer ([`crate::config::ServingConfig::sub_buffer_frames`]). When the
//! serving loop cannot flush a client as fast as the bus produces — a
//! slow reader, a congested socket — the *oldest* buffered frames for
//! that client are shed and counted, and every other client is entirely
//! unaffected. A frame is rendered once per batch and shared by `Arc`
//! across all buffers, so fan-out cost per extra client is one pointer
//! push, not one JSON render.
//!
//! Frames are newline-delimited JSON (`application/x-ndjson`):
//!
//! ```json
//! {"sensor":17,"name":"/hw/node3/power","readings":[{"ts_ms":120000,"value":213.5}]}
//! ```

use oda_telemetry::bus::{Subscription, TelemetryBus};
use oda_telemetry::pattern::SensorPattern;
use oda_telemetry::reading::ReadingBatch;
use oda_telemetry::sensor::{SensorId, SensorRegistry};
use serde_json::Value;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Monotone hub-wide fan-out counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FanoutStats {
    /// Batches drained from the bus subscription.
    pub batches_in: u64,
    /// Frames enqueued into client buffers (one per matching client).
    pub frames_enqueued: u64,
    /// Frames dequeued by the serving loop for writing.
    pub frames_dequeued: u64,
    /// Frames shed because a client's buffer was full (oldest-first).
    pub frames_shed: u64,
    /// Clients ever attached.
    pub clients_attached: u64,
    /// Clients detached (client close or server shutdown of the stream).
    pub clients_detached: u64,
}

struct FanoutClient {
    /// Sensors this client's pattern resolved to at attach time.
    sensors: Vec<SensorId>,
    pattern: SensorPattern,
    buf: VecDeque<Arc<Vec<u8>>>,
    limit: usize,
    shed: u64,
    delivered: u64,
}

impl FanoutClient {
    fn wants(&self, sensor: SensorId, registry: &SensorRegistry) -> bool {
        if self.sensors.binary_search(&sensor).is_ok() {
            return true;
        }
        // A sensor registered after attach: match by name so late-registered
        // sensors are picked up, mirroring bus subscription semantics.
        registry
            .name(sensor)
            .map(|n| self.pattern.matches(&n))
            .unwrap_or(false)
    }
}

/// One wide bus subscription multiplexed over many bounded client buffers.
pub struct FanoutHub {
    registry: SensorRegistry,
    sub: Option<Subscription>,
    clients: BTreeMap<u64, FanoutClient>,
    stats: FanoutStats,
}

impl FanoutHub {
    /// Creates a hub resolving client patterns against `registry`. No bus
    /// subscription exists until the first client attaches.
    pub fn new(registry: SensorRegistry) -> Self {
        FanoutHub {
            registry,
            sub: None,
            clients: BTreeMap::new(),
            stats: FanoutStats::default(),
        }
    }

    /// Attaches streaming client `key` with `pattern`, buffering at most
    /// `buffer_frames` rendered frames. The first client brings up the
    /// single wide bus subscription on `bus`. Returns `false` (and attaches
    /// nothing) if `key` is already attached.
    pub fn attach(
        &mut self,
        key: u64,
        pattern: &str,
        buffer_frames: usize,
        bus: &TelemetryBus,
    ) -> bool {
        let slot = match self.clients.entry(key) {
            Entry::Occupied(_) => return false,
            Entry::Vacant(v) => v,
        };
        let pattern = SensorPattern::new(pattern);
        let mut sensors = self.registry.matching(&pattern);
        sensors.sort_unstable();
        slot.insert(FanoutClient {
            sensors,
            pattern,
            buf: VecDeque::new(),
            limit: buffer_frames.max(1),
            shed: 0,
            delivered: 0,
        });
        self.stats.clients_attached += 1;
        if self.sub.is_none() {
            // One subscription covering everything; per-client filtering
            // happens here, not on the bus.
            self.sub = Some(bus.subscription("/**").named("serve-fanout").subscribe());
        }
        true
    }

    /// Detaches client `key`, dropping its buffered frames. The bus
    /// subscription is torn down when the last client leaves, so an idle
    /// server costs the bus nothing.
    pub fn detach(&mut self, key: u64) {
        if self.clients.remove(&key).is_some() {
            self.stats.clients_detached += 1;
        }
        if self.clients.is_empty() {
            self.sub = None;
        }
    }

    /// `true` if `key` is currently attached.
    pub fn is_attached(&self, key: u64) -> bool {
        self.clients.contains_key(&key)
    }

    /// Number of attached clients.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// Drains every batch the bus has published since the last pump and
    /// distributes rendered frames to matching client buffers, shedding the
    /// oldest frames of any client over its limit. Returns the number of
    /// batches drained.
    pub fn pump(&mut self) -> usize {
        let Some(sub) = &self.sub else {
            return 0;
        };
        let mut drained = 0;
        let mut frames: Vec<(SensorId, Arc<Vec<u8>>)> = Vec::new();
        while let Ok(batch) = sub.rx.try_recv() {
            drained += 1;
            let sensor = batch.sensor;
            frames.push((sensor, Arc::new(render_frame(&self.registry, &batch))));
        }
        if drained == 0 {
            return 0;
        }
        self.stats.batches_in += drained as u64;
        for client in self.clients.values_mut() {
            for (sensor, frame) in &frames {
                if !client.wants(*sensor, &self.registry) {
                    continue;
                }
                client.buf.push_back(Arc::clone(frame));
                self.stats.frames_enqueued += 1;
                while client.buf.len() > client.limit {
                    client.buf.pop_front();
                    client.shed += 1;
                    self.stats.frames_shed += 1;
                }
            }
        }
        drained
    }

    /// Pops the next buffered frame for client `key`, if any.
    pub fn next_frame(&mut self, key: u64) -> Option<Arc<Vec<u8>>> {
        let client = self.clients.get_mut(&key)?;
        let frame = client.buf.pop_front()?;
        client.delivered += 1;
        self.stats.frames_dequeued += 1;
        Some(frame)
    }

    /// `(delivered, shed, buffered)` frame counts for client `key`.
    pub fn client_counts(&self, key: u64) -> Option<(u64, u64, usize)> {
        self.clients
            .get(&key)
            .map(|c| (c.delivered, c.shed, c.buf.len()))
    }

    /// Hub-wide counters.
    pub fn stats(&self) -> FanoutStats {
        self.stats
    }
}

/// Renders one bus batch as an NDJSON frame (trailing newline included).
fn render_frame(registry: &SensorRegistry, batch: &ReadingBatch) -> Vec<u8> {
    let readings = Value::Array(
        batch
            .readings
            .iter()
            .map(|r| {
                Value::Object(vec![
                    ("ts_ms".to_string(), Value::U64(r.ts.0)),
                    ("value".to_string(), Value::F64(r.value)),
                ])
            })
            .collect(),
    );
    let mut fields = vec![("sensor".to_string(), Value::U64(u64::from(batch.sensor.0)))];
    if let Some(name) = registry.name(batch.sensor) {
        fields.push(("name".to_string(), Value::Str(name.to_string())));
    }
    fields.push(("readings".to_string(), readings));
    let mut line = serde_json::to_string(&Value::Object(fields))
        .unwrap_or_default()
        .into_bytes();
    line.push(b'\n');
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use oda_telemetry::prelude::*;

    fn bus_with(names: &[&str]) -> (TelemetryBus, Vec<SensorId>) {
        let registry = SensorRegistry::new();
        let ids = names
            .iter()
            .map(|n| registry.register(n, SensorKind::Power, Unit::Watts))
            .collect();
        let archive = Archive::in_memory(Arc::new(TimeSeriesStore::with_capacity(64)));
        (
            TelemetryBus::new(registry, archive, MetricsRegistry::global()),
            ids,
        )
    }

    fn publish(bus: &TelemetryBus, sensor: SensorId, ts: u64, value: f64) {
        bus.publish(ReadingBatch::single(
            sensor,
            Reading::new(Timestamp::from_millis(ts), value),
        ));
    }

    #[test]
    fn frames_fan_out_filtered_by_pattern() {
        let (bus, ids) = bus_with(&["/hw/n0/power", "/hw/n1/power", "/facility/pue"]);
        let mut hub = FanoutHub::new(bus.registry().clone());
        assert!(hub.attach(1, "/hw/**", 16, &bus));
        assert!(hub.attach(2, "/facility/**", 16, &bus));
        assert!(!hub.attach(2, "/facility/**", 16, &bus), "double attach");

        publish(&bus, ids[0], 10, 1.0);
        publish(&bus, ids[2], 10, 1.4);
        assert_eq!(hub.pump(), 2);

        let f = hub.next_frame(1).expect("hw client gets hw frame");
        let text = String::from_utf8_lossy(&f);
        assert!(text.contains("\"name\":\"/hw/n0/power\""), "{text}");
        assert!(text.ends_with('\n'));
        assert!(hub.next_frame(1).is_none(), "facility frame filtered out");

        let f = hub.next_frame(2).expect("facility client gets pue frame");
        assert!(String::from_utf8_lossy(&f).contains("/facility/pue"));
    }

    #[test]
    fn slow_consumer_sheds_oldest_frames_only_for_itself() {
        let (bus, ids) = bus_with(&["/hw/n0/power"]);
        let mut hub = FanoutHub::new(bus.registry().clone());
        hub.attach(1, "/**", 2, &bus); // slow: buffer of 2
        hub.attach(2, "/**", 16, &bus); // fast

        for i in 0..5 {
            publish(&bus, ids[0], 10 * (i + 1), i as f64);
        }
        hub.pump();

        // Slow client kept only the 2 newest frames.
        let (_, shed, buffered) = hub.client_counts(1).expect("client 1");
        assert_eq!((shed, buffered), (3, 2));
        let newest_first = hub.next_frame(1).expect("frame");
        assert!(String::from_utf8_lossy(&newest_first).contains("\"value\":3.0"));

        // Fast client saw everything.
        let (_, shed, buffered) = hub.client_counts(2).expect("client 2");
        assert_eq!((shed, buffered), (0, 5));
        assert_eq!(hub.stats().frames_shed, 3);
        assert_eq!(hub.stats().frames_enqueued, 10);
    }

    #[test]
    fn frames_are_shared_not_recloned() {
        let (bus, ids) = bus_with(&["/hw/n0/power"]);
        let mut hub = FanoutHub::new(bus.registry().clone());
        for k in 0..100 {
            hub.attach(k, "/**", 8, &bus);
        }
        publish(&bus, ids[0], 10, 1.0);
        hub.pump();
        let a = hub.next_frame(0).expect("frame");
        // 100 buffers held the same allocation: 99 clients still hold it.
        assert_eq!(Arc::strong_count(&a), 100);
    }

    #[test]
    fn last_detach_drops_the_bus_subscription() {
        let (bus, ids) = bus_with(&["/hw/n0/power"]);
        let mut hub = FanoutHub::new(bus.registry().clone());
        hub.attach(1, "/**", 8, &bus);
        assert_eq!(bus.subscriber_count(), 1);
        hub.detach(1);
        assert_eq!(bus.subscriber_count(), 0, "idle hub must not load the bus");
        // Re-attach resubscribes.
        hub.attach(2, "/**", 8, &bus);
        assert_eq!(bus.subscriber_count(), 1);
        publish(&bus, ids[0], 10, 1.0);
        assert_eq!(hub.pump(), 1);
        assert_eq!(hub.stats().clients_detached, 1);
    }

    #[test]
    fn late_registered_sensor_reaches_matching_clients() {
        let (bus, _) = bus_with(&["/hw/n0/power"]);
        let mut hub = FanoutHub::new(bus.registry().clone());
        hub.attach(1, "/hw/**", 8, &bus);
        // Register after attach; the bus picks it up, and so must the hub.
        let late = bus
            .registry()
            .register("/hw/n9/power", SensorKind::Power, Unit::Watts);
        publish(&bus, late, 10, 9.0);
        hub.pump();
        let f = hub.next_frame(1).expect("late sensor frame");
        assert!(String::from_utf8_lossy(&f).contains("/hw/n9/power"));
    }
}
