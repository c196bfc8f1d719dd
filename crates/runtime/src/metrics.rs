//! Lightweight scheduler counters.
//!
//! The counters are advisory (relaxed atomics) and exist so that benchmarks and tests can
//! observe that parallel execution actually happened (e.g. that steals occurred), playing
//! the role that Cilkview's burdened-dag statistics play in the paper's Figure 9 setup.
//!
//! Every counter is declared once, as one row of the table at the bottom of this module:
//! the row gives its [`Counter`] variant, its [`MetricsSnapshot`] field, its
//! [`CounterKind`] and its doc, so adding a metric is adding one row.

use std::sync::atomic::{AtomicU64, Ordering};

/// How [`Runtime::note`](crate::Runtime::note) folds a value into a counter, and how
/// [`MetricsSnapshot::delta`] compares two readings of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterKind {
    /// A running total: values are added; a delta is the difference.
    Sum,
    /// A high-water mark (a gauge, not a counter): the maximum value is kept; a
    /// delta carries the later reading.
    Peak,
}

/// Generates [`Counter`] and [`MetricsSnapshot`] from one table of
/// `Variant => field: Kind` rows, each with its doc.
macro_rules! counters {
    ($( $(#[doc = $doc:literal])+ $variant:ident => $field:ident: $kind:ident, )+) => {
        /// One runtime counter: a row of the metrics table.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Counter {
            $( $(#[doc = $doc])+ $variant, )+
        }

        impl Counter {
            /// Number of counters in the table.
            pub const COUNT: usize = [$(Counter::$variant),+].len();

            /// Every counter, in table order.
            pub const ALL: [Counter; Counter::COUNT] = [$(Counter::$variant),+];

            /// The counter's [`MetricsSnapshot`] field name.
            pub const fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => stringify!($field),)+
                }
            }

            /// Whether the counter is a running total or a high-water mark.
            pub const fn kind(self) -> CounterKind {
                match self {
                    $(Counter::$variant => CounterKind::$kind,)+
                }
            }
        }

        /// A point-in-time copy of the scheduler counters.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct MetricsSnapshot {
            $( $(#[doc = $doc])+ pub $field: u64, )+
        }

        impl MetricsSnapshot {
            /// The reading of `counter` in this snapshot.
            pub fn get(&self, counter: Counter) -> u64 {
                match counter {
                    $(Counter::$variant => self.$field,)+
                }
            }

            fn get_mut(&mut self, counter: Counter) -> &mut u64 {
                match counter {
                    $(Counter::$variant => &mut self.$field,)+
                }
            }
        }
    };
}

/// Counters accumulated over the lifetime of a worker registry (one per
/// [`Runtime`](crate::Runtime)).
#[derive(Debug)]
pub struct Metrics {
    counters: [AtomicU64; Counter::COUNT],
    /// Jobs executed per worker (the pool's work distribution); empty when the
    /// metrics were built without a worker count.
    per_worker_executed: Box<[AtomicU64]>,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::with_workers(0)
    }
}

impl Metrics {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates zeroed counters with a per-worker executed slot for each of
    /// `workers` pool threads (the pool's work-distribution histogram).
    pub fn with_workers(workers: usize) -> Self {
        Metrics {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            per_worker_executed: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Records `value` against `counter`: added for a [`CounterKind::Sum`], kept
    /// if larger for a [`CounterKind::Peak`].
    #[inline]
    pub(crate) fn note(&self, counter: Counter, value: u64) {
        let slot = &self.counters[counter as usize];
        match counter.kind() {
            CounterKind::Sum => slot.fetch_add(value, Ordering::Relaxed),
            CounterKind::Peak => slot.fetch_max(value, Ordering::Relaxed),
        };
    }

    /// Records a job executed by worker `index` (and in the aggregate counter).
    #[inline]
    pub(crate) fn note_execute_on(&self, index: usize) {
        self.note(Counter::Executed, 1);
        if let Some(slot) = self.per_worker_executed.get(index) {
            slot.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Jobs executed per worker since the registry started — the pool's work
    /// distribution.  Empty when the metrics were built without a worker count.
    pub fn worker_executed(&self) -> Vec<u64> {
        self.per_worker_executed
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Takes a snapshot of the current counter values.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snapshot = MetricsSnapshot::default();
        for counter in Counter::ALL {
            *snapshot.get_mut(counter) = self.counters[counter as usize].load(Ordering::Relaxed);
        }
        snapshot
    }
}

impl MetricsSnapshot {
    /// Counter deltas between two snapshots (`later - self`); a
    /// [`CounterKind::Peak`] carries the later reading.
    pub fn delta(&self, later: &MetricsSnapshot) -> MetricsSnapshot {
        let mut delta = MetricsSnapshot::default();
        for counter in Counter::ALL {
            *delta.get_mut(counter) = match counter.kind() {
                CounterKind::Sum => later.get(counter).saturating_sub(self.get(counter)),
                CounterKind::Peak => later.get(counter),
            };
        }
        delta
    }
}

counters! {
    /// Jobs pushed onto any deque or the injector.
    Spawned => spawned: Sum,
    /// Jobs obtained by stealing (from a peer deque or the injector).
    Stolen => stolen: Sum,
    /// Jobs executed to completion.
    Executed => executed: Sum,
    /// Session-registry lookups served by an already-compiled `CompiledProgram`.
    SessionRegistryHits => session_registry_hits: Sum,
    /// Session-registry lookups that had to compile a fresh `CompiledProgram`.
    SessionRegistryMisses => session_registry_misses: Sum,
    /// Session-registry entries evicted (LRU) by lookups reported to this runtime.
    SessionRegistryEvictions => session_registry_evictions: Sum,
    /// Per-window work items executed by pipelined serving drains.
    ServingWindows => serving_windows: Sum,
    /// Submissions whose final window was dispatched after its logical deadline.
    ServingDeadlineMisses => serving_deadline_misses: Sum,
    /// High-water mark of the serving ready queue (a gauge, not a counter:
    /// [`MetricsSnapshot::delta`] reports the later snapshot's value).
    ServingQueueDepthPeak => serving_queue_depth_peak: Peak,
    /// Requests rejected by serving admission control — at submit time (quota or
    /// watermark exceeded) or at dispatch time (logical deadline already unmeetable).
    ServingShed => serving_shed: Sum,
    /// Session-compilation retry attempts performed by the serving layer's bounded
    /// retry-with-backoff policy after a `CompileFailed` lookup.
    ServingRetries => serving_retries: Sum,
    /// Session keys quarantined in the serving registry after a tenant panic
    /// (evicted, or additionally banned for a number of lookups).
    ServingQuarantined => serving_quarantined: Sum,
    /// Poisoned shared-state locks (registry, session pin sets, schedule cache)
    /// recovered instead of propagating the poison panic.
    RegistryPoisonRecoveries => registry_poison_recoveries: Sum,
    /// Window runs whose geometry failed `should_compile` and were demoted off the
    /// compiled-arena path (onto sharded tiles or the recursive reference walker).
    ScheduleCompileRejections => schedule_compile_rejections: Sum,
    /// Tile executions launched by sharded giant-grid runs (one count per tile per
    /// window phase).
    ShardTiles => shard_tiles: Sum,
    /// Grid cells copied by shard halo-exchange syncs between tile neighbours
    /// (seam strips only; the one-time scatter/gather is not counted).
    ShardHaloCells => shard_halo_cells: Sum,
    /// TCP connections accepted by a network stencil service in this process.
    NetConnections => net_connections: Sum,
    /// Protocol frames decoded off client connections.
    NetFramesIn => net_frames_in: Sum,
    /// Protocol frames written back to clients.
    NetFramesOut => net_frames_out: Sum,
    /// Wire bytes read off client connections (length prefixes included).
    NetBytesIn => net_bytes_in: Sum,
    /// Wire bytes written back to clients (length prefixes included).
    NetBytesOut => net_bytes_out: Sum,
    /// Frames rejected as malformed (truncated, oversized, unknown opcode,
    /// version mismatch, or a server-to-client opcode sent by a client).
    NetProtocolErrors => net_protocol_errors: Sum,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every row of the table: noted values accumulate by kind, deltas subtract
    /// totals and carry peaks, and each name is unique and labels the field `get`
    /// reads.
    #[test]
    fn every_counter_accumulates_and_deltas_by_kind() {
        let m = Metrics::new();
        for (i, &counter) in Counter::ALL.iter().enumerate() {
            // Distinct per counter, so reading the wrong field cannot pass.
            let v = 100 * (i as u64 + 1);
            m.note(counter, v);
            m.note(counter, 3);
            let expected = match counter.kind() {
                CounterKind::Sum => v + 3,
                CounterKind::Peak => v,
            };
            assert_eq!(m.snapshot().get(counter), expected, "{}", counter.name());
        }
        let before = m.snapshot();
        for counter in Counter::ALL {
            m.note(counter, 2);
        }
        let after = m.snapshot();
        let delta = before.delta(&after);
        for counter in Counter::ALL {
            let expected = match counter.kind() {
                CounterKind::Sum => 2,
                CounterKind::Peak => after.get(counter),
            };
            assert_eq!(delta.get(counter), expected, "{}", counter.name());
        }

        // The derived Debug lists `field: value` pairs in declaration order.
        let debug = format!("{after:?}");
        let fields: Vec<(&str, u64)> = debug
            .trim_start_matches("MetricsSnapshot { ")
            .trim_end_matches(" }")
            .split(", ")
            .map(|pair| {
                let (name, value) = pair.split_once(": ").expect("field: value");
                (name, value.parse().expect("u64 field"))
            })
            .collect();
        assert_eq!(fields.len(), Counter::COUNT);
        for (i, counter) in Counter::ALL.into_iter().enumerate() {
            assert_eq!(fields[i], (counter.name(), after.get(counter)));
            assert!(
                Counter::ALL[..i].iter().all(|c| c.name() != counter.name()),
                "duplicate name {}",
                counter.name()
            );
        }
    }

    #[test]
    fn per_worker_distribution() {
        let m = Metrics::with_workers(3);
        m.note_execute_on(0);
        m.note_execute_on(2);
        m.note_execute_on(2);
        m.note_execute_on(99); // out-of-range index only hits the aggregate
        assert_eq!(m.worker_executed(), vec![1, 0, 2]);
        assert_eq!(m.snapshot().executed, 4);
    }
}
