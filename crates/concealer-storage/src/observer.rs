//! The adversary's view of the storage layer.
//!
//! Concealer's security argument is about what the untrusted service
//! provider *observes*: the trapdoors submitted to the DBMS, the physical
//! rows returned, and the sizes of every transfer. [`AccessObserver`]
//! records exactly that trace so the test-suite and benchmarks can check the
//! paper's claims mechanically:
//!
//! * **volume hiding** — every point query on an epoch causes the same
//!   number of rows to be fetched (§4, bins of identical size);
//! * **partial access-pattern hiding** — the set of fetched rows depends
//!   only on the bin, never on which predicate inside the bin was queried;
//! * **workload-attack mitigation** (§8) — with super-bins enabled the
//!   retrieval frequency of the fetched units is near-uniform under a
//!   uniform query workload.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One observable storage-level event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessEvent {
    /// A trapdoor (exact-match key) was submitted to the index.
    TrapdoorIssued {
        /// Epoch the lookup targeted.
        epoch_id: u64,
        /// Length in bytes of the trapdoor (ciphertext length, not content).
        trapdoor_len: usize,
        /// Whether the index found a matching row.
        hit: bool,
    },
    /// A physical row was returned to the enclave.
    RowFetched {
        /// Epoch the row belongs to.
        epoch_id: u64,
        /// Physical row id within the epoch segment.
        row_id: u64,
        /// Bytes transferred for this row.
        bytes: usize,
    },
    /// A full segment scan was performed (baseline systems).
    FullScan {
        /// Epoch scanned.
        epoch_id: u64,
        /// Rows read.
        rows: usize,
        /// Bytes transferred.
        bytes: usize,
    },
    /// A whole epoch segment was ingested.
    EpochIngested {
        /// Epoch id.
        epoch_id: u64,
        /// Number of rows in the shipment (real + fake; the adversary cannot
        /// tell them apart).
        rows: usize,
        /// Bytes received.
        bytes: usize,
    },
    /// An epoch segment was replaced (dynamic-insertion re-encryption).
    EpochRewritten {
        /// Epoch id.
        epoch_id: u64,
        /// Number of rows in the replacement.
        rows: usize,
    },
    /// A query session boundary marker; lets analyses group events per query.
    QueryBoundary,
}

/// Aggregate statistics derived from an access trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObserverSummary {
    /// Trapdoors issued.
    pub trapdoors: usize,
    /// Rows fetched via the index.
    pub rows_fetched: usize,
    /// Bytes moved from storage to the enclave via index fetches.
    pub bytes_fetched: usize,
    /// Full scans performed.
    pub full_scans: usize,
    /// Rows read by full scans.
    pub scanned_rows: usize,
    /// Number of distinct physical rows touched (per epoch, row id).
    pub distinct_rows_touched: usize,
    /// Per-row fetch frequency, keyed by `(epoch_id, row_id)`.
    pub fetch_frequency: BTreeMap<(u64, u64), usize>,
}

/// Thread-safe recorder of [`AccessEvent`]s. Cloning shares the underlying
/// trace (it is an `Arc`), so the storage layer, the enclave and the test
/// harness can all hold handles to the same observer.
///
/// The trace is unbounded — two events per fetched row — so it is kept only
/// while somebody is there to read it: recording is on for a fresh
/// observer, which is what every in-process reader (tests, examples, the
/// benchmark's probes) relies on, and a serving process, which never reads
/// its own trace, switches it off
/// ([`AccessObserver::set_recording`]). What the adversary *can* observe is
/// the same either way; the switch only decides whether this process keeps
/// a copy.
#[derive(Debug, Clone)]
pub struct AccessObserver {
    shared: Arc<Shared>,
}

#[derive(Debug)]
struct Shared {
    events: Mutex<Vec<AccessEvent>>,
    recording: AtomicBool,
}

impl Default for AccessObserver {
    fn default() -> Self {
        AccessObserver {
            shared: Arc::new(Shared {
                events: Mutex::new(Vec::new()),
                recording: AtomicBool::new(true),
            }),
        }
    }
}

impl AccessObserver {
    /// Create a fresh, empty observer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Keep (`true`, the default) or stop keeping (`false`) the trace, for
    /// this handle and every clone of it. While off, [`Self::record`],
    /// [`Self::record_batch`] and [`Self::mark_query_boundary`] return at
    /// once; events already recorded stay until drained or reset.
    pub fn set_recording(&self, on: bool) {
        self.shared.recording.store(on, Ordering::SeqCst);
    }

    /// Whether events are being kept. Callers that would build a vector of
    /// events only to hand it to [`Self::record_batch`] ask first.
    #[must_use]
    pub fn is_recording(&self) -> bool {
        self.shared.recording.load(Ordering::SeqCst)
    }

    /// Record an event.
    pub fn record(&self, event: AccessEvent) {
        if self.is_recording() {
            self.shared.events.lock().push(event);
        }
    }

    /// Record a query boundary marker.
    pub fn mark_query_boundary(&self) {
        self.record(AccessEvent::QueryBoundary);
    }

    /// Append a pre-ordered batch of events under a single lock
    /// acquisition, so no event from another thread can interleave inside
    /// the batch.
    ///
    /// This is the merge half of the parallel execution protocol: worker
    /// tasks record into task-local observers (one per `(epoch, bin)`
    /// fetch), and the engine concatenates the buffers **in ascending bin
    /// order** before appending them here. The resulting trace is
    /// byte-identical to a sequential execution of the same batch — the
    /// union-of-per-query-traces invariant holds exactly, not just up to
    /// reordering.
    pub fn record_batch(&self, events: Vec<AccessEvent>) {
        if self.is_recording() {
            self.shared.events.lock().extend(events);
        }
    }

    /// Drain all recorded events, leaving the observer empty. Used to move
    /// a task-local trace into the shared observer via
    /// [`AccessObserver::record_batch`].
    #[must_use]
    pub fn take_events(&self) -> Vec<AccessEvent> {
        std::mem::take(&mut *self.shared.events.lock())
    }

    /// Number of events recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shared.events.lock().len()
    }

    /// Whether no events have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shared.events.lock().is_empty()
    }

    /// Snapshot the full trace.
    #[must_use]
    pub fn trace(&self) -> Vec<AccessEvent> {
        self.shared.events.lock().clone()
    }

    /// Clear the trace (between experiments).
    pub fn reset(&self) {
        self.shared.events.lock().clear();
    }

    /// Summarize the whole trace.
    #[must_use]
    pub fn summary(&self) -> ObserverSummary {
        Self::summarize(&self.shared.events.lock())
    }

    /// Summarize an arbitrary slice of events.
    #[must_use]
    pub fn summarize(events: &[AccessEvent]) -> ObserverSummary {
        let mut s = ObserverSummary::default();
        for e in events {
            match e {
                AccessEvent::TrapdoorIssued { .. } => s.trapdoors += 1,
                AccessEvent::RowFetched {
                    epoch_id,
                    row_id,
                    bytes,
                } => {
                    s.rows_fetched += 1;
                    s.bytes_fetched += bytes;
                    *s.fetch_frequency.entry((*epoch_id, *row_id)).or_insert(0) += 1;
                }
                AccessEvent::FullScan { rows, bytes, .. } => {
                    s.full_scans += 1;
                    s.scanned_rows += rows;
                    s.bytes_fetched += bytes;
                }
                AccessEvent::EpochIngested { .. }
                | AccessEvent::EpochRewritten { .. }
                | AccessEvent::QueryBoundary => {}
            }
        }
        s.distinct_rows_touched = s.fetch_frequency.len();
        s
    }

    /// Split the trace into per-query segments using [`AccessEvent::QueryBoundary`]
    /// markers, and summarize each. The boundary event closes the preceding
    /// segment.
    #[must_use]
    pub fn per_query_summaries(&self) -> Vec<ObserverSummary> {
        self.shared
            .events
            .lock()
            .split(|e| matches!(e, AccessEvent::QueryBoundary))
            .filter(|segment| !segment.is_empty())
            .map(Self::summarize)
            .collect()
    }

    /// The multiset of rows fetched in each query segment, as sorted vectors
    /// of `(epoch, row_id)`. Used to assert that different predicates inside
    /// the same bin produce *identical* fetch sets.
    #[must_use]
    pub fn per_query_fetch_sets(&self) -> Vec<Vec<(u64, u64)>> {
        self.shared
            .events
            .lock()
            .split(|e| matches!(e, AccessEvent::QueryBoundary))
            .map(|segment| {
                let mut set: Vec<(u64, u64)> = segment
                    .iter()
                    .filter_map(|e| match e {
                        AccessEvent::RowFetched {
                            epoch_id, row_id, ..
                        } => Some((*epoch_id, *row_id)),
                        _ => None,
                    })
                    .collect();
                set.sort_unstable();
                set
            })
            .filter(|set| !set.is_empty())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fetched(epoch: u64, row: u64) -> AccessEvent {
        AccessEvent::RowFetched {
            epoch_id: epoch,
            row_id: row,
            bytes: 100,
        }
    }

    #[test]
    fn records_and_summarizes() {
        let obs = AccessObserver::new();
        obs.record(AccessEvent::TrapdoorIssued {
            epoch_id: 1,
            trapdoor_len: 24,
            hit: true,
        });
        obs.record(fetched(1, 10));
        obs.record(fetched(1, 10));
        obs.record(fetched(1, 11));
        let s = obs.summary();
        assert_eq!(s.trapdoors, 1);
        assert_eq!(s.rows_fetched, 3);
        assert_eq!(s.bytes_fetched, 300);
        assert_eq!(s.distinct_rows_touched, 2);
        assert_eq!(s.fetch_frequency[&(1, 10)], 2);
    }

    #[test]
    fn per_query_segmentation() {
        let obs = AccessObserver::new();
        obs.record(fetched(1, 1));
        obs.record(fetched(1, 2));
        obs.mark_query_boundary();
        obs.record(fetched(1, 2));
        obs.record(fetched(1, 1));
        obs.mark_query_boundary();

        let summaries = obs.per_query_summaries();
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].rows_fetched, 2);
        assert_eq!(summaries[1].rows_fetched, 2);

        let sets = obs.per_query_fetch_sets();
        assert_eq!(sets[0], sets[1], "same rows regardless of order");
    }

    #[test]
    fn reset_clears_trace() {
        let obs = AccessObserver::new();
        obs.record(fetched(1, 1));
        assert!(!obs.is_empty());
        obs.reset();
        assert!(obs.is_empty());
        assert_eq!(obs.summary(), ObserverSummary::default());
    }

    #[test]
    fn clones_share_the_trace() {
        let obs = AccessObserver::new();
        let handle = obs.clone();
        handle.record(fetched(3, 7));
        assert_eq!(obs.len(), 1);
        assert_eq!(obs.trace(), handle.trace());
    }

    #[test]
    fn record_batch_appends_in_order_and_take_events_drains() {
        let obs = AccessObserver::new();
        obs.record(fetched(1, 1));
        obs.record_batch(vec![fetched(2, 2), fetched(3, 3)]);
        assert_eq!(
            obs.trace(),
            vec![fetched(1, 1), fetched(2, 2), fetched(3, 3)]
        );
        let drained = obs.take_events();
        assert_eq!(drained.len(), 3);
        assert!(obs.is_empty());
    }

    /// Off means nothing is kept, by any entry point, on any clone; back on
    /// means recording resumes where the trace stood.
    #[test]
    fn a_paused_observer_records_nothing_until_resumed() {
        let obs = AccessObserver::new();
        assert!(obs.is_recording(), "a fresh observer records");
        obs.record(fetched(1, 1));
        let handle = obs.clone();
        handle.set_recording(false);
        assert!(!obs.is_recording(), "clones share the switch");
        obs.record(fetched(1, 2));
        obs.record_batch(vec![fetched(1, 3), fetched(1, 4)]);
        obs.mark_query_boundary();
        assert_eq!(obs.trace(), vec![fetched(1, 1)]);
        obs.set_recording(true);
        handle.record_batch(vec![fetched(1, 5)]);
        assert_eq!(obs.trace(), vec![fetched(1, 1), fetched(1, 5)]);
    }

    #[test]
    fn full_scan_counted() {
        let obs = AccessObserver::new();
        obs.record(AccessEvent::FullScan {
            epoch_id: 1,
            rows: 1000,
            bytes: 50_000,
        });
        let s = obs.summary();
        assert_eq!(s.full_scans, 1);
        assert_eq!(s.scanned_rows, 1000);
        assert_eq!(s.bytes_fetched, 50_000);
    }

    #[test]
    fn trailing_segment_without_boundary_is_included() {
        let obs = AccessObserver::new();
        obs.record(fetched(1, 1));
        obs.mark_query_boundary();
        obs.record(fetched(1, 2));
        // no trailing boundary
        assert_eq!(obs.per_query_summaries().len(), 2);
        assert_eq!(obs.per_query_fetch_sets().len(), 2);
    }
}
