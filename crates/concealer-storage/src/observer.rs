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
//!
//! The trace is a sequence of [`AccessEvent`]s, and every reader sees it
//! as one. It is *kept* more compactly: an index lookup, which the trace
//! states as `TrapdoorIssued` and, on a hit, `RowFetched`, is one 4-byte
//! row id (or a miss marker), and a run of lookups that share their epoch,
//! trapdoor length and row width — a bin fetch is one, as an epoch's rows
//! have one shape — shares one header that states those three. The other
//! events — ingests, rewrites, scans, query boundaries, one or a few per
//! query — sit beside the lookups at their place in the order. Lookups
//! are nearly all of a trace, so it takes 4 B per lookup instead of two
//! 32-byte events.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crate::table::RowId;
use crate::unpoisoned;

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

impl ObserverSummary {
    /// Count one more event.
    fn add(&mut self, event: &AccessEvent) {
        match *event {
            AccessEvent::TrapdoorIssued { .. } => self.trapdoors += 1,
            AccessEvent::RowFetched {
                epoch_id,
                row_id,
                bytes,
            } => {
                self.rows_fetched += 1;
                self.bytes_fetched += bytes;
                *self.fetch_frequency.entry((epoch_id, row_id)).or_insert(0) += 1;
                self.distinct_rows_touched = self.fetch_frequency.len();
            }
            AccessEvent::FullScan { rows, bytes, .. } => {
                self.full_scans += 1;
                self.scanned_rows += rows;
                self.bytes_fetched += bytes;
            }
            AccessEvent::EpochIngested { .. }
            | AccessEvent::EpochRewritten { .. }
            | AccessEvent::QueryBoundary => {}
        }
    }
}

/// The row id of a lookup that missed. No hit carries it: a segment
/// holds at most `u32::MAX` rows, so row ids stop one below.
const MISS: u32 = u32::MAX;

/// What a run of lookups shares: the epoch, the trapdoor length and the
/// bytes of a row fetched. The run's lookups are the log's row ids from
/// `start` up to the next run's `start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    epoch_id: u64,
    trapdoor_len: usize,
    /// Bytes of each row the run fetched; `None` while every lookup of the
    /// run missed.
    bytes: Option<usize>,
    start: usize,
}

impl Run {
    /// Take a lookup of `trapdoor_len` bytes in `epoch_id` that hit a row
    /// of `bytes`, or missed (`None`), if it reads back right as one of
    /// this run's.
    fn take(&mut self, epoch_id: u64, trapdoor_len: usize, bytes: Option<usize>) -> bool {
        let fits = self.epoch_id == epoch_id
            && self.trapdoor_len == trapdoor_len
            && (bytes.is_none() || self.bytes.is_none() || bytes == self.bytes);
        if fits && bytes.is_some() {
            self.bytes = bytes;
        }
        fits
    }

    /// The events of this run's lookup that fetched `row_id` (or
    /// [`MISS`]): `TrapdoorIssued`, then `RowFetched` on a hit.
    fn events(&self, row_id: u32) -> (AccessEvent, Option<AccessEvent>) {
        let hit = row_id != MISS;
        let issued = AccessEvent::TrapdoorIssued {
            epoch_id: self.epoch_id,
            trapdoor_len: self.trapdoor_len,
            hit,
        };
        let fetched = hit.then_some(AccessEvent::RowFetched {
            epoch_id: self.epoch_id,
            row_id: u64::from(row_id),
            bytes: self.bytes.unwrap_or(0),
        });
        (issued, fetched)
    }
}

/// A trace in the form it is kept in: one row id per index lookup, one
/// [`Run`] header per run of lookups that share theirs, and every other
/// event beside the lookups at its place in the order. The events it
/// stands for are [`TraceLog::events`].
#[derive(Debug, Default)]
pub(crate) struct TraceLog {
    /// Per lookup, the row it fetched or [`MISS`].
    ids: Vec<u32>,
    /// The runs, by ascending `start`; the first starts at 0.
    runs: Vec<Run>,
    /// Every other event, after the number of lookups it follows: an event
    /// at `n` comes after lookup `n - 1` and before lookup `n`, and events
    /// at one place keep the order they were pushed in.
    others: Vec<(usize, AccessEvent)>,
    /// How many events the log stands for.
    len: usize,
}

impl TraceLog {
    /// An empty log with room for `lookups` lookups.
    pub(crate) fn with_lookups(lookups: usize) -> Self {
        TraceLog {
            ids: Vec::with_capacity(lookups),
            ..TraceLog::default()
        }
    }

    /// Append one event.
    pub(crate) fn push(&mut self, event: AccessEvent) {
        self.others.push((self.ids.len(), event));
        self.len += 1;
    }

    /// Append one index lookup of a `trapdoor_len`-byte trapdoor in
    /// `epoch_id` that hit `(row id, row bytes)` or missed. A lookup whose
    /// row id does not fit a `u32` below [`MISS`] is kept as its events.
    #[inline]
    pub(crate) fn push_lookup(
        &mut self,
        epoch_id: u64,
        trapdoor_len: usize,
        hit: Option<(RowId, usize)>,
    ) {
        let id = match hit {
            None => MISS,
            Some((row_id, bytes)) => match u32::try_from(row_id) {
                Ok(id) if id != MISS => id,
                _ => {
                    self.push(AccessEvent::TrapdoorIssued {
                        epoch_id,
                        trapdoor_len,
                        hit: true,
                    });
                    self.push(AccessEvent::RowFetched {
                        epoch_id,
                        row_id,
                        bytes,
                    });
                    return;
                }
            },
        };
        let bytes = hit.map(|(_, bytes)| bytes);
        if !self
            .runs
            .last_mut()
            .is_some_and(|run| run.take(epoch_id, trapdoor_len, bytes))
        {
            self.runs.push(Run {
                epoch_id,
                trapdoor_len,
                bytes,
                start: self.ids.len(),
            });
        }
        self.ids.push(id);
        self.len += 1 + usize::from(id != MISS);
    }

    /// Append `other`'s events behind this log's.
    fn append(&mut self, other: TraceLog) {
        let base = self.ids.len();
        self.others
            .extend(other.others.into_iter().map(|(at, e)| (base + at, e)));
        self.runs.extend(other.runs.into_iter().map(|run| Run {
            start: base + run.start,
            ..run
        }));
        self.ids.extend_from_slice(&other.ids);
        self.len += other.len;
    }

    /// Drop every event, keeping the buffers' room.
    fn clear(&mut self) {
        self.ids.clear();
        self.runs.clear();
        self.others.clear();
        self.len = 0;
    }

    /// The events the log stands for, in order, one at a time.
    fn events(&self) -> Events<'_> {
        Events {
            log: self,
            lookup: 0,
            run: 0,
            other: 0,
            fetched: None,
        }
    }

    /// The fold of each query segment's events by `add`, starting from
    /// `T::default()`: segments end at [`AccessEvent::QueryBoundary`]
    /// markers, and one with no other event folds to nothing.
    fn per_segment<T: Default>(&self, mut add: impl FnMut(&mut T, &AccessEvent)) -> Vec<T> {
        let mut segments = Vec::new();
        let mut open: Option<T> = None;
        for event in self.events() {
            match event {
                AccessEvent::QueryBoundary => segments.extend(open.take()),
                event => add(open.get_or_insert_with(T::default), &event),
            }
        }
        segments.extend(open);
        segments
    }
}

/// The events of a [`TraceLog`], expanded from its records as they are
/// reached.
struct Events<'a> {
    log: &'a TraceLog,
    /// The next lookup, its run, and the next other event to yield.
    lookup: usize,
    run: usize,
    other: usize,
    /// The `RowFetched` half of the lookup just yielded, if it hit.
    fetched: Option<AccessEvent>,
}

impl Iterator for Events<'_> {
    type Item = AccessEvent;

    fn next(&mut self) -> Option<AccessEvent> {
        if let Some(fetched) = self.fetched.take() {
            return Some(fetched);
        }
        if let Some((at, event)) = self.log.others.get(self.other) {
            if *at == self.lookup {
                self.other += 1;
                return Some(event.clone());
            }
        }
        let &id = self.log.ids.get(self.lookup)?;
        let runs = &self.log.runs;
        while runs
            .get(self.run + 1)
            .is_some_and(|next| next.start <= self.lookup)
        {
            self.run += 1;
        }
        self.lookup += 1;
        let (issued, fetched) = runs[self.run].events(id);
        self.fetched = fetched;
        Some(issued)
    }
}

/// Thread-safe recorder of [`AccessEvent`]s. Cloning shares the underlying
/// trace (it is an `Arc`), so the storage layer, the enclave and the test
/// harness can all hold handles to the same observer.
///
/// The trace is unbounded — a 4-byte row id per index lookup (see the
/// module docs) — so it is kept only while somebody is there to read it:
/// recording is on for a fresh observer, which is what every in-process
/// reader (tests, examples, the benchmark's probes) relies on, and a
/// serving process, which never reads its own trace, switches it off
/// ([`AccessObserver::set_recording`]). What the adversary *can* observe is
/// the same either way; the switch only decides whether this process keeps
/// a copy.
#[derive(Debug, Clone)]
pub struct AccessObserver {
    shared: Arc<Shared>,
}

#[derive(Debug)]
struct Shared {
    log: Mutex<TraceLog>,
    recording: AtomicBool,
}

impl Default for AccessObserver {
    fn default() -> Self {
        AccessObserver {
            shared: Arc::new(Shared {
                log: Mutex::new(TraceLog::default()),
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
    /// [`Self::record_batch`], [`Self::append`] and
    /// [`Self::mark_query_boundary`] return at once; events already
    /// recorded stay until drained or reset.
    pub fn set_recording(&self, on: bool) {
        self.shared.recording.store(on, Ordering::SeqCst);
    }

    /// Whether events are being kept. Callers that would build a log only
    /// to hand it over ask first.
    #[must_use]
    pub fn is_recording(&self) -> bool {
        self.shared.recording.load(Ordering::SeqCst)
    }

    /// Record an event.
    pub fn record(&self, event: AccessEvent) {
        if self.is_recording() {
            unpoisoned(self.shared.log.lock()).push(event);
        }
    }

    /// Record a query boundary marker.
    pub fn mark_query_boundary(&self) {
        self.record(AccessEvent::QueryBoundary);
    }

    /// Append a pre-ordered batch of events under a single lock
    /// acquisition, so no event from another thread can interleave inside
    /// the batch.
    pub fn record_batch(&self, events: Vec<AccessEvent>) {
        if self.is_recording() {
            let mut log = unpoisoned(self.shared.log.lock());
            for event in events {
                log.push(event);
            }
        }
    }

    /// Append a log built outside the lock — one store fetch's lookups —
    /// under a single lock acquisition.
    pub(crate) fn record_log(&self, log: TraceLog) {
        if self.is_recording() {
            unpoisoned(self.shared.log.lock()).append(log);
        }
    }

    /// Move `from`'s trace behind this observer's, under a single lock
    /// acquisition of each, leaving `from` empty.
    ///
    /// This is the merge half of the batch execution protocol: spawned
    /// workers record into task-local observers (one per contiguous slice
    /// of the batch's `(epoch, bin)` union), and the engine appends them
    /// here **in ascending bin order**, behind the calling thread's own
    /// slice. The resulting trace is byte-identical at every worker count
    /// — the union-of-per-query-traces invariant holds exactly, not just
    /// up to reordering — and the records move as they are, never
    /// expanded into events.
    pub fn append(&self, from: &AccessObserver) {
        let taken = std::mem::take(&mut *unpoisoned(from.shared.log.lock()));
        self.record_log(taken);
    }

    /// Drain all recorded events, leaving the observer empty.
    #[must_use]
    pub fn take_events(&self) -> Vec<AccessEvent> {
        let taken = std::mem::take(&mut *unpoisoned(self.shared.log.lock()));
        taken.events().collect()
    }

    /// Number of events recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        unpoisoned(self.shared.log.lock()).len
    }

    /// Whether no events have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the full trace.
    #[must_use]
    pub fn trace(&self) -> Vec<AccessEvent> {
        unpoisoned(self.shared.log.lock()).events().collect()
    }

    /// Clear the trace (between experiments).
    pub fn reset(&self) {
        unpoisoned(self.shared.log.lock()).clear();
    }

    /// Summarize the whole trace, walking it event by event.
    #[must_use]
    pub fn summary(&self) -> ObserverSummary {
        let log = unpoisoned(self.shared.log.lock());
        let mut summary = ObserverSummary::default();
        log.events().for_each(|event| summary.add(&event));
        summary
    }

    /// Summarize an arbitrary slice of events.
    #[must_use]
    pub fn summarize(events: &[AccessEvent]) -> ObserverSummary {
        let mut summary = ObserverSummary::default();
        events.iter().for_each(|event| summary.add(event));
        summary
    }

    /// Split the trace into per-query segments using [`AccessEvent::QueryBoundary`]
    /// markers, and summarize each. The boundary event closes the preceding
    /// segment.
    #[must_use]
    pub fn per_query_summaries(&self) -> Vec<ObserverSummary> {
        unpoisoned(self.shared.log.lock()).per_segment(ObserverSummary::add)
    }

    /// The multiset of rows fetched in each query segment, as sorted vectors
    /// of `(epoch, row_id)`. Used to assert that different predicates inside
    /// the same bin produce *identical* fetch sets.
    #[must_use]
    pub fn per_query_fetch_sets(&self) -> Vec<Vec<(u64, u64)>> {
        let log = unpoisoned(self.shared.log.lock());
        let mut sets = log.per_segment(|set: &mut Vec<(u64, u64)>, event| {
            if let AccessEvent::RowFetched {
                epoch_id, row_id, ..
            } = *event
            {
                set.push((epoch_id, row_id));
            }
        });
        sets.retain(|set| !set.is_empty());
        sets.iter_mut().for_each(|set| set.sort_unstable());
        sets
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

    /// The trace as a plain event vector, fed the calls the observer is:
    /// what every reader of the compact log must see.
    #[derive(Default)]
    struct Reference {
        events: Vec<AccessEvent>,
    }

    impl Reference {
        fn lookup(&mut self, epoch_id: u64, trapdoor_len: usize, hit: Option<(u64, usize)>) {
            self.events.push(AccessEvent::TrapdoorIssued {
                epoch_id,
                trapdoor_len,
                hit: hit.is_some(),
            });
            if let Some((row_id, bytes)) = hit {
                self.events.push(AccessEvent::RowFetched {
                    epoch_id,
                    row_id,
                    bytes,
                });
            }
        }

        fn segments(&self) -> impl Iterator<Item = &[AccessEvent]> {
            self.events
                .split(|e| matches!(e, AccessEvent::QueryBoundary))
                .filter(|segment| !segment.is_empty())
        }

        fn per_query_summaries(&self) -> Vec<ObserverSummary> {
            self.segments().map(AccessObserver::summarize).collect()
        }

        fn per_query_fetch_sets(&self) -> Vec<Vec<(u64, u64)>> {
            self.segments()
                .map(|segment| {
                    let mut set: Vec<(u64, u64)> = segment
                        .iter()
                        .filter_map(|e| match *e {
                            AccessEvent::RowFetched {
                                epoch_id, row_id, ..
                            } => Some((epoch_id, row_id)),
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

    /// A bin fetch's lookups — one epoch, one trapdoor length, rows of one
    /// width, hits and misses in any order — are one run: one header, and
    /// 4 bytes per lookup.
    fn a_fetch_keeps_one_header_and_a_row_id_per_lookup() -> bool {
        let mut log = TraceLog::with_lookups(4);
        for hit in [None, Some((7, 138)), None, Some((2, 138))] {
            log.push_lookup(3, 32, hit);
        }
        log.runs.len() == 1 && std::mem::size_of_val(log.ids.as_slice()) == 4 * 4
    }

    /// A drawn lookup: mostly small values, now and then a row id a
    /// 4-byte slot cannot hold, or a length past `u32`.
    fn drawn_lookup(a: u64, b: u64) -> (u64, usize, Option<(u64, usize)>) {
        let epoch = a % 3;
        let trapdoor_len = match b % 13 {
            0 => u32::MAX as usize + (a % 2) as usize,
            _ => 25 + (b % 3) as usize,
        };
        let hit = match (a >> 8) % 11 {
            0..=2 => None,
            3 => Some((u64::from(u32::MAX) - (a >> 20) % 2, 67)),
            4 => Some(((a >> 20) % 7, u32::MAX as usize + 1)),
            _ => Some(((a >> 20) % 9, 60 + (b >> 8) as usize % 9)),
        };
        (epoch, trapdoor_len, hit)
    }

    /// `n` drawn lookups recorded as a store fetch records them (one log
    /// behind one lock) into `obs`, and into `reference`.
    fn fetch(obs: &AccessObserver, reference: &mut Reference, n: u64, a: u64, b: u64) {
        let mut log = TraceLog::with_lookups(n as usize);
        for i in 0..n {
            let (epoch, len, hit) = drawn_lookup(a.rotate_left(i as u32 * 7), b ^ i);
            log.push_lookup(epoch, len, hit);
            reference.lookup(epoch, len, hit);
        }
        obs.record_log(log);
    }

    fn rare_event(a: u64, b: u64) -> AccessEvent {
        let (epoch_id, n) = (a % 3, (b % 1000) as usize);
        match b % 5 {
            0 => AccessEvent::FullScan {
                epoch_id,
                rows: n,
                bytes: 67 * n,
            },
            1 => AccessEvent::EpochIngested {
                epoch_id,
                rows: n,
                bytes: 67 * n,
            },
            2 => AccessEvent::EpochRewritten { epoch_id, rows: n },
            // A lookup's own events, recorded one by one as events.
            3 => AccessEvent::TrapdoorIssued {
                epoch_id,
                trapdoor_len: 25,
                hit: a % 2 == 0,
            },
            _ => AccessEvent::RowFetched {
                epoch_id,
                row_id: n as u64,
                bytes: 67,
            },
        }
    }

    proptest::proptest! {
        /// The compact log is the event vector: any interleaving of single
        /// events, store fetches (hits and misses on several epochs, and
        /// lookups too large for a record), query boundaries, merges of
        /// task-local observers, drains and resets reads back — trace,
        /// length, summary and per-query views — as a plain vector fed the
        /// same calls.
        #[test]
        fn the_compact_log_is_the_event_vector(
            ops in proptest::collection::vec((0u8..8, proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>()), 0..40),
        ) {
            proptest::prop_assert!(a_fetch_keeps_one_header_and_a_row_id_per_lookup());
            let obs = AccessObserver::new();
            let mut reference = Reference::default();
            for (op, a, b) in ops {
                match op {
                    0 => {
                        let event = rare_event(a, b);
                        reference.events.push(event.clone());
                        obs.record(event);
                    }
                    1 | 2 => fetch(&obs, &mut reference, a % 6, a, b),
                    3 => {
                        obs.mark_query_boundary();
                        reference.events.push(AccessEvent::QueryBoundary);
                    }
                    4 => {
                        // A worker's slice: its own fetches, boundaries
                        // and events, merged behind the shared trace.
                        let local = AccessObserver::new();
                        let mut merged = Reference::default();
                        for step in 0..a % 4 {
                            match (b >> (step * 4)) % 3 {
                                0 => fetch(&local, &mut merged, (b >> step) % 5, a ^ step, b),
                                1 => {
                                    local.mark_query_boundary();
                                    merged.events.push(AccessEvent::QueryBoundary);
                                }
                                _ => {
                                    let event = rare_event(b, a ^ step);
                                    merged.events.push(event.clone());
                                    local.record(event);
                                }
                            }
                        }
                        obs.append(&local);
                        reference.events.extend(merged.events);
                        proptest::prop_assert!(local.is_empty());
                    }
                    5 => {
                        proptest::prop_assert_eq!(obs.take_events(), std::mem::take(&mut reference.events));
                    }
                    6 => {
                        obs.reset();
                        reference.events.clear();
                    }
                    _ => {
                        let events = vec![rare_event(a, b), rare_event(b, a)];
                        reference.events.extend(events.iter().cloned());
                        obs.record_batch(events);
                    }
                }
                proptest::prop_assert_eq!(obs.len(), reference.events.len());
                proptest::prop_assert_eq!(obs.is_empty(), reference.events.is_empty());
            }
            proptest::prop_assert_eq!(obs.trace(), reference.events.clone());
            proptest::prop_assert_eq!(obs.summary(), AccessObserver::summarize(&reference.events));
            proptest::prop_assert_eq!(obs.per_query_summaries(), reference.per_query_summaries());
            proptest::prop_assert_eq!(obs.per_query_fetch_sets(), reference.per_query_fetch_sets());
        }
    }
}
