//! Side-channel meter: records the *shape* of in-enclave computation.
//!
//! Real SGX side-channel attacks (cache-line probing, branch shadowing,
//! page-fault sequences) observe which code paths and memory locations an
//! enclave touches. The simulation cannot reproduce micro-architectural
//! state, so it instead exposes an explicit, countable abstraction of that
//! observable surface: every oblivious-path operation reports the number of
//! comparisons, conditional moves, element touches and sort steps it
//! performed. Two query executions are "indistinguishable" in this model
//! when their [`MeterSnapshot`]s are identical — which is exactly what the
//! security tests assert for Concealer+ across different query predicates
//! that map to the same bin.

use parking_lot::Mutex;
use std::sync::Arc;

/// A snapshot of the meter's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeterSnapshot {
    /// Branch-free comparisons executed.
    pub comparisons: u64,
    /// Conditional (oblivious) moves / swaps executed.
    pub cmoves: u64,
    /// Elements touched by oblivious scans / filters.
    pub element_touches: u64,
    /// Compare-exchange steps executed by data-independent sorts.
    pub sort_steps: u64,
    /// Tuples decrypted inside the enclave.
    pub decryptions: u64,
    /// Trapdoors generated (real + dummy).
    pub trapdoors_generated: u64,
}

/// Thread-safe counter bundle. Cloning shares the underlying counters.
#[derive(Debug, Clone, Default)]
pub struct SideChannelMeter {
    inner: Arc<Mutex<MeterSnapshot>>,
}

impl SideChannelMeter {
    /// Create a meter with all counters at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` branch-free comparisons.
    pub fn add_comparisons(&self, n: u64) {
        self.inner.lock().comparisons += n;
    }

    /// Record `n` oblivious moves / swaps.
    pub fn add_cmoves(&self, n: u64) {
        self.inner.lock().cmoves += n;
    }

    /// Record `n` element touches (oblivious scans, filter passes).
    pub fn add_element_touches(&self, n: u64) {
        self.inner.lock().element_touches += n;
    }

    /// Record `n` compare-exchange steps of a data-independent sort.
    pub fn add_sort_steps(&self, n: u64) {
        self.inner.lock().sort_steps += n;
    }

    /// Record `n` in-enclave decryptions.
    pub fn add_decryptions(&self, n: u64) {
        self.inner.lock().decryptions += n;
    }

    /// Record `n` generated trapdoors.
    pub fn add_trapdoors(&self, n: u64) {
        self.inner.lock().trapdoors_generated += n;
    }

    /// Fold a whole counter delta in under a single lock acquisition.
    ///
    /// The per-row filtering loops accumulate into a local
    /// [`MeterSnapshot`] and flush once per call: the recorded totals are
    /// identical, but the shared mutex is taken O(1) times per bin instead
    /// of O(rows × tokens) — which also keeps parallel batch workers from
    /// serializing on the meter. (Trapdoor generation already recorded
    /// once per bin via the `add_*` methods.)
    pub fn add_snapshot(&self, delta: MeterSnapshot) {
        let mut inner = self.inner.lock();
        inner.comparisons += delta.comparisons;
        inner.cmoves += delta.cmoves;
        inner.element_touches += delta.element_touches;
        inner.sort_steps += delta.sort_steps;
        inner.decryptions += delta.decryptions;
        inner.trapdoors_generated += delta.trapdoors_generated;
    }

    /// Read the current counters.
    #[must_use]
    pub fn snapshot(&self) -> MeterSnapshot {
        *self.inner.lock()
    }

    /// Reset all counters to zero.
    pub fn reset(&self) {
        *self.inner.lock() = MeterSnapshot::default();
    }

    /// Run `f` and return its result together with the counter delta it
    /// caused on this meter.
    pub fn measure<T>(&self, f: impl FnOnce() -> T) -> (T, MeterSnapshot) {
        let before = self.snapshot();
        let out = f();
        let after = self.snapshot();
        (
            out,
            MeterSnapshot {
                comparisons: after.comparisons - before.comparisons,
                cmoves: after.cmoves - before.cmoves,
                element_touches: after.element_touches - before.element_touches,
                sort_steps: after.sort_steps - before.sort_steps,
                decryptions: after.decryptions - before.decryptions,
                trapdoors_generated: after.trapdoors_generated - before.trapdoors_generated,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = SideChannelMeter::new();
        m.add_comparisons(3);
        m.add_cmoves(2);
        m.add_element_touches(10);
        m.add_sort_steps(7);
        m.add_decryptions(1);
        m.add_trapdoors(4);
        let s = m.snapshot();
        assert_eq!(s.comparisons, 3);
        assert_eq!(s.cmoves, 2);
        assert_eq!(s.element_touches, 10);
        assert_eq!(s.sort_steps, 7);
        assert_eq!(s.decryptions, 1);
        assert_eq!(s.trapdoors_generated, 4);
    }

    #[test]
    fn reset_zeroes() {
        let m = SideChannelMeter::new();
        m.add_comparisons(5);
        m.reset();
        assert_eq!(m.snapshot(), MeterSnapshot::default());
    }

    #[test]
    fn clones_share_counters() {
        let m = SideChannelMeter::new();
        let h = m.clone();
        h.add_cmoves(9);
        assert_eq!(m.snapshot().cmoves, 9);
    }

    #[test]
    fn measure_returns_delta() {
        let m = SideChannelMeter::new();
        m.add_comparisons(100);
        let (value, delta) = m.measure(|| {
            m.add_comparisons(5);
            m.add_sort_steps(2);
            42
        });
        assert_eq!(value, 42);
        assert_eq!(delta.comparisons, 5);
        assert_eq!(delta.sort_steps, 2);
        assert_eq!(m.snapshot().comparisons, 105);
    }
}
