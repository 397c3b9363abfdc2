//! In-memory spans of the traced run and their self-time arithmetic.
//!
//! Spans are recorded only at the harness's own call sites. A request's
//! spans form a tree under one root `request` span and share its request
//! id; replayed stages (codec, in-process engine) are children of the root
//! even though they run after it in wall time, so their *durations* — not
//! their positions — decompose the root.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Span names. Spans added inside the program later (ROADMAP item 5) must
/// reuse these.
pub mod names {
    pub const REQUEST: &str = "request";
    pub const ENCODE_REQUEST: &str = "codec.encode_request";
    pub const DECODE_REQUEST: &str = "codec.decode_request";
    pub const ENCODE_RESPONSE: &str = "codec.encode_response";
    pub const DECODE_RESPONSE: &str = "codec.decode_response";
    pub const ENGINE_EXECUTE: &str = "engine.execute";
    pub const CORE_FETCH: &str = "core.fetch";
    pub const CORE_DECRYPT: &str = "core.decrypt";
    pub const CORE_VERIFY: &str = "core.verify";
    pub const CORE_AGGREGATE: &str = "core.aggregate";
    pub const SHARD_DIRECT: &str = "shard.direct";
    /// Not a span: the root's self time in a request's breakdown.
    pub const UNACCOUNTED: &str = "unaccounted";
}

/// One recorded span. Times are nanoseconds since the trace began.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// `None` for a request's root span.
    pub parent: Option<u32>,
    pub request_id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span store of one traced run.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Record a span and return its id (for use as a later span's parent).
    pub fn record(
        &mut self,
        parent: Option<u32>,
        request_id: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            id,
            parent,
            request_id,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's. Signed,
    /// because replayed children can outlast the interval they decompose.
    pub fn self_times_ns(&self) -> Vec<i64> {
        let mut own: Vec<i64> = self.spans.iter().map(|s| s.duration_ns() as i64).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent as usize] -= span.duration_ns() as i64;
            }
        }
        own
    }

    /// Per request: its root duration and the self time summed per span
    /// name, the root's own remainder under [`names::UNACCOUNTED`]. The
    /// parts always sum to the root duration exactly.
    pub fn breakdowns(&self) -> Vec<RequestBreakdown> {
        let own = self.self_times_ns();
        let mut by_request: BTreeMap<u64, RequestBreakdown> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(own) {
            let entry = by_request
                .entry(span.request_id)
                .or_insert_with(|| RequestBreakdown {
                    request_id: span.request_id,
                    root_ns: 0,
                    parts: BTreeMap::new(),
                });
            let name = if span.parent.is_none() {
                entry.root_ns += span.duration_ns();
                names::UNACCOUNTED
            } else {
                span.name
            };
            *entry.parts.entry(name).or_insert(0) += self_ns;
        }
        by_request.into_values().collect()
    }

    /// Total duration of all spans called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// The trace file: the spans of the first `max_requests` requests
    /// (request ids count from 1), then those requests' breakdowns.
    pub fn to_json(&self, workload: &str, seed: u64, max_requests: u64) -> String {
        let mut out = String::new();
        write!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"unit\": \"ns\", \
             \"requests_traced\": {},\n \"spans\": [",
            self.spans.iter().filter(|s| s.parent.is_none()).count()
        )
        .expect("writing to a String cannot fail");
        let kept = |request_id: u64| request_id <= max_requests;
        for (i, s) in self.spans.iter().filter(|s| kept(s.request_id)).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{}\n  {{\"id\": {}, \"parent\": {parent}, \"request\": {}, \"name\": \"{}\", \
                 \"start\": {}, \"end\": {}}}",
                if i == 0 { "" } else { "," },
                s.id,
                s.request_id,
                s.name,
                s.start_ns,
                s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n ],\n \"requests\": [");
        for (i, b) in self
            .breakdowns()
            .iter()
            .filter(|b| kept(b.request_id))
            .enumerate()
        {
            let parts = b
                .parts
                .iter()
                .map(|(name, ns)| format!("\"{name}\": {ns}"))
                .collect::<Vec<_>>()
                .join(", ");
            write!(
                out,
                "{}\n  {{\"request\": {}, \"root\": {}, \"parts\": {{{parts}}}}}",
                if i == 0 { "" } else { "," },
                b.request_id,
                b.root_ns
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n ]\n}\n");
        out
    }
}

/// One request's decomposition (see [`Trace::breakdowns`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestBreakdown {
    pub request_id: u64,
    pub root_ns: u64,
    /// Self time per span name, [`names::UNACCOUNTED`] included.
    pub parts: BTreeMap<&'static str, i64>,
}

#[cfg(test)]
impl RequestBreakdown {
    pub fn parts_sum_ns(&self) -> i64 {
        self.parts.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::default();
        // Request 1: root 100, engine 60 with fetch 25 + verify 20, codec 10.
        let root = t.record(None, 1, names::REQUEST, 0, 100);
        let engine = t.record(Some(root), 1, names::ENGINE_EXECUTE, 200, 260);
        t.record(Some(engine), 1, names::CORE_FETCH, 200, 225);
        t.record(Some(engine), 1, names::CORE_VERIFY, 225, 245);
        t.record(Some(root), 1, names::ENCODE_REQUEST, 300, 310);
        // Request 2: the replay outlasts the root.
        let root2 = t.record(None, 2, names::REQUEST, 400, 440);
        t.record(Some(root2), 2, names::ENGINE_EXECUTE, 500, 550);
        t
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let own = sample().self_times_ns();
        assert_eq!(own, vec![30, 15, 25, 20, 10, -10, 50]);
    }

    #[test]
    fn parts_plus_unaccounted_equal_the_root_span() {
        let breakdowns = sample().breakdowns();
        assert_eq!(breakdowns.len(), 2);
        for b in &breakdowns {
            assert_eq!(
                b.parts_sum_ns(),
                b.root_ns as i64,
                "request {}",
                b.request_id
            );
        }
        assert_eq!(breakdowns[0].parts[names::UNACCOUNTED], 30);
        assert_eq!(breakdowns[0].parts[names::ENGINE_EXECUTE], 15);
        assert_eq!(breakdowns[1].parts[names::UNACCOUNTED], -10);
    }

    #[test]
    fn trace_file_lists_every_span_and_request() {
        let t = sample();
        let json = t.to_json("wire_points", 7, 10);
        assert_eq!(json.matches("\"id\":").count(), t.spans().len());
        assert_eq!(json.matches("\"root\":").count(), 2);
        assert_eq!(
            t.to_json("wire_points", 7, 1).matches("\"root\":").count(),
            1
        );
        assert_eq!(t.total_ns(names::ENGINE_EXECUTE), 110);
    }
}
