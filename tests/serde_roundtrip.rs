//! Wire-format tests for the query model: `Query` / `Predicate` /
//! `Aggregate` derive `Serialize` / `Deserialize`, and these tests pin the
//! resulting byte format (round-trips plus golden bytes) so a network
//! layer can rely on it staying stable.
//!
//! The format (see `shims/serde`): positional fields in declaration order,
//! LEB128 varints for integers, enum variants tagged by declaration index.

use concealer_core::{Aggregate, ExecOptions, Predicate, Query, RangeMethod, Record};
use serde::bin::{from_bytes, to_bytes};

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::DeserializeOwned,
{
    from_bytes(&to_bytes(value)).expect("round-trip decode")
}

#[test]
fn aggregates_round_trip() {
    let aggregates = [
        Aggregate::Count,
        Aggregate::Sum { attr: 0 },
        Aggregate::Min { attr: 3 },
        Aggregate::Max { attr: 200 },
        Aggregate::Average { attr: 1 },
        Aggregate::TopKLocations { k: 5 },
        Aggregate::LocationsWithAtLeast {
            threshold: 1_000_000,
        },
        Aggregate::CollectRows,
    ];
    for aggregate in aggregates {
        assert_eq!(roundtrip(&aggregate), aggregate);
    }
}

#[test]
fn predicates_round_trip() {
    let predicates = [
        Predicate::Point {
            dims: vec![],
            time: 0,
        },
        Predicate::Point {
            dims: vec![3],
            time: 600,
        },
        Predicate::Point {
            dims: vec![1, 2, 3, 4],
            time: u64::MAX,
        },
        Predicate::Range {
            dims: None,
            observation: None,
            time_start: 0,
            time_end: 3599,
        },
        Predicate::Range {
            dims: Some(vec![7, 9]),
            observation: Some(1001),
            time_start: 1800,
            time_end: 7199,
        },
    ];
    for predicate in predicates {
        assert_eq!(roundtrip(&predicate), predicate);
    }
}

#[test]
fn queries_round_trip_through_the_builder() {
    let queries = [
        Query::count().at_dims([3]).between(0, 1799),
        Query::count().at_dims(vec![5, 6]).at(300),
        Query::sum(1).at_dims([0]).between(0, 3599),
        Query::top_k_locations(5).between(0, 86_399),
        Query::collect_rows().observing(1001).between(0, 7199),
        Query::locations_with_at_least(50).between(3600, 7199),
    ];
    for query in queries {
        assert_eq!(roundtrip(&query), query);
    }
}

#[test]
fn records_round_trip() {
    let record = Record {
        dims: vec![3, 9],
        time: 123_456,
        payload: vec![1001, 42, 0],
    };
    assert_eq!(roundtrip(&record), record);
}

/// The golden bytes: this is the wire format. If this test breaks, the
/// format changed and every stored or transmitted query breaks with it —
/// bump a protocol version instead of editing the expectation casually.
#[test]
fn golden_wire_bytes_are_pinned() {
    let query = Query::count().at_dims([3]).between(0, 1799);
    let bytes = to_bytes(&query);
    assert_eq!(
        bytes,
        vec![
            0x00, // Aggregate::Count (variant 0)
            0x01, // Predicate::Range (variant 1)
            0x01, // dims: Option tag Some
            0x01, // dims: Vec length 1
            0x03, // dims[0] = 3
            0x00, // observation: Option tag None
            0x00, // time_start = 0
            0x87, 0x0e, // time_end = 1799 as LEB128
        ]
    );

    let point = Query::sum(2).at_dims([1]).at(60);
    assert_eq!(
        to_bytes(&point),
        vec![
            0x01, // Aggregate::Sum (variant 1)
            0x02, // attr = 2
            0x00, // Predicate::Point (variant 0)
            0x01, // dims: Vec length 1
            0x01, // dims[0] = 1
            0x3c, // time = 60
        ]
    );

    // Seven fields, nothing after `parallelism` (protocol version 5).
    assert_eq!(
        to_bytes(&ExecOptions::with_method(RangeMethod::Bpb).with_parallelism(3)),
        vec![
            0x00, // method: RangeMethod::Bpb (variant 0)
            0x00, // use_superbins = false
            0x04, // num_super_bins = 4
            0x00, // forward_private = false
            0x01, // verify = true
            0x00, // oblivious: Option tag None
            0x03, // parallelism = 3
        ]
    );
}

#[test]
fn truncated_and_garbage_input_is_rejected() {
    let query = Query::count().at_dims([3]).between(0, 1799);
    let bytes = to_bytes(&query);
    // Every strict prefix fails to decode.
    for cut in 0..bytes.len() {
        assert!(
            from_bytes::<Query>(&bytes[..cut]).is_err(),
            "prefix of {cut} bytes must not decode"
        );
    }
    // Unknown enum tags are rejected.
    assert!(from_bytes::<Aggregate>(&[0xff, 0x01]).is_err());
    // Trailing bytes are rejected.
    let mut extended = bytes.clone();
    extended.push(0);
    assert!(from_bytes::<Query>(&extended).is_err());
}
