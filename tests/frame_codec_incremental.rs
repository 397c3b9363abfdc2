//! Frame-codec robustness: the incremental [`FrameDecoder`] must agree
//! with the blocking whole-stream path (`serde::frame::read_frame`, what
//! the server and the client read with) **byte for byte**, no
//! matter how the stream is sliced — one byte at a time, random split
//! points, truncated mid-frame, or carrying oversized frames.
//!
//! The oracle is an event trace: each path reduces a byte stream to the
//! same sequence of `ok:<payload bytes>` / `toolarge:<len>:<max>` events
//! plus a final end-of-stream classification (`closed` between frames,
//! `torn` inside one). Any divergence — a frame decoded differently, a
//! lost or duplicated `TooLarge`, a misclassified EOF — fails the
//! comparison.

use std::io::Cursor;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::frame::{read_frame, write_frame, FrameDecoder, FrameError};

/// Frame-size cap used throughout; small enough that oversized frames are
/// cheap to generate.
const MAX_LEN: usize = 1024;

/// A payload with fixed- and variable-size parts so encoded frames range
/// from a few bytes to past [`MAX_LEN`].
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, PartialEq)]
struct Item {
    id: u64,
    tag: u8,
    payload: Vec<u8>,
}

fn random_items(rng: &mut StdRng, count: usize, oversize: bool) -> Vec<Item> {
    (0..count)
        .map(|i| {
            let len = if oversize && rng.gen_range(0..3usize) == 0 {
                MAX_LEN + rng.gen_range(1..512usize)
            } else {
                rng.gen_range(0..200usize)
            };
            Item {
                id: i as u64,
                tag: rng.gen(),
                payload: (0..len).map(|_| rng.gen()).collect(),
            }
        })
        .collect()
}

fn encode_stream(items: &[Item]) -> Vec<u8> {
    let mut out = Vec::new();
    for item in items {
        write_frame(&mut out, item).expect("encode item frame");
    }
    out
}

/// Split `total` bytes into random chunk sizes (at least one chunk, so an
/// empty stream still exercises the drain-after-feed path).
fn random_chunks(rng: &mut StdRng, total: usize) -> Vec<usize> {
    let mut chunks = Vec::new();
    let mut left = total;
    while left > 0 {
        let take = rng.gen_range(1..=left.min(97));
        chunks.push(take);
        left -= take;
    }
    if chunks.is_empty() {
        chunks.push(0);
    }
    chunks
}

/// Reduce a stream to events via the blocking reader, the reference path
/// the threaded server uses.
fn blocking_events<T: serde::Serialize + serde::DeserializeOwned>(
    stream: &[u8],
    max_len: usize,
) -> Vec<String> {
    let mut cursor = Cursor::new(stream);
    let mut events = Vec::new();
    loop {
        match read_frame::<_, T>(&mut cursor, max_len) {
            Ok(value) => events.push(format!("ok:{:?}", serde::bin::to_bytes(&value))),
            Err(FrameError::TooLarge { len, max }) => events.push(format!("toolarge:{len}:{max}")),
            Err(FrameError::Decode(_)) => events.push("decode-error".to_string()),
            Err(FrameError::Closed) => {
                events.push("closed".to_string());
                return events;
            }
            Err(FrameError::Io(e)) => {
                assert_eq!(
                    e.kind(),
                    std::io::ErrorKind::UnexpectedEof,
                    "cursor reads only fail by running dry"
                );
                events.push("torn".to_string());
                return events;
            }
        }
    }
}

/// Reduce the same stream to events via the incremental decoder, feeding
/// it in the given chunk sizes and draining after every chunk.
fn incremental_events<T: serde::Serialize + serde::DeserializeOwned>(
    stream: &[u8],
    max_len: usize,
    chunks: &[usize],
) -> Vec<String> {
    let mut decoder = FrameDecoder::new(max_len);
    let mut events = Vec::new();
    let mut pos = 0;
    for &take in chunks {
        let end = (pos + take).min(stream.len());
        decoder.extend_from_slice(&stream[pos..end]);
        pos = end;
        loop {
            match decoder.try_decode::<T>() {
                Ok(Some(value)) => {
                    events.push(format!("ok:{:?}", serde::bin::to_bytes(&value)));
                }
                Ok(None) => break,
                Err(FrameError::TooLarge { len, max }) => {
                    events.push(format!("toolarge:{len}:{max}"));
                }
                Err(FrameError::Decode(_)) => events.push("decode-error".to_string()),
                Err(e @ (FrameError::Io(_) | FrameError::Closed)) => {
                    panic!("push decoder performed I/O? {e}");
                }
            }
        }
    }
    assert_eq!(pos, stream.len(), "chunks must cover the whole stream");
    // EOF classification: `mid_frame` is the decoder's stand-in for the
    // blocking path's Closed-vs-UnexpectedEof distinction.
    events.push(
        if decoder.mid_frame() {
            "torn"
        } else {
            "closed"
        }
        .to_string(),
    );
    events
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// Hardest slicing: every byte arrives in its own chunk.
    #[test]
    fn byte_at_a_time_matches_whole_stream_decode(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let count = rng.gen_range(1..8usize);
        let stream = encode_stream(&random_items(&mut rng, count, false));
        let ones = vec![1; stream.len()];
        prop_assert_eq!(
            incremental_events::<Item>(&stream, MAX_LEN, &ones),
            blocking_events::<Item>(&stream, MAX_LEN)
        );
    }

    /// Random split points, including splits inside length prefixes.
    #[test]
    fn random_split_points_match_whole_stream_decode(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let count = rng.gen_range(1..10usize);
        let stream = encode_stream(&random_items(&mut rng, count, false));
        let chunks = random_chunks(&mut rng, stream.len());
        prop_assert_eq!(
            incremental_events::<Item>(&stream, MAX_LEN, &chunks),
            blocking_events::<Item>(&stream, MAX_LEN)
        );
    }

    /// Truncating the stream anywhere — between frames, inside a prefix,
    /// inside a payload — classifies EOF identically on both paths.
    #[test]
    fn truncation_classification_matches_blocking_path(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let count = rng.gen_range(1..6usize);
        let stream = encode_stream(&random_items(&mut rng, count, false));
        let cut = rng.gen_range(0..=stream.len());
        let truncated = &stream[..cut];
        let chunks = random_chunks(&mut rng, truncated.len());
        prop_assert_eq!(
            incremental_events::<Item>(truncated, MAX_LEN, &chunks),
            blocking_events::<Item>(truncated, MAX_LEN)
        );
    }

    /// Oversized frames: reported exactly once with the same `len`/`max`,
    /// stream realigned, neighbors decoded — including when the stream is
    /// then truncated inside the skipped region.
    #[test]
    fn oversized_frames_match_blocking_path(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let count = rng.gen_range(2..8usize);
        let stream = encode_stream(&random_items(&mut rng, count, true));
        let chunks = random_chunks(&mut rng, stream.len());
        prop_assert_eq!(
            incremental_events::<Item>(&stream, MAX_LEN, &chunks),
            blocking_events::<Item>(&stream, MAX_LEN)
        );

        let cut = rng.gen_range(0..=stream.len());
        let truncated = &stream[..cut];
        let chunks = random_chunks(&mut rng, truncated.len());
        prop_assert_eq!(
            incremental_events::<Item>(truncated, MAX_LEN, &chunks),
            blocking_events::<Item>(truncated, MAX_LEN)
        );
    }
}

/// The same agreement on real protocol frames, byte at a time.
#[test]
fn wire_requests_survive_byte_at_a_time_delivery() {
    use concealer_server::{Request, PROTOCOL_VERSION};

    let requests = vec![
        Request::Hello {
            version: PROTOCOL_VERSION,
            user_id: 7,
            credential: [0xAB; 32],
            client_name: "frame-codec-test".repeat(8),
        },
        Request::Stats { id: 1 },
        Request::Shutdown { id: 2 },
        Request::Goodbye,
    ];
    let mut stream = Vec::new();
    for request in &requests {
        write_frame(&mut stream, request).expect("encode request");
    }

    let ones = vec![1; stream.len()];
    let incremental = incremental_events::<Request>(&stream, MAX_LEN, &ones);
    let blocking = blocking_events::<Request>(&stream, MAX_LEN);
    assert_eq!(incremental, blocking);
    assert_eq!(incremental.len(), requests.len() + 1);
    assert_eq!(incremental.last().map(String::as_str), Some("closed"));
}
