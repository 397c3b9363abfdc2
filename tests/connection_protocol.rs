//! The connection protocol is one state machine behind one transport.
//! These tests hold the transport to it over real sockets, against a
//! scripted [`ServeHandler`] double (deterministic replies, no engine):
//!
//! * **the script** — one scripted conversation, written as raw pipelined
//!   frames, draws the expected refusals and replies in request order;
//! * **live gauges** — while a request blocks inside the handler, a
//!   second connection's `ServeStats` reads `in_flight >= 1`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};

use concealer_client::{ClientBuilder, TrustPolicy};
use concealer_core::query::AnswerValue;
use concealer_core::{Credential, Query, QueryAnswer, UserHandle, UserId};
use concealer_server::protocol::WireQuote;
use concealer_server::{
    DeploymentFacts, EngineRequest, ErrorCode, Request, Response, ServeHandler, Server,
    ServerConfig, WireError, PROTOCOL_VERSION,
};
use serde::frame::{read_frame, write_frame};

/// A deployment double: attestation fails for nonces starting `0xFF`,
/// `Execute` optionally parks on a pair of barriers, and every reply is a
/// pure function of the request.
#[derive(Default)]
struct Double {
    /// `(entered, release)`: `Execute` waits on both in turn, so a test
    /// knows the request is inside the handler and decides when it leaves.
    gate: Option<(Barrier, Barrier)>,
}

fn refusal(id: u64, code: ErrorCode) -> Response {
    Response::Error {
        id,
        error: WireError::new(code, "says the double"),
    }
}

impl ServeHandler for Double {
    fn handshake(
        &self,
        user_id: u64,
        credential: [u8; 32],
    ) -> Result<(UserHandle, DeploymentFacts), Response> {
        Ok((
            UserHandle {
                user_id: UserId(user_id),
                credential: Credential(credential),
            },
            DeploymentFacts {
                backend: "double".into(),
                ingest_allowed: false,
            },
        ))
    }

    fn execute(&self, _user: &UserHandle, request: EngineRequest) -> Response {
        let EngineRequest::Execute { id, .. } = request else {
            return refusal(request.id(), ErrorCode::NoDataForRange);
        };
        if let Some((entered, release)) = &self.gate {
            entered.wait();
            release.wait();
        }
        Response::Answer {
            id,
            answer: QueryAnswer {
                value: AnswerValue::Count(3),
                rows_fetched: 0,
                rows_decrypted: 0,
                verified: false,
                epochs_touched: 0,
            },
        }
    }

    fn shard_info(&self, id: u64) -> Response {
        refusal(id, ErrorCode::InvalidConfig)
    }

    fn attest(&self, id: u64, nonce: [u8; 32]) -> Response {
        if nonce[0] == 0xFF {
            return refusal(id, ErrorCode::AttestationFailed);
        }
        Response::AttestOk {
            id,
            quotes: vec![WireQuote {
                shard_index: 0,
                member: 0,
                measurement: [1u8; 32],
                code_version: 1,
                timestamp: 0,
                nonce,
                signature: [2u8; 32],
            }],
        }
    }

    fn router_stats(&self, id: u64) -> Response {
        refusal(id, ErrorCode::Internal)
    }
}

fn frame(request: &Request) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_frame(&mut bytes, request).expect("encode request");
    bytes
}

fn attest(id: u64, first: u8) -> Vec<u8> {
    let mut nonce = [9u8; 32];
    nonce[0] = first;
    frame(&Request::Attest { id, nonce })
}

fn hello(version: u32) -> Vec<u8> {
    frame(&Request::Hello {
        version,
        user_id: 7,
        credential: [7u8; 32],
        client_name: "parity".into(),
    })
}

fn batch(id: u64, queries: usize) -> Vec<u8> {
    frame(&Request::ExecuteBatch {
        id,
        queries: vec![Query::count().at_dims([1]).at(60); queries],
        options: None,
    })
}

/// How a reply reads in the script below: `id:error_code`, or the
/// variant's name.
fn label(reply: &Response) -> String {
    match reply {
        Response::Error { id, error } => format!("{id}:{}", error.code.name()),
        other => {
            let debug = format!("{other:?}");
            let end = debug.find([' ', '(', '{']).unwrap_or(debug.len());
            debug[..end].to_string()
        }
    }
}

/// The scripted conversation: one entry per connection — the frames
/// written back to back before anything is read, and the replies they
/// must draw. Every connection ends on the frame that makes the server
/// close it, so no unread bytes turn the close into a reset.
fn script(max_frame_len: usize) -> Vec<(Vec<Vec<u8>>, &'static [&'static str])> {
    let mut oversized = ((max_frame_len + 1) as u32).to_le_bytes().to_vec();
    oversized.resize(4 + max_frame_len + 1, 0xAB);
    let mut malformed = 8u32.to_le_bytes().to_vec();
    malformed.extend([0xFF; 8]);
    let shard_info = |id| frame(&Request::ShardInfo { id });
    let stats = |id| frame(&Request::Stats { id });
    let authed = |tail: Vec<Vec<u8>>| [vec![attest(1, 1), hello(PROTOCOL_VERSION)], tail].concat();
    vec![
        // An oversized frame is answered and survived; topology discovery
        // works unattested; Hello before Attest is fatal.
        (
            vec![oversized, shard_info(1), hello(PROTOCOL_VERSION)],
            &[
                "0:frame_too_large",
                "1:invalid_config",
                "0:attestation_failed",
            ],
        ),
        // A malformed frame is answered, then the stream closes.
        (vec![malformed], &["0:malformed_frame"]),
        // A failed Attest may be retried; a wrong version is refused.
        (
            vec![attest(1, 0xFF), attest(2, 1), hello(PROTOCOL_VERSION + 1)],
            &["1:attestation_failed", "AttestOk", "0:unsupported_version"],
        ),
        // Anything else before Hello is not authenticated.
        (
            vec![attest(1, 1), stats(5)],
            &["AttestOk", "0:not_authenticated"],
        ),
        // ShardInfo also works authenticated; a second Hello is a
        // violation, and waits for the reply in flight before it.
        (
            authed(vec![shard_info(3), hello(PROTOCOL_VERSION)]),
            &[
                "AttestOk",
                "HelloOk",
                "3:invalid_config",
                "0:protocol_violation",
            ],
        ),
        // So is an Attest after authentication,
        (
            authed(vec![attest(4, 1)]),
            &["AttestOk", "HelloOk", "0:protocol_violation"],
        ),
        // and the reserved id on anything that carries one.
        (
            authed(vec![stats(0)]),
            &["AttestOk", "HelloOk", "0:protocol_violation"],
        ),
        // An over-cap batch is refused by id and survived; Goodbye waits
        // behind the work pipelined before it.
        (
            authed(vec![
                batch(10, 4),
                batch(11, 3),
                frame(&Request::Execute {
                    id: 12,
                    query: Query::count().at_dims([1]).at(60),
                    options: None,
                }),
                frame(&Request::RouterStats { id: 13 }),
                frame(&Request::Goodbye),
            ]),
            &[
                "AttestOk",
                "HelloOk",
                "10:batch_too_large",
                "11:no_data_for_range",
                "Answer",
                "13:internal",
                "Bye",
            ],
        ),
    ]
}

#[test]
fn one_scripted_conversation_yields_identical_bytes() {
    const MAX_FRAME_LEN: usize = 2048;
    let server = Server::with_handler(
        Arc::new(Double::default()),
        ServerConfig {
            max_batch: 3,
            max_frame_len: MAX_FRAME_LEN,
            ..ServerConfig::default()
        },
    )
    .spawn()
    .expect("bind loopback");
    for (conn, (frames, expected)) in script(MAX_FRAME_LEN).iter().enumerate() {
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.write_all(&frames.concat()).expect("write script");
        let mut bytes = Vec::new();
        stream.read_to_end(&mut bytes).expect("read to close");
        let mut rest = bytes.as_slice();
        let mut labels = Vec::new();
        while let Ok(reply) = read_frame::<_, Response>(&mut rest, 1 << 20) {
            labels.push(label(&reply));
        }
        assert_eq!(&labels, expected, "connection {conn}");
    }
    assert!(server.shutdown_and_join().graceful);
}

#[test]
fn serve_stats_reports_work_in_flight() {
    let double = Arc::new(Double {
        gate: Some((Barrier::new(2), Barrier::new(2))),
    });
    let handle = Server::with_handler(
        Arc::clone(&double) as Arc<dyn ServeHandler>,
        ServerConfig::default(),
    )
    .spawn()
    .expect("bind loopback");
    let connect = || {
        ClientBuilder::new(handle.local_addr())
            .credential(7, [7u8; 32])
            .trust_policy(TrustPolicy::allow_unattested())
            .connect()
            .expect("connect to the double")
    };
    let (entered, release) = double.gate.as_ref().expect("gated double");

    let mut blocked = connect();
    let ticket = blocked
        .submit_execute(&Query::count().at_dims([1]).at(60), None)
        .expect("submit");
    entered.wait();
    let mut observer = connect();
    let stats = observer.serve_stats().expect("serve stats");
    assert!(stats.in_flight >= 1, "{stats:?}");
    assert_eq!(stats.connections, 2, "{stats:?}");
    release.wait();
    blocked.wait_execute(ticket).expect("the parked request");
    observer.close().expect("goodbye");
    blocked.close().expect("goodbye");
    assert!(handle.shutdown_and_join().graceful);
}
