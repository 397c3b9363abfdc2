//! Attestation tests: the pre-authentication trust handshake introduced
//! by protocol v4. Before a credential crosses the wire the server must
//! produce a signed enclave quote that satisfies the client's
//! [`TrustPolicy`]; an unattested `Hello` is refused with a structured
//! `attestation_failed` error.

use std::sync::Arc;

use concealer_client::{ClientBuilder, ClientError, TrustPolicy};
use concealer_examples::demo_system;
use concealer_server::{
    ErrorCode, Request, Response, Server, ServerConfig, ServerHandle, CONNECTION_LEVEL_ID,
    PROTOCOL_VERSION,
};
use serde::frame::{read_frame, write_frame, FrameError};

const HOURS: u64 = 2;
const SEED: u64 = 31_337;

fn spawn_demo_server() -> (concealer_core::UserHandle, ServerHandle) {
    let (system, user, _records) = demo_system(HOURS, SEED);
    let handle = Server::new(Arc::new(system), ServerConfig::default())
        .spawn()
        .expect("bind loopback");
    (user, handle)
}

/// The default builder policy (attestation required, quotes verified)
/// connects against the demo enclave, exposes the quote, and serves
/// queries.
#[test]
fn default_policy_attests_verifies_and_serves() {
    let (user, handle) = spawn_demo_server();
    let mut conn = ClientBuilder::new(handle.local_addr())
        .user(&user)
        .client_name("attested")
        .connect()
        .expect("default policy connects");
    assert_eq!(conn.quotes().len(), 1, "single server, single quote");
    let quote = &conn.quotes()[0];
    assert_eq!(quote.code_version, concealer_enclave::ENCLAVE_CODE_VERSION);
    conn.execute(&concealer_core::Query::count().at_dims([3]).at(600))
        .expect("attested session serves queries");
    conn.close().unwrap();
    handle.shutdown_and_join();
}

/// `Hello` before a successful `Attest` → a fatal structured
/// `attestation_failed` at connection level, then close.
#[test]
fn hello_before_attest_is_refused() {
    let (user, handle) = spawn_demo_server();
    let mut stream = std::net::TcpStream::connect(handle.local_addr()).unwrap();
    write_frame(
        &mut stream,
        &Request::Hello {
            version: PROTOCOL_VERSION,
            user_id: user.user_id.0,
            credential: user.credential.0,
            client_name: "unattested".into(),
        },
    )
    .unwrap();
    let reply: Response = read_frame(&mut stream, 1 << 20).unwrap();
    match reply {
        Response::Error {
            id: CONNECTION_LEVEL_ID,
            ref error,
        } => {
            assert_eq!(error.code, ErrorCode::AttestationFailed, "{error}");
            assert!(error.to_string().contains("attestation_failed"), "{error}");
        }
        other => panic!("expected attestation_failed, got {other:?}"),
    }
    // The refusal is fatal: the server closes at a frame boundary.
    assert!(
        matches!(
            read_frame::<_, Response>(&mut stream, 1 << 20),
            Err(FrameError::Closed)
        ),
        "unattested Hello must close the connection"
    );
    handle.shutdown_and_join();
}

/// The pre-auth surface is exactly {Attest, ShardInfo}: topology
/// discovery works before attestation, an `Attest` error reply leaves
/// the connection open for retry, and `Attest` after authentication is a
/// protocol violation.
#[test]
fn pre_auth_matrix_is_enforced() {
    let (user, handle) = spawn_demo_server();
    let mut stream = std::net::TcpStream::connect(handle.local_addr()).unwrap();

    // ShardInfo: answerable before any attestation.
    write_frame(&mut stream, &Request::ShardInfo { id: 1 }).unwrap();
    let reply: Response = read_frame(&mut stream, 1 << 20).unwrap();
    assert!(
        matches!(reply, Response::ShardInfoOk { id: 1, .. }),
        "{reply:?}"
    );

    // A reserved-id Attest is refused — but the refusal is itself an
    // answer; the matrix only admits {Attest, ShardInfo}, so the
    // stream keeps serving a corrected retry.
    write_frame(
        &mut stream,
        &Request::Attest {
            id: 2,
            nonce: [3u8; 32],
        },
    )
    .unwrap();
    let reply: Response = read_frame(&mut stream, 1 << 20).unwrap();
    assert!(
        matches!(reply, Response::AttestOk { id: 2, .. }),
        "{reply:?}"
    );

    // Authenticate, then re-attest: the trust decision was already
    // made for this connection — protocol violation, fatal.
    write_frame(
        &mut stream,
        &Request::Hello {
            version: PROTOCOL_VERSION,
            user_id: user.user_id.0,
            credential: user.credential.0,
            client_name: "matrix".into(),
        },
    )
    .unwrap();
    let reply: Response = read_frame(&mut stream, 1 << 20).unwrap();
    assert!(matches!(reply, Response::HelloOk(_)), "{reply:?}");
    write_frame(
        &mut stream,
        &Request::Attest {
            id: 3,
            nonce: [4u8; 32],
        },
    )
    .unwrap();
    let reply: Response = read_frame(&mut stream, 1 << 20).unwrap();
    assert!(
        matches!(
            reply,
            Response::Error {
                id: CONNECTION_LEVEL_ID,
                ref error
            } if error.code == ErrorCode::ProtocolViolation
        ),
        "{reply:?}"
    );

    handle.shutdown_and_join();
}

/// A measurement pin that does not match the enclave → a structured
/// [`ClientError::Attestation`] before `Hello` (no credential crossed
/// the wire); the matching pin connects.
#[test]
fn measurement_pins_gate_the_credential() {
    let (user, handle) = spawn_demo_server();
    let addr = handle.local_addr();

    // Learn the genuine measurement from a pre-auth probe.
    let probe = ClientBuilder::new(addr).probe().expect("attested probe");
    let genuine = probe.quotes()[0].measurement;
    drop(probe);

    // Wrong pin: refused as an attestation failure.
    let err = ClientBuilder::new(addr)
        .user(&user)
        .trust_policy(TrustPolicy::pinned(vec![[0xAB; 32]]))
        .connect()
        .unwrap_err();
    match err {
        ClientError::Attestation(ref m) => {
            assert!(m.contains("measurement"), "{m}")
        }
        other => panic!("expected ClientError::Attestation, got {other:?}"),
    }

    // The genuine pin (plus a decoy) connects and serves.
    let mut conn = ClientBuilder::new(addr)
        .user(&user)
        .trust_policy(TrustPolicy::pinned(vec![[0xAB; 32], genuine]))
        .connect()
        .expect("genuine pin connects");
    conn.execute(&concealer_core::Query::count().at_dims([3]).at(600))
        .expect("pinned session serves");
    conn.close().unwrap();
    handle.shutdown_and_join();
}

/// `TrustPolicy::allow_unattested` still runs the attestation round (the
/// server requires it before `Hello`) but skips client-side verification
/// — the escape hatch for keyless intermediaries and bring-up.
#[test]
fn allow_unattested_skips_verification_but_still_attests() {
    let (user, handle) = spawn_demo_server();
    let conn = ClientBuilder::new(handle.local_addr())
        .user(&user)
        .trust_policy(TrustPolicy::allow_unattested())
        .connect()
        .expect("unattested policy connects");
    // The quotes were still received and exposed — the policy only
    // skipped verification.
    assert_eq!(conn.quotes().len(), 1);
    conn.close().unwrap();
    handle.shutdown_and_join();
}

/// The quote's nonce echo is enforced: a stale nonce (a replayed quote)
/// is rejected by the default policy. Driven through the raw wire so the
/// test controls the nonce on both legs.
#[test]
fn nonce_echo_is_enforced_by_the_trust_policy() {
    let (_user, handle) = spawn_demo_server();
    let mut stream = std::net::TcpStream::connect(handle.local_addr()).unwrap();
    write_frame(
        &mut stream,
        &Request::Attest {
            id: 1,
            nonce: [5u8; 32],
        },
    )
    .unwrap();
    let reply: Response = read_frame(&mut stream, 1 << 20).unwrap();
    let Response::AttestOk { quotes, .. } = reply else {
        panic!("expected AttestOk, got {reply:?}");
    };
    let quote = &quotes[0];
    assert_eq!(quote.nonce, [5u8; 32], "quote echoes the challenge nonce");

    // The signature binds the nonce: converting to the enclave-side quote
    // verifies as issued, and flipping the nonce breaks verification.
    let issued = concealer_enclave::Quote {
        measurement: quote.measurement,
        code_version: quote.code_version,
        timestamp: quote.timestamp,
        nonce: quote.nonce,
        signature: quote.signature,
    };
    assert!(concealer_enclave::attest::verify_signature(&issued));
    let mut replayed = issued;
    replayed.nonce = [6u8; 32];
    assert!(
        !concealer_enclave::attest::verify_signature(&replayed),
        "a re-nonced quote must not verify"
    );
    handle.shutdown_and_join();
}
