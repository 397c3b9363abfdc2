//! Wire quickstart: serve a Concealer deployment over TCP in-process,
//! connect a client, and run the query classes over the wire — the
//! served variant of `examples/quickstart.rs`.
//!
//! ```text
//! cargo run --release --example wire_quickstart
//! ```
//!
//! For a real two-process setup, run `cargo run --release -p
//! concealer-server` in one terminal and point a
//! `concealer_client::ClientBuilder` at the printed address;
//! `crates/concealer-server/tests/soak.rs` does exactly that under load.

use std::sync::Arc;

use concealer_client::ClientBuilder;
use concealer_core::{ExecOptions, Query, RangeMethod};
use concealer_examples::{demo_epoch_records, demo_system};
use concealer_server::{Server, ServerConfig};

fn main() {
    // 1. The service provider stands up the deployment (two hours of demo
    //    WiFi data, deterministic in the seed) and serves it on loopback.
    let (system, user, _records) = demo_system(2, 42);
    let handle = Server::new(Arc::new(system), ServerConfig::default())
        .spawn()
        .expect("bind a loopback port");
    let addr = handle.local_addr();
    println!("serving on {addr}");

    // 2. An analyst connects with the credential the data provider issued
    //    (here: taken from the in-process handle; in a real deployment it
    //    arrives out of band). The builder attests the enclave *before*
    //    the credential crosses the wire — the default trust policy
    //    refuses any server that cannot produce a verifiable quote.
    let mut conn = ClientBuilder::new(addr)
        .user(&user)
        .client_name("wire-quickstart")
        .connect()
        .expect("attest + handshake");
    println!(
        "attested: {} enclave quote(s), measurement {:02x?}…",
        conn.quotes().len(),
        &conn.quotes()[0].measurement[..4]
    );
    let info = conn.server_info();
    println!(
        "connected to {} (protocol {}, backend {}, max batch {})",
        info.server_name, info.protocol_version, info.backend, info.max_batch
    );

    // 3. A point query over the wire. The answer carries the enclave's
    //    verification metadata — the client trusts that, not the wire.
    let point = Query::count().at_dims([3]).at(600);
    let answer = conn.execute(&point).expect("point query");
    println!(
        "point count at location 3, t=600  -> {:?} (verified: {})",
        answer.value, answer.verified
    );

    // 4. A batch under BPB: the server dedupes shared bin fetches across
    //    the batch and runs it on its thread pool.
    let queries: Vec<Query> = vec![
        Query::count().at_dims([3]).between(0, 1_799),
        Query::count().at_dims([5]).between(0, 3_599),
        Query::top_k_locations(5).between(0, 7_199),
    ];
    let options = ExecOptions::with_method(RangeMethod::Bpb).with_parallelism(2);
    let results = conn.execute_batch_with(&queries, options).expect("batch");
    for (query, result) in queries.iter().zip(&results) {
        match result {
            Ok(answer) => println!("batch {:?} -> {:?}", query.predicate, answer.value),
            Err(e) => println!("batch {:?} -> error {e}", query.predicate),
        }
    }
    // 5. Ingest a follow-up epoch over the wire while the connection
    //    stays live, then query across both epochs.
    let epoch2 = demo_epoch_records(2, 42, 2 * 3600);
    let rows = conn.ingest_epoch(2 * 3600, &epoch2).expect("wire ingest");
    println!("ingested epoch at t=7200 over the wire ({rows} rows stored)");
    let spanning = Query::count().at_dims([3]).between(0, 4 * 3600 - 1);
    let answer = conn.execute(&spanning).expect("spanning query");
    println!(
        "spanning count -> {:?} ({} epochs touched)",
        answer.value, answer.epochs_touched
    );

    // 6. Clean close, then a graceful server shutdown.
    conn.close().expect("goodbye");
    let report = handle.shutdown_and_join();
    println!(
        "server drained: {} connections, {} requests",
        report.connections_served, report.requests_served
    );
}
