//! Per-layer probes: each layer's public functions timed from outside on
//! real inputs — a bin-sized slice of stored rows of the `cold_verify`
//! deployment (whose index keys double as trapdoors), the wire values of
//! `wire_points`, one `routed_ingest` epoch.
//!
//! Every timed probe reports the median over [`REPEATS`] repeats; each
//! repeat runs as many calls as fit its share of the probe budget (at
//! least one). Fixtures are the probes' own: they do not touch the
//! workload's deployment.

use std::io::Cursor;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::api::{
    bitonic_sort_by_key, demo_workload, generate_oblivious, generate_plain, merge_partials,
    verify_cell_chain, verify_signature, Aes, Cmac, ConcealerSystem, CoreSession, DataProvider,
    DetBuffer, DeterministicCipher, DiskEpochStore, EncryptedRow, EpochId, EpochStore, ExecOptions,
    FetchSpec, HashChainBuilder, MasterKey, Query, QueryWorkload, RandomizedCipher, RangeMethod,
    Request, Response, ServerMode, ServerRequest, Sha256, SideChannelMeter, UserHandle, WifiScale,
};
use crate::deploy::{
    build_demo, build_wifi, connect, fail, routed_config, routed_epoch_records, scratch_dir,
    segment_bytes, server_config, spawn_server, BenchResult, DEFAULT_SERVER_MODE,
};
use crate::metrics::Values;
use crate::run::{wire_request, wire_response};
use crate::stats::median;
use crate::streams::{request_stream, Workload, DEMO_HOURS, ROUTED_EPOCH};

const REPEATS: usize = 5;
/// Timed probes sharing the budget (heavier ones count more than once).
const PROBE_SHARES: u32 = 56;
/// Tuples per synthetic cell-id when a bin is cut into cells.
const CELL_ROWS: usize = 50;
/// Serving cores probed by name; a name `ServerMode::parse` rejects is
/// reported absent.
const SERVER_MODES: [&str; 2] = ["threaded", "event"];
/// What is measured per core, in the order `servers` fills it; reported
/// as `server.<core>.<name>`, and as `server.<name>` for the default core.
const SERVER_METRICS: [&str; 6] = [
    "noop_rtt_us",
    "point_us",
    "pipelined_qps",
    "connect_ms",
    "in_flight_peak",
    "backlog_peak",
];
const PIPELINE_DEPTH: usize = 8;

struct Prober {
    per_probe: Duration,
}

impl Prober {
    /// Median nanoseconds per call of `f`. A call that alone outlasts the
    /// probe's whole budget is reported from that single call.
    fn ns(&self, mut f: impl FnMut()) -> f64 {
        let t = Instant::now();
        f();
        let once = t.elapsed().as_nanos().max(1);
        if once > self.per_probe.as_nanos() {
            return once as f64;
        }
        let per_repeat = (self.per_probe / REPEATS as u32).as_nanos();
        let iters = (per_repeat / once).clamp(1, 10_000_000) as u64;
        let samples: Vec<f64> = (0..REPEATS)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    f();
                }
                t.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        median(&samples)
    }

    fn us(&self, f: impl FnMut()) -> f64 {
        self.ns(f) / 1e3
    }

    /// Throughput in MB/s of an `f` that processes `bytes` per call.
    fn mb_s(&self, bytes: usize, f: impl FnMut()) -> f64 {
        bytes as f64 * 1e3 / self.ns(f)
    }
}

/// Run every probe within roughly `budget` and return the per-layer values.
pub fn run_probes(seed: u64, budget: Duration) -> BenchResult<Values> {
    let prober = Prober {
        per_probe: budget / PROBE_SHARES,
    };
    let mut values = Values::default();
    let (system, user, records, queries) = build_wifi(WifiScale::Large)?;
    let plan = system
        .engine()
        .plan_stats(0)
        .or_else(|e| fail("plan_stats", e))?;
    let bin_rows = plan.bin_size as usize;
    let bin: Vec<EncryptedRow> = system
        .store()
        .full_scan(0)
        .or_else(|e| fail("full_scan", e))?
        .into_iter()
        .take(bin_rows)
        .collect();
    values.set(
        "core.fake_row_share",
        1.0 - records.len() as f64 / system.store().total_rows() as f64,
    );

    crypto(&prober, &bin, &mut values);
    enclave(&prober, &system, &bin, &mut values);
    storage(&prober, seed, &system, &bin, &mut values)?;
    codec(&prober, seed, &mut values)?;
    servers(&prober, seed, &mut values)?;
    core(&prober, seed, &system, &user, &queries, &bin, &mut values)?;
    Ok(values)
}

fn bin_bytes(bin: &[EncryptedRow]) -> Vec<u8> {
    bin.iter()
        .flat_map(|r| {
            r.index_key
                .iter()
                .chain(r.filters.iter().flatten())
                .chain(&r.payload)
                .copied()
        })
        .collect()
}

fn crypto(p: &Prober, bin: &[EncryptedRow], values: &mut Values) {
    use std::hint::black_box;
    let bytes = bin_bytes(bin);
    let aes = Aes::new_256(&[7u8; 32]);
    let block = [3u8; 16];
    values.set(
        "crypto.aes_block_ns",
        p.ns(|| {
            black_box(aes.encrypt_block_copy(black_box(&block)));
        }),
    );
    let ctr = RandomizedCipher::new(&[1u8; 32], &[2u8; 32]);
    let nonce = [9u8; 16];
    let sealed = ctr.encrypt_with_nonce(&nonce, &bytes);
    values.set(
        "crypto.ctr_encrypt_mb_s",
        p.mb_s(bytes.len(), || {
            black_box(ctr.encrypt_with_nonce(&nonce, black_box(&bytes)));
        }),
    );
    values.set(
        "crypto.ctr_decrypt_mb_s",
        p.mb_s(bytes.len(), || {
            black_box(ctr.decrypt(black_box(&sealed)).expect("own ciphertext"));
        }),
    );
    // DET over the bin's payload column: decrypt needs ciphertexts of this
    // cipher, so the column is re-encrypted under the probe's own key.
    let det = DeterministicCipher::new(&[4u8; 32], &[5u8; 32]);
    let plain: Vec<&[u8]> = bin.iter().map(|r| r.payload.as_slice()).collect();
    let mut arena = DetBuffer::new();
    values.set(
        "crypto.det_encrypt_batch_ns",
        p.ns(|| det.encrypt_batch(plain.iter().copied(), &mut arena)) / bin.len() as f64,
    );
    let sealed: Vec<Vec<u8>> = plain.iter().map(|pt| det.encrypt(pt)).collect();
    values.set(
        "crypto.det_decrypt_batch_ns",
        p.ns(|| {
            black_box(det.decrypt_batch(sealed.iter().map(Vec::as_slice), &mut arena));
        }) / bin.len() as f64,
    );
    let mut out = Vec::new();
    values.set(
        "crypto.det_decrypt_single_ns",
        p.ns(|| {
            out.clear();
            det.decrypt_into(&sealed[0], &mut out)
                .expect("own ciphertext");
        }),
    );
    let cmac = Cmac::new(Aes::new_256(&[6u8; 32]));
    values.set(
        "crypto.cmac_mb_s",
        p.mb_s(bytes.len(), || {
            black_box(cmac.mac(black_box(&bytes)));
        }),
    );
    values.set(
        "crypto.sha256_mb_s",
        p.mb_s(bytes.len(), || {
            let mut h = Sha256::new();
            h.update(black_box(&bytes));
            black_box(h.finalize());
        }),
    );
}

/// A fetch spec the size of one bin: full cells of [`CELL_ROWS`] tuples
/// and the remainder as fakes.
fn bin_fetch_spec(bin_rows: usize) -> FetchSpec {
    let cells = bin_rows / CELL_ROWS;
    FetchSpec {
        cells: (0..cells as u32).map(|c| (c, CELL_ROWS as u32)).collect(),
        fake_range: (0, (bin_rows - cells * CELL_ROWS) as u64),
    }
}

fn enclave(p: &Prober, system: &ConcealerSystem, bin: &[EncryptedRow], values: &mut Values) {
    use std::hint::black_box;
    let enclave = system.engine().enclave();
    let key = enclave.epoch_key(EpochId(0), 0);
    let meter = SideChannelMeter::new();
    let spec = bin_fetch_spec(bin.len());
    values.set(
        "enclave.trapdoor_plain_us",
        p.us(|| {
            black_box(generate_plain(&key, &spec, &meter));
        }),
    );
    let (max_cells, max_fakes) = (spec.cells.len(), spec.fake_range.1.max(1));
    values.set(
        "enclave.trapdoor_oblivious_us",
        p.us(|| {
            black_box(generate_oblivious(
                &key,
                &spec,
                max_cells,
                CELL_ROWS as u32,
                max_fakes,
                &meter,
            ));
        }),
    );
    let mut rows = bin.to_vec();
    values.set(
        "enclave.bitonic_sort_us",
        p.us(|| {
            bitonic_sort_by_key(&mut rows, &meter, |r| {
                r.index_key
                    .iter()
                    .take(8)
                    .fold(0u64, |k, b| k << 8 | u64::from(*b))
            });
        }),
    );
    values.set(
        "enclave.attest_quote_us",
        p.us(|| {
            let quote = enclave.quote(black_box([5u8; 32]), 1_700_000_000);
            assert!(verify_signature(&quote));
        }),
    );
}

/// A data provider sealing routed-shape epochs under the probes' own key.
fn probe_provider() -> DataProvider {
    DataProvider::new(MasterKey::from_bytes([8u8; 32]), routed_config())
}

fn storage(
    p: &Prober,
    seed: u64,
    system: &ConcealerSystem,
    bin: &[EncryptedRow],
    values: &mut Values,
) -> BenchResult<()> {
    use std::hint::black_box;
    let trapdoors: Vec<Vec<u8>> = bin.iter().map(|r| r.index_key.clone()).collect();
    let fetch_probes = |store: &EpochStore,
                        fetch: &'static str,
                        replay: Option<&'static str>,
                        values: &mut Values| {
        let fetched = store
            .fetch_batch(0, &trapdoors)
            .expect("probe epoch is stored");
        assert_eq!(fetched.len(), bin.len(), "every trapdoor hits");
        values.set(
            fetch,
            p.us(|| {
                black_box(store.fetch_batch(0, &trapdoors).expect("stored"));
                store.observer().reset();
            }),
        );
        if let Some(replay) = replay {
            values.set(
                replay,
                p.us(|| {
                    assert!(store
                        .fetch_batch_matches(0, &trapdoors, &fetched)
                        .expect("stored"));
                    store.observer().reset();
                }),
            );
        }
    };
    let mem = system.store();
    fetch_probes(
        mem,
        "storage.mem.fetch_bin_us",
        Some("storage.mem.replay_bin_us"),
        values,
    );
    mem.observer().reset();
    mem.fetch_batch(0, &trapdoors)
        .or_else(|e| fail("fetch_batch", e))?;
    values.set(
        "storage.rows_per_fetch",
        mem.observer().summary().rows_fetched as f64,
    );
    mem.observer().reset();

    // Disk, same rows: epochs stay resident, so this should equal memory.
    let scratch = scratch_dir()?;
    let result = (|| {
        let disk = EpochStore::with_backend(Arc::new(
            DiskEpochStore::open_scratch(scratch.join("fetch"))
                .or_else(|e| fail("disk store", e))?,
        ));
        let rows = mem.full_scan(0).or_else(|e| fail("full_scan", e))?;
        let metadata = mem.metadata(0).or_else(|e| fail("metadata", e))?;
        disk.ingest_epoch(0, rows, metadata)
            .or_else(|e| fail("disk ingest", e))?;
        fetch_probes(&disk, "storage.disk.fetch_bin_us", None, values);
        drop(disk);

        // Ingest commit (segment write, fsync, manifest swap) of one
        // routed-size epoch, twenty times into one root; then reopen it.
        let provider = probe_provider();
        let root = scratch.join("commit");
        let store = EpochStore::with_backend(Arc::new(
            DiskEpochStore::open(&root).or_else(|e| fail("disk store", e))?,
        ));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut commits = Vec::new();
        let mut stored_rows = 0usize;
        for k in 0..20u64 {
            let epoch = k * ROUTED_EPOCH;
            let shipment = provider
                .encrypt_epoch(epoch, &routed_epoch_records(seed, epoch), &mut rng)
                .or_else(|e| fail("encrypt_epoch", e))?;
            stored_rows += shipment.rows.len();
            let t = Instant::now();
            store
                .ingest_epoch(epoch, shipment.rows, shipment.metadata)
                .or_else(|e| fail("disk ingest", e))?;
            commits.push(t.elapsed().as_secs_f64() * 1e3);
        }
        drop(store);
        values.set("storage.disk.ingest_commit_ms", median(&commits));
        values.set(
            "storage.disk.bytes_per_row",
            segment_bytes(&root) as f64 / stored_rows as f64,
        );
        values.set(
            "storage.disk.reopen_ms",
            p.ns(|| {
                black_box(DiskEpochStore::open(&root).expect("reopen"));
            }) / 1e6,
        );
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn codec(p: &Prober, seed: u64, values: &mut Values) -> BenchResult<()> {
    use std::hint::black_box;
    let (system, user, _records) = build_demo()?;
    let stream = request_stream(Workload::WirePoints, seed, 0, &demo_workload(DEMO_HOURS));
    let request = &stream[0];
    let session = system.session(&user);
    let answer = match request {
        ServerRequest::Query(q, o) => session
            .execute_with(q, *o)
            .or_else(|e| fail("codec fixture", e))?,
        ServerRequest::Batch(..) => return fail("codec fixture", "stream must start with a point"),
    };
    let wire_req = wire_request(request);
    let wire_resp = wire_response(request, std::slice::from_ref(&answer));
    let req_bytes = serde::bin::to_bytes(&wire_req);
    let resp_bytes = serde::bin::to_bytes(&wire_resp);
    values.set("codec.answer_bytes", resp_bytes.len() as f64);
    values.set(
        "codec.encode_request_ns",
        p.ns(|| {
            black_box(serde::bin::to_bytes(black_box(&wire_req)));
        }),
    );
    values.set(
        "codec.decode_request_ns",
        p.ns(|| {
            black_box(serde::bin::from_bytes::<Request>(black_box(&req_bytes)).expect("own bytes"));
        }),
    );
    values.set(
        "codec.encode_answer_ns",
        p.ns(|| {
            black_box(serde::bin::to_bytes(black_box(&wire_resp)));
        }),
    );
    values.set(
        "codec.decode_answer_ns",
        p.ns(|| {
            black_box(
                serde::bin::from_bytes::<Response>(black_box(&resp_bytes)).expect("own bytes"),
            );
        }),
    );
    // One frame through both framing paths: blocking write + read, then
    // the incremental decoder.
    let mut framed = Vec::new();
    values.set(
        "codec.frame_roundtrip_ns",
        p.ns(|| {
            framed.clear();
            serde::frame::write_frame(&mut framed, &wire_resp).expect("vec write");
            let back: Response =
                serde::frame::read_frame(&mut Cursor::new(&framed), 1 << 20).expect("own frame");
            black_box(back);
            let mut decoder = serde::frame::FrameDecoder::new(1 << 20);
            decoder.extend_from_slice(&framed);
            black_box(decoder.try_decode::<Response>().expect("own frame"));
        }),
    );
    let ingest = Request::IngestEpoch {
        id: 1,
        epoch_start: 0,
        records: routed_epoch_records(seed, 0),
    };
    let ingest_len = serde::bin::to_bytes(&ingest).len();
    values.set(
        "codec.ingest_frame_mb_s",
        p.mb_s(ingest_len, || {
            framed.clear();
            serde::frame::write_frame(&mut framed, &ingest).expect("vec write");
            let back: Request =
                serde::frame::read_frame(&mut Cursor::new(&framed), 4 << 20).expect("own frame");
            black_box(back);
        }),
    );
    Ok(())
}

fn servers(p: &Prober, seed: u64, values: &mut Values) -> BenchResult<()> {
    let (system, user, _records) = build_demo()?;
    let system = Arc::new(system);
    let stream = request_stream(Workload::WirePoints, seed, 0, &demo_workload(DEMO_HOURS));
    let points: Vec<&Query> = stream
        .iter()
        .filter_map(|r| match r {
            ServerRequest::Query(q, _)
                if q.predicate.time_span().0 == q.predicate.time_span().1 =>
            {
                Some(q)
            }
            _ => None,
        })
        .take(64)
        .collect();
    for mode_name in SERVER_MODES {
        let Ok(mode) = ServerMode::parse(mode_name) else {
            println!("note server.{mode_name}.* absent: ServerMode::parse rejects {mode_name:?}");
            continue;
        };
        let server = spawn_server(Arc::clone(&system), server_config(mode, None))?;
        let addr = server.local_addr();
        let measured = (|| -> BenchResult<[f64; 6]> {
            let connect_ms = p.ns(|| {
                connect(addr, &user, "probe-connect")
                    .and_then(|s| s.close().or_else(|e| fail("close", e)))
                    .expect("probe connect");
            }) / 1e6;
            let mut session = connect(addr, &user, "probe")?;
            let noop = p.us(|| {
                session.serve_stats().expect("serve_stats");
            });
            let mut next = points.iter().cycle();
            let point = p.us(|| {
                session
                    .execute(next.next().expect("cycle"))
                    .expect("probe point");
                system.observer().reset();
            });
            // Pipelined at depth 8 while a second connection samples the
            // server's own in-flight and backlog gauges.
            let stop = AtomicBool::new(false);
            let (in_flight, backlog) = (AtomicU64::new(0), AtomicU64::new(0));
            let mut sampler = connect(addr, &user, "probe-sampler")?;
            let per_query_ns = std::thread::scope(|scope| {
                scope.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        if let Ok(stats) = sampler.serve_stats() {
                            in_flight.fetch_max(stats.in_flight, Ordering::Relaxed);
                            backlog.fetch_max(stats.backlog, Ordering::Relaxed);
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                });
                let mut pending = std::collections::VecDeque::new();
                let ns = p.ns(|| {
                    while pending.len() < PIPELINE_DEPTH {
                        let q = next.next().expect("cycle");
                        pending.push_back(session.submit_execute(q, None).expect("submit"));
                    }
                    let ticket = pending.pop_front().expect("depth > 0");
                    session.wait_execute(ticket).expect("pipelined answer");
                    system.observer().reset();
                });
                for ticket in pending {
                    session.wait_execute(ticket).expect("pipelined answer");
                }
                stop.store(true, Ordering::Relaxed);
                ns
            });
            sampler.close().or_else(|e| fail("close", e))?;
            session.close().or_else(|e| fail("close", e))?;
            Ok([
                noop,
                point,
                1e9 / per_query_ns,
                connect_ms,
                in_flight.into_inner() as f64,
                backlog.into_inner() as f64,
            ])
        })();
        server.shutdown_and_join();
        let measured = measured?;
        for (name, value) in SERVER_METRICS.iter().zip(measured) {
            values.set(format!("server.{mode_name}.{name}"), value);
            if mode_name == DEFAULT_SERVER_MODE {
                values.set(format!("server.{name}"), value);
            }
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn core(
    p: &Prober,
    seed: u64,
    system: &ConcealerSystem,
    user: &UserHandle,
    queries: &QueryWorkload,
    bin: &[EncryptedRow],
    values: &mut Values,
) -> BenchResult<()> {
    use std::hint::black_box;
    let session = system.session(user);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0DE);
    let points: Vec<Query> = (0..8).map(|_| queries.q1_point(&mut rng)).collect();
    let ranges: Vec<Query> = (0..8).map(|_| queries.q1(30 * 60, &mut rng)).collect();
    let exec = |qs: &[Query], options: ExecOptions| {
        let mut next = qs.iter().cycle();
        p.us(|| {
            let answer = session
                .execute_with(next.next().expect("cycle"), options)
                .expect("probe query");
            black_box(answer);
            system.observer().reset();
        })
    };
    let bpb = ExecOptions::with_method(RangeMethod::Bpb);
    values.set("core.exec.point_warm_us", exec(&points, bpb));
    // Everything below runs cold: no decrypted-bin cache, so every call
    // pays trapdoors, fetch, verification and decryption.
    system.set_bin_cache_capacity(0);
    values.set("core.exec.point_cold_us", exec(&points, bpb));
    values.set(
        "core.exec.point_oblivious_us",
        exec(
            &points,
            ExecOptions {
                oblivious: Some(true),
                ..bpb
            },
        ),
    );
    values.set("core.exec.q1_bpb_us", exec(&ranges, bpb));
    values.set(
        "core.exec.q1_ebpb_us",
        exec(&ranges, ExecOptions::with_method(RangeMethod::Ebpb)),
    );
    values.set(
        "core.exec.q1_winsec_us",
        exec(&ranges, ExecOptions::with_method(RangeMethod::WinSecRange)),
    );
    values.set(
        "core.exec.q1_bpb_noverify_us",
        exec(
            &ranges,
            ExecOptions {
                verify: false,
                ..bpb
            },
        ),
    );

    // Hash-chain verification of one bin: its rows cut into cells, tags
    // built as the data provider builds them.
    let key = system.engine().enclave().epoch_key(EpochId(0), 0);
    let cells = bin.len().div_ceil(CELL_ROWS);
    let mut chain = HashChainBuilder::new(&key, cells);
    for (i, row) in bin.iter().enumerate() {
        chain.absorb((i / CELL_ROWS) as u32, row);
    }
    let tags = chain.finalize(&mut rng);
    let cell_rows: Vec<Vec<&EncryptedRow>> =
        bin.chunks(CELL_ROWS).map(|c| c.iter().collect()).collect();
    values.set(
        "core.verify_bin_us",
        p.us(|| {
            for (cid, rows) in cell_rows.iter().enumerate() {
                verify_cell_chain(&key, cid as u32, rows, &tags[cid]).expect("own chain");
            }
        }),
    );

    // Partial execution + merge against direct execution.
    let direct = exec(&ranges, bpb);
    let mut next = ranges.iter().cycle();
    let partial = p.us(|| {
        let q = next.next().expect("cycle");
        let partials = session.execute_partials(q, bpb).expect("probe partials");
        black_box(merge_partials(q, partials).expect("merge"));
        system.observer().reset();
    });
    values.set("core.partial.overhead_ratio", partial / direct);

    // One 64-query BPB batch (points and Q1 ranges): rows fetched query by
    // query over rows fetched by the deduplicated batch, then the batch at
    // parallelism 1 against 2. Warm, like `warm_batch`.
    system.set_bin_cache_capacity(128);
    let batch: Vec<Query> = (0..64)
        .map(|i| match i % 4 {
            0 => queries.q1_point(&mut rng),
            _ => queries.q1(30 * 60, &mut rng),
        })
        .collect();
    let observer = system.observer();
    observer.reset();
    for q in &batch {
        session
            .execute_with(q, bpb)
            .or_else(|e| fail("dedup probe", e))?;
    }
    let one_by_one = observer.summary().rows_fetched;
    observer.reset();
    let batch_session = |parallelism| {
        session
            .clone()
            .with_options(bpb.with_parallelism(parallelism))
    };
    let sequential = batch_session(1);
    black_box(sequential.execute_batch(&batch));
    let batched = observer.summary().rows_fetched;
    observer.reset();
    values.set(
        "core.batch.dedup_ratio",
        one_by_one as f64 / batched.max(1) as f64,
    );
    let time_batch = |s: &CoreSession<'_>| {
        p.ns(|| {
            black_box(s.execute_batch(&batch));
            observer.reset();
        })
    };
    let seq_ns = time_batch(&sequential);
    let par_ns = time_batch(&batch_session(2));
    values.set("core.batch.par2_speedup", seq_ns / par_ns);

    // The data provider's side of ingest (the paper's Exp 1).
    let records = routed_epoch_records(seed, 0);
    let provider = probe_provider();
    let encrypt_ns = p.ns(|| {
        black_box(
            provider
                .encrypt_epoch(0, &records, &mut rng)
                .expect("encrypt_epoch"),
        );
    });
    values.set(
        "core.provider.encrypt_rows_per_s",
        records.len() as f64 * 1e9 / encrypt_ns,
    );

    // Forward-private execution rewrites the bins it fetches, so it runs
    // last on this system.
    system.set_bin_cache_capacity(0);
    values.set(
        "core.exec.q1_fwdpriv_us",
        exec(
            &ranges,
            ExecOptions {
                forward_private: true,
                ..bpb
            },
        ),
    );
    Ok(())
}
