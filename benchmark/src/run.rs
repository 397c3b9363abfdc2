//! The load generator: closed-loop callers, the paced open-loop ingest,
//! the timed window cut into slices, and the traced single-caller loop.

use std::time::{Duration, Instant};

use crate::api::{
    shard_of_epoch, PhaseBreakdown, QueryAnswer, Record, Request, Response, ServerRequest,
    WireResult, WireSession,
};
use crate::deploy::{connect, fail, request_options, BenchResult, Caller, Deployment};
use crate::streams::{Workload, ROUTED_EPOCH};
use crate::trace::{names, Trace};

/// Slices per timed window; every timing metric is the median over them.
pub const SLICES: usize = 5;
/// Interval of the paced ingest on `routed_ingest`.
pub const INGEST_INTERVAL: Duration = Duration::from_millis(250);
/// How often the harness drains the engines' adversary traces.
const DRAIN_INTERVAL: Duration = Duration::from_millis(100);
/// Kernel clock ticks per second (`USER_HZ`), fixed at 100 on Linux.
const TICKS_PER_SECOND: f64 = 100.0;

/// One completed request of a closed-loop caller.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time, nanoseconds since the window began.
    pub done_ns: u64,
    pub latency_ns: u64,
    pub queries: u32,
    /// `Ok`, one verified answer per query.
    pub ok: bool,
}

/// One paced epoch ingest, timed from when it was due.
#[derive(Debug, Clone, Copy)]
pub struct IngestSample {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    pub ok: bool,
}

impl IngestSample {
    pub fn latency_ms(&self) -> f64 {
        (self.done_ns - self.due_ns) as f64 / 1e6
    }
    pub fn lateness_ms(&self) -> f64 {
        (self.sent_ns - self.due_ns) as f64 / 1e6
    }
}

/// Everything one window observed.
#[derive(Debug, Default)]
pub struct Window {
    pub slice: Duration,
    pub samples: Vec<Sample>,
    pub ingests: Vec<IngestSample>,
    /// Process CPU ticks at each slice boundary (`SLICES + 1` readings).
    pub cpu_ticks: Vec<u64>,
    /// Bin-cache counters summed over the deployment's systems, as deltas
    /// over the window.
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
}

/// `utime + stime` of this process in clock ticks.
pub fn process_cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the line, the 12th and 13th after it.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let utime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    utime + stime
}

pub fn ticks_to_ms(ticks: u64) -> f64 {
    ticks as f64 * 1e3 / TICKS_PER_SECOND
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ns_since(start: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}

fn answers_ok(request: &ServerRequest, answers: &Result<Vec<QueryAnswer>, String>) -> bool {
    matches!(answers, Ok(a) if a.len() == request.query_count() && a.iter().all(|x| x.verified))
}

/// Cycle through `stream` until `deadline`, one request at a time.
fn closed_loop(
    caller: &mut Caller<'_>,
    stream: &[ServerRequest],
    start: Instant,
    deadline: Instant,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    for request in stream.iter().cycle() {
        let sent = Instant::now();
        if sent >= deadline {
            break;
        }
        let answers = caller.call(request);
        let done = Instant::now();
        samples.push(Sample {
            done_ns: ns_since(start, done),
            latency_ns: ns_since(sent, done),
            queries: request.query_count() as u32,
            ok: answers_ok(request, &answers),
        });
    }
    samples
}

/// Send one epoch every [`INGEST_INTERVAL`] regardless of how long the
/// previous one took to be due; each is timed from its due time.
fn paced_ingest(
    session: &mut WireSession,
    epochs: &[(u64, Vec<Record>)],
    start: Instant,
    deadline: Instant,
) -> Vec<IngestSample> {
    let mut samples = Vec::new();
    for (k, (epoch_start, records)) in epochs.iter().enumerate() {
        let due = start + INGEST_INTERVAL * k as u32;
        if due >= deadline {
            break;
        }
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let sent = Instant::now();
        let ok = session.ingest_epoch(*epoch_start, records).is_ok();
        samples.push(IngestSample {
            due_ns: ns_since(start, due),
            sent_ns: ns_since(start, sent),
            done_ns: ns_since(start, Instant::now()),
            ok,
        });
    }
    samples
}

#[derive(Clone, Copy, Default)]
struct Counters {
    hits: u64,
    misses: u64,
    evictions: u64,
}

fn counters(deployment: &Deployment) -> Counters {
    let mut c = Counters::default();
    for system in &deployment.systems {
        let b = system.bin_cache_stats();
        c.hits += b.hits;
        c.misses += b.misses;
        c.evictions += b.evictions;
    }
    c
}

pub fn phase_delta(after: PhaseBreakdown, before: PhaseBreakdown) -> PhaseBreakdown {
    PhaseBreakdown {
        fetch_ns: after.fetch_ns - before.fetch_ns,
        decrypt_ns: after.decrypt_ns - before.decrypt_ns,
        verify_ns: after.verify_ns - before.verify_ns,
        aggregate_ns: after.aggregate_ns - before.aggregate_ns,
    }
}

/// Run one window of `seconds` with `callers` closed-loop callers (plus
/// the paced ingest on `routed_ingest`). With `trace`, the single caller
/// records spans and replays each request's stages.
pub fn run_window(
    deployment: &mut Deployment,
    callers: usize,
    seconds: f64,
    mut trace: Option<&mut Trace>,
) -> BenchResult<Window> {
    let window = Duration::from_secs_f64(seconds);
    let slice = window / SLICES as u32;
    let intervals = (window.as_nanos() / INGEST_INTERVAL.as_nanos()) as usize + 1;
    let epochs = deployment.paced_epochs(intervals);
    let deployment = &*deployment;

    let mut sessions = Vec::new();
    for idx in 0..callers {
        sessions.push(deployment.caller(&format!("caller-{idx}"))?);
    }
    let mut ingest_session = match (deployment.workload, deployment.addr) {
        (Workload::RoutedIngest, Some(addr)) => Some(connect(addr, &deployment.user, "ingest")?),
        _ => None,
    };
    let mut direct = Vec::new();
    if trace.is_some() {
        for addr in &deployment.shard_addrs {
            direct.push(connect(*addr, &deployment.user, "direct")?);
        }
    }

    deployment.drain_observers();
    let before = counters(deployment);
    let start = Instant::now();
    let deadline = start + window;
    let mut cpu_ticks = vec![process_cpu_ticks()];

    let (samples, ingests) = std::thread::scope(|scope| {
        let ingest = ingest_session.as_mut().map(|session| {
            let epochs = &epochs;
            scope.spawn(move || paced_ingest(session, epochs, start, deadline))
        });
        let mut handles = Vec::new();
        match trace.take() {
            Some(trace) => {
                let caller = &mut sessions[0];
                let stream = &deployment.streams[0];
                let direct = &mut direct;
                handles.push(scope.spawn(move || {
                    traced_loop(deployment, caller, direct, stream, start, deadline, trace)
                }));
            }
            None => {
                for (caller, stream) in sessions.iter_mut().zip(&deployment.streams) {
                    handles.push(scope.spawn(move || closed_loop(caller, stream, start, deadline)));
                }
            }
        }
        // The harness's own thread: drain observers, read CPU time at
        // slice boundaries.
        for boundary in 1..=SLICES as u32 {
            let at = start + slice * boundary;
            loop {
                let now = Instant::now();
                if now >= at {
                    break;
                }
                deployment.drain_observers();
                std::thread::sleep(DRAIN_INTERVAL.min(at - now));
            }
            cpu_ticks.push(process_cpu_ticks());
        }
        let samples: Vec<Sample> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("caller thread panicked"))
            .collect();
        let ingests = ingest.map_or(Vec::new(), |h| h.join().expect("ingest thread panicked"));
        (samples, ingests)
    });
    let after = counters(deployment);

    for caller in sessions {
        if let Caller::Wire(session) = caller {
            session.close().or_else(|e| fail("closing caller", e))?;
        }
    }
    for session in direct.into_iter().chain(ingest_session) {
        session.close().or_else(|e| fail("closing connection", e))?;
    }
    Ok(Window {
        slice,
        samples,
        ingests,
        cpu_ticks,
        cache_hits: after.hits - before.hits,
        cache_misses: after.misses - before.misses,
        cache_evictions: after.evictions - before.evictions,
    })
}

/// The wire request a caller's request travels as.
pub fn wire_request(request: &ServerRequest) -> Request {
    match request {
        ServerRequest::Query(q, o) => Request::Execute {
            id: 1,
            query: q.clone(),
            options: Some(*o),
        },
        ServerRequest::Batch(qs, o) => Request::ExecuteBatch {
            id: 1,
            queries: qs.clone(),
            options: Some(*o),
        },
    }
}

/// The wire response carrying `answers` back.
pub fn wire_response(request: &ServerRequest, answers: &[QueryAnswer]) -> Response {
    match request {
        ServerRequest::Query(..) => Response::Answer {
            id: 1,
            answer: answers[0].clone(),
        },
        ServerRequest::Batch(..) => Response::BatchAnswer {
            id: 1,
            results: answers.iter().cloned().map(WireResult::Ok).collect(),
        },
    }
}

/// Time `f` and record it as a child span of `parent`.
fn span<T>(
    trace: &mut Trace,
    origin: Instant,
    parent: u32,
    request_id: u64,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, u32) {
    let t0 = Instant::now();
    let out = f();
    let t1 = Instant::now();
    let id = trace.record(
        Some(parent),
        request_id,
        name,
        ns_since(origin, t0),
        ns_since(origin, t1),
    );
    (out, id)
}

/// Lay the four engine phases end to end under `engine` as child spans.
fn phase_spans(trace: &mut Trace, engine: u32, request_id: u64, start_ns: u64, p: PhaseBreakdown) {
    let mut at = start_ns;
    for (name, ns) in [
        (names::CORE_FETCH, p.fetch_ns),
        (names::CORE_DECRYPT, p.decrypt_ns),
        (names::CORE_VERIFY, p.verify_ns),
        (names::CORE_AGGREGATE, p.aggregate_ns),
    ] {
        trace.record(Some(engine), request_id, name, at, at + ns);
        at += ns;
    }
}

/// Whether a request stays inside one epoch (and so one shard).
fn single_epoch(request: &ServerRequest) -> Option<u64> {
    match request {
        ServerRequest::Query(q, _) => {
            let (start, end) = q.predicate.time_span();
            (start / ROUTED_EPOCH == end / ROUTED_EPOCH)
                .then_some(start / ROUTED_EPOCH * ROUTED_EPOCH)
        }
        ServerRequest::Batch(..) => None,
    }
}

/// The closed loop of the traced run: each request gets a root `request`
/// span, then its stages are replayed under the same request id — the
/// codec on the request's own wire values, the engine on the in-process
/// oracle (phases from the `phase_breakdown` delta of that one call), and
/// on `routed_ingest` the same point query straight to the owning shard.
/// In-process workloads have nothing to replay: the root call *is* the
/// engine call and its phases are read from the system it ran on.
fn traced_loop(
    deployment: &Deployment,
    caller: &mut Caller<'_>,
    direct: &mut [WireSession],
    stream: &[ServerRequest],
    start: Instant,
    deadline: Instant,
    trace: &mut Trace,
) -> Vec<Sample> {
    let oracle = &deployment.oracle;
    let mut oracle_caller = deployment.oracle_caller();
    let mut samples = Vec::new();
    for (request_id, request) in (1u64..).zip(stream.iter().cycle()) {
        let sent = Instant::now();
        if sent >= deadline {
            break;
        }
        let phases_before = oracle.phase_breakdown();
        let answers = caller.call(request);
        let done = Instant::now();
        let root = trace.record(
            None,
            request_id,
            names::REQUEST,
            ns_since(start, sent),
            ns_since(start, done),
        );
        samples.push(Sample {
            done_ns: ns_since(start, done),
            latency_ns: ns_since(sent, done),
            queries: request.query_count() as u32,
            ok: answers_ok(request, &answers),
        });
        let Ok(answers) = answers else { continue };

        if matches!(caller, Caller::Local(_)) {
            let engine = trace.record(
                Some(root),
                request_id,
                names::ENGINE_EXECUTE,
                ns_since(start, sent),
                ns_since(start, done),
            );
            let delta = phase_delta(oracle.phase_breakdown(), phases_before);
            phase_spans(trace, engine, request_id, ns_since(start, sent), delta);
            continue;
        }

        // Over the wire. A single-shard request is first re-sent straight
        // to its shard; the replays below then decompose that round trip
        // (or the routed one, for requests that fan out).
        let mut parent = root;
        if let Some(epoch) = single_epoch(request).filter(|_| !direct.is_empty()) {
            let shard = shard_of_epoch(epoch, direct.len());
            let session = &mut direct[shard];
            let options = request_options(request);
            if let ServerRequest::Query(q, _) = request {
                let (_, id) = span(trace, start, root, request_id, names::SHARD_DIRECT, || {
                    session.execute_with(q, options)
                });
                parent = id;
            }
        }
        let wire_req = wire_request(request);
        let (req_bytes, _) = span(
            trace,
            start,
            parent,
            request_id,
            names::ENCODE_REQUEST,
            || serde::bin::to_bytes(&wire_req),
        );
        span(
            trace,
            start,
            parent,
            request_id,
            names::DECODE_REQUEST,
            || serde::bin::from_bytes::<Request>(&req_bytes).is_ok(),
        );
        let before = oracle.phase_breakdown();
        let t0 = Instant::now();
        let (_, engine) = span(
            trace,
            start,
            parent,
            request_id,
            names::ENGINE_EXECUTE,
            || oracle_caller.call(request),
        );
        let delta = phase_delta(oracle.phase_breakdown(), before);
        phase_spans(trace, engine, request_id, ns_since(start, t0), delta);
        let wire_resp = wire_response(request, &answers);
        let (resp_bytes, _) = span(
            trace,
            start,
            parent,
            request_id,
            names::ENCODE_RESPONSE,
            || serde::bin::to_bytes(&wire_resp),
        );
        span(
            trace,
            start,
            parent,
            request_id,
            names::DECODE_RESPONSE,
            || serde::bin::from_bytes::<Response>(&resp_bytes).is_ok(),
        );
    }
    samples
}
