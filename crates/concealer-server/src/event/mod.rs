//! The readiness-driven serving core ([`crate::ServerMode::Event`]).
//!
//! One event loop multiplexes every connection over the `mio` shim's
//! `Poll` (epoll on Linux, POSIX `poll(2)` elsewhere), so connection
//! count is decoupled from thread count — tens of thousands of mostly
//! idle clients cost file descriptors, not parked threads:
//!
//! ```text
//!             ┌───────────────────────────────────────────────┐
//!             │               event loop thread               │
//!  accept ───▶│ listener ──▶ Conn{ FrameDecoder │ out buffer }│◀── poll readiness
//!             │                   │ frames ▶ Machine ▶ steps  │
//!             │                   ▼                           │
//!             │              work queue ─▶ worker pool (N)    │
//!             │                   ▲              │            │
//!             │  completions ◀────┴──── done ────┘            │
//!             │  (drained every iteration; waker-notified)    │
//!             └───────────────────────────────────────────────┘
//! ```
//!
//! * **Reads** accumulate partial frames in a per-connection incremental
//!   [`FrameDecoder`](serde::frame::FrameDecoder); a request may arrive
//!   split across any number of readiness events.
//! * **The protocol** is the shared connection machine (`crate::conn`):
//!   every decoded frame goes in, and the loop only carries out the step
//!   that comes back — queue a reply, close, or hand a work item to the
//!   pool. Work completes out of order; while the machine takes no frame
//!   (pipeline cap, a pending `Hello`, a close waiting for replies) the
//!   loop stops reading that socket, so TCP flow control backpressures
//!   the client.
//! * **Writes** go to a per-connection buffer flushed eagerly and then
//!   on writable readiness; interest is re-registered only when it
//!   actually changes.
//! * **Drain** (signal or wire `Shutdown`) stops accepting and reading;
//!   already-dispatched requests complete and their replies flush, idle
//!   connections close cleanly, and the loop exits gracefully once —
//!   with a grace deadline against peers that stop reading.
//!
//! Nothing here changes the trust argument: this is untrusted-zone
//! plumbing around the same machine the threaded core drives.

mod conn;
mod workers;

use std::collections::HashMap;
use std::net::{Shutdown, TcpListener};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mio::{Events, Interest, Poll, Token, Waker};
use serde::frame::FrameError;

use crate::conn::{Shared, Step};
use crate::protocol::Request;
use crate::server::{busy_reply, ServeHandler, ServeReport};

use conn::{Closing, Conn};
use workers::WorkerPool;

/// Token of the accepting listener.
const LISTENER: usize = 0;
/// Token of the cross-thread waker (completions, shutdown signal).
const WAKER: usize = 1;
/// First connection id; ids are monotonic and never reused, so a stale
/// completion for a closed connection can never reach a new one.
const FIRST_CONN: u64 = 2;

/// Poll timeout when nothing time-based is pending (the waker covers
/// completions and shutdown, so this is only a liveness backstop).
const IDLE_POLL: Duration = Duration::from_millis(200);
/// Poll timeout while deadlines (linger, drain grace) are ticking.
const BUSY_POLL: Duration = Duration::from_millis(25);
/// How long a refused/lingering connection may take to read its last
/// frame and close before being dropped.
const LINGER_GRACE: Duration = Duration::from_millis(200);
/// How long a drain waits for in-flight replies to flush before
/// force-closing connections whose peers stopped reading.
const DRAIN_GRACE: Duration = Duration::from_secs(5);
/// Most bytes read from one connection per readiness event, for fairness
/// under level-triggered readiness (leftover bytes re-fire immediately).
const MAX_READ_PER_EVENT: usize = 64 * 1024;

/// Spawn the event serving thread. Returns the join handle and the wake
/// closure [`crate::ServerHandle::signal_shutdown`] uses to interrupt a
/// parked poll.
#[allow(clippy::type_complexity)]
pub(crate) fn spawn(
    handler: Arc<dyn ServeHandler>,
    shared: Arc<Shared>,
    listener: TcpListener,
) -> std::io::Result<(
    std::thread::JoinHandle<ServeReport>,
    Option<Arc<dyn Fn() + Send + Sync>>,
)> {
    let poll = Poll::new()?;
    let waker = Arc::new(Waker::new(&poll, Token(WAKER))?);
    let wake: Arc<dyn Fn() + Send + Sync> = {
        let waker = Arc::clone(&waker);
        Arc::new(move || {
            let _ = waker.wake();
        })
    };
    let pool = WorkerPool::spawn(handler, Arc::clone(&shared), Arc::clone(&waker));
    let event_loop = EventLoop {
        shared,
        listener,
        poll,
        waker,
        pool,
        conns: HashMap::new(),
        next_conn_id: FIRST_CONN,
        draining: false,
        drain_deadline: None,
        fatal: false,
        lingering: 0,
        rejected_busy: 0,
    };
    let thread = std::thread::Builder::new()
        .name("concealer-event".to_string())
        .spawn(move || event_loop.run())?;
    Ok((thread, Some(wake)))
}

struct EventLoop {
    shared: Arc<Shared>,
    listener: TcpListener,
    poll: Poll,
    waker: Arc<Waker>,
    pool: WorkerPool,
    conns: HashMap<u64, Conn>,
    next_conn_id: u64,
    draining: bool,
    drain_deadline: Option<Instant>,
    /// An unrecoverable listener/poller error: exit ungracefully.
    fatal: bool,
    /// Connections in linger-discard with a deadline pending.
    lingering: usize,
    rejected_busy: u64,
}

impl EventLoop {
    fn run(mut self) -> ServeReport {
        let mut events = Events::with_capacity(1024);
        if self
            .poll
            .register(&self.listener, Token(LISTENER), Interest::READABLE)
            .is_err()
        {
            self.fatal = true;
        }
        let mut graceful = false;
        while !self.fatal {
            let timeout = if self.draining || self.lingering > 0 {
                BUSY_POLL
            } else {
                IDLE_POLL
            };
            if let Err(e) = self.poll.poll(&mut events, Some(timeout)) {
                if e.kind() != std::io::ErrorKind::Interrupted {
                    break;
                }
            }
            self.shared
                .counters
                .loop_iterations
                .fetch_add(1, Ordering::Relaxed);
            for event in &events {
                match event.token().0 {
                    LISTENER => self.on_accept(),
                    WAKER => self.waker.ack(),
                    id => self.on_conn_event(id as u64, event.is_readable(), event.is_writable()),
                }
            }
            self.process_completions();
            if self.shared.draining() && !self.draining {
                self.begin_drain();
            }
            if self.draining {
                self.sweep();
            }
            self.check_deadlines();
            if self.draining && self.conns.is_empty() {
                graceful = true;
                break;
            }
        }
        // Workers finish any queued jobs; their replies have nowhere to
        // go (all connections are closed by now).
        self.pool.shutdown();
        let counters = &self.shared.counters;
        ServeReport {
            connections_served: counters.connections_served.load(Ordering::Relaxed),
            requests_served: counters.requests_served.load(Ordering::Relaxed),
            rejected_busy: self.rejected_busy,
            graceful,
        }
    }

    /// Accept until the listener would block.
    fn on_accept(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.draining {
                        continue; // Raced the drain; drop silently.
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let conn_id = self.next_conn_id;
                    self.next_conn_id += 1;
                    if !self.shared.has_room() {
                        self.rejected_busy += 1;
                        let mut conn = Conn::new(stream, &self.shared, false);
                        conn.queue_reply(&busy_reply());
                        conn.closing = Some(Closing::Linger);
                        self.settle(conn_id, conn);
                        continue;
                    }
                    self.shared.connection_opened();
                    let conn = Conn::new(stream, &self.shared, true);
                    self.settle(conn_id, conn);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.fatal = true;
                    break;
                }
            }
        }
    }

    /// Readiness on one connection: flush and/or read, then advance its
    /// state machine.
    fn on_conn_event(&mut self, conn_id: u64, readable: bool, writable: bool) {
        let Some(mut conn) = self.conns.remove(&conn_id) else {
            return; // Closed earlier this iteration; stale event.
        };
        if (writable || conn.has_pending_output()) && conn.flush().is_err() {
            self.close_conn(conn);
            return;
        }
        if readable && !self.read_ready(&mut conn) {
            self.close_conn(conn);
            return;
        }
        self.settle(conn_id, conn);
    }

    /// Pull bytes off a readable socket into the connection's decoder
    /// (or the discard sink while lingering). `false` = close now.
    fn read_ready(&mut self, conn: &mut Conn) -> bool {
        use std::io::Read as _;
        let mut buf = [0u8; 16 * 1024];
        if conn.discard_deadline.is_some() {
            // Lingering close: consume and ignore until EOF.
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => return false,
                    Ok(_) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => return false,
                }
            }
        }
        let mut taken = 0;
        loop {
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    conn.read_closed = true;
                    return true;
                }
                Ok(n) => {
                    conn.decoder.extend_from_slice(&buf[..n]);
                    taken += n;
                    if taken >= MAX_READ_PER_EVENT {
                        // Fairness cap; leftover bytes re-fire the
                        // level-triggered readiness immediately.
                        return true;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }

    /// Present every frame the machine will take, and end of stream once
    /// the peer half-closed and the buffer is decoded out.
    fn drive_decode(&mut self, conn_id: u64, conn: &mut Conn) {
        while conn.closing.is_none() && conn.machine.wants_frame() {
            let frame = match conn.decoder.try_decode::<Request>() {
                Ok(Some(request)) => Ok(request),
                Ok(None) if !conn.read_closed => return,
                // EOF classification is the caller's (see `FrameDecoder`).
                Ok(None) if conn.decoder.mid_frame() => {
                    Err(FrameError::Io(std::io::ErrorKind::UnexpectedEof.into()))
                }
                Ok(None) => Err(FrameError::Closed),
                Err(e) => Err(e),
            };
            let step = conn.machine.on_frame(frame);
            self.apply(conn_id, conn, step);
        }
    }

    /// Carry out one step of the machine.
    fn apply(&mut self, conn_id: u64, conn: &mut Conn, step: Step) {
        match step {
            Step::Wait => {}
            Step::Reply(reply) => conn.queue_reply(&reply),
            Step::Work(work) => self.pool.submit(conn_id, work),
            Step::Close(replies) => {
                for reply in &replies {
                    conn.queue_reply(reply);
                }
                conn.closing = Some(Closing::Drop);
            }
        }
    }

    /// Deliver finished work to its connection.
    fn process_completions(&mut self) {
        for (conn_id, done) in self.pool.drain_completions() {
            let Some(mut conn) = self.conns.remove(&conn_id) else {
                continue; // Connection died while its request executed.
            };
            let step = conn.machine.on_done(done);
            self.apply(conn_id, &mut conn, step);
            // Frames held back behind this work are decoded in `settle`.
            self.settle(conn_id, conn);
        }
    }

    /// Run a connection forward, then either re-track it (with its poller
    /// interest updated) or close it.
    fn settle(&mut self, conn_id: u64, mut conn: Conn) {
        if self.advance(conn_id, &mut conn) {
            self.update_interest(conn_id, &mut conn);
            self.conns.insert(conn_id, conn);
        } else {
            self.close_conn(conn);
        }
    }

    /// Decode → reply bookkeeping → flush → close transitions.
    /// `false` = close the connection now.
    fn advance(&mut self, conn_id: u64, conn: &mut Conn) -> bool {
        self.drive_decode(conn_id, conn);
        if conn.flush().is_err() {
            return false;
        }
        if !conn.has_pending_output() {
            match conn.closing {
                Some(Closing::Drop) => return false,
                Some(Closing::Linger) => {
                    if conn.discard_deadline.is_none() {
                        // Signal end-of-stream but give the peer a moment
                        // to take the final frame before the socket dies.
                        let _ = conn.stream.shutdown(Shutdown::Write);
                        conn.discard_deadline = Some(Instant::now() + LINGER_GRACE);
                        self.lingering += 1;
                    }
                }
                // The drain, transport side: a connection with nothing in
                // flight and nothing left to flush closes at the frame
                // boundary.
                None => {
                    if self.draining && conn.machine.is_idle() {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Compute and apply the poller interest a connection needs now,
    /// touching the poller only when it changed.
    fn update_interest(&mut self, conn_id: u64, conn: &mut Conn) {
        let readable = if conn.discard_deadline.is_some() {
            true // Keep draining the peer until it closes.
        } else {
            !conn.read_closed
                && conn.closing.is_none()
                && !self.draining
                && conn.machine.wants_frame()
        };
        let writable = conn.has_pending_output();
        let desired = match (readable, writable) {
            (true, true) => Some(Interest::READABLE | Interest::WRITABLE),
            (true, false) => Some(Interest::READABLE),
            (false, true) => Some(Interest::WRITABLE),
            (false, false) => None,
        };
        if desired == conn.interest {
            return;
        }
        let token = Token(conn_id as usize);
        let outcome = match (conn.interest, desired) {
            (None, Some(interest)) => self.poll.register(&conn.stream, token, interest),
            (Some(_), Some(interest)) => self.poll.reregister(&conn.stream, token, interest),
            (Some(_), None) => self.poll.deregister(&conn.stream),
            (None, None) => Ok(()),
        };
        conn.interest = if outcome.is_ok() { desired } else { None };
    }

    /// Deregister and drop a connection, maintaining the counters.
    fn close_conn(&mut self, conn: Conn) {
        if conn.interest.is_some() {
            let _ = self.poll.deregister(&conn.stream);
        }
        if conn.serving {
            self.shared.connection_closed();
        }
        if conn.discard_deadline.is_some() {
            self.lingering -= 1;
        }
    }

    /// Enter drain: stop accepting, stop reading, let in-flight replies
    /// flush, close idle connections.
    fn begin_drain(&mut self) {
        self.draining = true;
        self.drain_deadline = Some(Instant::now() + DRAIN_GRACE);
        let _ = self.poll.deregister(&self.listener);
    }

    /// Re-advance every connection (drain mode): closes the idle ones and
    /// those whose last reply has flushed.
    fn sweep(&mut self) {
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for conn_id in ids {
            if let Some(conn) = self.conns.remove(&conn_id) {
                self.settle(conn_id, conn);
            }
        }
    }

    /// Enforce linger and drain deadlines.
    fn check_deadlines(&mut self) {
        let now = Instant::now();
        if self.lingering > 0 {
            let expired: Vec<u64> = self
                .conns
                .iter()
                .filter(|(_, conn)| conn.discard_deadline.is_some_and(|d| now >= d))
                .map(|(&conn_id, _)| conn_id)
                .collect();
            for conn_id in expired {
                if let Some(conn) = self.conns.remove(&conn_id) {
                    self.close_conn(conn);
                }
            }
        }
        if self.draining && self.drain_deadline.is_some_and(|d| now >= d) && !self.conns.is_empty()
        {
            // Grace expired: peers holding their replies hostage get cut.
            for (_, conn) in std::mem::take(&mut self.conns) {
                self.close_conn(conn);
            }
        }
    }
}
