//! Per-connection transport state for the event core: the incremental
//! frame decoder on the read side, the pending-reply buffer on the write
//! side, the protocol machine between them, and the socket-lifecycle
//! flags the loop steers by.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

use serde::frame::FrameDecoder;

use crate::conn::{Machine, Shared};
use crate::protocol::Response;

/// How a connection ends once its output buffer drains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Closing {
    /// Flush pending replies, then drop the socket (normal close: Bye,
    /// fatal protocol errors, drain of an idle connection).
    Drop,
    /// Flush, then shut the write half down and keep discarding the
    /// peer's bytes until it closes or a deadline passes. Used for busy
    /// refusals, where dropping a socket with unread client bytes can
    /// RST the refusal frame out of the peer's receive queue.
    Linger,
}

/// One live connection owned by the event loop.
pub(super) struct Conn {
    pub(super) stream: TcpStream,
    pub(super) decoder: FrameDecoder,
    /// Reply bytes not yet written; `out_pos` marks how far the socket
    /// has taken them.
    pub(super) out: Vec<u8>,
    pub(super) out_pos: usize,
    /// What the bytes mean: every frame decoded goes in, every reply
    /// queued comes out.
    pub(super) machine: Machine,
    /// Close style to apply once `out` is flushed; `None` = keep serving.
    pub(super) closing: Option<Closing>,
    /// Set once a `Linger` close has shut the write half: discard reads
    /// until the peer closes or this deadline passes.
    pub(super) discard_deadline: Option<Instant>,
    /// The peer half-closed (EOF on read). Pending replies still flush.
    pub(super) read_closed: bool,
    /// Interest currently registered with the poller (`None` =
    /// deregistered, e.g. the machine takes no frame and nothing is
    /// waiting to be written).
    pub(super) interest: Option<mio::Interest>,
    /// Whether this connection counts toward the serving cap (busy
    /// refusals do not).
    pub(super) serving: bool,
}

/// What [`Conn::flush`] left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum FlushState {
    /// Everything queued has been written.
    Drained,
    /// The socket would block; bytes remain (register WRITABLE).
    Pending,
}

impl Conn {
    pub(super) fn new(stream: TcpStream, shared: &Arc<Shared>, serving: bool) -> Conn {
        Conn {
            stream,
            decoder: FrameDecoder::new(shared.config.max_frame_len),
            out: Vec::new(),
            out_pos: 0,
            machine: Machine::new(Arc::clone(shared)),
            closing: None,
            discard_deadline: None,
            read_closed: false,
            interest: None,
            serving,
        }
    }

    /// Encode a reply frame onto the output buffer (actual socket writes
    /// happen in [`Conn::flush`]).
    pub(super) fn queue_reply(&mut self, reply: &Response) {
        // Vec<u8> is an infallible Write with a no-op flush, and Response
        // encoding cannot exceed u32::MAX here (requests are already
        // frame-capped), so this cannot fail.
        serde::frame::write_frame(&mut self.out, reply).expect("encoding a reply into memory");
    }

    /// Write buffered reply bytes until done or the socket would block.
    pub(super) fn flush(&mut self) -> std::io::Result<FlushState> {
        use std::io::Write as _;
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    return Ok(FlushState::Pending)
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        Ok(FlushState::Drained)
    }

    /// Whether reply bytes are still waiting for the socket.
    pub(super) fn has_pending_output(&self) -> bool {
        self.out_pos < self.out.len()
    }
}
