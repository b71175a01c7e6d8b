//! Frame transports: how sealed wire frames move between a client and the
//! daemon.
//!
//! Two backends share one [`Transport`] trait:
//!
//! - [`duplex`]: an in-process pair over `std::sync::mpsc` channels —
//!   zero-copy `Vec<u8>` handoff, used by tests, benches and co-located
//!   clients. Each end's inbox sits behind a `Mutex` so the end is
//!   `Sync`; a receiver blocked on it holds that lock, and `close` wakes
//!   it without taking the lock.
//! - [`TcpTransport`]: a `std::net::TcpStream` carrying each frame behind
//!   a little-endian `u32` length prefix, for clients on other processes
//!   or hosts. Nagle's algorithm is off and prefix and frame leave in one
//!   write, so a request/response exchange never waits out the peer's
//!   delayed ACK.
//!
//! Both deliver whole frames or nothing: a TCP read timeout mid-frame
//! keeps the partial bytes buffered, so the next receive resumes where
//! the wire left off.
//!
//! In the daemon one end is used from three threads at once: the
//! connection thread blocks in [`Transport::recv_timeout`], the engine
//! thread sends the event and report frames of the connection's requests
//! (their rounds run on scoped threads of their own, which send nothing to
//! a transport), and `Server::shutdown` closes the end from the caller's
//! thread.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Largest frame either side will accept, bytes. Generous for reports
/// (genomes and fronts are small) while bounding a corrupted length
/// prefix.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Why a transport operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// No frame arrived within the timeout; the connection is still up.
    Timeout,
    /// The peer is gone (or `close` was called locally).
    Closed,
    /// An I/O-level failure (TCP only), stringified.
    Io(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Timeout => write!(f, "transport receive timed out"),
            TransportError::Closed => write!(f, "transport closed"),
            TransportError::Io(e) => write!(f, "transport I/O error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// One end of a frame pipe. Implementations are `Send + Sync`; the daemon
/// sends events from its engine thread while the connection thread blocks
/// in [`Transport::recv_timeout`].
pub trait Transport: Send + Sync {
    /// Ships one sealed frame.
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] when the peer (or this end) is gone,
    /// [`TransportError::Io`] on socket failures.
    fn send(&self, frame: &[u8]) -> Result<(), TransportError>;

    /// Waits up to `timeout` for the next whole frame.
    ///
    /// # Errors
    ///
    /// [`TransportError::Timeout`] when nothing whole arrived in time
    /// (partial bytes stay buffered), [`TransportError::Closed`] when the
    /// peer hung up, [`TransportError::Io`] on socket failures.
    fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, TransportError>;

    /// Closes both directions; blocked receivers on either end wake with
    /// [`TransportError::Closed`]. Idempotent.
    fn close(&self);
}

/// The in-process duplex backend: each end owns a sender into the peer's
/// inbox and a receiver over its own. A zero-length message is the close
/// sentinel (real frames are never empty — the header alone is 11 bytes).
pub struct DuplexTransport {
    /// Frames to the peer.
    out: Sender<Vec<u8>>,
    /// Frames from the peer, locked for the whole of a receive.
    inbox: Mutex<Receiver<Vec<u8>>>,
    /// Self-wake handle into our own inbox, so `close` can unblock a
    /// receiver parked on this very end.
    self_wake: Sender<Vec<u8>>,
    /// Shared by both ends: either side closing closes the pair.
    closed: Arc<AtomicBool>,
}

/// Creates a connected in-process transport pair (client end, server end).
pub fn duplex() -> (DuplexTransport, DuplexTransport) {
    let (a_tx, a_rx) = mpsc::channel();
    let (b_tx, b_rx) = mpsc::channel();
    let closed = Arc::new(AtomicBool::new(false));
    let client = DuplexTransport {
        out: a_tx.clone(),
        inbox: Mutex::new(b_rx),
        self_wake: b_tx.clone(),
        closed: Arc::clone(&closed),
    };
    let server = DuplexTransport {
        out: b_tx,
        inbox: Mutex::new(a_rx),
        self_wake: a_tx,
        closed,
    };
    (client, server)
}

impl Transport for DuplexTransport {
    fn send(&self, frame: &[u8]) -> Result<(), TransportError> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(TransportError::Closed);
        }
        self.out
            .send(frame.to_vec())
            .map_err(|_| TransportError::Closed)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        // A closed pair still drains frames queued before the close (e.g.
        // the daemon's Drain notice) — the sentinel sits behind them in
        // FIFO order, so this only stops *blocking*, never drops data.
        let timeout = if self.closed.load(Ordering::SeqCst) {
            Duration::ZERO
        } else {
            timeout
        };
        let received = self
            .inbox
            .lock()
            .expect("held only around recv_timeout")
            .recv_timeout(timeout);
        match received {
            Ok(frame) if frame.is_empty() => {
                // Close sentinel: re-arm it so sibling receivers (if the
                // transport is shared) wake too, then report closed.
                let _ = self.self_wake.send(Vec::new());
                Err(TransportError::Closed)
            }
            Ok(frame) => Ok(frame),
            Err(RecvTimeoutError::Timeout) if self.closed.load(Ordering::SeqCst) => {
                Err(TransportError::Closed)
            }
            Err(RecvTimeoutError::Timeout) => Err(TransportError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(TransportError::Closed),
        }
    }

    fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        // Wake the peer's receiver and our own; ignore errors from ends
        // already torn down.
        let _ = self.out.send(Vec::new());
        let _ = self.self_wake.send(Vec::new());
    }
}

/// Reader-side state of a [`TcpTransport`]: the stream handle plus the
/// partial-frame buffer that survives timeouts.
struct TcpReader {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// A length-prefixed frame pipe over `std::net::TcpStream`: each frame is
/// `len: u32 LE · frame bytes`. Reads run under `set_read_timeout`; a
/// timeout mid-frame loses nothing because partial bytes persist in the
/// reader buffer.
pub struct TcpTransport {
    reader: Mutex<TcpReader>,
    writer: Mutex<TcpStream>,
}

impl TcpTransport {
    /// Wraps a connected stream, switching Nagle's algorithm off.
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] when the stream cannot be configured or
    /// cloned into independent read/write halves.
    pub fn new(stream: TcpStream) -> Result<Self, TransportError> {
        let io = |e: std::io::Error| TransportError::Io(e.to_string());
        stream.set_nodelay(true).map_err(io)?;
        let writer = stream.try_clone().map_err(io)?;
        Ok(TcpTransport {
            reader: Mutex::new(TcpReader {
                stream,
                buf: Vec::new(),
            }),
            writer: Mutex::new(writer),
        })
    }

    /// Connects to a listening daemon.
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] on connect/clone failure.
    pub fn connect(addr: std::net::SocketAddr) -> Result<Self, TransportError> {
        let stream = TcpStream::connect(addr).map_err(|e| TransportError::Io(e.to_string()))?;
        Self::new(stream)
    }

    /// Pops one whole length-prefixed frame off `buf`, if present.
    fn extract(buf: &mut Vec<u8>) -> Result<Option<Vec<u8>>, TransportError> {
        if buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(TransportError::Io(format!("frame length {len} too large")));
        }
        if buf.len() < 4 + len {
            return Ok(None);
        }
        let frame = buf[4..4 + len].to_vec();
        buf.drain(..4 + len);
        Ok(Some(frame))
    }
}

impl Transport for TcpTransport {
    fn send(&self, frame: &[u8]) -> Result<(), TransportError> {
        let len = u32::try_from(frame.len())
            .map_err(|_| TransportError::Io("frame too large for length prefix".into()))?;
        let mut buf = Vec::with_capacity(4 + frame.len());
        buf.extend_from_slice(&len.to_le_bytes());
        buf.extend_from_slice(frame);
        let mut w = self.writer.lock().unwrap();
        w.write_all(&buf).map_err(|e| match e.kind() {
            std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::NotConnected => TransportError::Closed,
            _ => TransportError::Io(e.to_string()),
        })
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        let mut r = self.reader.lock().unwrap();
        if let Some(frame) = Self::extract(&mut r.buf)? {
            return Ok(frame);
        }
        // set_read_timeout(Some(0)) is an error; clamp to 1 ms.
        let timeout = timeout.max(Duration::from_millis(1));
        r.stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| TransportError::Io(e.to_string()))?;
        let mut chunk = [0u8; 8192];
        loop {
            match r.stream.read(&mut chunk) {
                Ok(0) => return Err(TransportError::Closed),
                Ok(n) => {
                    r.buf.extend_from_slice(&chunk[..n]);
                    if let Some(frame) = Self::extract(&mut r.buf)? {
                        return Ok(frame);
                    }
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Err(TransportError::Timeout);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::ConnectionReset
                        || e.kind() == std::io::ErrorKind::ConnectionAborted =>
                {
                    return Err(TransportError::Closed);
                }
                Err(e) => return Err(TransportError::Io(e.to_string())),
            }
        }
    }

    fn close(&self) {
        // Both halves clone one socket; one shutdown covers them. Blocked
        // reads on either end return 0 → Closed.
        let _ = self.writer.lock().unwrap().shutdown(Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn duplex_round_trips_frames_both_ways() {
        let (client, server) = duplex();
        client.send(b"ping").unwrap();
        assert_eq!(
            server.recv_timeout(Duration::from_secs(5)).unwrap(),
            b"ping"
        );
        server.send(b"pong").unwrap();
        assert_eq!(
            client.recv_timeout(Duration::from_secs(5)).unwrap(),
            b"pong"
        );
    }

    #[test]
    fn duplex_close_unblocks_both_ends() {
        let (client, server) = duplex();
        client.close();
        assert_eq!(
            server.recv_timeout(Duration::from_secs(5)),
            Err(TransportError::Closed)
        );
        assert_eq!(
            client.recv_timeout(Duration::from_secs(5)),
            Err(TransportError::Closed)
        );
        assert_eq!(client.send(b"x"), Err(TransportError::Closed));
    }

    #[test]
    fn duplex_close_delivers_frames_queued_before_it() {
        let (client, server) = duplex();
        server.send(b"drain-notice").unwrap();
        server.close();
        assert_eq!(
            client.recv_timeout(Duration::from_secs(5)).unwrap(),
            b"drain-notice"
        );
        assert_eq!(
            client.recv_timeout(Duration::from_secs(5)),
            Err(TransportError::Closed)
        );
    }

    #[test]
    fn duplex_close_wakes_a_receiver_already_blocked_on_that_end() {
        let (_client, server) = duplex();
        std::thread::scope(|s| {
            let blocked = s.spawn(|| {
                let t = std::time::Instant::now();
                (server.recv_timeout(Duration::from_secs(10)), t.elapsed())
            });
            // A receiver holds the inbox lock for as long as it waits.
            while !blocked.is_finished() && server.inbox.try_lock().is_ok() {
                std::thread::yield_now();
            }
            server.close();
            let (got, waited) = blocked.join().unwrap();
            assert_eq!(got, Err(TransportError::Closed));
            assert!(
                waited < Duration::from_secs(5),
                "close took {waited:?} to wake the receiver"
            );
        });
    }

    #[test]
    fn duplex_times_out_without_traffic() {
        let (client, _server) = duplex();
        assert_eq!(
            client.recv_timeout(Duration::from_millis(20)),
            Err(TransportError::Timeout)
        );
    }

    #[test]
    fn tcp_round_trips_and_reassembles_split_frames() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpTransport::connect(addr).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let server = TcpTransport::new(stream).unwrap();

        let big = vec![0xabu8; 100_000];
        client.send(&big).unwrap();
        client.send(b"tail").unwrap();
        assert_eq!(server.recv_timeout(Duration::from_secs(10)).unwrap(), big);
        assert_eq!(
            server.recv_timeout(Duration::from_secs(10)).unwrap(),
            b"tail"
        );

        server.send(b"reply").unwrap();
        assert_eq!(
            client.recv_timeout(Duration::from_secs(10)).unwrap(),
            b"reply"
        );
    }

    #[test]
    fn tcp_small_frame_ping_pong_does_not_wait_for_delayed_acks() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpTransport::connect(addr).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let server = TcpTransport::new(stream).unwrap();
        for end in [&client, &server] {
            assert!(end.writer.lock().unwrap().nodelay().unwrap());
            assert!(end.reader.lock().unwrap().stream.nodelay().unwrap());
        }
        let frame = [0x5au8; 64];
        let start = std::time::Instant::now();
        for _ in 0..50 {
            client.send(&frame).unwrap();
            let got = server.recv_timeout(Duration::from_secs(10)).unwrap();
            server.send(&got).unwrap();
            assert_eq!(client.recv_timeout(Duration::from_secs(10)).unwrap(), frame);
        }
        // With Nagle on and split writes each exchange waits out a delayed
        // ACK (tens of ms); 50 of them would take seconds.
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "50 ping-pongs took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn tcp_timeout_preserves_partial_frame() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = TcpStream::connect(addr).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let server = TcpTransport::new(stream).unwrap();

        // Send only the prefix + half the frame, let the server time out,
        // then finish; the frame must arrive intact.
        let frame = b"split-frame-payload".to_vec();
        let mut raw = raw;
        raw.write_all(&u32::try_from(frame.len()).unwrap().to_le_bytes())
            .unwrap();
        raw.write_all(&frame[..8]).unwrap();
        raw.flush().unwrap();
        assert_eq!(
            server.recv_timeout(Duration::from_millis(50)),
            Err(TransportError::Timeout)
        );
        raw.write_all(&frame[8..]).unwrap();
        raw.flush().unwrap();
        assert_eq!(server.recv_timeout(Duration::from_secs(10)).unwrap(), frame);
    }

    #[test]
    fn tcp_close_surfaces_as_closed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpTransport::connect(addr).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let server = TcpTransport::new(stream).unwrap();
        client.close();
        assert_eq!(
            server.recv_timeout(Duration::from_secs(10)),
            Err(TransportError::Closed)
        );
    }

    #[test]
    fn tcp_rejects_oversized_length_prefix() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut raw = TcpStream::connect(addr).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let server = TcpTransport::new(stream).unwrap();
        raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
        raw.flush().unwrap();
        match server.recv_timeout(Duration::from_secs(10)) {
            Err(TransportError::Io(msg)) => assert!(msg.contains("too large"), "{msg}"),
            other => panic!("expected Io error, got {other:?}"),
        }
    }
}
