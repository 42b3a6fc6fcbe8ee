//! Real socket transport: the byte-counted [`Channel`] over TCP.
//!
//! This is what separates the two parties into genuinely distinct
//! processes (the `two_party` binary) while running the *same* session
//! code as the in-memory tests. Writes go through a [`BufWriter`] so the
//! per-gate sends of the garbling stream coalesce into few syscalls; the
//! buffer is flushed automatically before any blocking read, which is what
//! keeps strictly alternating protocols (base OT, IKNP) deadlock-free.

use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::channel::{Channel, ChannelError};

/// Write-buffer capacity. Garbled-table sends are tens of KiB; one
/// buffer's worth per syscall keeps the hot path out of the kernel.
const WRITE_BUF: usize = 1 << 16;

/// A byte-counted duplex [`Channel`] over one TCP connection.
///
/// The counters count protocol payload bytes exactly as [`super::channel::MemChannel`]
/// does — a loopback run and an in-memory run of the same protocol report
/// identical totals (TCP/IP header overhead is not modelled; the 4-byte
/// headers of [`crate::FramedChannel`] handshake frames count as payload).
pub struct TcpChannel {
    /// The socket's two handles; `None` once [`TcpChannel::close`] has
    /// dropped them.
    io: Option<Io>,
    peer: SocketAddr,
    sent: u64,
    received: u64,
    /// Bytes written since the last flush — flushed lazily on `recv`.
    pending: bool,
}

struct Io {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl std::fmt::Debug for TcpChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpChannel")
            .field("peer", &self.peer)
            .field("sent", &self.sent)
            .field("received", &self.received)
            .finish_non_exhaustive()
    }
}

impl TcpChannel {
    /// Wraps an established stream (disables Nagle: the protocol is a
    /// ping-pong of latency-critical messages).
    ///
    /// # Errors
    ///
    /// Fails if the socket options cannot be read or set.
    pub fn from_stream(stream: TcpStream) -> std::io::Result<TcpChannel> {
        stream.set_nodelay(true)?;
        let peer = stream.peer_addr()?;
        let reader = BufReader::new(stream.try_clone()?);
        let writer = BufWriter::with_capacity(WRITE_BUF, stream);
        Ok(TcpChannel {
            io: Some(Io { reader, writer }),
            peer,
            sent: 0,
            received: 0,
            pending: false,
        })
    }

    /// Connects to a listening peer.
    ///
    /// # Errors
    ///
    /// Fails if the connection cannot be established.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<TcpChannel> {
        TcpChannel::from_stream(TcpStream::connect(addr)?)
    }

    /// Connects, retrying with capped exponential backoff until `timeout`
    /// elapses — lets a client process start before its server has bound
    /// the port without hammering the listener at a fixed cadence. Each
    /// backoff carries ±50% deterministic-per-process jitter (seeded from
    /// the process ID and attempt count), so a fleet of simultaneous
    /// clients does not retry in lockstep and reconnect stampedes spread
    /// out. Permanent errors (unresolvable host, unreachable network)
    /// surface immediately.
    ///
    /// # Errors
    ///
    /// Returns a [`ChannelError`] whose context records the attempt count
    /// and total elapsed time, with the last underlying
    /// [`std::io::Error`] as its source — either the first permanent
    /// error or the final refusal once `timeout` has elapsed.
    pub fn connect_retry<A: ToSocketAddrs + Clone>(
        addr: A,
        timeout: Duration,
    ) -> Result<TcpChannel, ChannelError> {
        const INITIAL_BACKOFF: Duration = Duration::from_millis(10);
        const MAX_BACKOFF: Duration = Duration::from_millis(500);
        let start = Instant::now();
        let mut backoff = INITIAL_BACKOFF;
        let mut attempts: u32 = 0;
        let mut jitter_state = u64::from(std::process::id()) ^ 0x5eed_cafe;
        loop {
            attempts += 1;
            match TcpChannel::connect(addr.clone()) {
                Ok(chan) => return Ok(chan),
                // Only the listener-not-up-yet races are worth waiting
                // out; anything else the first attempt already decided.
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::ConnectionRefused
                            | std::io::ErrorKind::ConnectionReset
                            | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    let elapsed = start.elapsed();
                    if elapsed >= timeout {
                        return Err(ChannelError::io(
                            format!(
                                "connecting: gave up after {attempts} attempts over \
                                 {:.2} s (capped exponential backoff with jitter)",
                                elapsed.as_secs_f64()
                            ),
                            e,
                        ));
                    }
                    // Full backoff ±50% jitter; never sleep past the
                    // deadline. Lockstep retries from many clients would
                    // otherwise synchronize their reconnect storms.
                    let sleep = crate::jittered(backoff, &mut jitter_state);
                    std::thread::sleep(sleep.min(timeout - elapsed));
                    backoff = (backoff * 2).min(MAX_BACKOFF);
                }
                Err(e) => {
                    return Err(ChannelError::io(
                        format!(
                            "connecting: permanent error on attempt {attempts} after \
                             {:.2} s",
                            start.elapsed().as_secs_f64()
                        ),
                        e,
                    ))
                }
            }
        }
    }

    /// Accepts one connection from a bound listener.
    ///
    /// # Errors
    ///
    /// Fails if accepting or configuring the connection fails.
    pub fn accept(listener: &TcpListener) -> std::io::Result<TcpChannel> {
        let (stream, _) = listener.accept()?;
        TcpChannel::from_stream(stream)
    }

    /// Sets per-operation socket timeouts (SO_RCVTIMEO / SO_SNDTIMEO):
    /// any single blocking read or write that stalls longer than its
    /// timeout fails with [`std::io::ErrorKind::WouldBlock`]/`TimedOut`
    /// instead of pinning the session forever — the per-phase deadline
    /// primitive under a session-level deadline. `None` restores blocking
    /// I/O.
    ///
    /// # Errors
    ///
    /// Fails if the socket options cannot be set (or a timeout is zero).
    pub fn set_io_timeouts(
        &mut self,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> std::io::Result<()> {
        let stream = self.io()?.reader.get_ref();
        stream.set_read_timeout(read)?;
        stream.set_write_timeout(write)?;
        Ok(())
    }

    /// The remote endpoint's address.
    pub fn peer_addr(&self) -> SocketAddr {
        self.peer
    }

    /// Closes this endpoint's socket now, without flushing: every later
    /// operation on the channel fails. A reconnecting client calls this
    /// *before* dialing again so the peer's blocked I/O on the dead
    /// connection fails promptly. It has to be a real close, not a
    /// `shutdown`: a peer stalled mid-write against a full receive window
    /// sees a `shutdown` only when its next segment gets through, which it
    /// never does, while closing a socket with unread data resets the
    /// connection at once.
    pub fn close(&mut self) {
        if let Some(io) = self.io.take() {
            // Dropping a `BufWriter` would flush it first.
            let (_stream, _unsent) = io.writer.into_parts();
        }
    }

    fn io(&mut self) -> std::io::Result<&mut Io> {
        self.io.as_mut().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotConnected, "channel closed locally")
        })
    }
}

impl Channel for TcpChannel {
    fn send(&mut self, data: &[u8]) -> Result<(), ChannelError> {
        let peer = self.peer;
        let writer = &mut self
            .io()
            .map_err(|e| ChannelError::io(format!("sending {} bytes to {peer}", data.len()), e))?
            .writer;
        if data.len() >= WRITE_BUF {
            // Write-through: a payload at least one buffer long (a garbled
            // table chunk, say) gains nothing from coalescing — route it
            // straight to the socket instead of memcpying it through the
            // buffer. Earlier buffered bytes drain first to keep order.
            writer.flush().map_err(|e| {
                ChannelError::io(format!("flushing to {peer} before write-through"), e)
            })?;
            writer.get_mut().write_all(data).map_err(|e| {
                ChannelError::io(
                    format!("sending {} bytes to {peer} (write-through)", data.len()),
                    e,
                )
            })?;
            self.sent += data.len() as u64;
            // Buffer drained and payload on the socket: nothing pending.
            self.pending = false;
            return Ok(());
        }
        writer
            .write_all(data)
            .map_err(|e| ChannelError::io(format!("sending {} bytes to {peer}", data.len()), e))?;
        self.sent += data.len() as u64;
        self.pending = true;
        Ok(())
    }

    fn recv(&mut self, n: usize) -> Result<Vec<u8>, ChannelError> {
        // A blocking read while our own output sits in the write buffer
        // would deadlock an alternating protocol: push it out first.
        if self.pending {
            self.flush()?;
        }
        let peer = self.peer;
        let mut buf = vec![0u8; n];
        self.io()
            .and_then(|io| io.reader.read_exact(&mut buf))
            .map_err(|e| {
                let context = if e.kind() == std::io::ErrorKind::UnexpectedEof {
                    format!("receiving {n} bytes from {peer}: peer disconnected mid-message")
                } else {
                    format!("receiving {n} bytes from {peer}")
                };
                ChannelError::io(context, e)
            })?;
        self.received += n as u64;
        Ok(buf)
    }

    fn flush(&mut self) -> Result<(), ChannelError> {
        let peer = self.peer;
        self.io()
            .and_then(|io| io.writer.flush())
            .map_err(|e| ChannelError::io(format!("flushing to {peer}"), e))?;
        self.pending = false;
        Ok(())
    }

    fn bytes_sent(&self) -> u64 {
        self.sent
    }

    fn bytes_received(&self) -> u64 {
        self.received
    }
}

/// Creates a connected loopback pair on an ephemeral port — the TCP
/// analogue of [`crate::mem_pair`], used by tests and benches.
///
/// # Errors
///
/// Fails if the loopback listener cannot be bound or connected to.
pub fn tcp_pair() -> std::io::Result<(TcpChannel, TcpChannel)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    // The kernel completes the handshake into the accept backlog, so the
    // sequential connect-then-accept cannot deadlock.
    let a = TcpChannel::connect(addr)?;
    let b = TcpChannel::accept(&listener)?;
    Ok((a, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_roundtrip_and_counters() {
        let (mut a, mut b) = tcp_pair().unwrap();
        a.send(b"hello").unwrap();
        a.send(b" world").unwrap();
        // recv flushes a's buffer lazily — but b's recv can't flush a's
        // writer; the data must already be on the wire after a.flush().
        a.flush().unwrap();
        assert_eq!(b.recv(11).unwrap(), b"hello world");
        assert_eq!(a.bytes_sent(), 11);
        assert_eq!(b.bytes_received(), 11);
    }

    #[test]
    fn duplex_ping_pong_with_lazy_flush() {
        let (mut a, mut b) = tcp_pair().unwrap();
        let t = std::thread::spawn(move || {
            // No explicit flush: b's recv must flush its pending send.
            b.send(b"pong").unwrap();
            assert_eq!(b.recv(4).unwrap(), b"ping");
            b
        });
        a.send(b"ping").unwrap();
        assert_eq!(a.recv(4).unwrap(), b"pong");
        t.join().unwrap();
    }

    #[test]
    fn disconnect_surfaces_peer_and_cause() {
        let (a, mut b) = tcp_pair().unwrap();
        drop(a);
        let err = b.recv(1).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("127.0.0.1"), "missing peer: {text}");
        assert!(text.contains("disconnected"), "missing cause: {text}");
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn connect_retry_waits_out_a_slow_listener() {
        // Reserve a port, free it, then rebind it a little later: the
        // client's first attempts are refused and the backoff loop must
        // win the race once the listener is up.
        let addr = {
            let probe = TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap()
        };
        let server = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            let listener = TcpListener::bind(addr).unwrap();
            let _conn = listener.accept().unwrap();
        });
        let chan = TcpChannel::connect_retry(addr, Duration::from_secs(10)).unwrap();
        assert_eq!(chan.peer_addr(), addr);
        server.join().unwrap();
    }

    #[test]
    fn connect_retry_exhaustion_reports_attempts_and_last_error() {
        // Nothing ever listens: the error must carry the retry story in
        // its context and the final io::Error as its source.
        let addr = {
            let probe = TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap()
        };
        let start = Instant::now();
        let err = TcpChannel::connect_retry(addr, Duration::from_millis(200)).unwrap_err();
        assert!(start.elapsed() >= Duration::from_millis(200));
        let text = err.to_string();
        assert!(text.contains("attempts"), "missing attempt count: {text}");
        assert!(
            std::error::Error::source(&err).is_some(),
            "last io::Error must be the source"
        );
    }

    #[test]
    fn large_writes_bypass_the_buffer_with_exact_counters() {
        // A payload ≥ the write buffer goes straight to the socket (no
        // memcpy through the 64 KiB buffer) — and the counters, ordering,
        // and interleaving with small buffered writes stay exact.
        let (mut a, mut b) = tcp_pair().unwrap();
        let small = vec![1u8; 100];
        let large = vec![2u8; WRITE_BUF + 4096]; // forces write-through
        let tail = vec![3u8; 7];
        let t = std::thread::spawn(move || {
            a.send(&small).unwrap(); // buffered
            a.send(&large).unwrap(); // drains the buffer, then direct
            a.send(&tail).unwrap(); // buffered again
            a.flush().unwrap();
            a
        });
        let total = 100 + WRITE_BUF + 4096 + 7;
        let got = b.recv(total).unwrap();
        assert!(got[..100].iter().all(|&x| x == 1));
        assert!(got[100..100 + WRITE_BUF + 4096].iter().all(|&x| x == 2));
        assert!(got[total - 7..].iter().all(|&x| x == 3));
        let a = t.join().unwrap();
        assert_eq!(a.bytes_sent(), total as u64);
        assert_eq!(b.bytes_received(), total as u64);
    }

    #[test]
    fn write_through_then_recv_does_not_deadlock() {
        // After a write-through send nothing is pending, but a recv that
        // follows small buffered sends must still flush them first.
        let (mut a, mut b) = tcp_pair().unwrap();
        let large = vec![9u8; WRITE_BUF];
        let t = std::thread::spawn(move || {
            b.send(&large).unwrap(); // write-through, no pending
            b.send(b"ask").unwrap(); // buffered
            assert_eq!(b.recv(2).unwrap(), b"ok"); // lazy flush of "ask"
            b
        });
        assert_eq!(a.recv(WRITE_BUF).unwrap(), vec![9u8; WRITE_BUF]);
        assert_eq!(a.recv(3).unwrap(), b"ask");
        a.send(b"ok").unwrap();
        a.flush().unwrap();
        t.join().unwrap();
    }

    #[test]
    fn block_helpers_work_over_tcp() {
        use deepsecure_crypto::Block;
        let (mut a, mut b) = tcp_pair().unwrap();
        let t = std::thread::spawn(move || {
            a.send_blocks(&[Block::from(7u128), Block::from(9u128)])
                .unwrap();
            a.send_bits(&[true, false, true]).unwrap();
            a.flush().unwrap();
            a
        });
        assert_eq!(
            b.recv_blocks(2).unwrap(),
            vec![Block::from(7u128), Block::from(9u128)]
        );
        assert_eq!(b.recv_bits().unwrap(), vec![true, false, true]);
        t.join().unwrap();
    }

    #[test]
    fn close_fails_a_peer_stalled_against_a_full_window() {
        // The sender streams far more than the socket buffers hold at a
        // receiver that never reads, so it ends up blocked in `write` with
        // the receive window shut. Closing the receiving end must fail
        // that write at once; a `shutdown` there would leave it blocked.
        use deepsecure_crypto::Block;
        let (mut a, mut b) = tcp_pair().unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let sender = std::thread::spawn(move || {
            let tables = vec![Block::ONES; 4 << 20];
            done_tx.send(a.send_blocks(&tables).is_err()).unwrap();
        });
        // Time for the sender to fill both socket buffers and block; not
        // an assertion — 64 MiB fits in no socket buffer, so however far it
        // got, the only way out of that `send_blocks` is an error.
        std::thread::sleep(Duration::from_millis(300));
        b.close();
        assert!(b.recv(1).is_err(), "a closed channel refuses further use");
        let failed = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the stalled sender must be released by the close");
        assert!(failed, "64 MiB cannot have been delivered to a closed peer");
        sender.join().unwrap();
    }
}
