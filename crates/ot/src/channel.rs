//! Byte-counted duplex channels between protocol parties.

use std::collections::VecDeque;
use std::fmt;
use std::sync::mpsc::{channel, Receiver, Sender};

use deepsecure_crypto::Block;

/// Error raised when a channel operation fails mid-protocol.
///
/// Carries a human-readable context string (what the channel was doing and
/// how far it got) plus, where one exists, the underlying [`std::io::Error`]
/// — so a two-process failure is diagnosable from a single CI log line
/// instead of an opaque "channel closed".
#[derive(Debug)]
pub struct ChannelError {
    context: String,
    source: Option<std::io::Error>,
}

impl ChannelError {
    /// A failure with no underlying I/O error (peer hung up, corrupt frame).
    pub fn msg(context: impl Into<String>) -> ChannelError {
        ChannelError {
            context: context.into(),
            source: None,
        }
    }

    /// A failure caused by an underlying I/O error.
    pub fn io(context: impl Into<String>, source: std::io::Error) -> ChannelError {
        ChannelError {
            context: context.into(),
            source: Some(source),
        }
    }

    /// What the channel was doing when it failed.
    pub fn context(&self) -> &str {
        &self.context
    }
}

impl fmt::Display for ChannelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.source {
            Some(e) => write!(f, "channel failure while {}: {e}", self.context),
            None => write!(f, "channel failure while {}", self.context),
        }
    }
}

impl std::error::Error for ChannelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.source
            .as_ref()
            .map(|e| e as &(dyn std::error::Error + 'static))
    }
}

/// Blocks per staging-buffer pass of [`Channel::send_blocks`] and
/// [`Channel::recv_blocks_into`]: 256 KiB of wire bytes — one default
/// streamed table chunk (8192 gates × two rows), so a chunk stays a single
/// `send`/`recv`, and well past [`crate::TcpChannel`]'s write buffer, so
/// each pass is a write-through.
const STAGE_BLOCKS: usize = 16_384;

/// A reliable, ordered, byte-counted duplex channel.
///
/// The byte counters are load-bearing: the "Comm." columns of the paper's
/// Tables 4–6 are *measured* through them whenever a circuit is actually
/// executed.
pub trait Channel {
    /// Sends all of `data`.
    ///
    /// # Errors
    ///
    /// Fails if the peer has disconnected.
    fn send(&mut self, data: &[u8]) -> Result<(), ChannelError>;

    /// Receives exactly `n` bytes (blocking).
    ///
    /// Implementations that buffer writes (e.g. [`crate::TcpChannel`]) must
    /// flush any pending output before blocking here, so that strictly
    /// alternating protocols cannot deadlock on buffered data.
    ///
    /// # Errors
    ///
    /// Fails if the peer disconnects before `n` bytes arrive.
    fn recv(&mut self, n: usize) -> Result<Vec<u8>, ChannelError>;

    /// Pushes any buffered output to the peer.
    ///
    /// Unbuffered channels need not override the default no-op. Callers
    /// must flush after the final send of a session: mid-protocol sends are
    /// flushed implicitly by the next `recv`, but a trailing send would
    /// otherwise sit in the buffer forever.
    ///
    /// # Errors
    ///
    /// Fails if the peer has disconnected.
    fn flush(&mut self) -> Result<(), ChannelError> {
        Ok(())
    }

    /// Total bytes sent so far.
    fn bytes_sent(&self) -> u64;

    /// Total bytes received so far.
    fn bytes_received(&self) -> u64;

    /// Sends one 128-bit block.
    fn send_block(&mut self, b: Block) -> Result<(), ChannelError> {
        self.send(&b.to_bytes())
    }

    /// Receives one 128-bit block.
    fn recv_block(&mut self) -> Result<Block, ChannelError> {
        let bytes = self.recv(16)?;
        let mut arr = [0u8; 16];
        arr.copy_from_slice(&bytes);
        Ok(Block::from_bytes(arr))
    }

    /// Sends a slice of blocks back-to-back.
    ///
    /// Blocks are serialised through one 256 KiB staging buffer, a `send`
    /// per fill, so a 224 MB table never exists a second time as bytes.
    ///
    /// On a plain byte stream that moves the same bytes as one big `send`.
    /// A wrapper whose `send` means more than "these bytes next" — a slot
    /// on a fault schedule ([`crate::FaultChannel`], which also overrides
    /// [`Channel::recv_blocks_into`]) — must override this so a block
    /// transfer stays one message, as that one does.
    fn send_blocks(&mut self, blocks: &[Block]) -> Result<(), ChannelError> {
        let mut stage = Vec::with_capacity(blocks.len().min(STAGE_BLOCKS) * 16);
        for part in blocks.chunks(STAGE_BLOCKS) {
            stage.clear();
            for b in part {
                stage.extend_from_slice(&b.to_bytes());
            }
            self.send(&stage)?;
        }
        Ok(())
    }

    /// Receives `n` blocks.
    fn recv_blocks(&mut self, n: usize) -> Result<Vec<Block>, ChannelError> {
        let mut out = Vec::new();
        self.recv_blocks_into(&mut out, n)?;
        Ok(out)
    }

    /// Receives `n` blocks, appending them to `out` — a caller that clears
    /// and reuses one `out` across a stream of chunks allocates it once.
    ///
    /// The bytes arrive at most 256 KiB per `recv` and are decoded
    /// straight into `out`, so no `n × 16`-byte intermediate is built.
    fn recv_blocks_into(&mut self, out: &mut Vec<Block>, n: usize) -> Result<(), ChannelError> {
        out.reserve(n);
        let mut left = n;
        while left > 0 {
            let take = left.min(STAGE_BLOCKS);
            let bytes = self.recv(take * 16)?;
            out.extend(bytes.chunks_exact(16).map(|c| {
                let mut arr = [0u8; 16];
                arr.copy_from_slice(c);
                Block::from_bytes(arr)
            }));
            left -= take;
        }
        Ok(())
    }

    /// Sends a `u64` (little endian).
    fn send_u64(&mut self, v: u64) -> Result<(), ChannelError> {
        self.send(&v.to_le_bytes())
    }

    /// Receives a `u64`.
    fn recv_u64(&mut self) -> Result<u64, ChannelError> {
        let bytes = self.recv(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(&bytes);
        Ok(u64::from_le_bytes(arr))
    }

    /// Sends a length-prefixed byte string.
    fn send_bytes(&mut self, data: &[u8]) -> Result<(), ChannelError> {
        self.send_u64(data.len() as u64)?;
        self.send(data)
    }

    /// Receives a length-prefixed byte string.
    fn recv_bytes(&mut self) -> Result<Vec<u8>, ChannelError> {
        let n = self.recv_u64()? as usize;
        self.recv(n)
    }

    /// Sends a packed bit vector (length-prefixed, LSB-first packing).
    fn send_bits(&mut self, bits: &[bool]) -> Result<(), ChannelError> {
        let mut packed = vec![0u8; bits.len().div_ceil(8)];
        for (i, &bit) in bits.iter().enumerate() {
            packed[i / 8] |= u8::from(bit) << (i % 8);
        }
        self.send_u64(bits.len() as u64)?;
        self.send(&packed)
    }

    /// Receives a packed bit vector.
    fn recv_bits(&mut self) -> Result<Vec<bool>, ChannelError> {
        let n = self.recv_u64()? as usize;
        let packed = self.recv(n.div_ceil(8))?;
        Ok((0..n)
            .map(|i| (packed[i / 8] >> (i % 8)) & 1 == 1)
            .collect())
    }
}

/// An in-memory channel endpoint built over `std::sync::mpsc` queues.
pub struct MemChannel {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    inbox: VecDeque<u8>,
    sent: u64,
    received: u64,
}

impl fmt::Debug for MemChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemChannel")
            .field("sent", &self.sent)
            .field("received", &self.received)
            .finish_non_exhaustive()
    }
}

/// Creates a connected pair of in-memory channel endpoints.
pub fn mem_pair() -> (MemChannel, MemChannel) {
    let (tx_a, rx_b) = channel();
    let (tx_b, rx_a) = channel();
    (
        MemChannel {
            tx: tx_a,
            rx: rx_a,
            inbox: VecDeque::new(),
            sent: 0,
            received: 0,
        },
        MemChannel {
            tx: tx_b,
            rx: rx_b,
            inbox: VecDeque::new(),
            sent: 0,
            received: 0,
        },
    )
}

impl Channel for MemChannel {
    fn send(&mut self, data: &[u8]) -> Result<(), ChannelError> {
        self.sent += data.len() as u64;
        self.tx.send(data.to_vec()).map_err(|_| {
            ChannelError::msg(format!(
                "sending {} bytes over mem channel: peer disconnected",
                data.len()
            ))
        })
    }

    fn recv(&mut self, n: usize) -> Result<Vec<u8>, ChannelError> {
        while self.inbox.len() < n {
            let buffered = self.inbox.len();
            let chunk = self.rx.recv().map_err(|_| {
                ChannelError::msg(format!(
                    "receiving over mem channel: peer disconnected with \
                     {buffered} of {n} bytes buffered"
                ))
            })?;
            self.inbox.extend(chunk);
        }
        self.received += n as u64;
        Ok(self.inbox.drain(..n).collect())
    }

    fn bytes_sent(&self) -> u64 {
        self.sent
    }

    fn bytes_received(&self) -> u64 {
        self.received
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_bytes_and_counters() {
        let (mut a, mut b) = mem_pair();
        a.send(b"hello").unwrap();
        a.send(b" world").unwrap();
        assert_eq!(b.recv(11).unwrap(), b"hello world");
        assert_eq!(a.bytes_sent(), 11);
        assert_eq!(b.bytes_received(), 11);
    }

    #[test]
    fn partial_reads() {
        let (mut a, mut b) = mem_pair();
        a.send(&[1, 2, 3, 4, 5]).unwrap();
        assert_eq!(b.recv(2).unwrap(), vec![1, 2]);
        assert_eq!(b.recv(3).unwrap(), vec![3, 4, 5]);
    }

    #[test]
    fn blocks_and_u64() {
        let (mut a, mut b) = mem_pair();
        a.send_block(Block::from(42u128)).unwrap();
        a.send_u64(7).unwrap();
        a.send_blocks(&[Block::from(1u128), Block::from(2u128)])
            .unwrap();
        assert_eq!(b.recv_block().unwrap(), Block::from(42u128));
        assert_eq!(b.recv_u64().unwrap(), 7);
        assert_eq!(
            b.recv_blocks(2).unwrap(),
            vec![Block::from(1u128), Block::from(2u128)]
        );
    }

    #[test]
    fn block_transfers_cross_the_staging_buffer() {
        // Lengths on both sides of one and two staging passes; appending
        // into a reused buffer keeps what was there.
        let (mut a, mut b) = mem_pair();
        for n in [
            0usize,
            1,
            STAGE_BLOCKS - 1,
            STAGE_BLOCKS,
            2 * STAGE_BLOCKS + 3,
        ] {
            let blocks: Vec<Block> = (0..n as u128).map(|i| Block::from(i * 7 + 1)).collect();
            a.send_blocks(&blocks).unwrap();
            assert_eq!(b.recv_blocks(n).unwrap(), blocks);
            assert_eq!(a.bytes_sent(), b.bytes_received());
        }
        a.send_blocks(&[Block::from(5u128), Block::from(6u128)])
            .unwrap();
        let mut out = vec![Block::from(4u128)];
        b.recv_blocks_into(&mut out, 2).unwrap();
        assert_eq!(out, [4u128, 5, 6].map(Block::from));
    }

    #[test]
    fn bit_vectors() {
        let (mut a, mut b) = mem_pair();
        let bits = vec![true, false, true, true, false, false, true, false, true];
        a.send_bits(&bits).unwrap();
        assert_eq!(b.recv_bits().unwrap(), bits);
    }

    #[test]
    fn disconnect_is_an_error() {
        let (a, mut b) = mem_pair();
        drop(a);
        assert!(b.recv(1).is_err());
    }

    #[test]
    fn duplex() {
        let (mut a, mut b) = mem_pair();
        a.send(b"ping").unwrap();
        b.send(b"pong").unwrap();
        assert_eq!(b.recv(4).unwrap(), b"ping");
        assert_eq!(a.recv(4).unwrap(), b"pong");
    }
}
