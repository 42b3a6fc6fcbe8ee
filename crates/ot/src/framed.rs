//! Length-prefixed message framing over any byte [`Channel`].
//!
//! The raw protocol channels are pure byte streams: the receiver always
//! knows exactly how many bytes to expect. Message-oriented layers
//! (handshakes, RPC-style control traffic, future multi-client routing)
//! instead want self-describing frames. [`FramedChannel`] provides both
//! views over one transport: `send_frame`/`recv_frame` move whole
//! messages, while the [`Channel`] impl re-exposes a byte stream whose
//! sends each travel as one frame and whose receives drain frames through
//! an inbox (so a single frame may satisfy several partial reads, and one
//! read may span several frames).

use std::collections::VecDeque;

use deepsecure_crypto::Block;

use crate::channel::{Channel, ChannelError};

/// Upper bound on a frame's payload; a header above this is corrupt
/// framing (e.g. a raw-stream peer), not a real message.
pub const MAX_FRAME_LEN: u32 = 1 << 30;

/// A framing wrapper over any byte channel.
///
/// Byte counters delegate to the wrapped channel and therefore include the
/// 4-byte frame headers — they report what actually crossed the wire.
#[derive(Debug)]
pub struct FramedChannel<C: Channel> {
    inner: C,
    inbox: VecDeque<u8>,
}

impl<C: Channel> FramedChannel<C> {
    /// Wraps `inner`; both endpoints of a connection must agree to frame.
    pub fn new(inner: C) -> FramedChannel<C> {
        FramedChannel {
            inner,
            inbox: VecDeque::new(),
        }
    }

    /// Sends one length-prefixed frame (empty payloads are legal).
    ///
    /// # Errors
    ///
    /// Fails if the payload exceeds [`MAX_FRAME_LEN`] or the transport
    /// fails.
    pub fn send_frame(&mut self, payload: &[u8]) -> Result<(), ChannelError> {
        self.send_header(payload.len())?;
        self.inner.send(payload)
    }

    /// Sends the header of a frame carrying `len` payload bytes.
    fn send_header(&mut self, len: usize) -> Result<(), ChannelError> {
        let len = u32::try_from(len)
            .ok()
            .filter(|&l| l <= MAX_FRAME_LEN)
            .ok_or_else(|| {
                ChannelError::msg(format!(
                    "sending frame: payload of {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"
                ))
            })?;
        self.inner.send(&len.to_le_bytes())
    }

    /// Receives one whole frame.
    ///
    /// # Errors
    ///
    /// Fails on transport failure, a corrupt (oversized) header, or if a
    /// partially drained byte-stream read left bytes in the inbox — the
    /// next header would then be read past buffered data, silently
    /// reordering the stream.
    pub fn recv_frame(&mut self) -> Result<Vec<u8>, ChannelError> {
        if !self.inbox.is_empty() {
            return Err(ChannelError::msg(format!(
                "receiving frame: {} byte-stream bytes still buffered from a partial \
                 recv(); draining frames here would reorder the stream",
                self.inbox.len()
            )));
        }
        self.recv_frame_raw()
    }

    /// Reads the next frame off the wire, ignoring the inbox (the
    /// byte-stream `recv` appends to the inbox, so ordering holds there).
    fn recv_frame_raw(&mut self) -> Result<Vec<u8>, ChannelError> {
        let header = self.inner.recv(4)?;
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        if len > MAX_FRAME_LEN {
            return Err(ChannelError::msg(format!(
                "receiving frame: header claims {len} bytes (cap {MAX_FRAME_LEN}) — \
                 corrupt framing or an unframed peer"
            )));
        }
        self.inner.recv(len as usize)
    }

    /// Shared access to the wrapped channel (e.g. for its counters).
    pub fn get_ref(&self) -> &C {
        &self.inner
    }

    /// Unwraps, discarding any partially drained inbox frame.
    pub fn into_inner(self) -> C {
        self.inner
    }
}

impl<C: Channel> Channel for FramedChannel<C> {
    fn send(&mut self, data: &[u8]) -> Result<(), ChannelError> {
        self.send_frame(data)
    }

    // One frame per block transfer, whatever its size: the header goes
    // first, the wrapped channel stages the payload behind it.
    fn send_blocks(&mut self, blocks: &[Block]) -> Result<(), ChannelError> {
        self.send_header(blocks.len() * 16)?;
        self.inner.send_blocks(blocks)
    }

    fn recv(&mut self, n: usize) -> Result<Vec<u8>, ChannelError> {
        while self.inbox.len() < n {
            let frame = self.recv_frame_raw()?;
            self.inbox.extend(frame);
        }
        Ok(self.inbox.drain(..n).collect())
    }

    fn flush(&mut self) -> Result<(), ChannelError> {
        self.inner.flush()
    }

    fn bytes_sent(&self) -> u64 {
        self.inner.bytes_sent()
    }

    fn bytes_received(&self) -> u64 {
        self.inner.bytes_received()
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use crate::channel::mem_pair;

    use super::*;

    #[test]
    fn whole_frames_roundtrip() {
        let (a, b) = mem_pair();
        let (mut fa, mut fb) = (FramedChannel::new(a), FramedChannel::new(b));
        fa.send_frame(b"alpha").unwrap();
        fa.send_frame(b"").unwrap();
        fa.send_frame(&[7u8; 1000]).unwrap();
        assert_eq!(fb.recv_frame().unwrap(), b"alpha");
        assert_eq!(fb.recv_frame().unwrap(), b"");
        assert_eq!(fb.recv_frame().unwrap(), vec![7u8; 1000]);
        // Counters include the empty payload and the three 4-byte headers.
        assert_eq!(fa.bytes_sent(), 5 + 1000 + 3 * 4);
    }

    #[test]
    fn a_block_transfer_is_one_frame_at_any_size() {
        // 20 000 blocks is more than one staging pass of the default
        // `send_blocks`; the frame count — and so the byte count — must
        // not depend on that.
        let (a, b) = mem_pair();
        let (mut fa, mut fb) = (FramedChannel::new(a), FramedChannel::new(b));
        let blocks: Vec<Block> = (0..20_000u128).map(Block::from).collect();
        fa.send_blocks(&blocks).unwrap();
        assert_eq!(fa.bytes_sent(), 4 + 16 * 20_000);
        let frame = fb.recv_frame().unwrap();
        assert_eq!(frame.len(), 16 * 20_000);
        fa.send_blocks(&blocks).unwrap();
        assert_eq!(fb.recv_blocks(20_000).unwrap(), blocks);
        assert_eq!(fb.bytes_received(), fa.bytes_sent());
    }

    #[test]
    fn recv_frame_refuses_to_skip_buffered_stream_bytes() {
        let (a, b) = mem_pair();
        let (mut fa, mut fb) = (FramedChannel::new(a), FramedChannel::new(b));
        fa.send_frame(b"abcd").unwrap();
        fa.send_frame(b"efgh").unwrap();
        assert_eq!(fb.recv(2).unwrap(), b"ab"); // 'cd' now sits in the inbox
        let err = fb.recv_frame().unwrap_err();
        assert!(err.to_string().contains("reorder"), "{err}");
        // The byte-stream view still delivers everything in order.
        assert_eq!(fb.recv(6).unwrap(), b"cdefgh");
    }

    #[test]
    fn oversized_header_is_a_diagnosable_error() {
        let (mut a, b) = mem_pair();
        let mut fb = FramedChannel::new(b);
        // A peer that doesn't frame: raw bytes read as an absurd length.
        a.send(&u32::MAX.to_le_bytes()).unwrap();
        let err = fb.recv_frame().unwrap_err();
        assert!(err.to_string().contains("corrupt framing"), "{err}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn framing_roundtrips_arbitrary_messages(
            sizes in proptest::collection::vec(0usize..600, 1..12),
            chunk in 1usize..97,
            seed in any::<u64>(),
        ) {
            // Messages of arbitrary sizes (incl. 0) sent as frames, read
            // back through the byte-stream view in fixed `chunk`-sized
            // partial reads that deliberately straddle frame boundaries.
            let (a, b) = mem_pair();
            let (mut fa, mut fb) = (FramedChannel::new(a), FramedChannel::new(b));
            let mut want: Vec<u8> = Vec::new();
            let mut x = seed | 1;
            for (i, &n) in sizes.iter().enumerate() {
                let payload: Vec<u8> = (0..n)
                    .map(|j| {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(j as u64);
                        (x >> 33) as u8
                    })
                    .collect();
                want.extend_from_slice(&payload);
                if i % 2 == 0 {
                    fa.send_frame(&payload).unwrap();
                } else {
                    // The Channel view frames identically.
                    fa.send(&payload).unwrap();
                }
            }
            let mut got: Vec<u8> = Vec::new();
            while got.len() < want.len() {
                let n = chunk.min(want.len() - got.len());
                got.extend(fb.recv(n).unwrap());
            }
            prop_assert_eq!(&got, &want);
            // Wire accounting: payload plus one 4-byte header per frame.
            let wire = want.len() as u64 + 4 * sizes.len() as u64;
            prop_assert_eq!(fa.bytes_sent(), wire);
            prop_assert_eq!(fb.bytes_received(), wire);
        }
    }
}
