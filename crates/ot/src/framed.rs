//! Length-prefixed handshake frames over any byte [`Channel`].
//!
//! The protocol channels are pure byte streams: the receiver always knows
//! exactly how many bytes to expect. Only the serving handshake (`DSRV/4`)
//! exchanges self-describing lines, so [`FramedChannel`] moves whole
//! frames with `send_frame`/`recv_frame`, and every caller unwraps it with
//! `into_inner` as soon as its handshake is done.

use crate::channel::{Channel, ChannelError};

/// Upper bound on a frame's payload. Every frame is a handshake line of a
/// few hundred bytes; a header above this is corrupt framing (e.g. a
/// raw-stream peer) or a hostile one, refused before any of its claimed
/// body is allocated or awaited.
pub const MAX_FRAME_LEN: u32 = 4096;

/// A framing wrapper over any byte channel.
#[derive(Debug)]
pub struct FramedChannel<C: Channel> {
    inner: C,
}

impl<C: Channel> FramedChannel<C> {
    /// Wraps `inner`; both endpoints of a connection must agree to frame.
    pub fn new(inner: C) -> FramedChannel<C> {
        FramedChannel { inner }
    }

    /// Sends one length-prefixed frame (empty payloads are legal).
    ///
    /// # Errors
    ///
    /// Fails if the payload exceeds [`MAX_FRAME_LEN`] or the transport
    /// fails.
    pub fn send_frame(&mut self, payload: &[u8]) -> Result<(), ChannelError> {
        let len = u32::try_from(payload.len())
            .ok()
            .filter(|&l| l <= MAX_FRAME_LEN)
            .ok_or_else(|| {
                ChannelError::msg(format!(
                    "sending frame: payload of {} bytes exceeds the {MAX_FRAME_LEN}-byte cap",
                    payload.len()
                ))
            })?;
        self.inner.send(&len.to_le_bytes())?;
        self.inner.send(payload)
    }

    /// Receives one whole frame.
    ///
    /// # Errors
    ///
    /// Fails on transport failure or a corrupt (oversized) header.
    pub fn recv_frame(&mut self) -> Result<Vec<u8>, ChannelError> {
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

    /// Flushes the wrapped channel, e.g. before dropping it after a
    /// rejection frame.
    ///
    /// # Errors
    ///
    /// Fails if the transport fails.
    pub fn flush(&mut self) -> Result<(), ChannelError> {
        self.inner.flush()
    }

    /// Unwraps to the raw byte stream the protocol runs on.
    pub fn into_inner(self) -> C {
        self.inner
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
        assert_eq!(fa.into_inner().bytes_sent(), 5 + 1000 + 3 * 4);
    }

    #[test]
    fn oversized_header_is_a_diagnosable_error() {
        // A peer that doesn't frame: raw bytes read as an absurd length.
        // One byte over the cap is refused the same way, and nothing of
        // the claimed body is waited for.
        for len in [u32::MAX, MAX_FRAME_LEN + 1] {
            let (mut a, b) = mem_pair();
            let mut fb = FramedChannel::new(b);
            a.send(&len.to_le_bytes()).unwrap();
            let err = fb.recv_frame().unwrap_err();
            assert!(err.to_string().contains("corrupt framing"), "{err}");
        }
        let (a, _b) = mem_pair();
        let err = FramedChannel::new(a)
            .send_frame(&vec![0u8; MAX_FRAME_LEN as usize + 1])
            .unwrap_err();
        assert!(err.to_string().contains("cap"), "{err}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn framing_roundtrips_arbitrary_messages(
            sizes in proptest::collection::vec(0usize..600, 1..12),
            seed in any::<u64>(),
        ) {
            // Frames of arbitrary sizes (incl. 0) arrive whole and in order.
            let (a, b) = mem_pair();
            let (mut fa, mut fb) = (FramedChannel::new(a), FramedChannel::new(b));
            let mut x = seed | 1;
            let frames: Vec<Vec<u8>> = sizes
                .iter()
                .map(|&n| {
                    (0..n)
                        .map(|j| {
                            x = x.wrapping_mul(6364136223846793005).wrapping_add(j as u64);
                            (x >> 33) as u8
                        })
                        .collect()
                })
                .collect();
            for frame in &frames {
                fa.send_frame(frame).unwrap();
            }
            for frame in &frames {
                prop_assert_eq!(&fb.recv_frame().unwrap(), frame);
            }
            // Wire accounting: payload plus one 4-byte header per frame.
            let wire = sizes.iter().sum::<usize>() as u64 + 4 * sizes.len() as u64;
            prop_assert_eq!(fa.into_inner().bytes_sent(), wire);
            prop_assert_eq!(fb.into_inner().bytes_received(), wire);
        }
    }
}
